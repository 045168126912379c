import json

import numpy as np
import pytest

from paretocert import cli, pareto
from paretocert.problems import AxisSpec, GridSpec, load_problem, sample_criterion_space

SOLAND = {
    "type": "analytic",
    "decision_dim": 1,
    "criterion_dim": 2,
    "domain": [[0, 4]],
    "criteria": ["x0^2", "-x0^3"],
    "constraints": {"ineq": ["-y0"], "eq": ["y1 + y0^1.5"]},
}

PLANE2D = {
    "type": "analytic",
    "decision_dim": 2,
    "criterion_dim": 3,
    "domain": [[0, 1], [0, 1]],
    "criteria": ["x0", "x1", "-(x0^2 + x1^2)"],
    "constraints": {
        "ineq": ["-y0", "-y1", "y0 - 1", "y1 - 1"],
        "eq": ["y2 + y0^2 + y1^2"],
    },
}

CLOUD = {"type": "cloud", "criterion_dim": 2, "points": [[0, 0], [1, 0]]}


@pytest.fixture
def soland_file(tmp_path):
    path = tmp_path / "soland.json"
    path.write_text(json.dumps(SOLAND))
    return str(path)


@pytest.fixture
def cloud_file(tmp_path):
    path = tmp_path / "cloud.json"
    path.write_text(json.dumps(CLOUD))
    return str(path)


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_improper_point(soland_file, capsys):
    code, out, _ = _run(
        capsys, "classify", soland_file, "--point-decision", "0", "--refine", "20",
        "--grid", "65",
    )
    assert code == 0
    payload = json.loads(out)
    record = payload["points"][0]
    assert record["efficient"] is True
    assert record["divergence"]["growth"] is True
    assert record["proper_efficiency"]["status"] == "improper_suspected"


def test_classify_proper_point(soland_file, capsys):
    code, out, _ = _run(
        capsys, "classify", soland_file, "--point-decision", "1", "--levels", "20",
        "--grid", "257",
    )
    assert code == 0
    record = json.loads(out)["points"][0]
    assert record["efficient"] is True
    assert record["divergence"]["growth"] is False
    assert record["proper_efficiency"]["m_hat"] == pytest.approx(1.5, abs=0.01)


def test_classify_cloud_marks_dominated_point(cloud_file, capsys):
    code, out, _ = _run(capsys, "classify", cloud_file)
    assert code == 0
    records = json.loads(out)["points"]
    assert records[0]["criterion"] == [0.0, 0.0]
    assert records[0]["efficient"] is False
    assert records[1]["efficient"] is True


def test_support_vanishing(soland_file, capsys):
    code, out, _ = _run(
        capsys, "support", soland_file, "--point", "0,0", "--levels", "20", "--grid", "65"
    )
    assert code == 0
    record = json.loads(out)["points"][0]
    trend = record["trend"]
    assert trend["verdict"] == "vanishing"
    for k, margin in zip(trend["levels"], trend["margins"]):
        x_min = 2.0 ** -k
        assert margin == pytest.approx(x_min / (1 + x_min), abs=1e-9)
    assert record["witness"] is None


def test_support_persistent_with_witness(soland_file, capsys):
    code, out, _ = _run(
        capsys, "support", soland_file, "--point", "1,-1", "--levels", "16", "--grid", "257"
    )
    assert code == 0
    record = json.loads(out)["points"][0]
    assert record["trend"]["verdict"] == "persistent"
    assert record["witness"]["verification"]["all_passed"] is True


def test_support_on_cloud_point_outside_hull(cloud_file, capsys):
    code, out, _ = _run(capsys, "support", cloud_file, "--point", "5,5")
    assert code == 0
    record = json.loads(out)["points"][0]
    assert record["margin"]["margin"] > 0  # every cut is slack from above


def test_cloud_witness_reuses_the_margin_lp(cloud_file, capsys, monkeypatch):
    calls = []
    solve = cli.support.support_margin

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli.support, "support_margin", counting)
    code, out, _ = _run(capsys, "support", cloud_file, "--point", "1,0")
    assert code == 0
    assert json.loads(out)["points"][0]["witness"]["verification"]["all_passed"] is True
    assert len(calls) == 1


def test_kkt_obstruction(soland_file, capsys):
    code, out, _ = _run(capsys, "kkt", soland_file, "--point", "0,0")
    assert code == 0
    record = json.loads(out)["points"][0]
    cert = record["certificate"]
    assert cert["conclusion"] == "obstruction"
    assert "v(1,0) < v(0,0) forced" in cert["probe_line"]
    assert record["licq"]["rank"] == 2


def test_kkt_positive_control(soland_file, capsys):
    code, out, _ = _run(capsys, "kkt", soland_file, "--point", "1,-1")
    assert code == 0
    cert = json.loads(out)["points"][0]["certificate"]
    assert cert["conclusion"] == "no_obstruction"
    assert cert["sigma"] == pytest.approx([1.5, 1.0], abs=1e-9)


def test_kkt_on_cloud_is_an_input_error(cloud_file, capsys):
    code, _, err = _run(capsys, "kkt", cloud_file, "--point", "0,0")
    assert code == 2
    assert "constraint description" in err


def test_kkt_licq_failure_exits_4(tmp_path, capsys):
    doc = dict(SOLAND)
    doc["constraints"] = {"ineq": [], "eq": ["y1 + y0^1.5", "2*y1 + 2*y0^1.5"]}
    path = tmp_path / "dependent.json"
    path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, "kkt", str(path), "--point", "0,0")
    assert code == 4
    assert "singular values" in err


def test_missing_file_exits_2(capsys):
    code, _, err = _run(capsys, "classify", "no-such-file.json")
    assert code == 2
    assert "error:" in err


def test_malformed_point_exits_2(soland_file, capsys):
    code, _, err = _run(capsys, "kkt", soland_file, "--point", "fish")
    assert code == 2


@pytest.mark.parametrize("text", ["nan,0", "inf,0", "0,-inf"])
def test_non_finite_point_exits_2(cloud_file, capsys, text):
    code, _, err = _run(capsys, "report", cloud_file, f"--point={text}")
    assert code == 2
    assert "finite" in err


def test_efficient_matches_pairwise_dominance_loop(tmp_path, capsys):
    rng = np.random.default_rng(11)
    for case in range(40):
        p = int(rng.integers(2, 5))
        # small integer coordinates create ties, duplicates and references
        # equal to cloud points
        points = rng.integers(-2, 3, size=(int(rng.integers(1, 30)), p)).tolist()
        refs = points[:3] + rng.integers(-2, 3, size=(4, p)).tolist()
        path = tmp_path / f"cloud{case}.json"
        path.write_text(json.dumps({"type": "cloud", "criterion_dim": p, "points": points}))
        flags = ["--point=" + ",".join(str(v) for v in ref) for ref in refs]
        code, out, _ = _run(capsys, "classify", str(path), *flags)
        assert code == 0
        for record in json.loads(out)["points"]:
            dominated = any(pareto.dominates(y, record["criterion"]) for y in points)
            assert record["efficient"] is not dominated


def test_witness_command(soland_file, capsys):
    code, out, _ = _run(capsys, "witness", soland_file, "--point", "1,-1", "--grid", "257")
    assert code == 0
    record = json.loads(out)["points"][0]
    assert record["margin"]["margin"] == pytest.approx(0.4, abs=0.01)
    assert record["witness"]["verification"]["all_passed"] is True


def test_witness_command_refuses_unsupported_point(cloud_file, capsys):
    code, _, err = _run(capsys, "witness", cloud_file, "--point", "0,0")
    assert code == 2
    assert "no positive support" in err


def test_report_covers_both_landmark_points(soland_file, capsys):
    code, out, _ = _run(capsys, "report", soland_file, "--levels", "12", "--grid", "65")
    assert code == 0
    payload = json.loads(out)
    by_criterion = {tuple(r["criterion"]): r for r in payload["points"]}
    corner = by_criterion[(0.0, 0.0)]
    assert corner["efficient"] is True
    assert corner["divergence"]["growth"] is True
    assert corner["support"]["trend"]["verdict"] == "vanishing"
    assert corner["kkt"]["certificate"]["conclusion"] == "obstruction"
    interior = by_criterion[(1.0, -1.0)]
    assert interior["efficient"] is True
    assert interior["divergence"]["growth"] is False
    assert interior["support"]["trend"]["verdict"] == "persistent"
    assert interior["kkt"]["certificate"]["conclusion"] == "no_obstruction"
    assert interior["support"]["witness"]["verification"]["all_passed"] is True


@pytest.mark.parametrize(
    "points", [["--point-decision", "1"], ["--point=1,-1"], []], ids=["decision", "point", "probes"]
)
def test_every_sampling_uses_the_feasibility_tolerance(tmp_path, capsys, points):
    doc = dict(SOLAND, constraints={"ineq": ["-y0"], "eq": ["y1 + y0^3/2 + 0.00000001"]})
    path = tmp_path / "offset.json"
    path.write_text(json.dumps(doc))
    argv = ["report", str(path), *points, "--levels", "6", "--grid", "33"]
    code, _, err = _run(capsys, *argv)
    assert code == 2 and "inconsistent" in err  # h = 1e-8 exceeds the default 1e-9
    code, out, err = _run(capsys, *argv, "--tol-feas", "1e-6")
    assert code == 0, err
    for record in json.loads(out)["points"]:
        assert len(record["divergence"]["ratios"]) == 6
        assert len(record["support"]["trend"]["margins"]) == 6


def test_report_samples_once(soland_file, capsys, monkeypatch):
    calls = []
    sample = cli.sample_criterion_space

    def counting(*args, **kwargs):
        calls.append(args)
        return sample(*args, **kwargs)

    monkeypatch.setattr(cli, "sample_criterion_space", counting)
    code, _, _ = _run(
        capsys, "report", soland_file, "--point-decision", "0", "--point-decision", "1",
        "--levels", "14", "--grid", "33",
    )
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "doc, anchors, grid",
    [
        (SOLAND, [(0.0,), (1.6875,), (4.0,)], 65),
        (PLANE2D, [(0.0, 0.0), (1.0, 0.3), (0.3, 0.6)], 9),
    ],
    ids=["soland", "plane2d"],
)
def test_witness_cloud_equals_fresh_sampling(doc, anchors, grid):
    problem = load_problem(json.dumps(doc))
    cfg = cli.Config(levels=14, grid=grid)
    specs = [cli._PointSpec(decision=a, criterion=problem.criteria_at(a)) for a in anchors]
    cloud = cli._analysis_cloud(problem, specs, cfg)
    for spec in specs:
        axes = tuple(
            (AxisSpec.uniform(grid), AxisSpec.geometric(spec.decision[d], 12))
            for d in range(problem.decision_dim)
        )
        fresh = sample_criterion_space(problem, GridSpec(axes))
        cut = cli._witness_cloud(problem, spec, cfg, cloud)
        assert repr(cut.points) == repr(fresh.points)
        assert repr(cut.decisions) == repr(fresh.decisions)
        assert cut.provenance == fresh.provenance


def test_report_is_byte_identical_across_runs(soland_file, tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["report", soland_file, "--levels", "10", "--grid", "33"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_report_echoes_configuration(soland_file, capsys):
    code, out, _ = _run(
        capsys, "report", soland_file, "--levels", "8", "--grid", "17",
        "--tol-active", "1e-6",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["tol_active"] == 1e-6
    assert payload["config"]["levels"] == 8
    assert payload["tool"]["name"] == "paretocert"


def test_csv_extracts(soland_file, tmp_path, capsys):
    csv_dir = tmp_path / "csv"
    code, _, _ = _run(
        capsys, "report", soland_file, "--levels", "8", "--grid", "17",
        "--csv", str(csv_dir),
    )
    assert code == 0
    names = sorted(p.name for p in csv_dir.iterdir())
    assert "sample_points.csv" in names
    assert any(name.startswith("margin_point") for name in names)
    assert any(name.startswith("divergence_point") for name in names)
    header = (csv_dir / "sample_points.csv").read_text().splitlines()[0]
    assert header == "x0,y0,y1"


def test_builtin_source(capsys):
    code, out, _ = _run(capsys, "kkt", "builtin:soland", "--point", "0,0")
    assert code == 0
    assert json.loads(out)["problem"]["source"] == "builtin:soland"


def test_numerical_failure_exits_3(tmp_path, capsys):
    doc = {
        "type": "analytic",
        "decision_dim": 1,
        "criterion_dim": 2,
        "domain": [[0, 1]],
        "criteria": ["1/x0", "-x0"],
    }
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, "classify", str(path), "--point-decision", "0.5")
    assert code == 3
    assert "numerical failure" in err


def test_deep_soland_ladder_follows_the_margin_to_its_limit(capsys):
    # at depth 40 the cuts near the origin differ by about 1e-12
    code, out, _ = _run(capsys, "report", "builtin:soland", "--levels", "40")
    assert code == 0
    for record in json.loads(out)["points"]:
        x = record["decision"][0]
        trend = record["support"]["trend"]
        if x == 0.0:
            offset = 2.0 ** -40
            assert trend["verdict"] == "vanishing"
            assert abs(trend["margins"][-1] - offset / (1.0 + offset)) <= 1e-15
        else:
            expected = min(1.5 * x, 1.0) / (1.5 * x + 1.0)
            assert trend["verdict"] == "persistent"
            assert abs(trend["margins"][-1] - expected) <= 1e-9
            assert abs(record["support"]["margin"]["margin"] - expected) <= 1e-9


@pytest.mark.xfail(
    strict=True,
    reason="from level 41 on, the 1e-12 tie window of the ratio test in linprog._entering "
    "lets the wrong row leave and the origin's margin reads -0.0 (ROADMAP item 2)",
)
def test_deepest_soland_origin_margins_stay_positive(capsys):
    # the margin at level k is 2^-k / (1 + 2^-k)
    code, out, _ = _run(capsys, "report", "builtin:soland", "--levels", "60", "--point-decision", "0")
    assert code == 0
    margins = json.loads(out)["points"][0]["support"]["trend"]["margins"]
    assert all(m > 0 for m in margins[40:])


def test_plane2d_deep_ladders_solve(tmp_path, capsys):
    path = tmp_path / "plane2d.json"
    path.write_text(json.dumps(PLANE2D))
    code, _, err = _run(capsys, "report", str(path), "--grid", "9", "--levels", "11")
    assert code == 0, err


def test_witness_sample_is_the_cloud_written_to_csv(tmp_path, capsys):
    csv_dir = tmp_path / "csv"
    code, out, _ = _run(
        capsys, "witness", "builtin:soland", "--point-decision", "1",
        "--point-decision", "2.5", "--csv", str(csv_dir),
    )
    assert code == 0
    rows = (csv_dir / "sample_points.csv").read_text().splitlines()[1:]
    assert json.loads(out)["sample"]["size"] == len(rows)


@pytest.mark.parametrize("command", ["report", "kkt"])
def test_default_probes_are_placed_without_sampling(tmp_path, capsys, monkeypatch, command):
    path = tmp_path / "plane2d.json"
    path.write_text(json.dumps(PLANE2D))
    calls = []
    sample = cli.sample_criterion_space

    def counting(*args, **kwargs):
        calls.append(args)
        return sample(*args, **kwargs)

    monkeypatch.setattr(cli, "sample_criterion_space", counting)
    code, out, err = _run(capsys, command, str(path), "--grid", "5", "--levels", "3")
    assert code == 0, err
    assert len(calls) == 1
    problem = load_problem(json.dumps(PLANE2D))
    records = json.loads(out)["points"]
    axis = [0.0, 0.25, 0.5, 0.75, 1.0]
    assert [tuple(r["decision"]) for r in records] == [(a, b) for a in axis for b in axis]
    for record in records:
        assert tuple(record["criterion"]) == problem.criteria_at(record["decision"])
