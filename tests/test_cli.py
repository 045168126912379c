import copy
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from paretocert import cli, geoffrion, linprog, pareto, support
from paretocert.problems import (
    AxisSpec,
    GridSpec,
    PointCloud,
    axis_indices,
    grid_nodes,
    load_problem,
    sample_criterion_space,
)

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

# three decisions: the lexicographic order of three axes
CUBE3D = {
    "type": "analytic",
    "decision_dim": 3,
    "criterion_dim": 3,
    "domain": [[0, 1], [0, 1], [0, 1]],
    "criteria": ["x0 + x2", "x1 - x2", "-(x0^2 + x1^2 + x2^2)"],
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


FLOAT_SETTINGS = [f.name for f in dataclasses.fields(cli.Config) if type(f.default) is float]


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("flag", [cli._flag(name) for name in FLOAT_SETTINGS])
def test_non_finite_or_negative_float_setting_exits_2(tmp_path, capsys, flag, value):
    # a constraint description that no image satisfies: sampling exits 2 on
    # it, and a NaN --tol-feas used to pass every feasibility check
    path = tmp_path / "inconsistent.json"
    path.write_text(json.dumps(dict(SOLAND, constraints={"ineq": ["-y0"], "eq": ["y1 + y0"]})))
    code, out, err = _run(capsys, "report", str(path), "--grid", "9", "--levels", "2", f"{flag}={value}")
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be a finite number >= 0\n"


def test_float_settings_may_be_zero():
    assert len(FLOAT_SETTINGS) == 8
    zeros = [f"{cli._flag(name)}=0" for name in FLOAT_SETTINGS]
    cfg = cli._config_from_args(cli.build_parser().parse_args(["kkt", "builtin:soland", *zeros]))
    assert [getattr(cfg, name) for name in FLOAT_SETTINGS] == [0.0] * 8


@pytest.mark.parametrize(
    "doc, where",
    [
        ({"type": "cloud", "criterion_dim": 2, "points": [[0, 10**400]]}, "cloud.points[0][1]"),
        (dict(SOLAND, domain=[[0, -(10**400)]]), "problem.domain[0][1]"),
    ],
    ids=["cloud_point", "domain_bound"],
)
def test_integer_beyond_the_float_range_exits_2(tmp_path, capsys, doc, where):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, "classify", str(path), "--point", "0,0")
    assert code == 2
    assert f"{where}: non-finite value" in err


@pytest.mark.parametrize(
    "criterion, position",
    [("x0/1" + "0" * 400 + " - x0", 3), ("1" + "0" * 400 + "*x0", 0)],
    ids=["divisor", "factor"],
)
def test_literal_beyond_the_float_range_exits_2(tmp_path, capsys, criterion, position):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(dict(SOLAND, criteria=["x0^2", criterion], constraints={})))
    code, out, err = _run(capsys, "report", str(path))
    assert code == 2
    assert out == ""
    assert err == (
        "error: problem.criteria[1]: numeric literal beyond the float range"
        f" (at position {position})\n"
    )


@pytest.mark.parametrize(
    "points",
    [[[1e308, -1e308], [-1e308, 1e308]], [[1e308, -1e308, 0.0], [-1e308, 1e308, 0.0], [0.0, 0.0, 0.0]]],
    ids=["p2", "p3"],
)
@pytest.mark.parametrize("command", ["report", "support", "witness"])
def test_overflowing_differences_exit_2(tmp_path, capsys, points, command):
    # finite points whose difference to the first one overflows to inf
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"type": "cloud", "criterion_dim": len(points[0]), "points": points}))
    code, out, err = _run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    ref = tuple(float(v) for v in points[0])
    assert err == f"error: point 1: y - y_ref is not finite at {ref}\n"


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


def test_points_share_one_locating_cloud(tmp_path, capsys, monkeypatch):
    path = tmp_path / "plane2d.json"
    path.write_text(json.dumps(PLANE2D))
    problem = load_problem(json.dumps(PLANE2D))
    locating = GridSpec.uniform(2, 65)
    argv = ["classify", str(path), "--grid", "9", "--levels", "4"] + [
        f"--point={y}" for y in ("0.3,0.6,-0.45", "1,0,-1", "0.5,0.5,-0.5")
    ]

    def per_point(cloud, y_ref):
        # each point located on a fresh sample of the locating grid
        fresh = sample_criterion_space(problem, locating, tol_feas=cli.Config().tol_feas)
        errors = np.max(np.abs(fresh.as_array() - np.asarray(y_ref)), axis=1)
        return tuple(fresh.decision_array()[int(np.argmin(errors))].tolist())

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_locate_decision", per_point)
        code, want, err = _run(capsys, *argv)
    assert code == 0, err
    grids = []
    sample = cli.sample_criterion_space

    def recording(problem, grid, **kwargs):
        grids.append(grid)
        return sample(problem, grid, **kwargs)

    monkeypatch.setattr(cli, "sample_criterion_space", recording)
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    assert grids.count(locating) == 1
    assert out == want


def joined_grid(problem, anchors, count, levels):
    """The uniform grid joined with every anchor's refinement to ``levels``."""
    return GridSpec(tuple(
        (AxisSpec.uniform(count),) + tuple(AxisSpec.geometric(a[d], levels) for a in anchors)
        for d in range(problem.decision_dim)
    ))


def uniform_indices(problem, cfg, cloud):
    """The indices of the uniform grid in each axis of the analysis cloud,
    which ``cli.main`` looks up once per command."""
    return axis_indices(problem, cloud, GridSpec.uniform(problem.decision_dim, cfg.grid))


def test_located_point_probes_its_decisions_image(tmp_path, capsys):
    # (0.3, 0.6, -0.45) is off the locating grid: its trade-off bounds are
    # against the point, its divergence probe against the located decision's
    # image, whose ratios differ
    path = tmp_path / "plane2d.json"
    path.write_text(json.dumps(PLANE2D))
    code, out, err = _run(
        capsys, "classify", str(path), "--grid", "9", "--levels", "4", "--point=0.3,0.6,-0.45"
    )
    assert code == 0, err
    [record] = json.loads(out)["points"]
    problem = load_problem(json.dumps(PLANE2D))
    spec = cli._PointSpec(decision=tuple(record["decision"]), criterion=(0.3, 0.6, -0.45))
    cfg = cli.Config(grid=9, levels=4)
    cloud = cli._analysis_cloud(problem, [spec], cfg)
    ladder = cli._ladder(problem, cloud, spec, cfg)
    image = geoffrion.divergence_probe(cloud, ladder, problem.criteria_at(spec.decision))
    point = geoffrion.divergence_probe(cloud, ladder, spec.criterion)
    assert record["divergence"]["ratios"] == list(image.ratios) != list(point.ratios)


@pytest.mark.parametrize(
    "doc, anchors, grid, levels",
    [
        (SOLAND, [(0.0,), (1.6875,), (4.0,)], 65, 14),
        (PLANE2D, [(0.0, 0.0), (1.0, 0.3), (0.3, 0.6)], 9, 14),
        (CUBE3D, [(0.0, 0.5, 1.0), (0.25, 0.75, 0.3)], 5, 5),
    ],
    ids=["soland", "plane2d", "cube3d"],
)
def test_witness_cloud_equals_fresh_sampling(doc, anchors, grid, levels):
    problem = load_problem(json.dumps(doc))
    cfg = cli.Config(levels=levels, grid=grid)
    specs = [cli._PointSpec(decision=a, criterion=problem.criteria_at(a)) for a in anchors]
    cloud = cli._analysis_cloud(problem, specs, cfg)
    uniform = uniform_indices(problem, cfg, cloud)
    for spec in specs:
        axes = tuple(
            (AxisSpec.uniform(grid), AxisSpec.geometric(spec.decision[d], min(levels, 12)))
            for d in range(problem.decision_dim)
        )
        fresh = sample_criterion_space(problem, GridSpec(axes))
        rows = cli._witness_rows(problem, spec, cfg, cloud, uniform)
        assert cloud.as_array()[rows].tobytes() == fresh.as_array().tobytes()
        assert cloud.decision_array()[rows].tobytes() == fresh.decision_array().tobytes()


def placed_probes(problem, cfg):
    """The analysis cloud of a default-probe command and the placed probes."""
    probes = [
        cli._PointSpec(decision=tuple(x), criterion=None)
        for x in grid_nodes(problem, cli._probe_grid(problem)).tolist()
    ]
    cloud = cli._analysis_cloud(problem, probes, cfg)
    return cloud, cli._place_probes(problem, probes, cloud, cfg)


@pytest.mark.parametrize(
    "doc, grid, levels",
    [(SOLAND, 257, 24), (SOLAND, 257, 60), (PLANE2D, 9, 8)],
    ids=["soland-24", "soland-60", "plane2d"],
)
def test_point_margins_equal_fresh_samples(doc, grid, levels):
    # a point's margin, trend and witness margin are margins over row sets of
    # its one cut matrix; each must be the margin of a fresh sample of that row
    # set's grid, binding rows and sample size included
    problem = load_problem(json.dumps(doc))
    cfg = cli.Config(levels=levels, grid=grid)
    cloud, specs = placed_probes(problem, cfg)

    def fresh(grid_spec, y):
        return support.support_margin(sample_criterion_space(problem, grid_spec), y)

    analysis = joined_grid(problem, [s.decision for s in specs], cfg.grid, cfg.levels)
    uniform = uniform_indices(problem, cfg, cloud)
    for spec in specs:
        y = spec.criterion
        cuts = support.prepare_cuts(cloud, y)
        assert repr(support.support_margin(cuts)) == repr(fresh(analysis, y))
        ladder = cli._ladder(problem, cloud, spec, cfg)
        trend = support.support_trend(cuts, ladder)
        for k, margin in zip(trend.levels, trend.margins):
            want = fresh(GridSpec.geometric(spec.decision, k), y)
            assert repr(margin) == repr(want.margin)
            level = ladder.rows[ladder.entry <= k]
            assert repr(support.support_margin(cuts, rows=level)) == repr(want)
        assert repr(trend.last) == repr(want)
        witness_grid = joined_grid(problem, [spec.decision], cfg.grid, min(cfg.levels, 12))
        witness_margin, _ = cli._build_witness_dict(problem, spec, cfg, cloud, cuts, uniform)
        assert repr(witness_margin) == repr(fresh(witness_grid, y))


def plain_lists(value):
    """``value`` with every tuple turned into a list, recursively."""
    if isinstance(value, dict):
        return {k: plain_lists(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain_lists(v) for v in value]
    return value


def stdlib_text(payload):
    """The reference serialization of a report: the json module's indented encoder."""
    return json.dumps(payload, indent=2, sort_keys=True, default=cli._json_default) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["builtin:soland", "--levels", "24"]
        + [f"--point-decision={x}" for x in ("0", "1.6875", "3", "4")],
        ["plane2d", "--grid", "9", "--levels", "8"],
    ],
    ids=["soland", "plane2d"],
)
def test_records_equal_asdict_of_their_reports(tmp_path, monkeypatch, capsys, argv):
    # records are built field by field; dataclasses.asdict, which they
    # replace, is the reference, with the dropped fields deleted after it
    if argv[0] == "plane2d":
        argv[0] = str(tmp_path / "plane2d.json")
        (tmp_path / "plane2d.json").write_text(json.dumps(PLANE2D))
    calls, payloads = [], []
    as_record, payload = cli._as_record, cli._payload

    def recording(report, *drop):
        record = as_record(report, *drop)
        calls.append((report, drop, copy.deepcopy(record)))  # as made, before any edit
        return record

    monkeypatch.setattr(cli, "_as_record", recording)
    monkeypatch.setattr(cli, "_payload", lambda *a: payloads.append(payload(*a)) or payloads[-1])
    code, out, err = _run(capsys, "report", *argv)
    assert code == 0, err
    for report, drop, record in calls:
        want = dataclasses.asdict(report)
        for name in drop:
            del want[name]
        assert json.loads(json.dumps(record, default=cli._json_default)) == plain_lists(want)
    kinds = {type(report).__name__ for report, _, _ in calls}
    assert kinds >= {
        "Config", "ProperEfficiencyReport", "WorstPair", "DivergenceEvidence", "MarginReport",
        "TrendReport", "ValueFunctionWitness", "WitnessVerification", "WitnessCheck",
        "LicqReport", "ObstructionCertificate",
    }
    [payload_dict] = payloads
    assert stdlib_text(payload_dict) == out


# a seeded p = 3 cloud on the surface y2 = -(y0^2 + y1^2), so margins are LPs
_SURFACE = np.random.default_rng(7).random((12, 2))
SURFACE_CLOUD = {
    "type": "cloud",
    "criterion_dim": 3,
    "points": np.column_stack([_SURFACE, -(_SURFACE ** 2).sum(axis=1)]).tolist(),
}


@pytest.mark.parametrize(
    "problem, command",
    [
        (problem, command)
        for problem in ("soland", "plane2d", "cloud")
        for command in ("classify", "support", "kkt", "witness", "report")
        if (problem, command) != ("cloud", "kkt")  # a cloud has no constraint description
    ],
)
def test_every_command_prints_the_stdlib_serialization(tmp_path, monkeypatch, capsys, command, problem):
    # the file names hold a non-ASCII character and a double quote, which
    # problem.source echoes as escapes
    if problem == "soland":
        argv = ["builtin:soland", "--grid", "33", "--levels", "8", "--point-decision=1"]
        argv += [] if command == "witness" else ["--point-decision=0"]
    elif problem == "plane2d":
        path = tmp_path / 'plane2d "ü".json'
        path.write_text(json.dumps(PLANE2D))
        argv = [str(path), "--grid", "5", "--levels", "4"]
        argv += ["--point-decision=0.5,0.5"] if command == "witness" else []
    else:
        path = tmp_path / 'cloud "ü".json'
        path.write_text(json.dumps(SURFACE_CLOUD))
        argv = [str(path)]
        argv += [f"--point={','.join(map(repr, SURFACE_CLOUD['points'][3]))}"] if command == "witness" else []
    payloads = []
    payload = cli._payload
    monkeypatch.setattr(cli, "_payload", lambda *a: payloads.append(payload(*a)) or payloads[-1])
    code, out, err = _run(capsys, command, *argv)
    assert code == 0, err
    [payload_dict] = payloads
    assert out == stdlib_text(payload_dict)
    assert out.isascii()


def test_main_keeps_no_state_between_calls(capsys):
    # the parser is shared by every call of main: each call's output must
    # equal that of a fresh process, whatever flags the calls before it had
    runs = [
        ["report", "builtin:soland", "--grid", "17", "--levels", "6", "--point-decision=1"],
        ["report", "builtin:soland", "--grid", "17", "--levels", "3", "--point=2.25,-3.375"],
        ["report", "builtin:soland", "--grid", "17"],
    ]
    in_process = [_run(capsys, *argv) for argv in runs]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    for argv, (code, out, err) in zip(runs, in_process):
        fresh = subprocess.run(
            [sys.executable, "-m", "paretocert.cli", *argv],
            env=env, capture_output=True, text=True, check=False,
        )
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert len(json.loads(in_process[2][1])["points"]) == 5  # the default probes


def test_unwritable_report_exits_2(tmp_path, capsys):
    out_path = tmp_path / "no-such-dir" / "r.json"
    code, out, err = _run(capsys, "kkt", "builtin:soland", "--point=0,0", "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {out_path}: No such file or directory\n"


@pytest.mark.parametrize("command", ["report", "kkt"])
def test_unreadable_problem_exits_2(tmp_path, capsys, command):
    not_utf8 = tmp_path / "utf16.json"
    not_utf8.write_bytes(b"\xff\xfe{}")
    reasons = {
        str(tmp_path): "Is a directory",
        str(not_utf8): "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
    }
    for path, reason in reasons.items():
        code, out, err = _run(capsys, command, path)
        assert (code, out, err) == (2, "", f"error: cannot read {path}: {reason}\n")


@pytest.mark.parametrize("command", ["report", "kkt"])
def test_non_ascii_letter_in_an_expression_exits_2(tmp_path, capsys, command):
    path = tmp_path / "letter.json"
    path.write_text(json.dumps(dict(SOLAND, criteria=["x0^2", "é"], constraints={})))
    code, out, err = _run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err == (
        "error: problem.criteria[1]: unexpected character 'é'"
        " (at position 0, expected number | variable | operator)\n"
    )


def test_csv_directory_that_is_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code, out, err = _run(
        capsys, "classify", "builtin:soland", "--grid", "9", "--levels", "2", "--csv", str(taken),
    )
    assert code == 2
    assert json.loads(out)["command"] == "classify"  # the report was written before
    assert err == f"error: cannot write {taken}: File exists\n"


@pytest.mark.parametrize("command", ["report", "support"])
def test_each_point_normalizes_its_cuts_once(tmp_path, monkeypatch, capsys, command):
    # one normalization of the analysis cloud's cuts per point, and no cloud
    # but the analysis cloud: ladders, witness samples and probes are row
    # sets of it
    path = tmp_path / "plane2d.json"
    path.write_text(json.dumps(PLANE2D))
    normalized, clouds = [], []
    prepare_cuts = support.prepare_cuts
    monkeypatch.setattr(
        support,
        "prepare_cuts",
        lambda cloud, y_ref: normalized.append(len(cloud)) or prepare_cuts(cloud, y_ref),
    )
    init = PointCloud.__init__
    monkeypatch.setattr(
        PointCloud, "__init__", lambda self, *a, **k: clouds.append(1) or init(self, *a, **k)
    )
    code, out, err = _run(capsys, command, str(path), "--grid", "9", "--levels", "8")
    assert code == 0, err
    payload = json.loads(out)
    assert len(payload["points"]) == 25
    assert normalized == [payload["sample"]["size"]] * 25
    assert len(clouds) == 1


def test_cloud_report_solves_one_margin_per_point(cloud_file, monkeypatch, capsys):
    # an input cloud is its own witness sample, so the witness reuses the
    # point's margin instead of solving it again
    margins = []
    support_margin = support.support_margin
    monkeypatch.setattr(
        support, "support_margin", lambda *a, **k: margins.append(1) or support_margin(*a, **k)
    )
    code, out, err = _run(capsys, "report", cloud_file)
    assert code == 0, err
    records = json.loads(out)["points"]
    assert [r["support"]["witness"] is not None for r in records] == [False, True]
    assert len(margins) == len(records)


def test_non_constant_exponent_denominator_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    constraints = {"ineq": ["-y0"], "eq": ["y1 + y0^(3/x0)"]}
    path.write_text(json.dumps(dict(SOLAND, constraints=constraints)))
    code, out, err = _run(capsys, "report", str(path))
    assert code == 2
    assert out == ""
    assert err == (
        "error: problem.constraints.eq[0]: exponent must be a numeric constant,"
        " found 'x0' (at position 11, expected number)\n"
    )


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


def test_kkt_at_a_divisor_whose_square_underflows_exits_3(tmp_path, capsys):
    # the equality's gradient divides by y1^2, which underflows to 0 at
    # y1 = 1e-170: a domain error of that point, not a traceback
    doc = {
        "type": "analytic", "decision_dim": 2, "criterion_dim": 2,
        "domain": [[0, 2], [1e-170, 2]], "criteria": ["x0", "x1"],
        "constraints": {"eq": ["y0 / y1 - y0 / y1"]},
    }
    path = tmp_path / "underflow.json"
    path.write_text(json.dumps(doc))
    message = "derivative of a quotient divides by an underflowed square"
    code, out, err = _run(capsys, "kkt", str(path), "--point-decision=1,1e-170")
    assert (code, out, err) == (3, "", f"numerical failure: {message}\n")
    code, out, err = _run(
        capsys, "report", str(path), "--point-decision=1,1e-170", "--grid", "9", "--levels", "4"
    )
    assert (code, err) == (0, "")
    assert [r["kkt"] for r in json.loads(out)["points"]] == [{"error": message}]


@pytest.mark.parametrize(
    "domain, criteria, eq, argv, message",
    [
        # sampling the analysis cloud reaches y1 = 0 at the grid's first node
        (
            [[0, 2], [0, 2]], ["x0", "x1"], ["y0 / y1 - y0 / y1"],
            ["--point-decision=1,1e-170", "--grid", "9", "--levels", "4"],
            'division by zero in eq[0] "((y0 / y1) - (y0 / y1))" at x = (0.0, 0.0)',
        ),
        # a square root of the negative half of the domain
        (
            [[-1, 1]], ["x0^(1/2)", "-x0"], [], ["--levels", "4"],
            "negative base -1.0 with even-denominator exponent 1/2 "
            'in criteria[0] "x0^1/2" at x = (-1.0,)',
        ),
    ],
)
def test_a_grid_node_that_cannot_be_evaluated_is_named(
    tmp_path, capsys, domain, criteria, eq, argv, message
):
    doc = {
        "type": "analytic", "decision_dim": len(domain), "criterion_dim": len(criteria),
        "domain": domain, "criteria": criteria, "constraints": {"eq": eq},
    }
    path = tmp_path / "failing.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "report", str(path), *argv)
    assert (code, out, err) == (3, "", f"numerical failure: {message}\n")


def test_one_points_kkt_failure_is_recorded_in_the_report(tmp_path, capsys):
    # the x^(1/2) problem: at the origin base^(1/2) has no derivative, so kkt
    # fails there alone; report records that point's error and keeps every
    # other probe's certificate, while the kkt command still exits 3
    doc = {
        "type": "analytic", "decision_dim": 1, "criterion_dim": 2, "domain": [[0, 2]],
        "criteria": ["x0", "-(x0^1/2)"],
        "constraints": {"ineq": ["-y0"], "eq": ["y1 + y0^1/2"]},
    }
    path = tmp_path / "sqrt.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "report", str(path))
    assert code == 0, err
    records = json.loads(out)["points"]
    assert [r["decision"] for r in records] == [[0.0], [0.5], [1.0], [1.5], [2.0]]
    assert records[0]["kkt"] == {
        "error": "base^(1/2) has no derivative at base 0 (exponent between 0 and 1)"
    }
    for record in records[1:]:
        assert "certificate" in record["kkt"] and "error" not in record["kkt"]
    code, _, err = _run(capsys, "kkt", str(path))
    assert code == 3
    assert "has no derivative" in err


def test_repeated_cuts_give_the_margins_of_the_distinct_ones(tmp_path, capsys):
    # the criteria ignore x1, so every cut of the 2-D problem repeats once per
    # x1 value and equal cuts are not merged; each probe's support record is
    # that of the same criteria over x0 alone bit for bit, and its binding
    # rows are every copy of those
    criteria = ["x0", "1 - x0^2", "-(x0^3)"]
    reports = []
    for dim in (2, 1):
        path = tmp_path / f"repeated{dim}.json"
        path.write_text(json.dumps({
            "type": "analytic", "decision_dim": dim, "criterion_dim": 3,
            "domain": [[0, 1]] * dim, "criteria": criteria,
        }))
        code, out, err = _run(capsys, "report", str(path), "--grid", "33", "--levels", "8")
        assert code == 0, err
        reports.append(json.loads(out))
    twod, oned = reports
    copies = oned["sample"]["size"]  # the x1 values: the cloud is a square grid
    assert twod["sample"]["size"] == copies**2
    assert len(twod["points"]) == 5 * len(oned["points"]) == 25

    def support(record):
        margin, trend, witness = (record["support"][k] for k in ("margin", "trend", "witness"))
        return repr((
            [margin[k] for k in ("margin", "weights", "feasible")],
            trend,
            [witness[k] for k in ("anchor", "weights", "curvature")],
        ))

    for i, record in enumerate(twod["points"]):
        alone = oned["points"][i // 5]
        assert record["decision"][0] == alone["decision"][0]
        assert support(record) == support(alone)
        binding = record["support"]["margin"]["binding"]
        assert len(binding) == copies * len(alone["support"]["margin"]["binding"]) > 0


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


def test_deep_soland_origin_margins_follow_the_closed_form():
    # the report's two-criteria margins solve no LP, but the LP still judges
    # p = 2 levels whose cuts leave no weight, so it must hold on the origin's
    # level cuts too: u is free and never leaves the basis, so no ratio tie
    # can zero the margin 2^-k / (1 + 2^-k); rounding of the cuts costs a
    # relative 1.5e-11 at level 18, and from about level 30 the LP returns
    # 2^-k itself
    problem = load_problem(json.dumps(SOLAND))
    for k in range(1, 53):
        cloud = sample_criterion_space(problem, GridSpec.geometric((0.0,), k))
        cuts = support.prepare_cuts(cloud, (0.0, 0.0))
        out = linprog.cone_margin(cuts.cuts, mass="lambda")
        truth = 2.0 ** -k / (1.0 + 2.0 ** -k)
        margin = -out.value
        assert margin > 0 and abs(margin - truth) <= (2.0 ** -k + 1e-12) * truth, k


def test_deepest_soland_origin_margins_stay_positive(capsys):
    # for p = 2 the margin is min(lambda*, 1 - lambda*) of one clipped ratio
    # bound, not an LP optimum, so it stays 2^-k / (1 + 2^-k) to the last
    # rounding through level 60, where 2^-k is far below an ulp of 1
    code, out, _ = _run(capsys, "report", "builtin:soland", "--levels", "60", "--point-decision", "0")
    assert code == 0
    trend = json.loads(out)["points"][0]["support"]["trend"]
    assert len(trend["margins"]) == 60
    for k, margin in enumerate(trend["margins"], start=1):
        truth = 2.0 ** -k / (1.0 + 2.0 ** -k)
        assert abs(margin - truth) <= 4e-16 * truth, k
    assert trend["fitted_exponent"] is not None


def test_two_criteria_report_solves_no_margin_lp(capsys, monkeypatch):
    # at depth 24 every soland margin's cuts leave some weights (lambda,
    # 1 - lambda), at the default points and at 33 anchors x = k/8 on [0, 4],
    # so none reaches the margin LP; kkt solves its own
    def refuse(inst, end):
        raise AssertionError(f"a p = {inst.cuts.shape[1]} margin LP over {end} cuts")

    monkeypatch.setattr(support, "solve_lp", refuse)
    # the hook is on the path every margin LP takes
    with pytest.raises(AssertionError, match="a p = 3 margin LP over 1 cuts"):
        support.support_margin([[1.0, -1.0, 0.5]], (0.0, 0.0, 0.0))
    anchors = [arg for k in range(33) for arg in ("--point-decision", repr(k / 8))]
    for points, argv in ((5, []), (33, anchors)):
        code, out, err = _run(capsys, "report", "builtin:soland", "--levels", "24", *argv)
        assert code == 0, err
        assert len(json.loads(out)["points"]) == points


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


@pytest.mark.parametrize(
    "decisions", [[[0], 5], [[0], [1, 2]]], ids=["not_a_list", "ragged"]
)
def test_ragged_cloud_decisions_exit_2(tmp_path, capsys, decisions):
    path = tmp_path / "cloud.json"
    path.write_text(json.dumps(dict(CLOUD, decisions=decisions)))
    code, out, err = _run(capsys, "report", str(path), "--csv", str(tmp_path / "csv"))
    assert code == 2 and out == ""
    assert err == "error: cloud.decisions[1]: expected a vector of length 1\n"
    assert not (tmp_path / "csv").exists()


def test_no_command_reads_the_decision_tuples(tmp_path, capsys, monkeypatch):
    plane = tmp_path / "plane2d.json"
    plane.write_text(json.dumps(PLANE2D))
    x = np.random.default_rng(5).random((12, 2))
    decided = tmp_path / "decided.json"
    decided.write_text(json.dumps({
        "type": "cloud", "criterion_dim": 3, "decisions": x.tolist(),
        "points": np.column_stack([x, -(x ** 2).sum(axis=1)]).tolist(),
    }))
    small = ["--grid", "3", "--levels", "2"]
    runs = [
        ["report", str(plane), *small, "--csv"],
        ["report", str(decided), "--csv"],
        ["report", str(plane), *small, "--point=0.5,0.5,-0.5"],
        ["kkt", str(plane)],
        ["witness", str(plane), *small],
    ]

    def outputs(side):
        texts = []
        for k, argv in enumerate(runs):
            if argv[-1] == "--csv":
                argv = [*argv, str(tmp_path / f"csv_{side}_{k}")]
            code, out, err = _run(capsys, *argv)
            assert code == 0, err
            texts.append(out)
        return texts

    want = outputs("plain")

    def refuse(self):
        raise AssertionError("PointCloud.decisions read")

    monkeypatch.setattr(PointCloud, "decisions", property(refuse))
    assert outputs("guarded") == want
    for k in (0, 1):
        for plain in sorted((tmp_path / f"csv_plain_{k}").iterdir()):
            assert (tmp_path / f"csv_guarded_{k}" / plain.name).read_bytes() == plain.read_bytes()
