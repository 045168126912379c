"""Tests of the benchmark's output checks and inputs.

    python3 -m pytest bench/test_checks.py

A real report of each workload (on fewer points, to stay quick) passes its
checks, and the same report with a corrupted margin, weight or kkt
conclusion fails them. The cloud3d input is a function of the seed, and
the tracer reports every per-layer metric that BENCHMARK.json lists.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402
from paretocert import cli, pareto  # noqa: E402
from paretocert.problems import load_problem  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

SOLAND_ANCHORS = [0.0, 0.5, 1.0, 2.625]
PLANE_PROBES = [(0.0, 0.5), (0.25, 0.75), (0.5, 0.5), (1.0, 0.0)]


def _report(argv, tmp_path: Path) -> dict:
    out = tmp_path / "report.json"
    assert cli.main(argv + ["--out", str(out)]) == 0
    return json.loads(out.read_text(encoding="utf-8"))


def _record(report: dict, decision) -> dict:
    return next(r for r in report["points"] if r["decision"] == list(decision))


@pytest.fixture(scope="module")
def soland(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("soland")
    argv = ["report", "builtin:soland", "--levels", str(workloads.SOLAND_LEVELS)]
    for x in SOLAND_ANCHORS:
        argv += ["--point-decision", repr(x)]
    expect = {"anchors": SOLAND_ANCHORS, "levels": workloads.SOLAND_LEVELS}
    return _report(argv, tmp), expect


@pytest.fixture(scope="module")
def plane2d(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("plane2d")
    plan = workloads.prepare("plane2d", 0, tmp)
    argv = list(plan["report_argv"])
    for a, b in PLANE_PROBES:
        argv += ["--point-decision", f"{a},{b}"]
    expect = {"probes": [list(p) for p in PLANE_PROBES], "levels": workloads.PLANE2D_LEVELS}
    return _report(argv, tmp), expect


@pytest.fixture(scope="module")
def cloud3d(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cloud3d")
    plan = workloads.prepare("cloud3d", 3, tmp, cloud_size=400)
    cloud = load_problem(Path(plan["cloud_file"]).read_text(encoding="utf-8"))
    efficient = pareto.pareto_filter(cloud)
    report = _report(plan["report_argv"], tmp)
    return report, efficient, plan["expect"], checks.cloud_oracle(plan["expect"])


def test_soland_report_passes(soland):
    report, expect = soland
    assert checks.check_soland(report, expect) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: r["support"]["margin"].update(margin=r["support"]["margin"]["margin"] + 1e-4),
        lambda r: r["support"]["margin"].update(weights=r["support"]["margin"]["weights"][::-1]),
        lambda r: r["kkt"]["certificate"].update(conclusion="obstruction"),
        lambda r: r["support"]["witness"].update(curvature=1e3),
        lambda r: r["support"]["witness"].update(weights=r["support"]["witness"]["weights"][::-1]),
    ],
    ids=["margin", "weights", "kkt", "witness_curvature", "witness_weights"],
)
def test_soland_corruption_at_a_supported_anchor_fails(soland, corrupt):
    report, expect = soland
    bad = copy.deepcopy(report)
    corrupt(_record(bad, [1.0]))
    assert checks.check_soland(bad, expect)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: r["kkt"]["certificate"].update(conclusion="no_obstruction"),
        lambda r: r["kkt"]["certificate"].update(s_star=0.5),
        lambda r: r["divergence"]["ratios"].__setitem__(-1, 1.0),
        lambda r: r["support"]["trend"].update(verdict="persistent"),
    ],
    ids=["kkt", "s_star", "ratios", "trend"],
)
def test_soland_corruption_at_the_soland_point_fails(soland, corrupt):
    report, expect = soland
    bad = copy.deepcopy(report)
    corrupt(_record(bad, [0.0]))
    assert checks.check_soland(bad, expect)


def test_plane2d_report_passes(plane2d):
    report, expect = plane2d
    assert checks.check_plane2d(report, expect) == []


@pytest.mark.parametrize(
    "decision, corrupt",
    [
        ((0.25, 0.75), lambda r: r["support"]["margin"].update(margin=r["support"]["margin"]["margin"] + 5e-3)),
        ((0.5, 0.5), lambda r: r["support"]["margin"].update(margin=0.0)),
        ((0.5, 0.5), lambda r: r["kkt"]["certificate"].update(s_star=0.9)),
        ((0.0, 0.5), lambda r: r["kkt"]["certificate"].update(conclusion="no_obstruction")),
        ((0.25, 0.75), lambda r: r.update(efficient=False)),
    ],
    ids=["margin_high", "margin_low", "s_star", "kkt", "efficient"],
)
def test_plane2d_corruption_fails(plane2d, decision, corrupt):
    report, expect = plane2d
    bad = copy.deepcopy(report)
    corrupt(_record(bad, decision))
    assert checks.check_plane2d(bad, expect)


def test_cloud3d_report_passes(cloud3d):
    report, efficient, expect, oracle = cloud3d
    assert checks.check_cloud3d(report, efficient, expect, oracle) == []


def _first_surface_record(report, expect):
    surface = set(expect["surface"])
    return next(r for i, r in zip(expect["refs"], report["points"]) if i in surface)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: r["support"]["margin"].update(margin=r["support"]["margin"]["margin"] * 0.9),
        lambda r: r["support"]["margin"].update(
            weights=[w + d for w, d in zip(r["support"]["margin"]["weights"], (0.01, -0.01, 0.0))]
        ),
        lambda r: r.update(efficient=False),
    ],
    ids=["margin", "weights", "efficient"],
)
def test_cloud3d_corruption_fails(cloud3d, corrupt):
    report, efficient, expect, oracle = cloud3d
    bad = copy.deepcopy(report)
    corrupt(_first_surface_record(bad, expect))
    assert checks.check_cloud3d(bad, efficient, expect, oracle)


def test_cloud3d_filter_result_is_checked(cloud3d):
    report, efficient, expect, oracle = cloud3d
    assert checks.check_cloud3d(report, efficient[1:], expect, oracle)


def test_cloud3d_input_is_a_function_of_the_seed(tmp_path):
    plans = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        plans.append(workloads.prepare("cloud3d", 11, tmp_path / name, cloud_size=500))
    first, second = plans
    assert Path(first["cloud_file"]).read_bytes() == Path(second["cloud_file"]).read_bytes()
    assert first["expect"]["refs"] == second["expect"]["refs"]
    assert workloads.make_cloud3d(12, 500)["points"] != workloads.make_cloud3d(11, 500)["points"]


def test_cloud3d_efficient_set_is_the_surface_by_brute_force():
    cloud = workloads.make_cloud3d(5, 600)
    pts = np.asarray(cloud["points"])
    ge = (pts[:, None, :] >= pts[None, :, :]).all(axis=2)
    ne = (pts[:, None, :] != pts[None, :, :]).any(axis=2)
    dominated = (ge & ne).any(axis=0)
    assert np.flatnonzero(~dominated).tolist() == cloud["surface"]


def test_tracer_reports_every_per_layer_metric(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        _report(["report", "builtin:soland", "--levels", "4", "--point-decision", "0.5"], tmp_path)
    finally:
        tracer.uninstall()
    # the trace.* metrics are the worker's job times, not the tracer's
    names = {name for name, _ in PER_LAYER if not name.startswith("trace.")}
    assert names <= set(tracer.snapshot())
