import itertools
import json

import numpy as np
import pytest

from paretocert import cli, support
from paretocert.errors import BoxTooSmall, NotSupported, SchemaError
from paretocert.problems import (
    AxisSpec,
    GridSpec,
    PointCloud,
    builtin,
    load_problem,
    refinement_ladder,
    sample_criterion_space,
)


def ladder(problem, anchor, levels):
    """The refinement ladder toward ``anchor``, cut from its deepest level."""
    cloud = sample_criterion_space(problem, GridSpec.geometric(anchor, levels))
    return refinement_ladder(problem, cloud, anchor, levels)


def margin_grid_oracle(points, y_ref, rounds=5, resolution=2001):
    """Two-criteria brute force: zooming dense grid over simplex weights.

    A weight vector scores its minimum component when every cut holds and the
    (negated) worst violation otherwise, so the maximum over the grid is the
    LP margin for positively supported references."""
    diffs = np.asarray(points, dtype=float) - np.asarray(y_ref, dtype=float)
    diffs = diffs[np.max(np.abs(diffs), axis=1) > 0]
    lo, hi = 0.0, 1.0
    best = -np.inf
    for _ in range(rounds):
        w1 = np.linspace(lo, hi, resolution)
        w = np.stack([w1, 1.0 - w1], axis=1)
        base = np.minimum(w1, 1.0 - w1)
        if len(diffs):
            violation = (w @ diffs.T).max(axis=1)
            score = np.where(violation <= 0, base, -violation)
        else:
            score = base
        i = int(np.argmax(score))
        best = float(score[i])
        width = (hi - lo) / (resolution - 1)
        lo = max(0.0, w1[i] - width)
        hi = min(1.0, w1[i] + width)
    return best


def geometric_cloud(k):
    problem = builtin("soland")
    grid = GridSpec(((AxisSpec.geometric(0.0, k),),))
    return sample_criterion_space(problem, grid)


def test_single_point_cloud_margin_is_uniform():
    cloud = PointCloud(criterion_dim=2, points=((0.0, 0.0),))
    report = support.support_margin(cloud, (0.0, 0.0))
    assert report.margin == pytest.approx(0.5)
    assert report.weights == pytest.approx((0.5, 0.5))
    assert report.feasible


def test_margin_closed_form_under_refinement():
    for k in range(2, 21):
        report = support.support_margin(geometric_cloud(k), (0.0, 0.0))
        x_min = 2.0 ** -k
        assert report.margin == pytest.approx(x_min / (1.0 + x_min), abs=1e-9)
        assert report.margin * (1.0 + x_min) / x_min == pytest.approx(1.0, abs=1e-3)


def test_dense_margin_at_interior_point():
    problem = builtin("soland")
    cloud = sample_criterion_space(problem, GridSpec.uniform(1, 2001))
    report = support.support_margin(cloud, (1.0, -1.0))
    assert report.margin == pytest.approx(0.4, abs=0.01)
    assert report.weights[0] == pytest.approx(0.6, abs=0.01)
    assert report.weights[1] == pytest.approx(0.4, abs=0.01)


def test_margin_report_invariants():
    problem = builtin("soland")
    cloud = sample_criterion_space(problem, GridSpec.uniform(1, 513))
    report = support.support_margin(cloud, (1.0, -1.0))
    assert sum(report.weights) == pytest.approx(1.0, abs=1e-9)
    assert all(w >= report.margin - 1e-9 for w in report.weights)
    diffs = cloud.as_array() - np.asarray((1.0, -1.0))
    assert float((diffs @ np.asarray(report.weights)).max()) <= 1e-8


def test_dominated_reference_gives_nonpositive_margin():
    report = support.support_margin([(0.0, 0.0), (1.0, 0.0)], (0.0, 0.0))
    assert report.feasible
    assert report.margin <= 1e-12
    assert report.weights is None


def test_strictly_dominated_reference_is_infeasible_with_negative_margin():
    report = support.support_margin([(1.0, 1.0)], (0.0, 0.0))
    assert not report.feasible
    assert report.margin < 0


def test_margin_matches_grid_oracle_on_100_supported_clouds():
    rng = np.random.default_rng(20250814)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        pts = [tuple(float(v) for v in rng.normal(size=2)) for _ in range(n)]
        w0 = rng.uniform(0.05, 1.0, size=2)
        w0 /= w0.sum()
        scores = [w0 @ np.asarray(pt) for pt in pts]
        y_ref = pts[int(np.argmax(scores))]  # positively supported by w0
        report = support.support_margin(pts, y_ref)
        assert report.margin > 0
        assert report.margin == pytest.approx(margin_grid_oracle(pts, y_ref), abs=1e-6)


def test_adding_points_never_increases_margin():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(3, 30))
        pts = [tuple(float(v) for v in rng.normal(size=2)) for _ in range(n)]
        w0 = np.asarray([0.5, 0.5])
        y_ref = pts[int(np.argmax([w0 @ np.asarray(p) for p in pts]))]
        half = support.support_margin(pts[: max(1, n // 2)] + [y_ref], y_ref)
        full = support.support_margin(pts + [y_ref], y_ref)
        assert full.margin <= half.margin + 1e-9


def test_trend_vanishes_at_the_improper_point():
    problem = builtin("soland")
    trend = support.support_trend(ladder(problem, (0.0,), 20), (0.0, 0.0))
    assert trend.verdict == support.VANISHING
    for k, margin in zip(trend.levels, trend.margins):
        x_min = 2.0 ** -k
        assert margin == pytest.approx(x_min / (1.0 + x_min), abs=1e-9)


def test_trend_persists_at_the_proper_point():
    problem = builtin("soland")
    trend = support.support_trend(ladder(problem, (1.0,), 20), (1.0, -1.0))
    assert trend.verdict == support.PERSISTENT
    assert trend.margins[-1] == pytest.approx(0.4, abs=1e-4)
    assert trend.last.weights[0] == pytest.approx(0.6, abs=1e-4)


def test_trend_constant_for_constant_criteria():
    doc = """{"type": "analytic", "decision_dim": 1, "criterion_dim": 2,
               "domain": [[0, 1]], "criteria": ["1 + 0*x0", "2 + 0*x0"]}"""
    problem = load_problem(doc)
    trend = support.support_trend(ladder(problem, (0.5,), 5), (1.0, 2.0))
    assert trend.margins == (0.5,) * 5
    assert trend.verdict == support.PERSISTENT


def test_trend_requires_anchor_and_levels():
    problem = builtin("soland")
    with pytest.raises(SchemaError):
        support.support_trend((), (0.0, 0.0))
    cloud = sample_criterion_space(problem, GridSpec.geometric((0.0,), 3))
    with pytest.raises(SchemaError):
        refinement_ladder(problem, cloud, (0.0,), 0)
    with pytest.raises(SchemaError):
        refinement_ladder(problem, cloud, (), 3)


def test_witness_curvature_formula():
    witness = support.build_witness(
        (1.0, -1.0), (0.6, 0.4), [(0.0, 4.0), (-8.0, 0.0)], [(1.0, -1.0)]
    )
    assert witness.curvature == pytest.approx(0.0125)


def test_linear_witness_on_request():
    witness = support.build_witness(
        (1.0, -1.0), (0.6, 0.4), [(0.0, 4.0), (-8.0, 0.0)], [(1.0, -1.0)], curvature=0.0
    )
    assert witness.curvature == 0.0
    verification = support.verify_witness(witness, [(1.0, -1.0), (0.0, 0.0)])
    concavity = [c for c in verification.checks if c.name == "strictly_concave"][0]
    assert not concavity.passed
    assert concavity.detail == "concave, not strictly"


def test_witness_rejects_zero_weight():
    with pytest.raises(NotSupported):
        support.build_witness((0.0, 0.0), (0.0, 1.0), [(-1.0, 1.0), (-1.0, 1.0)], [(0.0, 0.0)])


def test_witness_rejects_cloud_outside_box():
    with pytest.raises(BoxTooSmall):
        support.build_witness(
            (0.0, 0.0), (0.5, 0.5), [(-1.0, 1.0), (-1.0, 1.0)], [(2.0, 0.0)]
        )
    # the first offending point, then its first offending dimension
    with pytest.raises(BoxTooSmall, match="^cloud point 1 outside the box in dimension 0$"):
        support.build_witness(
            (0.0, 0.0), (0.5, 0.5), [(-1.0, 1.0), (-1.0, 1.0)],
            [(0.0, 0.0), (-2.0, 2.0), (0.0, -2.0)],
        )


def test_witness_verification_passes_on_supported_anchor():
    problem = builtin("soland")
    grid = GridSpec(
        ((AxisSpec.uniform(257), AxisSpec.geometric(1.0, 14)),)
    )
    cloud = sample_criterion_space(problem, grid)
    # restrict to images within the example box [0,4] x [-8,0]
    inside = [pt for pt in cloud.points if pt[0] <= 4.0 and pt[1] >= -8.0]
    report = support.support_margin(inside, (1.0, -1.0))
    witness = support.build_witness(
        (1.0, -1.0), report.weights, [(0.0, 4.0), (-8.0, 0.0)], inside
    )
    verification = support.verify_witness(witness, inside, grid_resolution=5)
    assert verification.all_passed, [c for c in verification.checks if not c.passed]


def test_witness_maximality_fails_at_unsupported_anchor():
    problem = builtin("soland")
    cloud = sample_criterion_space(
        problem, GridSpec(((AxisSpec.geometric(0.0, 12),),))
    )
    inside = [pt for pt in cloud.points if pt[0] <= 4.0 and pt[1] >= -8.0]
    witness = support.build_witness((0.0, 0.0), (0.6, 0.4), [(0.0, 4.0), (-8.0, 0.0)], inside)
    verification = support.verify_witness(witness, inside)
    failed = {c.name for c in verification.checks if not c.passed}
    assert failed == {"unique_maximum_over_sample"}


def test_end_to_end_soundness_margin_implies_witness():
    rng = np.random.default_rng(20250815)
    for _ in range(40):
        n = int(rng.integers(2, 30))
        pts = [tuple(float(v) for v in rng.normal(size=2)) for _ in range(n)]
        w0 = rng.uniform(0.1, 1.0, size=2)
        w0 /= w0.sum()
        y_ref = pts[int(np.argmax([w0 @ np.asarray(p) for p in pts]))]
        report = support.support_margin(pts, y_ref)
        if report.weights is None:
            continue
        arr = np.asarray(pts)
        box = [
            (float(arr[:, i].min()) - 0.5, float(arr[:, i].max()) + 0.5)
            for i in range(2)
        ]
        witness = support.build_witness(y_ref, report.weights, box, pts)
        verification = support.verify_witness(witness, pts)
        assert verification.all_passed, verification.checks


def test_margin_scales_to_ten_thousand_cuts():
    rng = np.random.default_rng(123)
    pts = [tuple(float(v) for v in rng.normal(size=2)) for _ in range(10_000)]
    w0 = np.asarray([0.4, 0.6])
    y_ref = pts[int(np.argmax([w0 @ np.asarray(p) for p in pts]))]
    report = support.support_margin(pts, y_ref)
    assert report.margin > 0
    assert report.margin == pytest.approx(margin_grid_oracle(pts, y_ref), abs=1e-6)


def scalar_verification_details(witness, points, grid_resolution):
    """The per-corner, per-point and per-node loops of the three checks, with
    the scalar ``value`` and ``gradient``: the reference for their details."""
    corner = min(min(witness.gradient(y)) for y in itertools.product(*witness.box))
    anchor_value = witness.value(witness.anchor)
    worst_gap, worst_index = np.inf, None
    for idx, y in enumerate(points):
        if tuple(y) == tuple(witness.anchor):
            continue
        gap = anchor_value - witness.value(y)
        if gap < worst_gap:
            worst_gap, worst_index = gap, idx
    axes = [np.linspace(lo, hi, grid_resolution) for lo, hi in witness.box]
    grid = min(min(witness.gradient(node)) for node in itertools.product(*axes))
    return {
        "strictly_increasing_on_box": f"minimum gradient component over box corners: {corner}",
        "unique_maximum_over_sample": (
            "sample contains no point other than the anchor" if worst_index is None
            else f"smallest value gap {worst_gap} at sample index {worst_index}"
        ),
        "gradient_positive_on_grid": (
            f"minimum gradient component over {grid_resolution}^p grid: {grid}"
        ),
    }


def assert_details_match_scalar_loops(witness, points, grid_resolution=3):
    expected = scalar_verification_details(witness, points, grid_resolution)
    verification = support.verify_witness(witness, points, grid_resolution=grid_resolution)
    details = {c.name: c.detail for c in verification.checks if c.name in expected}
    assert details == expected
    return details


def test_witness_gap_on_the_plane2d_mirror_tie():
    # the probe at decision (0.5, 0.5): the points at decisions (0.49609375,
    # 0.5) and (0.5, 0.49609375) tie in exact arithmetic; the scalar value
    # puts index 179 below 161 in the last bit
    doc = {
        "type": "analytic", "decision_dim": 2, "criterion_dim": 3,
        "domain": [[0, 1], [0, 1]], "criteria": ["x0", "x1", "-(x0^2 + x1^2)"],
    }
    problem = load_problem(json.dumps(doc))
    grid = GridSpec(tuple((AxisSpec.uniform(9), AxisSpec.geometric(0.5, 8)) for _ in range(2)))
    cloud = sample_criterion_space(problem, grid)
    y_ref = problem.criteria_at((0.5, 0.5))
    weights = support.support_margin(cloud, y_ref).weights
    witness = support.build_witness(y_ref, weights, cli._witness_box(cloud, y_ref), cloud)
    details = assert_details_match_scalar_loops(witness, cloud.points)
    assert details["unique_maximum_over_sample"] == (
        "smallest value gap 6.2377252051382115e-06 at sample index 179"
    )
    assert cloud.decisions[161] == (0.49609375, 0.5)
    assert cloud.decisions[179] == (0.5, 0.49609375)


def test_witness_gap_matches_scalar_loop_on_mirrored_clouds():
    # permuting the offset of a point from the anchor leaves its exact value
    # unchanged under equal weights, so every cloud is full of exact ties that
    # rounding breaks; the anchor itself appears up to three times
    rng = np.random.default_rng(20261018)
    for _ in range(200):
        p = int(rng.integers(2, 4))
        anchor = rng.normal(size=p)
        scale = 10.0 ** rng.uniform(-7, 1)
        offsets = rng.normal(scale=scale, size=(int(rng.integers(1, 6)), p))
        rows = [anchor + np.asarray(perm) for t in offsets for perm in itertools.permutations(t)]
        rows += [anchor] * int(rng.integers(0, 4))
        points = [tuple(float(v) for v in rows[k]) for k in rng.permutation(len(rows))]
        equal = rng.random() < 0.5
        weights = np.full(p, 1.0 / p) if equal else rng.uniform(0.1, 1.0, size=p)
        witness = support.ValueFunctionWitness(
            weights=tuple(float(v) for v in weights),
            curvature=float(rng.uniform(0.0, 2.0)),
            anchor=tuple(float(v) for v in anchor),
            box=tuple((float(a) - 1.0, float(a) + 2.0) for a in anchor),
        )
        assert_details_match_scalar_loops(witness, points, int(rng.integers(1, 5)))


def test_witness_gap_with_only_the_anchor():
    witness = support.ValueFunctionWitness((0.5, 0.5), 0.1, (1.0, -0.0), ((0.0, 2.0), (-1.0, 1.0)))
    details = assert_details_match_scalar_loops(witness, [(1.0, 0.0), (1.0, -0.0)])
    assert details["unique_maximum_over_sample"] == "sample contains no point other than the anchor"
