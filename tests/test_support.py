import numpy as np
import pytest

from paretocert import support
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
