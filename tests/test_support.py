import dataclasses
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from paretocert import cli, geoffrion, support
from paretocert import linprog as lp
from paretocert.errors import BoxTooSmall, NotSupported, SchemaError
from paretocert.problems import (
    AxisSpec,
    GridSpec,
    Ladder,
    PointCloud,
    builtin,
    load_problem,
    refinement_ladder,
    sample_criterion_space,
)


def ladder(problem, anchor, levels):
    """The deepest level of the refinement toward ``anchor`` and the ladder
    cut from it."""
    cloud = sample_criterion_space(problem, GridSpec.geometric(anchor, levels))
    return cloud, refinement_ladder(problem, cloud, anchor, levels)


def level_ladder(rows, entry, levels):
    """A hand-made ladder whose row ``rows[i]`` enters at level ``entry[i]``:
    the rows sorted stably by level, and the size of each level."""
    entry = np.asarray(entry)
    by_level = np.argsort(entry, kind="stable")
    ends = np.searchsorted(entry[by_level], np.arange(1, levels + 1), side="right")
    return Ladder(rows=np.asarray(rows)[by_level], ends=ends)


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


def test_empty_row_set_is_rejected_like_an_empty_cloud():
    with pytest.raises(ValueError, match="empty point cloud"):
        support.support_margin([], (0.0, 0.0))
    # two criteria (closed form) and three (the LP)
    for points in (np.eye(2), np.eye(3)):
        cuts = geoffrion.prepare_cuts(PointCloud(len(points), points), np.zeros(len(points)))
        with pytest.raises(ValueError, match="empty row set"):
            support.support_margin(cuts, rows=np.array([], dtype=int))


def _report_repr(report):
    return [repr(getattr(report, f.name)) for f in dataclasses.fields(report)]


def test_whole_sample_margin_takes_the_cut_matrix_as_it_is():
    # support_margin without rows uses cuts.cuts and cuts.diffs themselves;
    # a row set of every row and the ladder path's stable sort by level copy
    # them, and all three must give one report
    rng = np.random.default_rng(31)
    soft = supported = 0
    for p in (2, 3, 4):
        for trial in range(30):
            y = rng.random((int(rng.integers(1, 300)), p - 1))
            points = np.column_stack([y, -(y**2).sum(axis=1)])  # a concave surface
            y_ref = points[int(rng.integers(len(points)))]
            if trial % 3 == 0:
                y_ref = y_ref - 0.05  # dominated: no weights, a soft margin
            cuts = geoffrion.prepare_cuts(points, y_ref)
            before = [(a.tobytes(), a.flags.writeable) for a in (cuts.cuts, cuts.diffs)]
            n = len(cuts)
            got = support.support_margin(cuts)
            every = support.support_margin(cuts, rows=np.arange(n))
            level = support._level_margins(cuts, np.arange(n), np.array([n]), 1e-8)[1]
            want = _report_repr(level)
            assert _report_repr(got) == _report_repr(every) == want, (p, trial)
            assert [(a.tobytes(), a.flags.writeable) for a in (cuts.cuts, cuts.diffs)] == before
            soft += not got.feasible and got.margin < 0.0
            supported += got.weights is not None and len(got.binding) > 0
    assert soft >= 25 and supported >= 50, (soft, supported)


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
    trend = support.support_trend(*ladder(problem, (0.0,), 20), (0.0, 0.0))
    assert trend.verdict == support.VANISHING
    for k, margin in zip(trend.levels, trend.margins):
        x_min = 2.0 ** -k
        assert margin == pytest.approx(x_min / (1.0 + x_min), abs=1e-9)


def test_trend_persists_at_the_proper_point():
    problem = builtin("soland")
    trend = support.support_trend(*ladder(problem, (1.0,), 20), (1.0, -1.0))
    assert trend.verdict == support.PERSISTENT
    assert trend.margins[-1] == pytest.approx(0.4, abs=1e-4)
    assert trend.last.weights[0] == pytest.approx(0.6, abs=1e-4)


def test_trend_constant_for_constant_criteria():
    doc = """{"type": "analytic", "decision_dim": 1, "criterion_dim": 2,
               "domain": [[0, 1]], "criteria": ["1 + 0*x0", "2 + 0*x0"]}"""
    problem = load_problem(doc)
    trend = support.support_trend(*ladder(problem, (0.5,), 5), (1.0, 2.0))
    assert trend.margins == (0.5,) * 5
    assert trend.verdict == support.PERSISTENT


def test_trend_requires_anchor_and_levels():
    problem = builtin("soland")
    cloud = sample_criterion_space(problem, GridSpec.geometric((0.0,), 3))
    with pytest.raises(SchemaError):
        support.support_trend(cloud, (), (0.0, 0.0))
    with pytest.raises(SchemaError):
        refinement_ladder(problem, cloud, (0.0,), 0)
    with pytest.raises(SchemaError):
        refinement_ladder(problem, cloud, (), 3)


PLANE2D = load_problem(json.dumps({
    "type": "analytic", "decision_dim": 2, "criterion_dim": 3,
    "domain": [[0, 1], [0, 1]], "criteria": ["x0", "x1", "-(x0^2 + x1^2)"],
}))


@pytest.mark.parametrize(
    "problem, anchor, levels",
    [(builtin("soland"), (x,), k) for x in (0.0, 1.6875, 3.375, 4.0) for k in (24, 40, 60)]
    + [(PLANE2D, a, k) for a in ((0.0, 0.0), (1.0, 0.5), (0.25, 0.75)) for k in (8, 11)],
    ids=lambda v: repr(v) if isinstance(v, (tuple, int)) else "",
)
def test_trend_margins_equal_cold_solves_per_level(problem, anchor, levels):
    # the trend takes each level over a prefix of the deepest level's cuts;
    # every margin, closed-form or LP (soland anchors 1.6875 and 3.375 from
    # level 26 on), must be the one a fresh sample of that level gives
    cloud, steps = ladder(problem, anchor, levels)
    y_ref = problem.criteria_at(anchor)
    trend = support.support_trend(cloud, steps, y_ref)
    cold = [
        support.support_margin(sample_criterion_space(problem, GridSpec.geometric(anchor, k)), y_ref)
        for k in range(1, levels + 1)
    ]
    assert [repr(m) for m in trend.margins] == [repr(r.margin) for r in cold]
    assert repr(trend.last) == repr(cold[-1])


def prefix_cuts(rows, ends, y_ref):
    """Each level's cut matrix from normalizing ``rows`` alone, points in a
    ladder's order: level k is the prefix ``rows[:ends[k - 1]]``."""
    diffs = rows - np.asarray(tuple(float(v) for v in y_ref))
    scale = np.max(np.abs(diffs), axis=1)
    scale[scale == 0.0] = 1.0
    cuts = diffs / scale[:, None]
    return [cuts[:end] for end in ends]


def recording_level_lps(monkeypatch):
    """The list each level's LP that ``support`` solves from now on is added
    to, as (its cut matrix, its mass): the prefix of the instance's cuts that
    ``solve_lp`` solves over."""
    calls = []
    solve_lp = support.solve_lp
    monkeypatch.setattr(
        support,
        "solve_lp",
        lambda inst, end: calls.append((inst.cuts[:end].copy(), inst.mass)) or solve_lp(inst, end),
    )
    return calls


def recorded_level_cuts(monkeypatch, solve):
    """The cut matrix of each level's LP ``solve()`` solves; a soft solve must
    be over the hard solve's matrix."""
    calls = recording_level_lps(monkeypatch)
    solve()
    monkeypatch.undo()
    levels = []
    for cuts, mass in calls:
        if mass == "lambda":
            levels.append(cuts)
        else:
            assert mass == "lambda+nu" and cuts.tobytes() == levels[-1].tobytes()
    return levels


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def continuous_cloud_ladder(levels):
    """A seeded 4,000 x 3 normal cloud with 1,100 rows copied over others,
    and a ladder over 3,000 of its rows, each entering at a random level:
    duplicates that enter at different levels, or lie outside the ladder."""
    rng = np.random.default_rng(2026)
    points = rng.normal(size=(4000, 3))
    points[rng.integers(0, 4000, size=1100)] = points[rng.integers(0, 4000, size=1100)]
    cloud = PointCloud(criterion_dim=3, points=points)
    rows = np.sort(rng.permutation(4000)[:3000])
    entry = rng.integers(1, levels + 1, size=3000)
    return cloud, level_ladder(rows, entry, levels)


# Soland's criteria and a third, -x0: p = 3, so every level's margin is an LP
SOLAND3 = load_problem(json.dumps({
    "type": "analytic", "decision_dim": 1, "criterion_dim": 3,
    "domain": [[0, 4]], "criteria": ["x0^2", "-x0^3", "-x0"],
}))


@pytest.mark.parametrize(
    "problem, anchor, levels",
    [(SOLAND3, (x,), 24) for x in (0.0, 1.6875, 4.0)]
    + [(PLANE2D, a, 8) for a in ((0.25, 0.75), (0.0, 1.0))]
    + [(None, None, 5)],
    ids=["soland3-0", "soland3-1.6875", "soland3-4", "plane2d-(0.25,0.75)", "plane2d-(0,1)", "cloud"],
)
def test_margin_lp_columns_keep_their_order(monkeypatch, problem, anchor, levels):
    # column order decides pricing ties in the simplex, so the cut
    # matrices must be the rows' own cuts bit for bit, in the ladder's order
    # (stably by entry level, in row order within a level) along the ladder
    # and in row order for a row set
    # the ladder's and the whole cloud's LPs take their columns from one
    # preparation of the cloud's cuts; p = 3 throughout, since p = 2 margins
    # solve no LP while every level's bounds leave both weights an interval
    cloud, steps = continuous_cloud_ladder(levels) if problem is None else ladder(problem, anchor, levels)
    everything = cloud.as_array()
    deepest_rows = np.sort(steps.rows)
    rows = everything[deepest_rows]
    if problem is None:
        references = [tuple(rows[17]), (0.5, -0.25, 3.0)]
    else:
        references = [problem.criteria_at(anchor)]
    for y_ref in references:
        cuts = geoffrion.prepare_cuts(cloud, y_ref)
        trend = recorded_level_cuts(monkeypatch, lambda: support.support_trend(cuts, steps))
        assert_same_bits(trend, prefix_cuts(everything[steps.rows], steps.ends, y_ref))
        deepest = recorded_level_cuts(monkeypatch, lambda: support.support_margin(rows, y_ref))
        assert_same_bits(deepest, prefix_cuts(rows, [len(rows)], y_ref))
        subset = recorded_level_cuts(
            monkeypatch, lambda: support.support_margin(cuts, rows=deepest_rows)
        )
        assert_same_bits(subset, deepest)
        whole = recorded_level_cuts(monkeypatch, lambda: support.support_margin(cuts))
        assert_same_bits(whole, prefix_cuts(everything, [len(everything)], y_ref))


def test_row_set_columns_equal_those_of_the_rows_alone(monkeypatch):
    # a row set's columns are its own rows' cuts, equal ones and signed zeros
    # included: those a sample of the rows alone gives, bit for bit; p = 3,
    # where every margin is an LP
    rng = np.random.default_rng(1607)
    for _ in range(60):
        n, p = int(rng.integers(1, 40)), 3
        points = rng.integers(-2, 3, size=(n, p)) * rng.choice([-1.0, 1.0], size=(n, p))
        y_ref = tuple(rng.integers(-1, 2, size=p).astype(float))
        rows = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        levels = int(rng.integers(1, 4))
        entry = rng.integers(1, levels + 1, size=len(rows))
        cuts = geoffrion.prepare_cuts(points, y_ref)
        alone = points[rows]
        got = recorded_level_cuts(monkeypatch, lambda: support.support_margin(cuts, rows=rows))
        assert_same_bits(got, prefix_cuts(alone, [len(alone)], y_ref))
        report = support.support_margin(cuts, rows=rows)
        assert repr(report) == repr(support.support_margin(alone, y_ref))
        steps = level_ladder(rows, entry, levels)
        got = recorded_level_cuts(monkeypatch, lambda: support.support_trend(cuts, steps))
        assert_same_bits(got, prefix_cuts(points[steps.rows], steps.ends, y_ref))


def assert_doubled(got, want):
    """``got`` is ``want``'s margin over its row set stacked on itself: the
    same margin, weights and feasibility bit for bit, both copies binding."""
    fields = ("margin", "weights", "feasible")
    assert repr([getattr(got, f) for f in fields]) == repr([getattr(want, f) for f in fields])
    size = want.sample_size
    assert got.sample_size == 2 * size
    assert got.binding == want.binding + tuple(i + size for i in want.binding)


@pytest.mark.parametrize(
    "problem, anchor, levels",
    [(SOLAND3, (x,), 24) for x in (0.0, 1.6875, 4.0)]
    + [(PLANE2D, a, 8) for a in ((0.25, 0.75), (0.0, 1.0))]
    + [(None, None, 5)],
    ids=["soland3-0", "soland3-1.6875", "soland3-4", "plane2d-(0.25,0.75)", "plane2d-(0,1)", "cloud"],
)
def test_duplicate_rows_are_harmless(problem, anchor, levels):
    # equal cuts are not merged: a copy of a column has its twin's reduced
    # cost, so it never prices in, and a p = 3 cloud stacked on itself gives
    # the margins of the cloud alone, over the whole cloud and along a ladder
    # whose rows enter twice at the same levels
    cloud, steps = continuous_cloud_ladder(levels) if problem is None else ladder(problem, anchor, levels)
    points = cloud.as_array()
    n = len(points)
    twice = np.vstack([points, points])
    entry = np.repeat(np.arange(1, levels + 1), np.diff(steps.ends, prepend=0))
    stacked = level_ladder(np.r_[steps.rows, steps.rows + n], np.r_[entry, entry], levels)
    if problem is None:
        references = [tuple(points[np.sort(steps.rows)[17]]), (0.5, -0.25, 3.0)]
    else:
        references = [problem.criteria_at(anchor)]
    for y_ref in references:
        alone, doubled = geoffrion.prepare_cuts(points, y_ref), geoffrion.prepare_cuts(twice, y_ref)
        assert_doubled(support.support_margin(doubled), support.support_margin(alone))
        trend = support.support_trend(doubled, stacked)
        want = support.support_trend(alone, steps)
        assert repr(trend.margins) == repr(want.margins)
        assert_doubled(trend.last, want.last)


def lp_level_margins(rows, ends, y_ref):
    """(margin, feasible, weights) of each level's margin LP over the cuts of
    ``rows`` alone, as for ``prefix_cuts``, the soft margin where the hard one
    is infeasible."""
    results = []
    for cuts in prefix_cuts(rows, ends, y_ref):
        out = lp.cone_margin(cuts, mass="lambda")
        feasible = out.status == "optimal"
        if not feasible:
            out = lp.cone_margin(cuts, mass="lambda+nu")
        results.append((-float(out.value), feasible, -np.asarray(out.duals[: len(y_ref)])))
    return results


def two_criteria_sample(rng):
    """A random p = 2 sample and reference, in integers or normal floats, with
    signed zeros and rows that are the reference (zero cuts), duplicates,
    gains with no loss, rows whose two cuts are equal (c0 = c1, either
    sign: dominated, or leaving no weight), and rows gaining in both
    criteria by unequal amounts."""
    n = int(rng.integers(1, 30))
    y_ref = rng.integers(-1, 2, size=2).astype(float)
    if rng.random() < 0.5:
        points = rng.integers(-2, 3, size=(n, 2)) * rng.choice([-1.0, 1.0], size=(n, 2))
    else:
        points = y_ref + rng.normal(size=(n, 2))
    kind = rng.integers(0, 12, size=n)
    size = np.abs(rng.normal(size=n))[:, None] + 0.1
    points[kind == 0] = y_ref
    points[kind == 1] = points[rng.integers(0, n, size=int(np.sum(kind == 1)))]
    gain = np.eye(2)[rng.integers(0, 2, size=n)]
    points[kind == 2] = (y_ref + size * gain)[kind == 2]
    points[kind == 3] = (y_ref - size)[kind == 3]
    points[kind == 5] = (y_ref + size * (0.5 + gain))[kind == 5]
    if rng.random() < 0.2:
        points[kind == 4] = (y_ref + size)[kind == 4]
    return points, tuple(y_ref)


def close(got, want):
    return abs(got - want) <= 1e-10 * abs(want) + 1e-12


def cut_formula_weight(cuts):
    """The first two-criteria weight lambda* over the normalized cuts ``cuts``
    by the rule the trade-off bounds replaced, NaN where no lambda keeps every
    cut: a cut c holds when lambda * (c0 - c1) <= -c1, an upper bound on
    lambda if c0 > c1, a lower bound if c0 < c1, and no lambda at all if
    c0 = c1 > 0; lambda* is 1/2 clipped to the interval the bounds leave."""
    c0, c1 = cuts[:, 0], cuts[:, 1]
    slope = c0 - c1
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = -c1 / slope
    lo, hi = bound[slope < 0].max(initial=-np.inf), bound[slope > 0].min(initial=np.inf)
    if ((slope == 0) & (c1 > 0)).any():
        lo, hi = np.inf, -np.inf
    return min(max(0.5, lo), hi) if lo <= hi else np.nan


def test_bound_weights_match_the_cut_formula():
    # the weights that the trade-off bounds give agree with the cut formula
    # to a few ulps, and leave the same levels to the LP, except from the
    # first level holding a row that gains in both criteria: the bounds send
    # those to the LP, while the cut formula may leave both weights an
    # interval, as for the row (0.5, 1), where it gives lambda* = 2, mu* = -1
    cuts = geoffrion.prepare_cuts([(0.5, 1.0)], (0.0, 0.0))
    assert (cut_formula_weight(cuts.cuts), cut_formula_weight(cuts.cuts[:, ::-1])) == (2.0, -1.0)
    assert np.isnan(support._two_criteria_weights(geoffrion.level_bounds(cuts, None, [1]))).all()
    report = support.support_margin(cuts)  # the LP's margin is the cut formula's
    assert (report.margin, report.feasible, report.weights) == (-1.0, True, None)
    # the hard LP's weights may be negative, so a dominated reference can be
    # feasible, as above; feasible is False only when no weights summing to 1
    # keep every cut <= 0, and the margin is then the soft one
    report = support.support_margin([(0.5, 1.0), (1.0, 0.5)], (0.0, 0.0))
    assert (report.margin, report.feasible) == (-0.75, False)
    rng = np.random.default_rng(1968)
    compared = both_gain = 0
    ulps = []
    for _ in range(400):
        points, y_ref = two_criteria_sample(rng)
        n = len(points)
        rows = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        levels = int(rng.integers(1, 5))
        steps = level_ladder(rows, rng.integers(1, levels + 1, size=len(rows)), levels)
        cuts = geoffrion.prepare_cuts(points, y_ref)
        got = support._two_criteria_weights(geoffrion.level_bounds(cuts, steps.rows, steps.ends))
        for weights, end in zip(got, steps.ends.tolist()):
            level = cuts.cuts[steps.rows[:end]]
            want = np.array([cut_formula_weight(level), cut_formula_weight(level[:, ::-1])])
            if (cuts.diffs[steps.rows[:end]] > 0).all(axis=1).any():
                both_gain += 1
                assert np.isnan(weights).all()
            elif np.isnan(want).any():
                assert np.isnan(weights).all()
            else:
                compared += 1
                ulps.append(np.abs(weights - want) / np.spacing(np.abs(want)))
    # at most 2 ulps apart over 376 levels; 555 levels hold a row gaining twice
    assert np.max(ulps) <= 4, np.max(ulps)
    assert compared > 300 and both_gain > 300, (compared, both_gain)


def test_two_criteria_margins_equal_the_lp(monkeypatch):
    # for p = 2 the margin is min(lambda*, mu*), each weight 1/2 clipped to
    # the interval the trade-off bounds leave it; the LP (with its soft
    # margin where an interval is empty) is the oracle, level by level and
    # per row set
    rng = np.random.default_rng(1968)
    solved = recording_level_lps(monkeypatch)
    decided = fallen_back = zeros = 0
    for _ in range(400):
        points, y_ref = two_criteria_sample(rng)
        n = len(points)
        rows = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        levels = int(rng.integers(1, 5))
        entry = rng.integers(1, levels + 1, size=len(rows))
        entry[rng.integers(len(rows))] = 1  # no level is empty
        steps = level_ladder(rows, entry, levels)
        want = lp_level_margins(points[steps.rows], steps.ends, y_ref)
        cuts = geoffrion.prepare_cuts(points, y_ref)
        del solved[:]
        trend = support.support_trend(cuts, steps)
        hard = [mass for _, mass in solved].count("lambda")
        fallen_back += hard
        decided += levels - hard
        assert all(close(got, w[0]) for got, w in zip(trend.margins, want)), (trend.margins, want)
        # a zero margin reads -0.0 on both paths, as report bytes show it
        zeros += sum(w[0] == 0.0 for w in want)
        assert [repr(got) for got, w in zip(trend.margins, want) if w[0] == 0.0] == [
            repr(w[0]) for w in want if w[0] == 0.0
        ]
        for end, (margin, feasible, weights) in zip(steps.ends.tolist(), want):
            # the level's prefix: the trend's LP columns, in its order
            report = support.support_margin(cuts, rows=steps.rows[:end])
            assert close(report.margin, margin) and report.feasible == feasible
            if report.weights is None:
                assert not (feasible and margin > support._TOL)
            else:
                assert np.allclose(report.weights, weights, rtol=0, atol=1e-9)
        assert repr(report) == repr(trend.last)
    # both paths are well exercised: 305 closed-form levels, 699 LP levels,
    # 107 zero margins (a level holding a row that gains in both criteria
    # goes to the LP)
    assert decided > 300 and fallen_back > 300 and zeros > 50


SLOW_SOLAND = {
    "type": "analytic", "decision_dim": 1, "criterion_dim": 2, "domain": [[0, 2]],
    "criteria": ["x0", "-(x0^11/10)"],
    "constraints": {"ineq": ["-y0"], "eq": ["y1 + y0^11/10"]},
}


@pytest.mark.parametrize("problem", ["builtin:soland", "slow_soland"])
def test_two_criteria_margins_are_one_over_one_plus_the_ratio(tmp_path, problem):
    # for two criteria the support margin is t_k = min(1/2, 1/(1 + M_k)),
    # M_k the divergence probe's trade-off bound (Geoffrion 1968), bit for
    # bit: both read geoffrion.level_bounds. soland's anchor 3 leaves the
    # closed form from level 27 on, where its float cuts leave no weight
    argv = ["--levels", "60"]
    if problem == "slow_soland":
        problem, argv = tmp_path / "slow_soland.json", []
        problem.write_text(json.dumps(SLOW_SOLAND))
    out = tmp_path / "report.json"
    assert cli.main(["report", str(problem), *argv, "--out", str(out)]) == 0
    points = json.loads(out.read_text())["points"]
    assert len(points) == 5
    for anchor, record in enumerate(points):
        margins = record["support"]["trend"]["margins"]
        ratios = record["divergence"]["ratios"]
        closed = 26 if argv and anchor == 3 else len(margins)
        assert all(m > 0 for m in ratios[:closed])  # no dominating row has entered
        want = [min(0.5, 1.0 / (1.0 + m)) for m in ratios[:closed]]
        assert [m.hex() for m in margins[:closed]] == [m.hex() for m in want], anchor


def test_non_finite_cuts_raise():
    # a NaN coordinate makes a NaN cut without a floating-point warning; every
    # margin names the point whose difference is not finite before it solves
    for y_ref in ((0.0, 0.0), (0.0, 0.0, 0.0)):
        points = np.array([[1.0, -1.0, 0.0][: len(y_ref)], [np.nan] + [1.0] * (len(y_ref) - 1)])
        with pytest.raises(SchemaError, match=r"point 1: y - y_ref is not finite"):
            support.support_margin(points, y_ref)
        steps = level_ladder(np.arange(2), [2, 1], 2)
        with pytest.raises(SchemaError, match=r"point 1: y - y_ref is not finite"):
            support.support_trend(points, steps, y_ref)
    # normalized cuts that are not finite are refused by the LP's instance
    # too (two-criteria margins read them only where the LP decides)
    points = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 1.0]])
    cuts = geoffrion.prepare_cuts(points, (0.0, 0.0, 0.0))
    vars(cuts)["cuts"] = np.where(points > 0, np.nan, points)  # before its first use
    with pytest.raises(ValueError, match="finite"):
        support.support_margin(cuts)
    with pytest.raises(ValueError, match="finite"):
        support.support_trend(cuts, steps)


@pytest.mark.parametrize("case", ["soland-3", "synthetic"])
def test_levels_without_weights_are_the_lp_bit_for_bit(monkeypatch, case):
    # from the first level whose bounds leave a weight no interval, every level
    # is the margin LP over that level's prefix of the columns, soft margin
    # included; the levels before it solve no LP
    if case == "soland-3":
        # the float images of 3 +- 2^-k round onto the tangent from level 27
        problem, anchor, levels, first = builtin("soland"), (3.0,), 40, 27
        cloud, steps = ladder(problem, anchor, levels)
        y_ref = problem.criteria_at(anchor)
    else:
        # level 1: lambda <= 1/2; level 2: lambda >= 1/3; level 3 gains twice
        y_ref, levels, first = (0.0, 0.0), 4, 3
        points = [[1.0, -1.0], [-1.0, 0.5], [1.0, 0.5], [0.25, -2.0], [-3.0, 1.0]]
        cloud = PointCloud(criterion_dim=2, points=points)
        steps = level_ladder(np.arange(5), [1, 2, 3, 4, 4], levels)
    rows = cloud.as_array()[steps.rows]
    cuts = geoffrion.prepare_cuts(cloud, y_ref)
    got = recorded_level_cuts(monkeypatch, lambda: support.support_trend(cuts, steps))
    assert_same_bits(got, prefix_cuts(rows, steps.ends, y_ref)[first - 1 :])
    trend = support.support_trend(cuts, steps)
    want = lp_level_margins(rows, steps.ends, y_ref)
    assert [repr(m) for m in trend.margins[first - 1 :]] == [repr(m) for m, _, _ in want[first - 1 :]]
    assert trend.last.feasible == want[-1][1]
    assert all(close(m, w) for m, (w, _, _) in zip(trend.margins[: first - 1], want))
    if case == "synthetic":
        assert not trend.last.feasible and trend.last.margin < 0


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
    pts = cloud.as_array()
    inside = pts[(pts[:, 0] <= 4.0) & (pts[:, 1] >= -8.0)]
    report = support.support_margin(inside, (1.0, -1.0))
    witness = support.build_witness(
        (1.0, -1.0), report.weights, [(0.0, 4.0), (-8.0, 0.0)], inside
    )
    verification = support.verify_witness(witness, inside)
    assert verification.all_passed, [c for c in verification.checks if not c.passed]


def test_witness_maximality_fails_at_unsupported_anchor():
    problem = builtin("soland")
    cloud = sample_criterion_space(
        problem, GridSpec(((AxisSpec.geometric(0.0, 12),),))
    )
    pts = cloud.as_array()
    inside = pts[(pts[:, 0] <= 4.0) & (pts[:, 1] >= -8.0)]
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


def exact_gaps(witness, points):
    """The exact gap v(anchor) - v(y) of each point in Fractions, the bound
    that ``support._smallest_gap`` states for its rounding, and the indices of
    the points other than the anchor (a per-row comparison)."""
    a = [Fraction(v) for v in witness.anchor]
    w = [Fraction(v) for v in witness.weights]
    c = Fraction(witness.curvature)
    p = len(a)
    gaps, bounds, others = [], [], []
    for idx, y in enumerate(points):
        d = [Fraction(float(v)) - ai for v, ai in zip(y, a)]
        sq = sum(x * x for x in d)
        gaps.append(c * sq - sum(wi * x for wi, x in zip(w, d)))
        # (p + 5) 2^-53 of the terms' magnitudes, plus the underflow of the
        # 2p + 1 products, each below 2^-1074 and scaled by c at most
        scale = sum(abs(wi * x) for wi, x in zip(w, d)) + c * sq
        bounds.append((p + 5) * scale / 2**53 + (2 * p + 1) * (1 + c) / 2**1074)
        if tuple(float(v) for v in y) != witness.anchor:
            others.append(idx)
    return gaps, bounds, others


def assert_gap_is_exact(witness, points):
    """``support._smallest_gap`` against the exact gaps: its gap is within the
    stated bound of its row's exact gap, and its row is the first exact
    minimum unless their exact gaps are within their bounds of each other.
    Returns its ``(index, gap)`` and the first exact minimum's index."""
    index, gap = support._smallest_gap(witness, np.asarray(points, dtype=float))
    gaps, bounds, others = exact_gaps(witness, points)
    if not others:
        assert (index, gap) == (None, np.inf)
        return (index, gap), None
    best = min(others, key=gaps.__getitem__)
    assert index in others
    assert abs(Fraction(gap) - gaps[index]) <= bounds[index], (index, gap, float(gaps[index]))
    assert index == best or gaps[index] - gaps[best] <= bounds[index] + bounds[best], (index, best)
    return (index, gap), best


def assert_details_match_references(witness, points):
    """The details of ``verify_witness`` against per-corner loops of the
    scalar ``gradient`` and against the exact gaps."""
    corner = min(min(witness.gradient(y)) for y in itertools.product(*witness.box))
    (index, gap), _ = assert_gap_is_exact(witness, points)
    expected = {
        "strictly_increasing_on_box": f"minimum gradient component over box corners: {corner}",
        "strictly_concave": (
            f"curvature {witness.curvature} > 0" if witness.curvature > 0
            else "concave, not strictly"
        ),
        "unique_maximum_over_sample": (
            "sample contains no point other than the anchor" if index is None
            else f"smallest value gap {gap} at sample index {index}"
        ),
    }
    verification = support.verify_witness(witness, points)
    details = {c.name: c.detail for c in verification.checks}
    assert details == expected
    return details


def plane2d_probe_witness(decision):
    """The witness of the 2-D problem's probe at ``decision`` over its
    ``--grid 9 --levels 8`` cloud, as ``report`` builds it, and the cloud."""
    doc = {
        "type": "analytic", "decision_dim": 2, "criterion_dim": 3,
        "domain": [[0, 1], [0, 1]], "criteria": ["x0", "x1", "-(x0^2 + x1^2)"],
    }
    problem = load_problem(json.dumps(doc))
    grid = GridSpec(tuple((AxisSpec.uniform(9), AxisSpec.geometric(x, 8)) for x in decision))
    cloud = sample_criterion_space(problem, grid)
    y_ref = problem.criteria_at(decision)
    weights = support.support_margin(cloud, y_ref).weights
    box = cli._witness_box(cloud.as_array(), y_ref)
    return support.build_witness(y_ref, weights, box, cloud), cloud


def test_witness_gap_on_the_plane2d_mirror_tie():
    # the probe at decision (0.5, 0.5): the points at decisions (0.49609375,
    # 0.5) and (0.5, 0.49609375) tie in exact arithmetic, and their computed
    # gaps tie too, so the first index is reported
    witness, cloud = plane2d_probe_witness((0.5, 0.5))
    points = cloud.as_array().tolist()
    details = assert_details_match_references(witness, points)
    assert details["unique_maximum_over_sample"] == (
        "smallest value gap 6.2377252051551776e-06 at sample index 161"
    )
    assert repr(cloud.decision_array()[[161, 179]].tolist()) == repr([[0.49609375, 0.5], [0.5, 0.49609375]])
    gaps, _, others = exact_gaps(witness, points)
    assert gaps[161] == gaps[179] == min(gaps[k] for k in others)


def test_witness_gap_at_the_plane2d_corner_is_the_exact_minimum():
    # the probe at decision (1, 1): the gaps of y - y_ref through <w, y>
    # rounded row 181, whose exact gap is 4.3e-19 above row 194's, below it
    witness, cloud = plane2d_probe_witness((1.0, 1.0))
    points = cloud.as_array().tolist()
    (index, gap), best = assert_gap_is_exact(witness, points)
    assert index == best == 194
    gaps, _, _ = exact_gaps(witness, points)
    assert 0 < gaps[181] - gaps[194] < Fraction(1, 10**18)
    assert assert_details_match_references(witness, points)["unique_maximum_over_sample"] == (
        "smallest value gap 1.731245060498895e-06 at sample index 194"
    )


def test_witness_gap_matches_exact_gaps_on_mirrored_clouds():
    # permuting the offset of a point from the anchor leaves its exact value
    # unchanged under equal weights, so every cloud is full of exact ties that
    # rounding may break; the anchor itself appears up to three times
    rng = np.random.default_rng(20261018)
    first = 0
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
        rng.integers(1, 5)  # an unused draw: keeps the seeded sequence of clouds
        assert_details_match_references(witness, points)
        (index, _), best = assert_gap_is_exact(witness, points)
        first += index == best
    # most rows are the exact minimum itself, not a near-tie within the bound
    assert first > 180


def test_witness_gap_with_only_the_anchor():
    witness = support.ValueFunctionWitness((0.5, 0.5), 0.1, (1.0, -0.0), ((0.0, 2.0), (-1.0, 1.0)))
    details = assert_details_match_references(witness, [(1.0, 0.0), (1.0, -0.0)])
    assert details["unique_maximum_over_sample"] == "sample contains no point other than the anchor"


def test_an_overflowed_witness_gap_is_a_point_of_the_sample():
    # y - y_ref overflows to -inf and the gap to +inf, which is still a gap:
    # the point is not skipped as if the sample held the anchor alone. The
    # box corners' offsets overflow too, and their gradient is +inf
    witness = support.ValueFunctionWitness((0.5, 0.5), 1e-320, (1e308, 0.0), ((-1.7e308, 1.7e308), (-1.0, 1.0)))
    verification = support.verify_witness(witness, [(1e308, 0.0), (-1e308, 0.0)])
    assert verification.all_passed
    assert verification.checks[-1].detail == "smallest value gap inf at sample index 1"


def test_a_nan_witness_gap_fails_the_maximum_check():
    # the offset (-inf, inf) has <w, d> = -inf + inf, a NaN gap: nothing
    # shows the point below the anchor, so only the maximum check fails
    witness = support.ValueFunctionWitness(
        (0.5, 0.5), 1e-320, (1e308, -1e308), ((9e307, 1.1e308), (-1.1e308, -9e307))
    )
    verification = support.verify_witness(witness, [(1e308, -1e308), (-1e308, 1e308)])
    assert [c.passed for c in verification.checks] == [True, True, False]
    assert verification.checks[-1].detail == "smallest value gap nan at sample index 1"


def test_witness_gap_bits_do_not_depend_on_the_other_rows():
    # the gap of the smallest row is the same alone and inside a 10,000-row
    # array, at any position in it
    rng = np.random.default_rng(28)
    for p in range(1, 6):
        pts = rng.normal(size=(10_000, p))
        witness = support.ValueFunctionWitness(
            weights=tuple((rng.random(p) + 0.1).tolist()),
            curvature=float(rng.random()),
            anchor=tuple(rng.normal(size=p).tolist()),
            box=((-9.0, 9.0),) * p,
        )
        index, gap = support._smallest_gap(witness, pts)
        assert support._smallest_gap(witness, pts[index : index + 1]) == (0, gap)
        order = rng.permutation(len(pts))
        moved = support._smallest_gap(witness, pts[order])
        assert moved == (int(np.flatnonzero(order == index)[0]), gap)


def row_wise_cuts(points, y_ref):
    """The normalized cuts of ``prepare_cuts`` by a reduction along each
    point's row: the reference that its passes over the criteria must equal
    bit for bit."""
    diffs = points - np.asarray(y_ref)
    scale = np.max(np.abs(diffs), axis=1)
    scale[scale == 0.0] = 1.0
    return diffs / scale[:, None]


def test_cuts_and_witness_gaps_match_row_wise_reductions():
    # ties, signed zeros and duplicated points; the references are cloud
    # points, a cloud point with its zeros negated (equal to it), and a
    # point off the cloud
    rng = np.random.default_rng(1953)
    pool = np.array([-2.0, -0.5, -5e-324, -0.0, 0.0, 5e-324, 0.5, 2.0])
    for p in range(1, 6):
        for n in (1, 5, 60):
            pts = pool[rng.integers(len(pool), size=(n, p))]
            spread = rng.random((n, p)) < 0.3
            pts[spread] = rng.standard_normal(int(spread.sum()))
            pts[n // 2 :: 7] = pts[0]
            flipped = pts[-1].copy()
            flipped[flipped == 0.0] *= -1.0
            for y_ref in (pts[0], pts[n // 2], flipped, rng.standard_normal(p)):
                cuts = geoffrion.prepare_cuts(pts, y_ref)
                assert cuts.diffs.tobytes() == (pts - y_ref).tobytes()
                assert cuts.cuts.tobytes() == row_wise_cuts(pts, y_ref).tobytes()
                witness = support.ValueFunctionWitness(
                    weights=tuple((rng.random(p) + 0.1).tolist()),
                    curvature=float(rng.random()),
                    anchor=tuple(y_ref.tolist()),
                    box=((-3.0, 3.0),) * p,
                )
                assert_gap_is_exact(witness, pts)
