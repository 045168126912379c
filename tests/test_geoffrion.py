import numpy as np
import pytest

from paretocert import geoffrion, problems, support
from paretocert.errors import DimensionError, SchemaError
from paretocert.problems import GridSpec, builtin, refinement_ladder, sample_criterion_space
from test_support import level_ladder


def ladder(problem, anchor, levels):
    """The deepest level of the refinement toward ``anchor`` and the ladder
    cut from it."""
    cloud = sample_criterion_space(problem, GridSpec.geometric(anchor, levels))
    return cloud, refinement_ladder(problem, cloud, anchor, levels)


def brute_force_report(points, y_ref):
    """Triple loop over (point, gain index, loss index); independent oracle.

    The first point that gains somewhere and loses nowhere dominates; else the
    bound is the largest over (point, gain) of the smallest ratio over losses,
    the first triple attaining it being the worst. Returns
    (m_hat, (point, gain, loss) or None, dominating index or None)."""
    p = len(y_ref)
    m_hat = 0.0
    worst = None
    for idx, y in enumerate(points):
        for i in range(p):
            if y[i] <= y_ref[i]:
                continue
            gain = y[i] - y_ref[i]
            best_ratio = None
            best_j = -1
            for j in range(p):
                loss = y_ref[j] - y[j]
                if loss > 0:
                    ratio = gain / loss
                    if best_ratio is None or ratio < best_ratio:
                        best_ratio = ratio
                        best_j = j
            if best_ratio is None:
                return None, None, idx
            if best_ratio > m_hat:
                m_hat = best_ratio
                worst = (idx, i, best_j)
    return m_hat, worst, None


def assert_matches_brute_force(points, y_ref):
    m_hat, worst, dominating = brute_force_report(points, y_ref)
    report = geoffrion.proper_efficiency_report(points, y_ref)
    assert report.dominating_index == dominating
    if dominating is not None:
        assert report.status == geoffrion.DOMINATED
        assert report.m_hat is None and report.worst is None
        return
    assert report.status == geoffrion.PROPER
    assert repr(report.m_hat) == repr(m_hat)  # bit for bit
    if worst is None:
        assert report.worst is None
    else:
        got = report.worst
        assert (got.point_index, got.gain_index, got.loss_index) == worst
        assert repr(got.ratio) == repr(m_hat)


def test_ratio_reproduces_inverse_decision_blowup():
    problem = builtin("soland")
    x = 0.01
    y = problem.criteria_at([x])
    report = geoffrion.proper_efficiency_report([y], (0.0, 0.0))
    assert report.m_hat == pytest.approx(100.0, rel=1e-9)
    assert (report.worst.gain_index, report.worst.loss_index) == (0, 1)


def test_ratio_gain_in_second_criterion():
    report = geoffrion.proper_efficiency_report([(0.0, 0.0)], (1.0, -1.0))
    assert report.status == geoffrion.PROPER
    assert report.m_hat == pytest.approx(1.0)
    assert (report.worst.gain_index, report.worst.loss_index) == (1, 0)


def test_ratio_no_compensating_loss():
    report = geoffrion.proper_efficiency_report([(1.0, 0.0)], (0.0, 0.0))
    assert report.status == geoffrion.DOMINATED
    assert report.dominating_index == 0 and report.m_hat is None


def test_ratio_dimension_checks():
    with pytest.raises(DimensionError):
        geoffrion.proper_efficiency_report([(1.0, 1.0)], (0.0,))


STEPS = level_ladder(np.arange(2), [1, 2], 2)
ENTRY_POINTS = {
    "support_margin": lambda cloud, y_ref: support.support_margin(cloud, y_ref),
    "support_trend": lambda cloud, y_ref: support.support_trend(cloud, STEPS, y_ref),
    "prepare_cuts": geoffrion.prepare_cuts,
    "proper_efficiency_report": geoffrion.proper_efficiency_report,
    "divergence_probe": lambda cloud, y_ref: geoffrion.divergence_probe(cloud, STEPS, y_ref),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_reference_of_the_wrong_length_is_a_dimension_error(entry):
    # one check, where the differences are taken, behind every entry point
    cloud = [(1.0, -1.0), (-1.0, 1.0)]
    for y_ref, text in (((0.0,), "dimension 1, cloud has 2"), ((0.0,) * 3, "dimension 3, cloud has 2")):
        with pytest.raises(DimensionError, match=f"^reference has {text}$"):
            ENTRY_POINTS[entry](cloud, y_ref)


def test_report_on_geometric_grid_bound_is_inverse_of_smallest_offset():
    problem = builtin("soland")
    cloud = [problem.criteria_at([2.0 ** -k]) for k in range(1, 11)]
    report = geoffrion.proper_efficiency_report(cloud, (0.0, 0.0))
    assert report.status == geoffrion.PROPER
    assert report.m_hat == 2.0 ** 10
    assert report.worst.point_index == 9  # the smallest offset
    assert report.worst.gain_index == 0
    assert report.worst.loss_index == 1


def test_report_dense_bound_near_three_halves():
    problem = builtin("soland")
    cloud = problems.sample_criterion_space(problem, problems.GridSpec.uniform(1, 4097))
    report = geoffrion.proper_efficiency_report(cloud, (1.0, -1.0))
    assert report.status == geoffrion.PROPER
    assert report.m_hat == pytest.approx(1.5, abs=1e-2)


def test_report_dominated():
    report = geoffrion.proper_efficiency_report([(0.0, 0.0), (1.0, 0.0)], (0.0, 0.0))
    assert report.status == geoffrion.DOMINATED
    assert report.m_hat is None
    assert report.dominating_index == 1


def test_report_matches_brute_force_on_random_clouds():
    rng = np.random.default_rng(20250812)
    for _ in range(100):
        n = int(rng.integers(1, 301))
        p = int(rng.integers(2, 5))
        pts = [tuple(float(v) for v in rng.normal(size=p)) for _ in range(n)]
        y_ref = tuple(float(v) for v in rng.normal(size=p))
        assert_matches_brute_force(pts, y_ref)


TINY, HUGE, BIG = 1e-300, 1e300, 1.7e308


@pytest.mark.parametrize(
    "points, y_ref",
    [
        # duplicate rows: the first copy is the worst point
        ([(1.0, -1.0), (2.0, -1.0), (2.0, -1.0), (1.0, -1.0)], (0.0, 0.0)),
        # equal ratios from different losses: the first loss index wins
        ([(1.0, -2.0, -2.0), (-2.0, 1.0, -2.0)], (0.0, 0.0, 0.0)),
        # equal ratios from different gains: the first gain index wins
        ([(1.0, 1.0, -1.0)], (0.0, 0.0, 0.0)),
        # signed zeros are neither gains nor losses
        ([(-0.0, 0.0), (0.0, -0.0), (1.0, -0.0), (-0.0, -1.0)], (0.0, -0.0)),
        # a dominated row after a proper one
        ([(1.0, -1.0), (3.0, -0.5), (0.5, 0.0)], (0.0, 0.0)),
        # a dominating row before a proper one
        ([(0.5, 0.0), (1.0, -1.0)], (0.0, 0.0)),
        # ratios that underflow to zero leave the bound at 0 and no worst pair
        ([(TINY, -HUGE), (2 * TINY, -HUGE)], (0.0, 0.0)),
        # a ratio that overflows to inf
        ([(HUGE, -TINY), (1.0, -1.0)], (0.0, 0.0)),
        # differences that overflow to inf, and inf / inf after a finite loss
        ([(BIG, -BIG, -1.0), (1.0, -1.0, -1.0)], (-BIG, BIG, 0.0)),
        ([(BIG, -1.0, -BIG), (1.0, -1.0, -1.0)], (-BIG, 0.0, BIG)),
        ([(np.inf, -np.inf), (1.0, -1.0)], (0.0, 0.0)),
        # the reference is in the cloud (no gain, no loss)
        ([(0.0, 0.0), (1.0, -2.0)], (0.0, 0.0)),
        # a NaN coordinate counts as a gain, as in the loop
        ([(np.nan, -1.0), (1.0, -1.0)], (0.0, 0.0)),
        ([(1.0, -1.0), (np.nan, 0.0)], (0.0, 0.0)),
    ],
)
def test_report_matches_brute_force_on_edge_cases(points, y_ref):
    assert_matches_brute_force(points, y_ref)


def test_report_matches_brute_force_on_generated_clouds():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # a small pool makes duplicates, ties, signed zeros, underflow and
    # overflow common
    pool = [-np.inf, -BIG, -HUGE, -2.0, -1.0, -TINY, -0.0, 0.0, TINY, 0.5, 1.0, 2.0, HUGE, BIG,
            np.inf, np.nan]
    coordinate = st.sampled_from(pool) | st.floats(allow_nan=False, allow_infinity=False)
    reference = st.sampled_from([-BIG, -1.0, -0.0, 0.0, 1.0, BIG]) | st.floats(
        allow_nan=False, allow_infinity=False
    )
    cases = st.integers(2, 4).flatmap(
        lambda p: st.tuples(
            st.lists(st.tuples(*[coordinate] * p), min_size=1, max_size=30),
            st.tuples(*[reference] * p),
        )
    )

    @hypothesis.settings(max_examples=400, deadline=None, database=None)
    @hypothesis.given(cases)
    def check(case):
        points, y_ref = case
        assert_matches_brute_force(points, y_ref)

    check()


def test_common_positive_scaling_leaves_ratios_unchanged():
    rng = np.random.default_rng(17)
    for _ in range(100):
        p = int(rng.integers(2, 5))
        y_ref = tuple(float(v) for v in rng.normal(size=p))
        y = tuple(r + float(v) for r, v in zip(y_ref, rng.normal(size=p)))
        gains = [i for i in range(p) if y[i] > y_ref[i]]
        losses = [j for j in range(p) if y_ref[j] > y[j]]
        if not gains or not losses:
            continue
        scale = float(rng.uniform(0.1, 10.0))
        base = geoffrion.proper_efficiency_report([y], y_ref)
        scaled = geoffrion.proper_efficiency_report(
            [tuple(scale * v for v in y)], tuple(scale * v for v in y_ref)
        )
        assert scaled.m_hat == pytest.approx(base.m_hat, rel=1e-9)


def test_divergence_probe_at_zero_doubles_each_level():
    problem = builtin("soland")
    evidence = geoffrion.divergence_probe(*ladder(problem, (0.0,), 20), (0.0, 0.0))
    assert evidence.ratios == tuple(2.0 ** k for k in range(1, 21))
    assert evidence.growth
    assert evidence.fitted_exponent == pytest.approx(-1.0, abs=0.05)
    # the bound times the offset is exactly one at every level
    for off, ratio in zip(evidence.offsets, evidence.ratios):
        assert 0.99 <= ratio * off <= 1.01


def test_divergence_probe_at_interior_point_converges():
    problem = builtin("soland")
    evidence = geoffrion.divergence_probe(*ladder(problem, (1.0,), 20), (1.0, -1.0))
    assert not evidence.growth
    assert evidence.ratios[-1] == pytest.approx(1.5, abs=1e-4)


def hand_ladder(points, entry, levels):
    """A cloud and a ladder over ``points`` whose row i enters at level
    ``entry[i]``. Each point is preceded in the cloud by a point dominating
    every reference, which the ladder leaves out."""
    p = len(points[0])
    rows = [row for y in points for row in ((1e9,) * p, tuple(float(v) for v in y))]
    cloud = problems.PointCloud(criterion_dim=p, points=tuple(rows))
    inside = np.arange(1, len(rows), 2)
    return cloud, level_ladder(inside, entry, levels)


def ratio_text(report):
    return repr(report.m_hat if report.m_hat is not None else 0.0)


def level_ratios(cloud, steps, y_ref):
    """Each level's bound from a report over its rows alone, 0 where it is
    dominated."""
    points = cloud.as_array()
    return [
        ratio_text(geoffrion.proper_efficiency_report(points[steps.rows[:end]], y_ref))
        for end in steps.ends
    ]


def test_divergence_ratios_equal_each_level_report():
    inf, nan = float("inf"), float("nan")
    rows = [
        ((0, 0), 1),  # the reference itself: bound 0 / 0
        ((1, -2), 1),
        ((inf, -inf), 2),  # inf / inf
        ((3, -1), 3),
        ((nan, -1), 3),  # a NaN gain
        ((1, 0), 4),  # dominates from level 4 on
        ((nan, 0), 5),  # dominates with a NaN bound
    ]
    cloud, steps = hand_ladder([y for y, _ in rows], [k for _, k in rows], 6)
    evidence = geoffrion.divergence_probe(cloud, steps, (0.0, 0.0))
    assert evidence.ratios == (0.5, 0.5, 3.0, 0.0, 0.0, 0.0)
    assert [repr(r) for r in evidence.ratios] == level_ratios(cloud, steps, (0.0, 0.0))
    # random ladders: small integers for ties and repeats, rows that dominate
    # entering at any level, and levels that add no row
    rng = np.random.default_rng(1011)
    for _ in range(300):
        p, n, levels = int(rng.integers(2, 5)), int(rng.integers(1, 25)), int(rng.integers(1, 7))
        points = rng.integers(-3, 3, size=(n, p)).astype(float)
        points[rng.random(n) < 0.7, rng.integers(p)] = -4.0  # most rows lose somewhere
        entry = rng.integers(1, levels + 1, size=n)
        entry[0] = 1
        cloud, steps = hand_ladder(points.tolist(), entry, levels)
        y_ref = tuple(rng.integers(-1, 2, size=p).astype(float))
        ratios = geoffrion.divergence_probe(cloud, steps, y_ref).ratios
        assert [repr(r) for r in ratios] == level_ratios(cloud, steps, y_ref)
    # and the soland ladders, bit for bit, against a fresh sample of each level
    problem = builtin("soland")
    for anchor in (0.0, 1.6875, 4.0):
        y_ref = problem.criteria_at((anchor,))
        ratios = geoffrion.divergence_probe(*ladder(problem, (anchor,), 40), y_ref).ratios
        fresh = [
            sample_criterion_space(problem, GridSpec.geometric((anchor,), k)) for k in range(1, 41)
        ]
        reports = [geoffrion.proper_efficiency_report(level, y_ref) for level in fresh]
        assert [repr(r) for r in ratios] == [ratio_text(r) for r in reports]


def test_probe_rejects_empty_schedule():
    with pytest.raises(SchemaError):
        geoffrion.divergence_probe([(0.0, 0.0)], (), (0.0, 0.0))


def test_combine_with_divergence_flags_improperness():
    problem = builtin("soland")
    cloud = [problem.criteria_at([2.0 ** -k]) for k in range(1, 11)]
    report = geoffrion.proper_efficiency_report(cloud, (0.0, 0.0))
    evidence = geoffrion.divergence_probe(*ladder(problem, (0.0,), 15), (0.0, 0.0))
    combined = geoffrion.combine_with_divergence(report, evidence)
    assert combined.status == geoffrion.IMPROPER_SUSPECTED
    assert combined.divergence is evidence
    assert combined.m_hat == report.m_hat


def row_wise_ratio_bounds(pts, y_ref):
    """The trade-off bounds and dominance of ``geoffrion.prepare_cuts`` by
    reductions along each point's row: the reference that its passes over
    the criteria must equal bit for bit."""
    ref = tuple(float(v) for v in y_ref)
    with np.errstate(all="ignore"):
        diffs = pts - np.asarray(ref)
        losing = diffs < 0
        gain = np.where(diffs > 0, diffs, 0.0).max(axis=1)
        bounds = gain / np.where(losing, -diffs, 0.0).max(axis=1)
    dominating = ~(pts <= ref).all(axis=1) & ~losing.any(axis=1)
    bounds[dominating] = np.inf
    for k in np.flatnonzero(np.isnan(bounds)).tolist():
        ratios = [r for r, _, _ in geoffrion._row_pairs(ref, pts[k].tolist()) if r > 0]
        bounds[k] = max(ratios, default=0.0)
    return bounds, dominating


def test_ratio_bounds_match_row_wise_reductions():
    # a small pool makes ties, signed zeros, infinities and NaN common; the
    # references are cloud points (with inf - inf = NaN differences), a
    # cloud point with its zeros negated, and a point off the cloud
    rng = np.random.default_rng(1968)
    pool = np.array([-np.inf, -2.0, -0.5, -5e-324, -0.0, 0.0, 5e-324, 0.5, 2.0, np.inf, np.nan])
    for p in range(1, 6):
        for n in (1, 5, 60):
            pts = pool[rng.integers(len(pool), size=(n, p))]
            spread = rng.random((n, p)) < 0.3
            pts[spread] = rng.standard_normal(int(spread.sum()))
            flipped = pts[-1].copy()
            flipped[flipped == 0.0] *= -1.0
            for y_ref in (pts[0], pts[n // 2], flipped, rng.standard_normal(p)):
                if np.isnan(y_ref).any():
                    continue
                bounds, dominating = row_wise_ratio_bounds(pts, y_ref)
                cuts = geoffrion.prepare_cuts(pts, y_ref)
                assert cuts.bounds.tobytes() == bounds.tobytes()
                assert cuts.dominating.tobytes() == dominating.tobytes()
