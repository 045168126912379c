import numpy as np
import pytest

from paretocert import geoffrion, problems
from paretocert.errors import DimensionError, NotAGain, SchemaError
from paretocert.problems import GridSpec, builtin, refinement_ladder, sample_criterion_space


def ladder(problem, anchor, levels):
    """The refinement ladder toward ``anchor``, cut from its deepest level."""
    cloud = sample_criterion_space(problem, GridSpec.geometric(anchor, levels))
    return refinement_ladder(problem, cloud, anchor, levels)


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
    ratio = geoffrion.tradeoff_ratio((0.0, 0.0), y, 0)
    assert ratio == pytest.approx(100.0, rel=1e-9)


def test_ratio_gain_in_second_criterion():
    assert geoffrion.tradeoff_ratio((1.0, -1.0), (0.0, 0.0), 1) == pytest.approx(1.0)


def test_ratio_no_compensating_loss():
    assert geoffrion.tradeoff_ratio((0.0, 0.0), (1.0, 0.0), 0) is None


def test_ratio_requires_a_gain():
    with pytest.raises(NotAGain):
        geoffrion.tradeoff_ratio((0.0, 0.0), (0.0, -1.0), 0)


def test_ratio_dimension_checks():
    with pytest.raises(DimensionError):
        geoffrion.tradeoff_ratio((0.0,), (1.0, 1.0), 0)
    with pytest.raises(DimensionError):
        geoffrion.tradeoff_ratio((0.0, 0.0), (1.0, 1.0), 2)


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
        base = geoffrion.tradeoff_ratio(y_ref, y, gains[0])
        scaled = geoffrion.tradeoff_ratio(
            tuple(scale * v for v in y_ref), tuple(scale * v for v in y), gains[0]
        )
        assert scaled == pytest.approx(base, rel=1e-9)


def test_divergence_probe_at_zero_doubles_each_level():
    problem = builtin("soland")
    evidence = geoffrion.divergence_probe(ladder(problem, (0.0,), 20), (0.0, 0.0))
    assert evidence.ratios == tuple(2.0 ** k for k in range(1, 21))
    assert evidence.growth
    assert evidence.fitted_exponent == pytest.approx(-1.0, abs=0.05)
    # the bound times the offset is exactly one at every level
    for off, ratio in zip(evidence.offsets, evidence.ratios):
        assert 0.99 <= ratio * off <= 1.01


def test_divergence_probe_at_interior_point_converges():
    problem = builtin("soland")
    evidence = geoffrion.divergence_probe(ladder(problem, (1.0,), 20), (1.0, -1.0))
    assert not evidence.growth
    assert evidence.ratios[-1] == pytest.approx(1.5, abs=1e-4)


def test_probe_rejects_empty_schedule():
    with pytest.raises(SchemaError):
        geoffrion.divergence_probe((), (0.0, 0.0))


def test_combine_with_divergence_flags_improperness():
    problem = builtin("soland")
    cloud = [problem.criteria_at([2.0 ** -k]) for k in range(1, 11)]
    report = geoffrion.proper_efficiency_report(cloud, (0.0, 0.0))
    evidence = geoffrion.divergence_probe(ladder(problem, (0.0,), 15), (0.0, 0.0))
    combined = geoffrion.combine_with_divergence(report, evidence)
    assert combined.status == geoffrion.IMPROPER_SUSPECTED
    assert combined.divergence is evidence
    assert combined.m_hat == report.m_hat
