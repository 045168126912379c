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
    """Triple loop over (point, gain index, loss index); independent oracle."""
    p = len(y_ref)
    m_hat = 0.0
    dominated = False
    for y in points:
        for i in range(p):
            if y[i] <= y_ref[i]:
                continue
            ratios = [
                (y[i] - y_ref[i]) / (y_ref[j] - y[j])
                for j in range(p)
                if y_ref[j] > y[j]
            ]
            if not ratios:
                dominated = True
            else:
                m_hat = max(m_hat, min(ratios))
    return dominated, m_hat


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
        dominated, m_hat = brute_force_report(pts, y_ref)
        report = geoffrion.proper_efficiency_report(pts, y_ref)
        if dominated:
            assert report.status == geoffrion.DOMINATED
        else:
            assert report.status == geoffrion.PROPER
            assert report.m_hat == pytest.approx(m_hat, rel=1e-12, abs=1e-12)


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
