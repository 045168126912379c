"""Proper-efficiency analysis: exact trade-off ratios on finite clouds,
estimated ratio bounds, and divergence probes that expose unbounded
gain/loss ratios under geometric refinement.

A finite cloud always yields a finite ratio bound, so improperness is never
decided here; the probe reports trend evidence and the authoritative
nonexistence result comes from the kkt module.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError
from .problems import ladder_steps, point_array

DOMINATED = "dominated"
PROPER = "proper"
IMPROPER_SUSPECTED = "improper_suspected"


@dataclass(frozen=True)
class WorstPair:
    """The (point, gain criterion, compensating criterion) triple achieving the
    supremum of the trade-off ratio."""

    point_index: int
    gain_index: int
    loss_index: int
    ratio: float


@dataclass(frozen=True)
class DivergenceEvidence:
    """Sup-ratio sequence across geometric refinement levels toward an anchor."""

    levels: tuple[int, ...]
    offsets: tuple[float, ...]
    ratios: tuple[float, ...]
    growth: bool
    fitted_exponent: float | None


@dataclass(frozen=True)
class ProperEfficiencyReport:
    status: str  # 'dominated' | 'proper' | 'improper_suspected'
    m_hat: float | None
    worst: WorstPair | None
    dominating_index: int | None = None
    divergence: DivergenceEvidence | None = None


def _smallest_ratio(gain: float, ref, y) -> tuple[float | None, int]:
    """The smallest ratio ``gain / (ref_j - y_j)`` over the criteria j that
    lose, and the first j attaining it; ``(None, -1)`` when none loses."""
    best: float | None = None
    best_j = -1
    for j, (rj, yj) in enumerate(zip(ref, y)):
        loss = rj - yj
        if loss > 0:
            ratio = gain / loss
            if best is None or ratio < best:
                best = ratio
                best_j = j
    return best, best_j


def _row_pairs(ref, y):
    """(ratio, gain index, loss index) of each criterion in which ``y`` gains
    on ``ref``, by the scalar rule; a NaN coordinate counts as a gain."""
    for i, (ri, yi) in enumerate(zip(ref, y)):
        if not yi <= ri:
            ratio, j = _smallest_ratio(yi - ri, ref, y)
            yield ratio, i, j


def proper_efficiency_report(cloud, y_ref, *, bounds=None) -> ProperEfficiencyReport:
    """Supremum of trade-off ratios of the cloud against ``y_ref``; ``bounds``
    are their ``ratio_bounds``, if already computed.

    Status is 'dominated' as soon as some point gains in a criterion with no
    compensating loss anywhere; otherwise 'proper' with the finite bound.

    A point's best ratio for gain i is gain_i / max_j loss_j, and the point's
    bound is max_i gain_i / max_j loss_j: rounding is monotone, so this equals
    the max-min over (i, j) of the rounded ratios bit for bit. Only the
    points whose bound comes out NaN (no gain and no loss, or inf / inf) and
    the worst point are evaluated by the scalar rule.
    """
    ref = tuple(float(v) for v in y_ref)
    pts = point_array(cloud)
    bounds, dominating = bounds or ratio_bounds(pts, ref)
    if dominating.any():
        return ProperEfficiencyReport(
            status=DOMINATED, m_hat=None, worst=None, dominating_index=int(np.argmax(dominating))
        )
    m_hat = float(bounds.max())
    if not m_hat > 0:
        return ProperEfficiencyReport(status=PROPER, m_hat=0.0, worst=None)
    idx = int(np.argmax(bounds))
    ratio, i, j = next(t for t in _row_pairs(ref, pts[idx].tolist()) if t[0] == m_hat)
    return ProperEfficiencyReport(status=PROPER, m_hat=m_hat, worst=WorstPair(idx, i, j, ratio))


def ratio_bounds(cloud, y_ref) -> tuple[np.ndarray, np.ndarray]:
    """Each point's trade-off bound against ``y_ref`` (see
    ``proper_efficiency_report``), and whether it dominates ``y_ref``: gains
    somewhere and loses nowhere. A dominating point's bound is inf."""
    pts = point_array(cloud)
    ref = tuple(float(v) for v in y_ref)
    p = len(ref)
    if pts.shape[1] != p:
        raise DimensionError(f"reference has dimension {p}, cloud has {pts.shape[1]}")
    with np.errstate(all="ignore"):  # inf and NaN follow IEEE rules, as in the loop
        diffs = [column - r for column, r in zip(pts.T, ref)]  # a loss is -(y_j - ref_j) exactly
        high, low = np.fmax.reduce(diffs, initial=0.0), np.fmin.reduce(diffs, initial=0.0)
        bounds = (high + 0.0) / (0.0 - low)  # fmax, fmin skip NaN; x + 0.0, 0.0 - x clear -0.0
    dominating = ~np.logical_and.reduce([c <= r for c, r in zip(pts.T, ref)]) & ~(low < 0)
    bounds[dominating] = np.inf  # a gain with no loss to set against it
    for k in np.flatnonzero(np.isnan(bounds)).tolist():
        # no gain and no loss (0 / 0), or an inf / inf ratio that the scalar
        # rule drops or keeps depending on which loss comes first
        ratios = [r for r, _, _ in _row_pairs(ref, pts[k].tolist()) if r > 0]
        bounds[k] = max(ratios, default=0.0)
    return bounds, dominating


def combine_with_divergence(
    report: ProperEfficiencyReport, evidence: DivergenceEvidence
) -> ProperEfficiencyReport:
    """Attach probe evidence; a growing ratio sequence flags suspected improperness."""
    status = report.status
    if status == PROPER and evidence.growth:
        status = IMPROPER_SUSPECTED
    return replace(report, status=status, divergence=evidence)


def divergence_probe(
    cloud, ladder, y_ref, *, growth_factor: float = 1e3, bounds=None
) -> DivergenceEvidence:
    """Track the sup ratio bound of ``y_ref`` across the level clouds of a
    refinement ladder (``problems.refinement_ladder``) cut from ``cloud``.
    ``bounds`` are as for ``proper_efficiency_report``, read at the ladder's rows.

    Level k holds the decisions at offsets 2^-j, j = 1..k, on both sides of
    the anchor (clipped to the domain). The growth flag fires when the
    sequence is nondecreasing and the last bound exceeds the first by the
    growth factor; the exponent is fitted by log-log regression of the bound
    against the smallest offset.
    """
    levels, offsets = ladder_steps(ladder)
    # level k's bound is the largest over the rows entering at or before k,
    # and 0 from the first level holding a dominating row on
    if bounds is None:
        bounds, dominating = ratio_bounds(point_array(cloud)[ladder.rows], y_ref)
    else:
        bounds, dominating = (b[ladder.rows] for b in bounds)
    entry = ladder.entry
    level_max = np.full(len(levels), -np.inf)
    np.maximum.at(level_max, entry - 1, bounds)
    dominated_from = int(entry[dominating].min(initial=len(levels) + 1))
    ratios = [
        float(m_hat) if m_hat > 0 and k < dominated_from else 0.0
        for k, m_hat in zip(levels, np.maximum.accumulate(level_max).tolist())
    ]
    nondecreasing = all(
        ratios[k + 1] >= ratios[k] * (1.0 - 1e-12) for k in range(len(ratios) - 1)
    )
    if ratios[0] > 0:
        growth = nondecreasing and ratios[-1] > growth_factor * ratios[0]
    else:
        growth = nondecreasing and ratios[-1] > 0
    fitted = fit_exponent(offsets, ratios)
    return DivergenceEvidence(
        levels=levels,
        offsets=offsets,
        ratios=tuple(ratios),
        growth=growth,
        fitted_exponent=fitted,
    )


def fit_exponent(offsets, values) -> float | None:
    """The slope of log(values) against log(offsets), None unless there are
    two or more values, all positive."""
    if len(values) < 2 or any(v <= 0 for v in values):
        return None
    slope = np.polyfit(np.log(np.asarray(offsets)), np.log(np.asarray(values)), 1)[0]
    return float(slope)
