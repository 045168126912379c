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

from .errors import DimensionError, NotAGain, SchemaError
from .problems import point_rows

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


def tradeoff_ratio(y_ref, y, gain_index: int) -> float | None:
    """Smallest gain/loss ratio over criteria that compensate the gain.

    Requires a strict gain in criterion ``gain_index``; returns None when no
    other criterion decreases (then ``y`` dominates ``y_ref`` in that
    direction).
    """
    ref = tuple(float(v) for v in y_ref)
    pt = tuple(float(v) for v in y)
    if len(ref) != len(pt):
        raise DimensionError(f"points have lengths {len(ref)} and {len(pt)}")
    if not 0 <= gain_index < len(ref):
        raise DimensionError(f"criterion index {gain_index} out of range")
    gain = pt[gain_index] - ref[gain_index]
    if gain <= 0:
        raise NotAGain(
            f"criterion {gain_index}: {pt[gain_index]} is not a gain over {ref[gain_index]}"
        )
    best: float | None = None
    for j, (rj, pj) in enumerate(zip(ref, pt)):
        loss = rj - pj
        if loss > 0:
            ratio = gain / loss
            if best is None or ratio < best:
                best = ratio
    return best


def proper_efficiency_report(cloud, y_ref) -> ProperEfficiencyReport:
    """Supremum of trade-off ratios of the cloud against ``y_ref``.

    Status is 'dominated' as soon as some point gains in a criterion with no
    compensating loss anywhere; otherwise 'proper' with the finite bound.
    """
    rows = point_rows(cloud)
    ref = tuple(float(v) for v in y_ref)
    p = len(ref)
    if len(rows[0]) != p:
        raise DimensionError(
            f"reference has dimension {p}, cloud has {len(rows[0])}"
        )
    m_hat = 0.0
    worst: WorstPair | None = None
    for idx, y in enumerate(rows):
        for i in range(p):
            if y[i] <= ref[i]:
                continue
            gain = y[i] - ref[i]
            best_ratio: float | None = None
            best_j = -1
            for j in range(p):
                loss = ref[j] - y[j]
                if loss > 0:
                    ratio = gain / loss
                    if best_ratio is None or ratio < best_ratio:
                        best_ratio = ratio
                        best_j = j
            if best_ratio is None:
                return ProperEfficiencyReport(
                    status=DOMINATED, m_hat=None, worst=None, dominating_index=idx
                )
            if best_ratio > m_hat:
                m_hat = best_ratio
                worst = WorstPair(idx, i, best_j, best_ratio)
    return ProperEfficiencyReport(status=PROPER, m_hat=m_hat, worst=worst)


def combine_with_divergence(
    report: ProperEfficiencyReport, evidence: DivergenceEvidence
) -> ProperEfficiencyReport:
    """Attach probe evidence; a growing ratio sequence flags suspected improperness."""
    status = report.status
    if status == PROPER and evidence.growth:
        status = IMPROPER_SUSPECTED
    return replace(report, status=status, divergence=evidence)


def divergence_probe(ladder, y_ref, *, growth_factor: float = 1e3) -> DivergenceEvidence:
    """Track the sup ratio bound of ``y_ref`` across the level clouds of a
    refinement ladder (``problems.refinement_ladder``).

    Level k holds the decisions at offsets 2^-j, j = 1..k, on both sides of
    the anchor (clipped to the domain). The growth flag fires when the
    sequence is nondecreasing and the last bound exceeds the first by the
    growth factor; the exponent is fitted by log-log regression of the bound
    against the smallest offset.
    """
    if not ladder:
        raise SchemaError("refinement ladder needs at least one level")
    levels = tuple(range(1, len(ladder) + 1))
    offsets = tuple(2.0 ** (-k) for k in levels)
    ratios = []
    for cloud_k in ladder:
        report = proper_efficiency_report(cloud_k, y_ref)
        # the bound over compensated directions; dominated levels contribute 0
        ratios.append(report.m_hat if report.m_hat is not None else 0.0)
    nondecreasing = all(
        ratios[k + 1] >= ratios[k] * (1.0 - 1e-12) for k in range(len(ratios) - 1)
    )
    if ratios[0] > 0:
        growth = nondecreasing and ratios[-1] > growth_factor * ratios[0]
    else:
        growth = nondecreasing and ratios[-1] > 0
    fitted = _fit_exponent(offsets, ratios)
    return DivergenceEvidence(
        levels=levels,
        offsets=offsets,
        ratios=tuple(ratios),
        growth=growth,
        fitted_exponent=fitted,
    )


def _fit_exponent(offsets, values) -> float | None:
    if len(values) < 2 or any(v <= 0 for v in values):
        return None
    slope = np.polyfit(np.log(np.asarray(offsets)), np.log(np.asarray(values)), 1)[0]
    return float(slope)
