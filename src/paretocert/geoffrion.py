"""Proper-efficiency analysis: exact trade-off ratios on finite clouds,
estimated ratio bounds, and divergence probes that expose unbounded
gain/loss ratios under geometric refinement.

A sample's differences y - y_ref are computed once per reference, a pass
per criterion (``prepare_cuts``). Each row's largest gain and loss give its
trade-off bound, its dominance test and the scale of ``support``'s cut.
``level_bounds`` reduces the bounds over each level's prefix of a ladder's
rows, one running maximum read at the level ends: the divergence probe
reads its largest, M_k, and for two criteria ``support`` reads its margin
t_k = min(1/2, 1/(1 + M_k)) from it (Geoffrion, "Proper efficiency and the
theory of vector maximization", 1968); at Soland's point M_k = 2^k.

A finite cloud always yields a finite ratio bound, so improperness is never
decided here; the probe reports trend evidence and the authoritative
nonexistence result comes from the kkt module.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

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


def _row_pairs(ref, y):
    """(ratio, gain index, loss index) of each criterion i in which ``y``
    gains on ``ref``, by the scalar rule: the smallest gain / (ref_j - y_j)
    over the criteria j that lose and the first j attaining it, or
    ``(None, i, -1)`` when none loses; a NaN coordinate counts as a gain."""
    for i, (ri, yi) in enumerate(zip(ref, y)):
        if not yi <= ri:
            losses = [(rj - yj, j) for j, (rj, yj) in enumerate(zip(ref, y))]
            losing = [((yi - ri) / loss, j) for loss, j in losses if loss > 0]
            ratio, j = min(losing, key=lambda t: t[0], default=(None, -1))
            yield ratio, i, j


@dataclass(frozen=True, eq=False)
class Cuts:
    """A sample's differences to a reference, each row's largest gain and
    loss, and what they give (``prepare_cuts``): the row's trade-off bound,
    whether it dominates the reference, and, on first use, its normalized cut."""

    y_ref: tuple[float, ...]
    points: np.ndarray  # the sample, one row per point
    diffs: np.ndarray  # y - y_ref
    high: np.ndarray  # the largest gain y_j - ref_j, 0 without one; NaN skipped
    low: np.ndarray  # the largest loss as a difference, 0 without one; NaN skipped
    bounds: np.ndarray  # each row's trade-off bound (``proper_efficiency_report``)
    dominating: np.ndarray  # gains somewhere and loses nowhere

    def __len__(self) -> int:
        return len(self.diffs)

    @cached_property
    def cuts(self) -> np.ndarray:
        """Each row of ``diffs`` over its largest magnitude max(high, -low);
        the margins read it once they have found every difference finite."""
        # each cut is homogeneous in w, so normalizing it changes no hard
        # margin and keeps pivots well away from the tolerance; soft margins
        # are those of the normalized cuts
        scale = np.maximum(self.high, 0.0 - self.low)
        scale[scale == 0.0] = 1.0
        return self.diffs / scale[:, None]


def prepare_cuts(cloud, y_ref) -> Cuts:
    """The ``Cuts`` of a sample against ``y_ref``, from one pass per
    criterion over its differences; one row per sample point."""
    ref = tuple(float(v) for v in y_ref)
    points = point_array(cloud)
    if points.shape[1] != len(ref):
        raise DimensionError(f"reference has dimension {len(ref)}, cloud has {points.shape[1]}")
    with np.errstate(all="ignore"):  # inf and NaN follow IEEE rules, as in the loop
        diffs = points - np.asarray(ref)  # a loss is -(y_j - ref_j) exactly
        columns = list(diffs.T)
        high, low = np.fmax.reduce(columns, initial=0.0), np.fmin.reduce(columns, initial=0.0)
        bounds = (high + 0.0) / (0.0 - low)  # x + 0.0, 0.0 - x clear -0.0
    dominating = ~np.logical_and.reduce([c <= r for c, r in zip(points.T, ref)]) & ~(low < 0)
    bounds[dominating] = np.inf  # a gain with no loss to set against it
    for k in np.flatnonzero(np.isnan(bounds)).tolist():
        # no gain and no loss (0 / 0), or an inf / inf ratio that the scalar
        # rule drops or keeps depending on which loss comes first
        ratios = [r for r, _, _ in _row_pairs(ref, points[k].tolist()) if r > 0]
        bounds[k] = max(ratios, default=0.0)
    return Cuts(ref, points, diffs, high, low, bounds, dominating)


def as_cuts(cloud, y_ref) -> Cuts:
    """``cloud`` when it is a ``Cuts``, else the cuts of ``cloud`` against ``y_ref``."""
    return cloud if isinstance(cloud, Cuts) else prepare_cuts(cloud, y_ref)


def proper_efficiency_report(cloud, y_ref=None) -> ProperEfficiencyReport:
    """Supremum of trade-off ratios of the cloud against ``y_ref``; ``cloud``
    is a sample and ``y_ref`` its reference, or ``cloud`` is their ``Cuts``
    and ``y_ref`` is left out.

    Status is 'dominated' as soon as some point gains in a criterion with no
    compensating loss anywhere; otherwise 'proper' with the finite bound.

    A point's best ratio for gain i is gain_i / max_j loss_j, and the point's
    bound is max_i gain_i / max_j loss_j: rounding is monotone, so this equals
    the max-min over (i, j) of the rounded ratios bit for bit. Only the
    points whose bound comes out NaN (no gain and no loss, or inf / inf) and
    the worst point are evaluated by the scalar rule.
    """
    cuts = as_cuts(cloud, y_ref)
    bounds, dominating = cuts.bounds, cuts.dominating
    if dominating.any():
        return ProperEfficiencyReport(
            status=DOMINATED, m_hat=None, worst=None, dominating_index=int(np.argmax(dominating))
        )
    m_hat = float(bounds.max())
    if not m_hat > 0:
        return ProperEfficiencyReport(status=PROPER, m_hat=0.0, worst=None)
    idx = int(np.argmax(bounds))
    pairs = _row_pairs(cuts.y_ref, cuts.points[idx].tolist())
    ratio, i, j = next(t for t in pairs if t[0] == m_hat)
    return ProperEfficiencyReport(status=PROPER, m_hat=m_hat, worst=WorstPair(idx, i, j, ratio))


def combine_with_divergence(
    report: ProperEfficiencyReport, evidence: DivergenceEvidence
) -> ProperEfficiencyReport:
    """Attach probe evidence; a growing ratio sequence flags suspected improperness."""
    status = report.status
    if status == PROPER and evidence.growth:
        status = IMPROPER_SUSPECTED
    return replace(report, status=status, divergence=evidence)


def divergence_probe(
    cloud, ladder, y_ref=None, *, growth_factor: float = 1e3
) -> DivergenceEvidence:
    """Track the sup ratio bound of ``y_ref`` across the level clouds of a
    refinement ladder (``problems.refinement_ladder``) cut from ``cloud``;
    ``cloud`` and ``y_ref`` are as for ``proper_efficiency_report``.

    Level k holds the decisions at offsets 2^-j, j = 1..k, on both sides of
    the anchor (clipped to the domain). The growth flag fires when the
    sequence is nondecreasing and the last bound exceeds the first by the
    growth factor; the exponent is fitted by log-log regression of the bound
    against the smallest offset.
    """
    levels, offsets = ladder_steps(ladder)
    # level k's ratio is the largest bound over its prefix of the ladder's
    # rows, and 0 once that prefix holds a dominating row
    cuts = as_cuts(cloud, y_ref)
    m_hats = level_bounds(cuts, ladder.rows, ladder.ends).max(axis=1)
    dominated = np.logical_or.accumulate(np.r_[False, cuts.dominating[ladder.rows]])
    m_hats[dominated[ladder.ends]] = 0.0
    ratios = m_hats.tolist()
    nondecreasing = all(b >= a * (1.0 - 1e-12) for a, b in zip(ratios, ratios[1:]))
    # a first ratio of 0 asks only for a positive last one
    growth = nondecreasing and ratios[-1] > growth_factor * ratios[0]
    return DivergenceEvidence(
        levels=levels,
        offsets=offsets,
        ratios=tuple(ratios),
        growth=growth,
        fitted_exponent=fit_exponent(offsets, ratios),
    )


def level_bounds(cuts: Cuts, rows, ends) -> np.ndarray:
    """M[k - 1, i], the largest bound among the rows that gain in criterion
    i in the prefix ``rows[:ends[k - 1]]`` of a ladder's rows, 0 without
    one; ``rows`` None is the whole sample."""
    bounds, diffs = cuts.bounds, cuts.diffs
    if rows is not None:
        bounds, diffs = np.take(bounds, rows), np.take(diffs, rows, axis=0)
    gained = np.where(diffs > 0, bounds[:, None], 0.0)
    # a zero row in front: prefix j's maxima are row j
    return np.maximum.accumulate(np.vstack([np.zeros(diffs.shape[1]), gained]))[ends]


def fit_exponent(offsets, values) -> float | None:
    """The slope of log(values) against log(offsets), None unless there are
    two or more values, all positive, at offsets all positive (2^-k
    underflows to 0 from k = 1075 on)."""
    if len(values) < 2 or any(v <= 0 for v in (*offsets, *values)):
        return None
    slope = np.polyfit(np.log(np.asarray(offsets)), np.log(np.asarray(values)), 1)[0]
    return float(slope)
