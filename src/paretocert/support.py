"""Positive supporting hyperplanes at a reference criterion vector.

The support margin is the largest t for which weights w on the simplex keep
every sample point on the non-positive side of the hyperplane through the
reference:

    maximize t   s.t.   sum(w) = 1,   w_i >= t,   <w, y - y_ref> <= 0  for all y

Each cut is homogeneous in w, so it is normalized: C holds the cuts
(y - y_ref)/max|y - y_ref|, which changes no hard margin.

With two criteria the weights are (lambda, mu), mu = 1 - lambda, and no LP
is solved. A cut c holds when lambda * (c0 - c1) <= -c1, an upper or a lower
bound on lambda: the gain/loss ratio bound of ``geoffrion`` (Geoffrion,
"Proper efficiency and the theory of vector maximization", 1968). The margin
min(lambda, mu) is concave, so it is min(lambda*, mu*) with lambda* = 1/2
clipped to the interval the bounds leave, and mu* the same from the cuts with
their criteria swapped: 1 - lambda* would lose what lies below 2^-53. The
weights are (lambda*, mu*). Where the float cuts leave either weight no
interval, the LP below decides: it gives the soft margin of cuts that no
weights satisfy, and judges cuts that rounding made contradictory.

Otherwise the LP is solved through its dual, ``linprog.cone_margin`` with
the mass on lambda, which has p + 1 rows however many cuts there are:

    minimize u   s.t.   u * 1 - lambda + C^T nu = 0,   sum(lambda) = 1,
                        lambda >= 0,   nu >= 0

The margin is t* = u*, and the weights are the duals of the first p rows,
negated. The dual is always feasible (u = lambda_i = 1/p, nu = 0), so it is
unbounded exactly when no weights satisfy every cut; every solve starts from
that basis. The margin is then recomputed with soft cuts
<w, y - y_ref> + t <= 0, whose dual adds nu to the mass row
(sum(lambda) + sum(nu) = 1), yielding a negative margin that quantifies the
violation trend. Both solves share one normalized cut matrix.

A sample's cuts against a reference are its differences y - y_ref, computed
once with the trade-off bounds' per-row extremes (``geoffrion.prepare_cuts``),
and normalized on first use by the largest magnitude max(gain, -loss) of
each row (a non-finite y - y_ref is a ``SchemaError``).
Every margin at that reference takes its columns from them as a row set: the
whole sample, a refinement ladder's deepest level, or the CLI's witness
sample, so the columns are those of the row set alone. A margin over the
whole sample takes the cut matrix as it is, with no copy. Equal cuts are not
merged, and need not be: a copy of a column has its twin's reduced cost,
summed row by row, so it never prices in once the twin is basic, and the
p = 2 bounds below ignore the order and the copies of the columns. Along a
ladder the columns are the rows ordered stably by the level at which they
enter, so level k's margin is over a prefix of the columns. With two
criteria, running extremes of the bounds over the columns give every level's
interval at once. The intervals are nested, so the empty ones are
the deepest levels, and each of those is an LP over its prefix: a prefix view
of one LP matrix (and of one for the soft margins, built only if a level is
infeasible). Each LP is solved from the start basis, because pricing stops
at an absolute reduced cost of 1e-9 while margins can shrink like 2^-k.

A margin t* > 0 certifies a strictly increasing linear value function that is
maximized at the reference over the sample; we then upgrade it to a strictly
concave witness v(y) = <w, y> - eps * ||y - y_ref||^2 certified on a box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoxTooSmall, DimensionError, NotSupported, NumericalBreakdown
from .geoffrion import Cuts, as_cuts, fit_exponent
from .linprog import ConeInstance, solve_lp
from .problems import ladder_steps, point_array

VANISHING = "vanishing"
PERSISTENT = "persistent"
_TOL = 1e-8  # a margin at or below this gets no weights


@dataclass(frozen=True)
class MarginReport:
    margin: float
    weights: tuple[float, ...] | None  # present when the margin is positive
    binding: tuple[int, ...]
    feasible: bool  # False when even a zero margin is unattainable
    y_ref: tuple[float, ...]
    sample_size: int


@dataclass(frozen=True)
class TrendReport:
    levels: tuple[int, ...]
    offsets: tuple[float, ...]
    margins: tuple[float, ...]
    verdict: str  # 'vanishing' | 'persistent'
    threshold: float
    fitted_exponent: float | None
    last: MarginReport


@dataclass(frozen=True)
class ValueFunctionWitness:
    """v(y) = <weights, y> - curvature * ||y - anchor||^2, certified on ``box``."""

    weights: tuple[float, ...]
    curvature: float
    anchor: tuple[float, ...]
    box: tuple[tuple[float, float], ...]

    def gradient(self, y) -> np.ndarray:
        """The gradient at ``y``, or at each row of an (n, p) array ``y``.
        Component i depends on y_i alone."""
        w = np.asarray(self.weights)
        a = np.asarray(self.anchor)
        yv = np.asarray(y, dtype=float)
        return w - 2.0 * self.curvature * (yv - a)


@dataclass(frozen=True)
class WitnessCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class WitnessVerification:
    checks: tuple[WitnessCheck, ...]
    all_passed: bool


def support_margin(cloud, y_ref=None, *, tol: float = _TOL, rows=None) -> MarginReport:
    """Solve the support margin LP for a sample against a reference point.

    ``cloud`` is the sample and ``y_ref`` the reference, or ``cloud`` is the
    ``Cuts`` of a sample against its reference and ``y_ref`` is left out.
    ``rows``, sorted indices, restricts the LP to those sample points; the
    report's ``binding`` and ``sample_size`` are then relative to them.
    Without ``rows`` the LP is over the whole sample.
    """
    cuts = as_cuts(cloud, y_ref)
    if rows is not None and not len(rows):
        raise ValueError("empty row set")
    return _level_margins(cuts, rows, None, 1, tol)[1]


def support_trend(cloud, ladder, y_ref=None, *, persistent_threshold: float = 1e-3) -> TrendReport:
    """Margin sequence of a reference across the level clouds of a refinement
    ladder (``problems.refinement_ladder``) cut from a sample; ``cloud`` and
    ``y_ref`` are as for ``support_margin``.

    Level clouds are nested, so the sequence is nonincreasing; the verdict is
    'persistent' when the final margin stays above the threshold and
    'vanishing' otherwise.
    """
    levels, offsets = ladder_steps(ladder)
    cuts = as_cuts(cloud, y_ref)
    margins, last = _level_margins(cuts, ladder.rows, ladder.entry, len(levels), _TOL)
    verdict = PERSISTENT if margins[-1] >= persistent_threshold else VANISHING
    return TrendReport(
        levels=levels,
        offsets=offsets,
        margins=margins,
        verdict=verdict,
        threshold=persistent_threshold,
        fitted_exponent=fit_exponent(offsets, margins),
        last=last,
    )


def _level_margins(
    cuts: Cuts, rows: np.ndarray | None, entry: np.ndarray | None, levels: int, tol: float
) -> tuple[tuple[float, ...], MarginReport]:
    """The margin over each level k = 1..levels of the sorted sample rows
    ``rows``, ``rows[i]`` entering at level ``entry[i]``, and the report of
    the deepest level; ``entry`` None is one level, and ``rows`` None then
    the whole sample."""
    if entry is None:
        columns = cuts.cuts if rows is None else np.take(cuts.cuts, rows, axis=0)
        ends = np.array([len(columns)])
    else:
        # stable: level k is a prefix of the columns, in row order within a level
        by_level = np.argsort(entry, kind="stable")
        columns = np.take(cuts.cuts, rows[by_level], axis=0)
        ends = np.searchsorted(entry[by_level], np.arange(1, levels + 1), side="right")
    p = len(cuts.y_ref)
    margins: list[float] = []
    feasible = True
    if p == 2:
        # each weight from its own bounds, not as 1 minus the other; the LP
        # solves only the levels where either interval is empty, a suffix
        lam = _two_criteria_weight(columns, ends)
        mu = _two_criteria_weight(columns[:, ::-1], ends)
        held = np.minimum(lam, mu)  # NaN where either is
        # -(0.0 - t), as the LP's value: a zero margin reads -0.0 either way
        margins = (-(0.0 - held[~np.isnan(held)])).tolist()
        w = np.array([lam[-1], mu[-1]])
    hard = soft = None  # each level's LP is over a prefix of these instances' columns
    for end in ends[len(margins) :].tolist():
        hard = hard or ConeInstance(columns, "lambda")
        out = solve_lp(hard, end)
        feasible = out.status == "optimal"
        if not feasible:
            soft = soft or ConeInstance(columns, "lambda+nu")
            out = solve_lp(soft, end)
            if out.status != "optimal":
                raise NumericalBreakdown("support margin relaxation did not solve")
        margins.append(-float(out.value))
        w = -np.asarray(out.duals[:p])
    margin = margins[-1]
    weights: tuple[float, ...] | None = None
    binding: tuple[int, ...] = ()
    if feasible and margin > tol:
        weights = tuple(float(v) for v in w)
        slack = (cuts.diffs if rows is None else np.take(cuts.diffs, rows, axis=0)) @ w
        binding = tuple(int(i) for i in np.flatnonzero(np.abs(slack) <= tol))
    last = MarginReport(
        margin=margin,
        weights=weights,
        binding=binding,
        feasible=feasible,
        y_ref=cuts.y_ref,
        sample_size=len(columns),
    )
    return tuple(margins), last


def _two_criteria_weight(columns: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """For p = 2, the first weight lambda* of the margin over each prefix
    ``columns[:end]``, or NaN where no lambda keeps every cut.

    A cut c holds when lambda * (c0 - c1) <= -c1: an upper bound on lambda if
    c0 > c1, a lower bound if c0 < c1, and no lambda at all if c0 = c1 > 0.
    Each bound is one rounded division, and a prefix's extremes are bounds
    themselves, so a level's lambda* does not depend on the column order.
    """
    if not np.isfinite(columns).all():
        raise ValueError("cuts must be finite")  # as the LP's instance checks
    c0, c1 = columns[:, 0], columns[:, 1]
    slope = c0 - c1
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = -c1 / slope
    none = (slope == 0) & (c1 > 0)
    lower = np.where(slope < 0, bound, np.where(none, np.inf, -np.inf))
    upper = np.where(slope > 0, bound, np.where(none, -np.inf, np.inf))
    lo = np.maximum.accumulate(np.concatenate(([-np.inf], lower)))[ends]
    hi = np.minimum.accumulate(np.concatenate(([np.inf], upper)))[ends]
    return np.where(lo <= hi, np.minimum(np.maximum(0.5, lo), hi), np.nan)


def build_witness(
    y_ref, weights, box, cloud, *, curvature: float | None = None
) -> ValueFunctionWitness:
    """Construct the quadratic witness from positive support weights.

    The default curvature is half the largest value keeping the gradient
    strictly positive across the box; pass ``curvature=0.0`` for the purely
    linear witness (concave but not strictly).
    """
    anchor = tuple(float(v) for v in y_ref)
    w = tuple(float(v) for v in weights)
    p = len(anchor)
    if len(w) != p:
        raise NotSupported(f"expected {p} weights, got {len(w)}")
    if any(v <= 0 for v in w):
        raise NotSupported("witness construction needs strictly positive weights")
    box_t = tuple((float(lo), float(hi)) for lo, hi in box)
    if len(box_t) != p:
        raise BoxTooSmall(f"box has {len(box_t)} dimensions, expected {p}")
    widths = [hi - lo for lo, hi in box_t]
    if any(width <= 0 for width in widths):
        raise BoxTooSmall("witness box must have positive width in every dimension")
    for i, (lo, hi) in enumerate(box_t):
        if not lo <= anchor[i] <= hi:
            raise BoxTooSmall(f"anchor coordinate {i} outside the box")
    pts = point_array(cloud)
    if pts.shape[1] != p:
        raise DimensionError(f"cloud has dimension {pts.shape[1]}, expected {p}")
    lo, hi = np.asarray(box_t).T
    outside = np.argwhere(~((lo <= pts) & (pts <= hi)))
    if len(outside):
        idx, i = outside[0].tolist()
        raise BoxTooSmall(f"cloud point {idx} outside the box in dimension {i}")
    if curvature is None:
        curvature = 0.5 * min(w[i] / (2.0 * widths[i]) for i in range(p))
    elif curvature < 0:
        raise NotSupported("curvature must be nonnegative")
    elif curvature > 0 and any(w[i] - 2.0 * curvature * widths[i] <= 0 for i in range(p)):
        raise NotSupported("curvature too large: the witness would not be increasing on the box")
    return ValueFunctionWitness(weights=w, curvature=float(curvature), anchor=anchor, box=box_t)


def verify_witness(
    witness: ValueFunctionWitness,
    cloud,
    *,
    tie_tol: float = 1e-12,
) -> WitnessVerification:
    """Mechanically check the three witness properties against a sample.

    (a) strictly increasing on the box: the gradient is affine, so positivity
    at every corner suffices; (b) strict concavity is exactly curvature > 0;
    (c) the anchor strictly beats every other sample point.
    """
    # gradient component i depends on y_i alone, so the components over all
    # corners are those at the box's per-axis values
    with np.errstate(over="ignore", invalid="ignore"):  # an offset that overflows is not finite
        worst_component = float(witness.gradient(np.asarray(witness.box).T).min())
    detail = f"minimum gradient component over box corners: {worst_component}"
    checks = [WitnessCheck("strictly_increasing_on_box", bool(worst_component > 0), detail)]
    concave = bool(witness.curvature > 0)
    detail = f"curvature {witness.curvature} > 0" if concave else "concave, not strictly"
    checks.append(WitnessCheck("strictly_concave", concave, detail))
    worst_index, worst_gap = _smallest_gap(witness, point_array(cloud))
    if worst_index is None:
        passed, detail = True, "sample contains no point other than the anchor"
    else:
        passed = bool(worst_gap > tie_tol)
        detail = f"smallest value gap {worst_gap} at sample index {worst_index}"
    checks.append(WitnessCheck("unique_maximum_over_sample", passed, detail))
    return WitnessVerification(checks=tuple(checks), all_passed=all(c.passed for c in checks))


def _smallest_gap(witness: ValueFunctionWitness, pts: np.ndarray) -> tuple[int | None, float]:
    """The first index of the smallest gap v(anchor) - v(y) over the points
    other than the anchor, and that gap; ``(None, inf)`` without such a point.

    Each gap is c ||d||^2 - <w, d> with d = y - anchor, summed in criterion
    order, so its bits depend on its row alone. Away from underflow its error
    is below (p + 5) 2^-53 (sum |w_i d_i| + c ||d||^2), relative to that sum,
    not to |v(y)|.
    """
    sq, lin, other = 0.0, 0.0, False
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow gives a non-finite gap
        for col, a, w in zip(pts.T, witness.anchor, witness.weights):
            d = col - a
            sq = sq + d * d
            lin = lin + w * d
            other = other | (col != a)
        gaps = witness.curvature * sq - lin
    others = np.flatnonzero(other)
    if not others.size:
        return None, np.inf
    k = others[np.argmin(gaps[others])]  # the first NaN, if any
    return int(k), float(gaps[k])
