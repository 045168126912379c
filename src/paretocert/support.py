"""Positive supporting hyperplanes at a reference criterion vector.

The support margin is the largest t for which weights w on the simplex keep
every sample point on the non-positive side of the hyperplane through the
reference:

    maximize t   s.t.   sum(w) = 1,   w_i >= t,   <w, y - y_ref> <= 0  for all y

Each cut is homogeneous in w, so it is normalized: C holds the cuts
(y - y_ref)/max|y - y_ref|, which changes no hard margin.

With two criteria the trade-off bounds give the weights (lambda, mu)
(Geoffrion, "Proper efficiency and the theory of vector maximization",
1968): a row gaining r times what it loses holds when the weight of its gain
is at most 1/(1 + r) and that of its loss at least 1/(1 + 1/r). With M0, M1
the largest bounds of the rows gaining in criteria 0 and 1
(``geoffrion.level_bounds``), lambda is in [1/(1 + 1/M1), 1/(1 + M0)] and mu
in [1/(1 + 1/M0), 1/(1 + M1)]. Each is 1/2 clipped to its own interval (1
minus the other would lose what lies below 2^-53), and the margin
min(lambda*, mu*) is min(1/2, 1/(1 + M)), M = max(M0, M1) the divergence
probe's ratio. A row gaining in both criteria (M0 = M1 = inf), or any other
empty interval, leaves the level to the LP below: it gives the soft margin
of cuts that no weights satisfy, and judges cuts that rounding made
contradictory.

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
p = 2 bounds ignore the order and the copies of the rows. A ladder holds its
rows ordered stably by the level at which they enter (``problems.Ladder``),
and the columns are in that order, so level k's margin is over a prefix of
the columns, and a row set is a ladder of one level. With two criteria,
``geoffrion.level_bounds`` gives every level's bounds at once. They grow
with the level, so the intervals are nested, the empty ones are the deepest
levels, and each of those is an LP over its prefix: a prefix view of one LP
matrix (and of one for the soft margins, built only if a level is
infeasible). Each LP is solved from the start basis, because pricing stops
at an absolute reduced cost of 1e-9 while margins can shrink like 2^-k.

A margin t* > 0 certifies a strictly increasing linear value function that is
maximized at the reference over the sample; we then upgrade it to a strictly
concave witness v(y) = <w, y> - eps * ||y - y_ref||^2 certified on a box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoxTooSmall, DimensionError, NotSupported, NumericalBreakdown, SchemaError
from .geoffrion import Cuts, as_cuts, fit_exponent, level_bounds
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
    feasible: bool  # some weights summing to 1 keep every cut <= 0; else the margin is soft
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
    ``rows``, indices, restricts the LP to those sample points, its columns
    in their order; the report's ``binding`` and ``sample_size`` are then
    relative to them, sorted.
    Without ``rows`` the LP is over the whole sample.
    """
    cuts = as_cuts(cloud, y_ref)
    if rows is not None and not len(rows):
        raise ValueError("empty row set")
    ends = np.array([len(cuts) if rows is None else len(rows)])
    return _level_margins(cuts, rows, ends, tol)[1]


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
    margins, last = _level_margins(cuts, ladder.rows, ladder.ends, _TOL)
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
    cuts: Cuts, rows: np.ndarray | None, ends: np.ndarray, tol: float
) -> tuple[tuple[float, ...], MarginReport]:
    """The margin over each level k, the prefix ``rows[:ends[k - 1]]`` of the
    sample rows ``rows`` (None for the whole sample), and the report of the
    deepest level, whose ``binding`` is relative to its rows sorted."""
    if not np.isfinite(cuts.diffs).all():  # the whole sample, whichever rows are read
        k = np.argmin(np.isfinite(cuts.diffs).all(axis=1))
        raise SchemaError(f"point {k}: y - y_ref is not finite at {cuts.y_ref}")
    p = len(cuts.y_ref)
    margins: list[float] = []
    feasible = True
    if p == 2:
        # the LP solves only the levels where either interval is empty, a suffix
        pair = _two_criteria_weights(level_bounds(cuts, rows, ends))
        held = pair.min(axis=1)  # NaN where either weight is
        # -(0.0 - t), as the LP's value: a zero margin reads -0.0 either way
        margins = (-(0.0 - held[~np.isnan(held)])).tolist()
        w = pair[-1]
    hard = soft = None  # each level's LP is over a prefix of these instances' columns
    for end in ends[len(margins) :].tolist():
        if hard is None:
            columns = cuts.cuts if rows is None else np.take(cuts.cuts, rows, axis=0)
            hard = ConeInstance(columns, "lambda")
        out = solve_lp(hard, end)
        feasible = out.status == "optimal"
        if not feasible:
            soft = soft or ConeInstance(hard.cuts, "lambda+nu")
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
        slack = (cuts.diffs if rows is None else np.take(cuts.diffs, np.sort(rows), axis=0)) @ w
        binding = tuple(int(i) for i in np.flatnonzero(np.abs(slack) <= tol))
    last = MarginReport(
        margin=margin,
        weights=weights,
        binding=binding,
        feasible=feasible,
        y_ref=cuts.y_ref,
        sample_size=int(ends[-1]),
    )
    return tuple(margins), last


def _two_criteria_weights(bounds: np.ndarray) -> np.ndarray:
    """For p = 2, the weights (lambda*, mu*) of each level from its bounds
    (M0, M1), as the module docstring states; NaN where either has no interval."""
    with np.errstate(divide="ignore", over="ignore"):  # 1/0 and 1/subnormal are inf
        upper = 1.0 / (1.0 + bounds)
        lower = 1.0 / (1.0 + 1.0 / bounds[:, ::-1])
    weights = np.minimum(np.maximum(0.5, lower), upper)
    weights[~(lower <= upper).all(axis=1)] = np.nan
    return weights


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
