"""Positive supporting hyperplanes at a reference criterion vector.

The support margin LP looks for weights w on the simplex keeping every sample
point on the non-positive side of the hyperplane through the reference:

    maximize t   s.t.   sum(w) = 1,   w_i >= t,   <w, y - y_ref> <= 0  for all y

With C the matrix of normalized cuts (y - y_ref)/max|y - y_ref|, the LP is
solved through its dual, which has p + 1 rows however many cuts there are:

    minimize u   s.t.   u * 1 - lambda + C^T nu = 0,   sum(lambda) = 1,
                        lambda >= 0,   nu >= 0

The margin is t* = u*, and the weights are the duals of the first p rows,
negated. The dual is always feasible (u = lambda_i = 1/p, nu = 0), so it is
unbounded exactly when no weights satisfy every cut. The margin is then
recomputed with soft cuts <w, y - y_ref> + t <= 0, whose dual adds nu to the
mass row (sum(lambda) + sum(nu) = 1), yielding a negative margin that
quantifies the violation trend.

A margin t* > 0 certifies a strictly increasing linear value function that is
maximized at the reference over the sample; we then upgrade it to a strictly
concave witness v(y) = <w, y> - eps * ||y - y_ref||^2 certified on a box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoxTooSmall, DimensionError, NotSupported, NumericalBreakdown, SchemaError
from .geoffrion import fit_exponent
from .linprog import EQ, lp_instance, solve_lp
from .problems import point_array

VANISHING = "vanishing"
PERSISTENT = "persistent"


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

    def value(self, y) -> float:
        w = np.asarray(self.weights)
        a = np.asarray(self.anchor)
        yv = np.asarray(y, dtype=float)
        return float(w @ yv - self.curvature * float((yv - a) @ (yv - a)))

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


def support_margin(cloud, y_ref, *, tol: float = 1e-8) -> MarginReport:
    """Solve the support margin LP for a sample against a reference point."""
    rows = point_array(cloud)
    ref = tuple(float(v) for v in y_ref)
    p = len(ref)
    if rows.shape[1] != p:
        raise SchemaError(f"reference has dimension {p}, cloud has {rows.shape[1]}")
    diffs = rows - np.asarray(ref)
    out = _margin_lp(diffs, p, soft=False)
    feasible = out.status == "optimal"
    if not feasible:
        out = _margin_lp(diffs, p, soft=True)
        if out.status != "optimal":
            raise NumericalBreakdown("support margin relaxation did not solve")
    margin = -float(out.value)
    weights: tuple[float, ...] | None = None
    binding: tuple[int, ...] = ()
    if feasible and margin > tol:
        w = -np.asarray(out.duals[:p])
        weights = tuple(float(v) for v in w)
        slack = diffs @ w
        binding = tuple(int(i) for i in np.flatnonzero(np.abs(slack) <= tol))
    return MarginReport(
        margin=margin,
        weights=weights,
        binding=binding,
        feasible=feasible,
        y_ref=ref,
        sample_size=len(rows),
    )


def _margin_lp(diffs: np.ndarray, p: int, soft: bool):
    """The dual margin LP of the module docstring over ``(u, lambda, nu)``."""
    # each cut is homogeneous in w, so normalizing it changes no hard margin
    # and keeps pivots well away from the tolerance; soft margins are those
    # of the normalized cuts
    scale = np.max(np.abs(diffs), axis=1)
    scale[scale == 0.0] = 1.0
    cuts = np.unique(diffs / scale[:, None], axis=0)  # duplicate rays are redundant
    m = cuts.shape[0]
    A = np.zeros((p + 1, 1 + p + m))
    A[:p, 0] = 1.0
    A[:p, 1 : 1 + p] = -np.eye(p)
    A[:p, 1 + p :] = cuts.T
    A[p, 1 : 1 + p] = 1.0
    if soft:
        A[p, 1 + p :] = 1.0
    b = np.zeros(p + 1)
    b[p] = 1.0
    c = np.zeros(1 + p + m)
    c[0] = -1.0
    lower = np.zeros(1 + p + m)
    lower[0] = -np.inf
    inst = lp_instance(c, A, b, (EQ,) * (p + 1), lower=lower, upper=np.full(1 + p + m, np.inf))
    return solve_lp(inst)


def support_trend(ladder, y_ref, *, persistent_threshold: float = 1e-3) -> TrendReport:
    """Margin sequence of ``y_ref`` across the level clouds of a refinement
    ladder (``problems.refinement_ladder``).

    Level clouds are nested, so the sequence is nonincreasing; the verdict is
    'persistent' when the final margin stays above the threshold and
    'vanishing' otherwise.
    """
    if not ladder:
        raise SchemaError("refinement ladder needs at least one level")
    levels = tuple(range(1, len(ladder) + 1))
    offsets = tuple(2.0 ** (-k) for k in levels)
    reports = [support_margin(cloud_k, y_ref) for cloud_k in ladder]
    margins = tuple(r.margin for r in reports)
    verdict = PERSISTENT if margins[-1] >= persistent_threshold else VANISHING
    return TrendReport(
        levels=levels,
        offsets=offsets,
        margins=margins,
        verdict=verdict,
        threshold=persistent_threshold,
        fitted_exponent=fit_exponent(offsets, margins),
        last=reports[-1],
    )


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
    grid_resolution: int = 0,
) -> WitnessVerification:
    """Mechanically check the three witness properties against a sample.

    (a) strictly increasing on the box: the gradient is affine, so positivity
    at every corner suffices; (b) strict concavity is exactly curvature > 0;
    (c) the anchor strictly beats every other sample point. A positive
    ``grid_resolution`` adds a redundant gradient scan over a box grid.
    """
    checks: list[WitnessCheck] = []
    # gradient component i depends on y_i alone, so the components over all
    # corners (or grid nodes) are those at the box's per-axis values
    worst_component = float(witness.gradient(np.asarray(witness.box).T).min())
    checks.append(
        WitnessCheck(
            name="strictly_increasing_on_box",
            passed=bool(worst_component > 0),
            detail=f"minimum gradient component over box corners: {worst_component}",
        )
    )
    if witness.curvature > 0:
        checks.append(
            WitnessCheck(
                name="strictly_concave",
                passed=True,
                detail=f"curvature {witness.curvature} > 0",
            )
        )
    else:
        checks.append(
            WitnessCheck(name="strictly_concave", passed=False, detail="concave, not strictly")
        )
    worst_index, worst_gap = _smallest_gap(witness, point_array(cloud))
    if worst_index is None:
        checks.append(
            WitnessCheck(
                name="unique_maximum_over_sample",
                passed=True,
                detail="sample contains no point other than the anchor",
            )
        )
    else:
        checks.append(
            WitnessCheck(
                name="unique_maximum_over_sample",
                passed=bool(worst_gap > tie_tol),
                detail=f"smallest value gap {worst_gap} at sample index {worst_index}",
            )
        )
    if grid_resolution > 0:
        axes = np.column_stack([np.linspace(lo, hi, grid_resolution) for lo, hi in witness.box])
        min_grid = float(witness.gradient(axes).min())
        checks.append(
            WitnessCheck(
                name="gradient_positive_on_grid",
                passed=bool(min_grid > 0),
                detail=f"minimum gradient component over {grid_resolution}^p grid: {min_grid}",
            )
        )
    return WitnessVerification(checks=tuple(checks), all_passed=all(c.passed for c in checks))


def _smallest_gap(witness: ValueFunctionWitness, pts: np.ndarray) -> tuple[int | None, float]:
    """The first index of the smallest ``value(anchor) - value(y)`` over the
    points other than the anchor, and that gap, as the scalar ``value`` gives
    them; ``(None, inf)`` when there is no such point.

    The gaps are computed in numpy first. With u = 2^-53, the scalar and the
    numpy value of v(y) = <w, y> - c ||d||^2 (d = y - a, rounded the same in
    both) are each within gamma_{p+2} (|w|.|y| + |c| ||d||^2) of its exact
    value, whatever the order of the sums (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, section 3.1), so their gaps differ by less
    than delta = 2 (p + 4) eps (|w|.|y| + |c| ||d||^2 + |gap|) + tiny, with
    eps = 2u and tiny the smallest normal number, which covers roundings in
    the subnormal range. Only the rows whose numpy gap minus its delta does
    not exceed the numpy minimum plus its delta can hold the scalar minimum;
    they are evaluated again by ``value``, in index order.
    """
    w = np.asarray(witness.weights)
    a = np.asarray(witness.anchor)
    c = witness.curvature
    anchor_value = witness.value(witness.anchor)
    d = pts - a
    sq = np.einsum("ij,ij->i", d, d)
    gaps = anchor_value - (pts @ w - c * sq)
    info = np.finfo(float)
    scale = np.abs(pts) @ np.abs(w) + abs(c) * sq + np.abs(gaps)
    delta = 2 * (len(a) + 4) * info.eps * scale + info.tiny
    others = np.flatnonzero(~(pts == a).all(axis=1))
    if not others.size:
        return None, np.inf
    k = others[np.argmin(gaps[others])]
    # a NaN comparison keeps its row: only provably larger gaps are dropped
    keep = others[~(gaps[others] - delta[others] > gaps[k] + delta[k])]
    worst_index, worst_gap = None, np.inf
    for idx in keep.tolist():
        gap = anchor_value - witness.value(pts[idx])
        if gap < worst_gap:
            worst_index, worst_gap = idx, gap
    return worst_index, worst_gap
