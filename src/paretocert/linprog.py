"""The cone-margin LP: a dense revised simplex with verifiable certificates.

Every LP the package solves is the cone-margin LP over the rows of an m x p
matrix C, a Gordan alternative (Gordan 1873):

    minimize u   s.t.   u * 1 - lambda + C^T nu = 0,   mass row = 1,
                        u free,   lambda >= 0,   nu >= 0

over the columns (u, lambda, nu): p + 1 equality rows however many rows C
has. The support margin asks it of the sampled cuts when there are three
or more criteria, or two whose float cuts leave no weights (two criteria
otherwise need no LP, see ``support``), and the KKT obstruction test of the
active gradients; :func:`cone_margin` builds and solves it.

Each mass has a start basis feasible in closed form, and u is basic in it,
so no search for a feasible basis is needed. A free basic variable blocks no
direction, so u's row takes no part in the ratio test and u never leaves
(Maros, Computational Techniques of the Simplex Method, 2003). An outcome is
optimal (a primal point and the row duals) or unbounded (a feasible point
and an improving ray); an unbounded hard support margin LP is how an
infeasible margin shows up. :func:`verify_outcome` re-checks either from the
cuts alone, independent of the solution path.

A :class:`ConeInstance` builds its LP matrix once, and :func:`solve_lp`
solves over all its cuts or a prefix of them: a ladder's levels share one
matrix. The basis has p + 1 columns, so the solver factorizes its dense
inverse afresh from the basis columns after every pivot, and no inverse
carries the error of an update. The start inverse with lambda in the mass
row depends on p alone, so it is factorized once per p and kept read-only;
the matrix's head block, its columns (u, lambda), is kept read-only per p and
mass and copied into each instance. Every factorization is
``numpy.linalg.inv`` in :func:`_solve_linear`, the module's one call into
``numpy.linalg``. With the right-hand side the last unit vector and u, of
cost -1, at basis position 0 for good, the basic values are the inverse's
last column and the duals its negated first row.

Columns price in by the largest reduced cost, ties to the lowest index, in
one pass; the ratio test runs over the p + 1 rows in Python floats. Ties at
a ratio of 0 leave by the lexicographic rule (Dantzig, Orden and Wolfe,
Pacific J. Math. 1955) against the basis that began the run of degenerate
pivots, which no basis can then repeat, so the simplex cannot cycle; other
ties leave by the largest pivot element. Dense
arithmetic is fine at the intended scale: a few rows, and columns by the
hundred thousand (124,609 in the margin LPs of the 2-D problem's report).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalBreakdown

_ENTER_TOL = 1e-9
# a column no row blocks is taken for noise below this reduced cost per unit
# of its largest entry
_UNBOUNDED_GUARD = 1e-6
_MAX_ITER = 10000
_PIVOT_TOL = 1e-12  # a direction entry at or below this never pivots

# whether the mass row sums (lambda, nu)
_MASS_ROWS = {"lambda": (True, False), "lambda+nu": (True, True), "nu": (False, True)}
_START_INVERSES: dict[int, np.ndarray] = {}  # p + 1 -> its kept _start_inverse
_HEAD_BLOCKS: dict[tuple[int, str], np.ndarray] = {}  # (p, mass) -> its kept _head_block


@dataclass(frozen=True)
class ConeInstance:
    """The cone-margin LP over the rows of ``cuts`` (m x p, finite, read-only)
    with the mass row on ``mass``; raises ValueError on any other input."""

    cuts: np.ndarray
    mass: str
    # the LP matrix over the columns (u, lambda, nu), read-only
    matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mass not in _MASS_ROWS:
            raise ValueError(f"mass must be one of {', '.join(_MASS_ROWS)}")
        cuts = np.asarray(self.cuts, dtype=float).view()
        if cuts.ndim != 2 or cuts.shape[1] == 0 or not np.all(np.isfinite(cuts)):
            raise ValueError("cuts must be a finite m x p matrix with p >= 1")
        if self.mass == "nu" and len(cuts) == 0:
            raise ValueError("the nu mass over no cuts has no feasible point")
        cuts.setflags(write=False)
        object.__setattr__(self, "cuts", cuts)
        m, p = cuts.shape
        A = np.empty((p + 1, 1 + p + m))
        A[:, : 1 + p] = _head_block(p, self.mass)
        A[:p, 1 + p :] = cuts.T
        A[p, 1 + p :] = float(_MASS_ROWS[self.mass][1])
        A.setflags(write=False)
        object.__setattr__(self, "matrix", A)

    @property
    def num_rows(self) -> int:
        return self.cuts.shape[1] + 1


@dataclass(frozen=True)
class LpOutcome:
    status: str  # 'optimal' | 'unbounded'
    x: tuple[float, ...]  # (u, lambda, nu)
    value: float | None = None  # -u
    basis: tuple[int, ...] | None = None
    duals: tuple[float, ...] | None = None
    ray: tuple[float, ...] | None = None


@dataclass(frozen=True)
class LpVerification:
    ok: bool
    failures: tuple[str, ...]


def _head_block(p: int, mass: str) -> np.ndarray:
    """The columns (u, lambda) of every instance over p criteria with ``mass``, read-only."""
    kept = _HEAD_BLOCKS.get((p, mass))
    if kept is None:
        kept = np.zeros((p + 1, 1 + p))
        kept[:p, 0] = 1.0
        kept[:p, 1:] = -np.eye(p)
        kept[p, 1:] = float(_MASS_ROWS[mass][0])
        kept.setflags(write=False)
        kept = _HEAD_BLOCKS.setdefault((p, mass), kept)
    return kept


# ---------------------------------------------------------------------------
# simplex core

def _solve_linear(M) -> np.ndarray:
    """The inverse of ``M``: LAPACK's gesv against the identity, as
    ``numpy.linalg.solve(M, np.eye(len(M)))`` gives it to the bit."""
    try:
        return np.linalg.inv(M)
    except np.linalg.LinAlgError:
        raise NumericalBreakdown("singular basis matrix") from None


def _factorize(A, basis) -> np.ndarray:
    """The inverse of the basis matrix ``A[:, basis]``, computed afresh."""
    return _solve_linear(A[:, basis])


def _entering(A, priced, binv, x, basis, start):
    """The entering column, its direction ``binv @ A[:, j]`` and the leaving
    position, which is None when no row blocks the direction; None when no
    column prices in. ``priced`` holds the reduced costs of the columns that
    may enter, -inf elsewhere and at columns passed over, and ``x`` the basic
    values. Position 0 holds the free u and never blocks.

    Columns price in by the largest reduced cost, ties to the lowest index.
    Among (near-)minimal ratios of 0 the leaving row is the lexicographically
    least row of ``binv @ start`` over its direction entry (Dantzig, Orden
    and Wolfe 1955); among others, the largest pivot element, then the
    lowest basis index.
    """
    while True:
        j = int(priced.argmax())
        cost = float(priced[j])
        if not cost > _ENTER_TOL:
            return None
        priced[j] = -np.inf
        d = binv @ A[:, j]
        dl = d.tolist()
        rows = [i for i in range(1, len(dl)) if dl[i] > _PIVOT_TOL]
        ratios = [max(x[i], 0.0) / dl[i] for i in rows]
        theta = min(ratios, default=math.inf)
        if not math.isfinite(theta):
            if cost > _UNBOUNDED_GUARD * max(map(abs, A[:, j].tolist())):
                return j, d, None
            continue  # numerically null column; its reduced cost is noise
        ties = [i for i, ratio in zip(rows, ratios) if ratio <= theta + 1e-12]
        if theta == 0.0 and len(ties) > 1:
            lex = (binv[ties] @ start / d[ties, None]).tolist()
            return j, d, ties[lex.index(min(lex))]
        # among (near-)minimal ratios take the largest pivot element for
        # conditioning, then the lowest basis index for determinism
        pos, d_pos = ties[0], dl[ties[0]]
        for i in ties[1:]:
            d_i = dl[i]
            if d_i > d_pos * (1.0 + 1e-12) or (
                abs(d_i - d_pos) <= 1e-12 * d_pos and basis[i] < basis[pos]
            ):
                pos, d_pos = i, d_i
        return j, d, pos


def _revised_simplex(A, basis, binv):
    """Run primal simplex from the feasible ``basis``, whose position 0 holds
    the free u for good, and its inverse ``binv`` (for the lambda masses the
    one kept per p), which the run only reads; returns the status,
    the final basis, its values (the inverse's last column, as a list) and
    duals, and for an unbounded LP the entering column and its direction.

    Each iteration prices the columns in one pass and runs the ratio test over
    p + 1 scalars (``_entering``). ``start`` holds the basis columns that
    began the run of degenerate pivots: the start basis, renewed after each
    pivot that makes progress (leaving value above 0). The rows of ``binv``
    times them are then the unit rows, lexicographically positive.

    After each pivot the inverse is factorized afresh from the basis
    columns, so every pivot and verdict rests on a fresh inverse.
    """
    basis = list(basis)
    start = A[:, basis]
    c_enter = np.zeros(A.shape[1])  # cost 0 but at u, always basic; -inf at basic columns
    c_enter[basis] = -np.inf
    for _ in range(_MAX_ITER):
        x_basic = binv[:, -1].tolist()  # binv times the right-hand side, the last unit vector
        y = 0.0 - binv[0]  # (-1, 0, ..., 0) @ binv, with +0.0 for zeros as the product gives
        # summed row by row, so that equal columns get equal reduced costs
        priced = c_enter - np.add.reduce(y[:, None] * A)
        choice = _entering(A, priced, binv, x_basic, basis, start)
        if choice is None:
            return "optimal", basis, x_basic, y, None, None
        j, d, pos = choice
        if pos is None:
            if float(np.max(d[1:])) > _PIVOT_TOL * 1e-2 * max(1.0, float(np.abs(d).max())):
                # a blocking row exists but its pivot sits below tolerance,
                # above the rounding of the direction; refuse to absorb that
                raise NumericalBreakdown(
                    f"pivot below {_PIVOT_TOL} with no alternative in column {j}"
                )
            return "unbounded", basis, x_basic, y, j, d
        c_enter[basis[pos]] = 0.0
        c_enter[j] = -np.inf
        basis[pos] = j
        binv = _factorize(A, basis)
        if x_basic[pos] > 0.0:
            start = A[:, basis]
    raise NumericalBreakdown("simplex iteration limit exceeded")


def _start_inverse(A, basis) -> np.ndarray:
    """The inverse of the {u, lambda} start basis, a matrix that depends on p
    alone: factorized once per p and kept read-only."""
    kept = _START_INVERSES.get(len(basis))
    if kept is None:
        kept = _factorize(A, basis)
        kept.setflags(write=False)
        kept = _START_INVERSES.setdefault(len(basis), kept)
    return kept


def _start_basis(inst: ConeInstance) -> list[int]:
    """The columns of the start basis :func:`cone_margin` names, u first."""
    p = inst.cuts.shape[1]
    if _MASS_ROWS[inst.mass][0]:
        return list(range(1 + p))
    low = int(np.argmin(inst.cuts[0]))
    return [0, *(1 + i for i in range(p) if i != low), 1 + p]


def solve_lp(instance: ConeInstance, end: int | None = None) -> LpOutcome:
    """Solve a cone-margin instance from its start basis, deterministically,
    over its first ``end`` cuts (all by default), a prefix view of its matrix."""
    m, p = instance.cuts.shape
    on_lambda = _MASS_ROWS[instance.mass][0]
    end = m if end is None else end
    if not (0 if on_lambda else 1) <= end <= m:
        raise ValueError(f"no {instance.mass} mass LP over the first {end} of {m} cuts")
    n = 1 + p + end
    A = instance.matrix[:, :n]
    try:
        basis = _start_basis(instance)
        binv = _start_inverse(A, basis) if on_lambda else _factorize(A, basis)
        status, basis, x_basic, y, enter, direction = _revised_simplex(A, basis, binv)
    except NumericalBreakdown as exc:
        raise NumericalBreakdown(
            f"{exc} in a {p + 1} x {n} cone-margin LP (mass {instance.mass})"
        ) from None
    x = [0.0] * n
    for i, v in zip(basis, x_basic):
        x[i] = v if v > 0.0 else 0.0
    x[0] = x_basic[0] + 0.0  # u is free; +0.0 for a zero, as a product with the inverse gives
    if status == "unbounded":
        ray = np.zeros(n)
        ray[enter] = 1.0
        ray[basis] = -direction
        ray /= np.abs(A[:, enter]).max()  # per unit of the entering column's largest entry
        return LpOutcome(status="unbounded", x=tuple(x), ray=tuple(ray.tolist()))
    return LpOutcome(
        status="optimal",
        x=tuple(x),
        value=0.0 - x[0],  # -u, and 0.0 rather than -0.0 when u is 0
        basis=tuple(sorted(basis)),
        duals=tuple(y.tolist()),
    )


def cone_margin(cuts, *, mass: str) -> LpOutcome:
    """Solve the cone-margin LP over the rows of ``cuts`` (an m x p matrix C):

        minimize u   s.t.   u * 1 - lambda + C^T nu = 0,   mass row = 1,
                            u free,   lambda >= 0,   nu >= 0

    over the columns (u, lambda, nu), in that order; the outcome's value is
    -u*. The mass row sums lambda (``mass="lambda"``: the dual of the support
    margin LP, whose weights are the negated duals of the first p rows), nu
    (``"nu"``: -u* is the largest smallest component of a unit-mass
    combination nu @ C, the KKT obstruction test) or both (``"lambda+nu"``:
    the soft support margin).

    The solve starts from a basis feasible by construction: {u, lambda} with
    u = lambda_i = 1/p when the mass row holds lambda, and otherwise
    {u, nu_1, lambda_i for i != i*} with u = -C_1i* = -min_i C_1i and
    lambda_i = C_1i - C_1i*. The "nu" mass over no cuts has no feasible point
    and raises ValueError, as do non-finite cuts and an unknown mass.
    """
    return solve_lp(ConeInstance(cuts, mass))


# ---------------------------------------------------------------------------
# independent certificate verification

def verify_outcome(inst: ConeInstance, outcome: LpOutcome, *, tol: float = 1e-8) -> LpVerification:
    """Re-check an outcome's certificate numerically from the cuts alone,
    independent of the solver: equality residuals, signs, and the reduced
    costs of an optimum or the ray of an unbounded outcome."""
    cuts = inst.cuts
    p = cuts.shape[1]
    on_lambda, on_nu = _MASS_ROWS[inst.mass]

    def rows(v):
        """The left-hand sides of the p + 1 equality rows at v = (u, lambda, nu)."""
        u, lam, nu = v[0], v[1 : 1 + p], v[1 + p :]
        return np.append(u - lam + nu @ cuts, on_lambda * lam.sum() + on_nu * nu.sum())

    if outcome.status not in ("optimal", "unbounded"):
        return LpVerification(ok=False, failures=(f"unknown status {outcome.status!r}",))
    failures: list[str] = []
    b = np.zeros(p + 1)
    b[p] = 1.0
    x = np.asarray(outcome.x)
    resid = np.abs(rows(x) - b)
    for i in np.flatnonzero(resid > tol * (1.0 + b)):
        failures.append(f"row {i} violated by {resid[i]}")
    for j in np.flatnonzero(x[1:] < -tol * (1.0 + np.abs(x[1:]))) + 1:
        failures.append(f"variable {j} = {x[j]} is negative")
    if outcome.status == "optimal":
        if abs(-x[0] - outcome.value) > tol * (1.0 + abs(outcome.value)):
            failures.append("objective value mismatch")
        y = np.asarray(outcome.duals)
        # reduced costs c - y @ A of the columns u, lambda and nu
        if abs(-1.0 - y[:p].sum()) > tol:
            failures.append("reduced cost of the free u is not zero")
        reduced = np.concatenate([y[:p] - on_lambda * y[p], -(cuts @ y[:p] + on_nu * y[p])])
        for j in np.flatnonzero(reduced > tol) + 1:
            failures.append(f"reduced cost {j} positive")
        off_bound = x[1:] > tol * (1.0 + np.abs(x[1:]))
        for j in np.flatnonzero((reduced < -tol) & off_bound) + 1:
            failures.append(f"reduced cost {j} negative off its lower bound")
    else:
        ray = np.asarray(outcome.ray)
        for i in np.flatnonzero(np.abs(rows(ray)) > tol):
            failures.append(f"ray leaves row {i}")
        for j in np.flatnonzero(ray[1:] < -tol) + 1:
            failures.append(f"ray leaves the lower bound of variable {j}")
        if not -ray[0] > tol:
            failures.append("ray does not improve the objective")
    return LpVerification(ok=not failures, failures=tuple(failures))
