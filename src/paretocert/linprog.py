"""Self-contained dense linear programming with verifiable certificates.

Primal simplex (deterministic pricing) over instances in the general form

    maximize c @ x   subject to   A_i x {<=, =, >=} b_i,   lower <= x <= upper

with bounds allowed to be infinite. Every outcome carries a certificate:
optimality (primal point + row duals for a complementary-slackness check),
infeasibility (Farkas row multipliers) or unboundedness (a feasible point and
an improving ray). :func:`verify_outcome` re-checks any certificate
numerically and is independent of the solution path.

A caller that knows a primal feasible basis passes it as the start of
:func:`solve_lp`, which then runs phase 2 from it alone. Phase 1 (minimizing
a sum of artificial variables) serves only the instances solved without a
start, and is where infeasibility is detected and certified.

:func:`cone_margin` builds the one LP the rest of the package solves: the
largest smallest component of a unit-mass combination of a cone's generators,
a Gordan alternative (Gordan 1873). The support margin asks it of the sampled
cuts, the KKT obstruction test of the active gradients. It always passes a
start, feasible by construction, except for the one instance that has none.

Each simplex phase keeps one dense basis inverse (the product form of the
inverse, Dantzig and Orchard-Hays 1954): phase 1 starts from the identity of
the artificial basis and phase 2 from a fresh factorization; every pivot
applies a rank-one (eta) update, and the inverse is factorized afresh from
the basis columns every ``_REFACTOR_EVERY`` pivots, before a small pivot is
taken and before a phase concludes. Basic values, duals and directions are
products with the inverse; every factorization goes through
:func:`_solve_linear`, the module's one call into ``numpy.linalg``.

Columns price in by the largest reduced cost, ties to the lowest index.
After a degenerate pivot (the leaving variable was at 0) pricing follows
Bland's rule (Bland 1977: lowest entering index, lowest leaving basis index
among the minimal ratios) until a pivot makes progress; a cycle would consist
of degenerate pivots only, all of them Bland's, so the simplex cannot cycle.
Dense arithmetic is fine at the intended scale: a few rows, up to thousands
of columns.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import NumericalBreakdown

LE = "<="
EQ = "="
GE = ">="

_ENTER_TOL = 1e-9
_UNBOUNDED_GUARD = 1e-6  # a no-pivot column below this reduced cost is numerical noise
_MAX_ITER = 10000
_REFACTOR_EVERY = 32  # pivots between fresh factorizations of the basis inverse
_SMALL_PIVOT = 1e-3  # relative to the direction's largest entry
_PIVOT_TOL = 1e-12  # a direction entry at or below this never pivots


@dataclass(frozen=True)
class LpInstance:
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    relations: tuple[str, ...]
    lower: np.ndarray
    upper: np.ndarray

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]

    @property
    def num_vars(self) -> int:
        return self.A.shape[1]


def lp_instance(c, A, b, relations, lower=None, upper=None) -> LpInstance:
    """Build a validated instance. Default bounds are 0 <= x < infinity."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float).reshape(len(b), len(c))
    b = np.asarray(b, dtype=float)
    n = len(c)
    lower = np.zeros(n) if lower is None else np.asarray(lower, dtype=float)
    upper = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise ValueError("objective, matrix and right-hand side must be finite")
    if np.any(np.isnan(lower)) or np.any(np.isnan(upper)) or np.any(lower > upper):
        raise ValueError("inconsistent variable bounds")
    relations = tuple(relations)
    if len(relations) != len(b) or any(r not in (LE, EQ, GE) for r in relations):
        raise ValueError("relations must be one of <=, =, >= per row")
    for arr in (c, A, b, lower, upper):
        arr.setflags(write=False)
    return LpInstance(c=c, A=A, b=b, relations=relations, lower=lower, upper=upper)


@dataclass(frozen=True)
class LpOutcome:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    x: tuple[float, ...] | None = None
    value: float | None = None
    basis: tuple[int, ...] | None = None
    duals: tuple[float, ...] | None = None
    farkas: tuple[float, ...] | None = None
    ray: tuple[float, ...] | None = None


@dataclass(frozen=True)
class LpVerification:
    ok: bool
    failures: tuple[str, ...]


# ---------------------------------------------------------------------------
# standard-form conversion

class _Standardized:
    """Ax = b with x >= 0, plus the bookkeeping needed to translate back."""

    def __init__(self, inst: LpInstance):
        m, n = inst.num_rows, inst.num_vars
        no_lower, no_upper = np.isinf(inst.lower), np.isinf(inst.upper)
        free = no_lower & no_upper
        # one column per variable, two for a free one (x = x+ - x-); a
        # variable bounded above only is mirrored (x = upper - column)
        col_var = np.repeat(np.arange(n), np.where(free, 2, 1))
        col_sign = np.where(no_lower & ~no_upper, -1.0, 1.0)[col_var]
        col_sign[1:][col_var[1:] == col_var[:-1]] = -1.0
        shift = np.where(no_lower, np.where(no_upper, 0.0, inst.upper), inst.lower)
        # a variable bounded on both sides gets a cap row: column <= width
        cap_cols = np.flatnonzero(~(no_lower | no_upper)[col_var])
        ns, k = len(col_var), len(cap_cols)
        mt = m + k
        relations = np.asarray(inst.relations + (LE,) * k)
        slack_rows = np.flatnonzero(relations != EQ)
        A_std = np.zeros((mt, ns + len(slack_rows)))
        A_std[:m, :ns] = inst.A[:, col_var] * col_sign
        A_std[m + np.arange(k), cap_cols] = 1.0
        A_std[slack_rows, ns + np.arange(len(slack_rows))] = np.where(
            relations[slack_rows] == LE, 1.0, -1.0
        )
        b_std = np.concatenate(
            [inst.b - inst.A @ shift, (inst.upper - inst.lower)[col_var[cap_cols]]]
        )
        row_sign = np.where(b_std < 0, -1.0, 1.0)
        A_std *= row_sign[:, None]
        b_std *= row_sign

        c_std = np.zeros(A_std.shape[1])
        c_std[:ns] = inst.c[col_var] * col_sign

        self.inst = inst
        self.A = A_std
        self.b = b_std
        self.c = c_std
        self.row_sign = row_sign
        self.row_orig = np.concatenate([np.arange(m), np.full(k, -1)])  # -1 marks cap rows
        self.col_var = col_var
        self.col_sign = col_sign
        self.shift = shift

    def x_original(self, x_std: np.ndarray) -> np.ndarray:
        x = self.shift.copy()
        np.add.at(x, self.col_var, self.col_sign * x_std[: len(self.col_var)])
        return x

    def ray_original(self, ray_std: np.ndarray) -> np.ndarray:
        ray = np.zeros(self.inst.num_vars)
        np.add.at(ray, self.col_var, self.col_sign * ray_std[: len(self.col_var)])
        return ray

    def duals_original(self, y_std: np.ndarray) -> np.ndarray:
        y = np.zeros(self.inst.num_rows)
        kept = self.row_orig >= 0
        y[self.row_orig[kept]] = (self.row_sign * y_std)[kept]
        return y

    def drop_rows(self, positions: list[int]) -> None:
        keep = np.ones(self.A.shape[0], dtype=bool)
        keep[positions] = False
        self.A = self.A[keep]
        self.b = self.b[keep]
        self.row_sign = self.row_sign[keep]
        self.row_orig = self.row_orig[keep]


# ---------------------------------------------------------------------------
# simplex core

def _solve_linear(M, rhs):
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        raise NumericalBreakdown("singular basis matrix") from None


def _factorize(A, basis) -> np.ndarray:
    """The inverse of the basis matrix ``A[:, basis]``, computed afresh."""
    return _solve_linear(A[:, basis], np.eye(len(basis)))


def _pivot(binv: np.ndarray, d: np.ndarray, pos: int) -> None:
    """Eta update in place: ``binv`` becomes the inverse of the basis whose
    column ``pos`` is replaced by the column with direction ``d = binv @ a``."""
    row = binv[pos] / d[pos]
    binv -= d[:, None] * row
    binv[pos] = row


def _entering(A, reduced, enterable, binv, x_basic, basis, bland):
    """The entering column, its direction ``binv @ A[:, j]`` and the leaving
    position, which is None when no row blocks the direction; None when no
    column prices in.

    Columns price in by the largest reduced cost, ties to the lowest index,
    or with ``bland`` by the lowest index alone, and the leaving row is then
    the lowest basis index among the minimal ratios (Bland's rule).
    """
    eligible = enterable & (reduced > _ENTER_TOL)
    while eligible.any():
        j = int(np.argmax(eligible if bland else np.where(eligible, reduced, -np.inf)))
        eligible[j] = False
        d = binv @ A[:, j]
        rows = (d > _PIVOT_TOL).nonzero()[0]
        ratios = np.maximum(x_basic[rows], 0.0) / d[rows]
        theta = ratios.min(initial=np.inf)
        if not math.isfinite(theta):
            if reduced[j] > _UNBOUNDED_GUARD:
                return j, d, None
            continue  # numerically null column; its reduced cost is noise
        ties = rows[ratios <= theta + 1e-12]
        if bland:
            return j, d, int(ties[np.argmin(np.asarray(basis)[ties])])
        # among (near-)minimal ratios take the largest pivot element for
        # conditioning, then the lowest basis index for determinism
        pos, d_pos = int(ties[0]), float(d[ties[0]])
        for i, d_i in zip(ties[1:].tolist(), d[ties[1:]].tolist()):
            if d_i > d_pos * (1.0 + 1e-12) or (
                abs(d_i - d_pos) <= 1e-12 * d_pos and basis[i] < basis[pos]
            ):
                pos, d_pos = i, d_i
        return j, d, pos
    return None


def _revised_simplex(A, b, c, basis, binv, num_enterable):
    """Run primal simplex from a feasible basis with inverse ``binv``; columns
    >= num_enterable never enter.

    A degenerate pivot (leaving value 0) switches pricing to Bland's rule
    until a pivot makes progress.

    ``binv`` is updated per pivot and factorized afresh every
    ``_REFACTOR_EVERY`` pivots, before a pivot below ``_SMALL_PIVOT`` of its
    direction is taken, and before the run concludes optimal or unbounded,
    so that no verdict rests on accumulated update error and the inverse
    returned carries no updates.
    """
    n = A.shape[1]
    basis = list(basis)
    c_basis = c[basis]
    enterable = np.zeros(n, dtype=bool)
    enterable[:num_enterable] = True
    enterable[basis] = False
    pivots = 0  # since binv was last factorized
    bland = False
    for _ in range(_MAX_ITER):
        x_basic = binv @ b
        y = c_basis @ binv
        reduced = c - y @ A
        choice = _entering(A, reduced, enterable, binv, x_basic, basis, bland)
        if choice is None or choice[2] is None:
            if pivots:
                binv = _factorize(A, basis)
                pivots = 0
                continue
            if choice is None:
                return "optimal", basis, x_basic, y, None, None, binv
            j, d, _ = choice
            if float(np.max(d)) > _PIVOT_TOL * 1e-2:
                # a blocking row exists but its pivot sits below tolerance;
                # refuse to absorb that silently
                raise NumericalBreakdown(
                    f"pivot below {_PIVOT_TOL} with no alternative in column {j}"
                )
            return "unbounded", basis, x_basic, y, j, d, binv
        j, d, pos = choice
        if pivots and abs(d[pos]) < _SMALL_PIVOT * np.max(np.abs(d)):
            # a small pivot magnifies the update error: confirm it with a
            # fresh factorization first
            binv = _factorize(A, basis)
            pivots = 0
            continue
        bland = not x_basic[pos] > 0.0
        enterable[basis[pos]] = basis[pos] < num_enterable
        enterable[j] = False
        basis[pos] = j
        c_basis[pos] = c[j]
        pivots += 1
        if pivots >= _REFACTOR_EVERY:
            binv = _factorize(A, basis)
            pivots = 0
        else:
            _pivot(binv, d, pos)
    raise NumericalBreakdown("simplex iteration limit exceeded")


@contextmanager
def _phase(number: int, std: _Standardized):
    """Name the simplex phase and the standardized LP's shape in a breakdown."""
    try:
        yield
    except NumericalBreakdown as exc:
        rows, cols = std.A.shape
        raise NumericalBreakdown(
            f"{exc} in phase {number} of a {rows} x {cols} standardized LP"
        ) from None


def _start_basis(std: _Standardized, start) -> tuple[list[int], np.ndarray]:
    """The standardized basis of the variables named by ``start`` and its
    inverse. A free variable whose basic value comes out negative takes its
    negative part's column; raises ValueError unless the basis is primal
    feasible."""
    n = std.inst.num_vars
    start = np.asarray(start, dtype=int)
    if start.shape != (std.A.shape[0],) or len(set(start.tolist())) != len(start) or not (
        (0 <= start) & (start < n)
    ).all():
        raise ValueError("a start names one distinct variable per standardized row")
    cols = np.searchsorted(std.col_var, start)  # each variable's first column
    binv = _factorize(std.A, cols)
    x_basic = binv @ std.b
    negative = (x_basic < 0) & (np.bincount(std.col_var, minlength=n)[start] == 2)
    cols[negative] += 1  # x = x+ - x-: the column of x- is the negated one
    binv[negative] *= -1.0
    x_basic[negative] *= -1.0
    if (x_basic < -1e-9 * (1.0 + float(np.abs(std.b).sum()))).any():
        raise ValueError("the start basis is not primal feasible")
    return cols.tolist(), binv


def solve_lp(instance: LpInstance, start=None) -> LpOutcome:
    """Solve an instance, deterministically.

    ``start`` names the variables of a primal feasible basis, one per row of
    the standardized instance; phase 2 then runs from it and phase 1 is
    skipped. Without a start, phase 1 finds a feasible basis.
    """
    std = _Standardized(instance)
    m, n_cols = std.A.shape

    if m == 0:
        # bounds only; optimum sits at the bound favored by the objective
        c, lower, upper = instance.c, instance.lower, instance.upper
        x = np.where(c > 0, upper, lower)
        x = np.where(c == 0, np.where(np.isinf(lower), np.minimum(upper, 0.0), lower), x)
        if np.any(np.isinf(x[c > 0])) or np.any(np.isinf(x[c < 0])):
            ray = np.where((c > 0) & np.isinf(upper), 1.0, 0.0)
            ray += np.where((c < 0) & np.isinf(lower), -1.0, 0.0)
            feas = np.where(np.isinf(lower), np.minimum(upper, 0.0), lower)
            return LpOutcome(
                status="unbounded",
                x=tuple(feas.tolist()),
                ray=tuple(ray.tolist()),
            )
        return LpOutcome(
            status="optimal",
            x=tuple(x.tolist()),
            value=float(c @ x),
            basis=(),
            duals=(),
        )

    if start is None:
        with _phase(1, std):
            # minimize the artificial total from the all-artificial basis, whose
            # inverse is the identity
            A1 = np.hstack([std.A, np.eye(m)])
            c1 = np.concatenate([np.zeros(n_cols), -np.ones(m)])
            basis = list(range(n_cols, n_cols + m))
            status, basis, x_basic, y, _, _, binv = _revised_simplex(
                A1, std.b, c1, basis, np.eye(m), n_cols
            )
            if status != "optimal":
                raise NumericalBreakdown("phase 1 terminated abnormally")
            feas_tol = 1e-9 * (1.0 + float(np.abs(std.b).sum()))
            if float(c1[basis] @ x_basic) < -feas_tol:
                farkas = std.duals_original(y)
                return LpOutcome(status="infeasible", farkas=tuple(farkas.tolist()))

            # drive artificial variables out of the basis, reading each row of
            # the inverse off the fresh one phase 1 ends with; fully dependent
            # rows are dropped
            in_basis = np.zeros(n_cols, dtype=bool)
            in_basis[[j for j in basis if j < n_cols]] = True
            redundant: list[int] = []
            for pos in range(m):
                if basis[pos] < n_cols:
                    continue
                entries = binv[pos] @ A1[:, :n_cols]
                movable = np.flatnonzero(~in_basis & (np.abs(entries) > _PIVOT_TOL))
                if movable.size == 0:
                    redundant.append(pos)
                    continue
                j = int(movable[0])
                basis[pos] = j
                in_basis[j] = True
                binv = _factorize(A1, basis)  # the pivot may be as small as _PIVOT_TOL
            if redundant:
                std.drop_rows(redundant)
                dropped = set(redundant)
                basis = [j for pos, j in enumerate(basis) if pos not in dropped]

    with _phase(2, std):
        if start is None:
            binv = _factorize(std.A, basis)
        else:
            basis, binv = _start_basis(std, start)
        status, basis, x_basic, y, enter, direction, _ = _revised_simplex(
            std.A, std.b, std.c, basis, binv, n_cols
        )
    x_std = np.zeros(n_cols)
    x_std[basis] = np.maximum(x_basic, 0.0)
    x = std.x_original(x_std)
    if status == "unbounded":
        ray_std = np.zeros(n_cols)
        ray_std[enter] = 1.0
        ray_std[basis] = -direction
        ray = std.ray_original(ray_std)
        return LpOutcome(
            status="unbounded",
            x=tuple(x.tolist()),
            ray=tuple(ray.tolist()),
        )
    duals = std.duals_original(y)
    return LpOutcome(
        status="optimal",
        x=tuple(x.tolist()),
        value=float(instance.c @ x),
        basis=tuple(sorted(basis)),
        duals=tuple(duals.tolist()),
    )


# ---------------------------------------------------------------------------
# the cone-margin LP

_MASS_ROWS = {"lambda": (True, False), "lambda+nu": (True, True), "nu": (False, True)}


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
    lambda_i = C_1i - C_1i*. Only the "nu" mass over no cuts, which is
    infeasible, goes through phase 1.
    """
    on_lambda, on_nu = _MASS_ROWS[mass]
    cuts = np.asarray(cuts, dtype=float)
    m, p = cuts.shape
    A = np.zeros((p + 1, 1 + p + m))
    A[:p, 0] = 1.0
    A[:p, 1 : 1 + p] = -np.eye(p)
    A[:p, 1 + p :] = cuts.T
    A[p, 1 : 1 + p] = float(on_lambda)
    A[p, 1 + p :] = float(on_nu)
    b = np.zeros(p + 1)
    b[p] = 1.0
    c = np.zeros(1 + p + m)
    c[0] = -1.0
    lower = np.zeros(1 + p + m)
    lower[0] = -np.inf
    if on_lambda:
        start = range(1 + p)
    elif m:
        low = int(np.argmin(cuts[0]))
        start = [0, *(1 + i for i in range(p) if i != low), 1 + p]
    else:
        start = None
    return solve_lp(lp_instance(c, A, b, (EQ,) * (p + 1), lower=lower), start)


# ---------------------------------------------------------------------------
# independent certificate verification

def _feasibility_failures(inst: LpInstance, x: np.ndarray, tol: float) -> list[str]:
    failures = []
    for j in range(inst.num_vars):
        scale = tol * (1.0 + abs(x[j]))
        if x[j] < inst.lower[j] - scale or x[j] > inst.upper[j] + scale:
            failures.append(f"variable {j} = {x[j]} violates bounds")
    resid = inst.A @ x - inst.b
    for i, rel in enumerate(inst.relations):
        scale = tol * (1.0 + abs(inst.b[i]))
        if rel == LE and resid[i] > scale:
            failures.append(f"row {i} violated by {resid[i]}")
        elif rel == GE and resid[i] < -scale:
            failures.append(f"row {i} violated by {-resid[i]}")
        elif rel == EQ and abs(resid[i]) > scale:
            failures.append(f"row {i} violated by {abs(resid[i])}")
    return failures


def verify_outcome(inst: LpInstance, outcome: LpOutcome, *, tol: float = 1e-8) -> LpVerification:
    """Re-check an outcome's certificate numerically, independent of the solver."""
    failures: list[str] = []
    if outcome.status == "optimal":
        x = np.asarray(outcome.x)
        y = np.asarray(outcome.duals)
        failures += _feasibility_failures(inst, x, tol)
        if abs(float(inst.c @ x) - outcome.value) > tol * (1.0 + abs(outcome.value)):
            failures.append("objective value mismatch")
        resid = inst.A @ x - inst.b
        for i, rel in enumerate(inst.relations):
            if rel == LE and y[i] < -tol:
                failures.append(f"dual {i} has the wrong sign")
            if rel == GE and y[i] > tol:
                failures.append(f"dual {i} has the wrong sign")
            if abs(y[i]) > tol and abs(resid[i]) > tol * (1.0 + abs(inst.b[i])):
                failures.append(f"complementary slackness fails on row {i}")
        reduced = inst.c - y @ inst.A
        for j in range(inst.num_vars):
            scale = tol * (1.0 + abs(x[j]))
            if reduced[j] > tol and not (
                np.isfinite(inst.upper[j]) and x[j] >= inst.upper[j] - scale
            ):
                failures.append(f"reduced cost {j} positive off its upper bound")
            if reduced[j] < -tol and not (
                np.isfinite(inst.lower[j]) and x[j] <= inst.lower[j] + scale
            ):
                failures.append(f"reduced cost {j} negative off its lower bound")
    elif outcome.status == "infeasible":
        y = np.asarray(outcome.farkas)
        for i, rel in enumerate(inst.relations):
            if rel == LE and y[i] < -tol:
                failures.append(f"farkas multiplier {i} has the wrong sign")
            if rel == GE and y[i] > tol:
                failures.append(f"farkas multiplier {i} has the wrong sign")
        d = y @ inst.A
        lower_sum = 0.0
        for j in range(inst.num_vars):
            if d[j] > tol:
                if np.isinf(inst.lower[j]):
                    failures.append(f"farkas aggregate unbounded below in variable {j}")
                else:
                    lower_sum += d[j] * inst.lower[j]
            elif d[j] < -tol:
                if np.isinf(inst.upper[j]):
                    failures.append(f"farkas aggregate unbounded below in variable {j}")
                else:
                    lower_sum += d[j] * inst.upper[j]
        rhs = float(y @ inst.b)
        if not lower_sum > rhs + tol:
            failures.append(f"farkas aggregate not violating: {lower_sum} vs {rhs}")
    elif outcome.status == "unbounded":
        x = np.asarray(outcome.x)
        ray = np.asarray(outcome.ray)
        failures += _feasibility_failures(inst, x, tol)
        growth = inst.A @ ray
        for i, rel in enumerate(inst.relations):
            if rel == LE and growth[i] > tol:
                failures.append(f"ray leaves row {i}")
            if rel == GE and growth[i] < -tol:
                failures.append(f"ray leaves row {i}")
            if rel == EQ and abs(growth[i]) > tol:
                failures.append(f"ray leaves row {i}")
        for j in range(inst.num_vars):
            if np.isfinite(inst.lower[j]) and ray[j] < -tol:
                failures.append(f"ray leaves lower bound of variable {j}")
            if np.isfinite(inst.upper[j]) and ray[j] > tol:
                failures.append(f"ray leaves upper bound of variable {j}")
        if not float(inst.c @ ray) > tol:
            failures.append("ray does not improve the objective")
    else:
        failures.append(f"unknown status {outcome.status!r}")
    return LpVerification(ok=not failures, failures=tuple(failures))
