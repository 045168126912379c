"""KKT-based obstruction certificates at a reference criterion vector.

For a point with an active constraint description of the criterion space,
any concave value function v maximized there must have a supergradient of the
form sigma = sum mu_k grad g_k + sum lambda_j grad h_j with mu >= 0 (the
stationarity condition, valid under LICQ). If v is also strictly increasing,
sigma must be strictly positive. Writing lambda = lambda+ - lambda- with both
parts nonnegative, the obstruction LP maximizes the smallest component of
sigma over the normalized multiplier set

    sum mu + sum lambda+ + sum lambda- = 1,

a Gordan alternative solved by ``linprog.cone_margin`` over the rows
[G_ineq; G_eq; -G_eq] with the mass on their multipliers. A nonpositive
optimum proves that no strictly increasing concave value function attains its
maximum over the described set at the reference point. The proof is the
other side of the alternative, read from the LP's row duals: the Gordan
witness pi, on the unit simplex, with <grad g_k, pi> <= 0 for every active k
and <grad h_j, pi> = 0. Every admissible sigma then has <sigma, pi> <= 0, so
none is strictly positive, and ``verify_certificate`` checks pi by dot
products alone.
Conclusions are conditional on LICQ and on the constraints being smooth at
the point; both assumptions are embedded in the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exprlang
from .errors import (
    DimensionError,
    InfeasiblePoint,
    LicqNotVerified,
    NoConstraintDescription,
    NumericalBreakdown,
)
from .linprog import cone_margin
from .problems import AnalyticProblem

OBSTRUCTION = "obstruction"
NO_OBSTRUCTION = "no_obstruction"

ASSUMPTIONS = (
    "LICQ at the reference point",
    "constraint functions differentiable at the reference point",
    "value function concave and strictly increasing",
)


@dataclass(frozen=True)
class ActiveSet:
    """Active inequality indices, all equality indices, and their gradients
    (one row per active constraint, inequalities first)."""

    y_ref: tuple[float, ...]
    active_ineq: tuple[int, ...]
    eq: tuple[int, ...]
    gradients: np.ndarray


@dataclass(frozen=True)
class LicqReport:
    rows: int
    rank: int
    singular_values: tuple[float, ...]
    holds: bool
    tol: float


@dataclass(frozen=True)
class ObstructionCertificate:
    conclusion: str  # 'obstruction' | 'no_obstruction'
    s_star: float | None
    licq: LicqReport
    sigma: tuple[float, ...]
    mu: tuple[float, ...]
    lam: tuple[float, ...]
    tol: float
    gordan_witness: tuple[float, ...] | None  # pi, for an obstruction
    assumptions: tuple[str, ...] = ASSUMPTIONS


def active_set(
    problem: AnalyticProblem,
    y_ref,
    *,
    tol_active: float = 1e-7,
    tol_feas: float = 1e-9,
) -> ActiveSet:
    """Identify active constraints at ``y_ref`` and evaluate their gradients."""
    if not isinstance(problem, AnalyticProblem) or not problem.has_constraints:
        raise NoConstraintDescription(
            "the problem carries no criterion-space constraint description"
        )
    ref = tuple(float(v) for v in y_ref)
    if len(ref) != problem.criterion_dim:
        raise DimensionError(
            f"point has length {len(ref)}, expected {problem.criterion_dim}"
        )
    g_vals = []
    for k, expr in enumerate(problem.ineq):
        val = exprlang.evaluate(expr, ref)
        if val > tol_feas:
            raise InfeasiblePoint(f"g[{k}]({ref}) = {val} > {tol_feas}")
        g_vals.append(val)
    for j, expr in enumerate(problem.eq):
        val = exprlang.evaluate(expr, ref)
        if abs(val) > tol_feas:
            raise InfeasiblePoint(f"h[{j}]({ref}) = {val}, not zero within {tol_feas}")
    active = tuple(k for k, val in enumerate(g_vals) if abs(val) <= tol_active)
    rows = [exprlang.gradient(problem.ineq[k], ref) for k in active]
    rows += [exprlang.gradient(expr, ref) for expr in problem.eq]
    gradients = np.asarray(rows, dtype=float).reshape(len(rows), problem.criterion_dim)
    return ActiveSet(ref, active, tuple(range(len(problem.eq))), gradients)


def licq_check(active: ActiveSet, *, tol_rank: float = 1e-8) -> LicqReport:
    """Rank of the active gradient matrix via SVD; LICQ needs full row rank."""
    rows = active.gradients.shape[0]
    if rows == 0:
        return LicqReport(rows=0, rank=0, singular_values=(), holds=True, tol=tol_rank)
    sv = np.linalg.svd(active.gradients, compute_uv=False)
    rank = int(np.sum(sv > tol_rank))
    return LicqReport(
        rows=rows,
        rank=rank,
        singular_values=tuple(float(s) for s in sv),
        holds=rank == rows,
        tol=tol_rank,
    )


def obstruction_test(
    active: ActiveSet, *, licq: LicqReport | None = None, tol: float = 1e-9
) -> ObstructionCertificate:
    """Decide whether any KKT-admissible supergradient is strictly positive.

    Solves: maximize s subject to sigma_i >= s for every criterion i, with
    sigma = mu @ G_ineq + lambda @ G_eq, mu >= 0, and mu, lambda+ and lambda-
    normalized to unit total mass (see the module docstring). The boundary
    optimum s* = 0 is classified as an obstruction because strict increase
    demands strict positivity.
    """
    if licq is None:
        licq = licq_check(active)
    if not licq.holds:
        raise LicqNotVerified(
            f"rank {licq.rank} of {licq.rows} rows, singular values {licq.singular_values}"
        )
    p = len(active.y_ref)
    nk = len(active.active_ineq)
    nj = len(active.eq)
    if nk + nj == 0:
        # no active constraints: the only admissible supergradient is zero,
        # and every point of the simplex is a witness
        return ObstructionCertificate(
            conclusion=OBSTRUCTION,
            s_star=None,
            licq=licq,
            sigma=(0.0,) * p,
            mu=(),
            lam=(),
            tol=tol,
            gordan_witness=(1.0,) + (0.0,) * (p - 1),
        )
    g_ineq = active.gradients[:nk]
    g_eq = active.gradients[nk:]
    out = cone_margin(np.vstack([g_ineq, g_eq, -g_eq]), mass="nu")
    if out.status != "optimal":
        raise NumericalBreakdown(f"obstruction LP terminated with status {out.status}")
    s_star = float(out.value)  # -u*
    nu = np.asarray(out.x[1 + p :])  # mu, lambda+, lambda-
    mu = tuple(nu[:nk].tolist())
    lam = tuple((nu[nk : nk + nj] - nu[nk + nj :]).tolist())
    sigma = 0.0 + np.asarray(mu) @ g_ineq + np.asarray(lam) @ g_eq  # 0.0 + clears -0.0
    obstructed = not s_star > tol
    return ObstructionCertificate(
        conclusion=OBSTRUCTION if obstructed else NO_OBSTRUCTION,
        s_star=s_star,
        licq=licq,
        sigma=tuple(sigma.tolist()),
        mu=mu,
        lam=lam,
        tol=tol,
        # the negated duals of the p criterion rows, +0.0 for a zero
        gordan_witness=tuple((0.0 - np.asarray(out.duals[:p])).tolist()) if obstructed else None,
    )


def verify_certificate(
    cert: ObstructionCertificate, active: ActiveSet, *, tol: float = 1e-10
) -> tuple[bool, list[str]]:
    """Re-check a certificate from the gradients: no obstruction from its
    multipliers, an obstruction from its Gordan witness pi alone: pi on the
    unit simplex up to ``tol``, and each active gradient's product with pi
    at most the certificate's tolerance (in magnitude for an equality)."""
    failures: list[str] = []
    nk = len(active.active_ineq)
    if cert.conclusion == NO_OBSTRUCTION:
        if any(v < -1e-12 for v in cert.mu):
            failures.append("negative inequality multiplier")
        g = active.gradients
        sigma = np.asarray(cert.mu) @ g[:nk] + np.asarray(cert.lam) @ g[nk:]
        if np.max(np.abs(sigma - np.asarray(cert.sigma))) > tol:
            failures.append("stored supergradient does not match its multipliers")
        mass = sum(cert.mu) + sum(abs(v) for v in cert.lam)
        if abs(mass - 1.0) > 1e-8:
            failures.append(f"multiplier normalization is {mass}, not 1")
        if not min(sigma) > cert.tol:
            failures.append("supergradient is not strictly positive")
    elif cert.gordan_witness is None or len(cert.gordan_witness) != len(active.y_ref):
        failures.append("obstruction carries no Gordan witness over the criteria")
    else:
        pi = np.asarray(cert.gordan_witness)
        if not (pi.min() >= -tol and abs(pi.sum() - 1.0) <= tol):
            failures.append("Gordan witness is not on the unit simplex")
        rows = active.gradients @ pi
        for k in np.flatnonzero(~(rows[:nk] <= cert.tol)).tolist():
            failures.append(f"active inequality {active.active_ineq[k]} raises the Gordan witness")
        for j in np.flatnonzero(~(np.abs(rows[nk:]) <= cert.tol)).tolist():
            failures.append(f"equality {j} is not orthogonal to the Gordan witness")
    if not cert.licq.holds:
        failures.append("certificate carries a failed LICQ report")
    return (not failures, failures)
