import dataclasses
import json

import numpy as np
import pytest

from paretocert import kkt, support
from paretocert import linprog as lp
from paretocert.errors import (
    InfeasiblePoint,
    LicqNotVerified,
    NoConstraintDescription,
)
from paretocert.problems import (
    AxisSpec,
    GridSpec,
    builtin,
    load_problem,
    refinement_ladder,
    sample_criterion_space,
)
from test_linprog import brute_force_optimum


def ladder(problem, anchor, levels):
    """The deepest level of the refinement toward ``anchor`` and the ladder
    cut from it."""
    cloud = sample_criterion_space(problem, GridSpec.geometric(anchor, levels))
    return cloud, refinement_ladder(problem, cloud, anchor, levels)


def grid_multiplier_oracle(gradients, kinds, resolution=100001):
    """Dense search over unit-mass multipliers for two constraint rows:
    the best achievable minimum component of the combined gradient."""
    g = np.asarray(gradients, dtype=float)
    t = np.linspace(0.0, 1.0, resolution)
    best = -np.inf
    signs0 = (1.0,) if kinds[0] == "ineq" else (1.0, -1.0)
    signs1 = (1.0,) if kinds[1] == "ineq" else (1.0, -1.0)
    for s0 in signs0:
        for s1 in signs1:
            sigma = np.outer(t * s0, g[0]) + np.outer((1.0 - t) * s1, g[1])
            best = max(best, float(sigma.min(axis=1).max()))
    return best


def test_active_set_at_the_corner():
    problem = builtin("soland")
    active = kkt.active_set(problem, (0.0, 0.0))
    assert active.active_ineq == (0,)
    assert active.eq == (0,)
    assert np.allclose(active.gradients, [[-1.0, 0.0], [0.0, 1.0]], atol=1e-12)


def test_active_set_at_an_interior_image():
    problem = builtin("soland")
    active = kkt.active_set(problem, (1.0, -1.0))
    assert active.active_ineq == ()
    assert np.allclose(active.gradients, [[1.5, 1.0]], atol=1e-12)


def test_active_set_rejects_infeasible_point():
    problem = builtin("soland")
    with pytest.raises(InfeasiblePoint):
        kkt.active_set(problem, (-1.0, 0.0))


def test_active_set_needs_constraints():
    doc = {
        "type": "analytic",
        "decision_dim": 1,
        "criterion_dim": 2,
        "domain": [[0, 1]],
        "criteria": ["x0", "-x0"],
    }
    problem = load_problem(json.dumps(doc))
    with pytest.raises(NoConstraintDescription):
        kkt.active_set(problem, (0.0, 0.0))


def _active_from_matrix(rows, n_ineq, y_ref=(0.0, 0.0)):
    g = np.asarray(rows, dtype=float)
    return kkt.ActiveSet(
        y_ref=tuple(float(v) for v in y_ref),
        active_ineq=tuple(range(n_ineq)),
        eq=tuple(range(g.shape[0] - n_ineq)),
        gradients=g,
    )


def test_licq_examples():
    report = kkt.licq_check(_active_from_matrix([[-1.0, 0.0], [0.0, 1.0]], 1))
    assert report.holds and report.rank == 2
    assert report.singular_values == pytest.approx((1.0, 1.0))

    report = kkt.licq_check(_active_from_matrix([[1.0, 0.0], [2.0, 0.0]], 1))
    assert not report.holds and report.rank == 1

    report = kkt.licq_check(_active_from_matrix([[1.5, 1.0]], 0))
    assert report.holds and report.rank == 1


def test_obstruction_at_the_corner():
    problem = builtin("soland")
    active = kkt.active_set(problem, (0.0, 0.0))
    cert = kkt.obstruction_test(active)
    assert cert.conclusion == kkt.OBSTRUCTION
    assert abs(cert.s_star) <= 1e-9
    # no active gradient raises criterion 0: e_0 is the witness
    assert cert.gordan_witness == (1.0, 0.0)
    ok, failures = kkt.verify_certificate(cert, active)
    assert ok, failures


def test_no_obstruction_at_the_interior_image():
    problem = builtin("soland")
    active = kkt.active_set(problem, (1.0, -1.0))
    cert = kkt.obstruction_test(active)
    assert cert.conclusion == kkt.NO_OBSTRUCTION
    assert cert.s_star == pytest.approx(1.0, abs=1e-9)
    assert cert.sigma[0] / cert.sigma[1] == pytest.approx(1.5, abs=1e-6)
    assert cert.gordan_witness is None
    ok, failures = kkt.verify_certificate(cert, active)
    assert ok, failures


def test_single_vertical_equality_is_always_an_obstruction():
    active = _active_from_matrix([[0.0, 1.0]], 0)
    cert = kkt.obstruction_test(active)
    assert cert.conclusion == kkt.OBSTRUCTION
    assert cert.gordan_witness == (1.0, 0.0)
    ok, failures = kkt.verify_certificate(cert, active)
    assert ok, failures


# a probe of CI's kkt_rules problem at decision (0.5, -0.25), where only the
# equality is active, with gradient (0.35, -0.2, 1)
KKT_RULES = {
    "type": "analytic",
    "decision_dim": 2,
    "criterion_dim": 3,
    "domain": [[-1, 1], [-1, 1]],
    "criteria": ["x0", "x1", "-(x0^2 + x1^2)/(2 + x0)"],
    "constraints": {
        "ineq": ["-(y0^(1/3)) - 1", "y1^3 - 1"],
        "eq": ["y2 + (y0^2 + y1^2)/(2 + y0)"],
    },
}


def _no_coordinate_witness_systems():
    """Obstructions where no unit vector is a witness: on each, some active
    inequality gradient is positive or some equality gradient is nonzero."""
    problem = load_problem(json.dumps(KKT_RULES))
    return {
        "equality (1, -1)": _active_from_matrix([[1.0, -1.0]], 0),
        "inequalities (1, -2) and (-2, 1)": _active_from_matrix([[1.0, -2.0], [-2.0, 1.0]], 2),
        "kkt_rules at (0.5, -0.25)": kkt.active_set(problem, problem.criteria_at([0.5, -0.25])),
    }


@pytest.mark.parametrize("system", _no_coordinate_witness_systems())
def test_obstruction_with_no_coordinate_witness_carries_a_verified_witness(system):
    active = _no_coordinate_witness_systems()[system]
    cert = kkt.obstruction_test(active)
    assert cert.conclusion == kkt.OBSTRUCTION
    ok, failures = kkt.verify_certificate(cert, active)
    assert ok, failures
    for unit in np.eye(len(active.y_ref)):
        coordinate = dataclasses.replace(cert, gordan_witness=tuple(unit.tolist()))
        assert not kkt.verify_certificate(coordinate, active)[0], unit


def test_tampered_gordan_witnesses_fail_verification():
    active = _active_from_matrix([[1.0, -2.0], [-2.0, 1.0]], 2)
    cert = kkt.obstruction_test(active)
    pi = np.asarray(cert.gordan_witness)
    assert kkt.verify_certificate(cert, active)[0]
    tampered = {
        "not on the unit simplex": [pi / 2, pi + (1.0, -1.0)],
        "active inequality 0 raises": [(1.0, 0.0)],
        "no Gordan witness": [None, (1.0,), (1.0, 0.0, 0.0)],
    }
    for failure, witnesses in tampered.items():
        for witness in witnesses:
            if witness is not None:
                witness = tuple(map(float, witness))
            ok, failures = kkt.verify_certificate(
                dataclasses.replace(cert, gordan_witness=witness), active
            )
            assert not ok and any(failure in f for f in failures), (witness, failures)


def test_obstruction_requires_licq():
    active = _active_from_matrix([[1.0, 0.0], [2.0, 0.0]], 1)
    with pytest.raises(LicqNotVerified):
        kkt.obstruction_test(active)


def test_no_active_constraints_is_an_obstruction():
    active = _active_from_matrix(np.zeros((0, 2)), 0)
    cert = kkt.obstruction_test(active)
    assert cert.conclusion == kkt.OBSTRUCTION
    assert cert.s_star is None
    assert cert.gordan_witness == (1.0, 0.0)  # any point of the simplex
    assert kkt.verify_certificate(cert, active)[0]


def test_conclusion_invariant_under_positive_constraint_rescaling():
    rng = np.random.default_rng(20250816)
    base = {
        "type": "analytic",
        "decision_dim": 1,
        "criterion_dim": 2,
        "domain": [[0, 4]],
        "criteria": ["x0^2", "-x0^3"],
    }
    for _ in range(20):
        a = float(rng.uniform(0.1, 10.0))
        c = float(rng.uniform(0.1, 10.0))
        doc = dict(base)
        doc["constraints"] = {
            "ineq": [f"{a} * (-y0)"],
            "eq": [f"{c} * (y1 + y0^1.5)"],
        }
        problem = load_problem(json.dumps(doc))
        corner = kkt.obstruction_test(kkt.active_set(problem, (0.0, 0.0)))
        interior = kkt.obstruction_test(kkt.active_set(problem, (1.0, -1.0)))
        assert corner.conclusion == kkt.OBSTRUCTION
        assert interior.conclusion == kkt.NO_OBSTRUCTION
        assert interior.sigma[0] / interior.sigma[1] == pytest.approx(1.5, abs=1e-9)


def test_verdict_matches_multiplier_grid_on_100_random_two_row_systems():
    rng = np.random.default_rng(20250817)
    checked = 0
    while checked < 100:
        g = rng.normal(size=(2, 2))
        n_ineq = int(rng.integers(0, 3))
        kinds = ["ineq"] * n_ineq + ["eq"] * (2 - n_ineq)
        active = _active_from_matrix(g, n_ineq)
        licq = kkt.licq_check(active)
        if not licq.holds:
            continue
        cert = kkt.obstruction_test(active)
        if cert.s_star is not None and abs(cert.s_star) < 1e-4:
            continue  # stay away from the knife edge the grid cannot resolve
        oracle_best = grid_multiplier_oracle(g, kinds)
        assert (cert.s_star > 1e-9) == (oracle_best > 1e-9), (g, kinds, cert.s_star, oracle_best)
        if cert.conclusion == kkt.NO_OBSTRUCTION:
            assert cert.s_star == pytest.approx(oracle_best, abs=1e-4)
        ok, failures = kkt.verify_certificate(cert, active)
        assert ok, (g, kinds, cert, failures)
        checked += 1


def _reference_obstruction_lp(g_ineq, g_eq):
    """The obstruction LP written out over (mu, lambda+, lambda-, s) for
    ``brute_force_optimum``: maximize s s.t. sigma_i - s >= 0 for every
    criterion i, multipliers >= 0 with unit mass."""
    rows = np.vstack([g_ineq, g_eq, -g_eq])
    k, p = rows.shape
    c = np.zeros(k + 1)
    c[-1] = 1.0
    A = np.concatenate([np.ones(k), [0.0]])[None, :]
    G = np.vstack([np.hstack([rows.T, -np.ones((p, 1))]), np.eye(k + 1)[:k]])
    return c, A, np.ones(1), G, np.zeros(p + k)


def _highs_obstruction_value(g_ineq, g_eq):
    from scipy.optimize import linprog

    rows = np.vstack([g_ineq, g_eq, -g_eq])
    k, p = rows.shape
    res = linprog(
        np.concatenate([np.zeros(k), [-1.0]]),
        A_ub=np.hstack([-rows.T, np.ones((p, 1))]),
        b_ub=np.zeros(p),
        A_eq=np.concatenate([np.ones(k), [0.0]])[None, :],
        b_eq=[1.0],
        bounds=[(0, None)] * k + [(None, None)],
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0
    return -res.fun


def test_obstruction_lp_matches_its_reference_formulation(monkeypatch):
    try:
        import scipy.optimize  # noqa: F401
        highs = True
    except ImportError:
        highs = False
    solved = []
    solve = lp.solve_lp
    monkeypatch.setattr(lp, "solve_lp", lambda inst: solved.append(inst) or solve(inst))
    rng = np.random.default_rng(20251018)
    conclusions = set()
    checked = 0
    while checked < 150:
        p, nk, nj = int(rng.integers(2, 5)), int(rng.integers(0, 4)), int(rng.integers(0, 3))
        if nk + nj == 0:
            continue
        g = rng.normal(size=(nk + nj, p))
        if rng.random() < 0.5:
            g = np.round(g)  # small integers: ties, zero columns, degenerate vertices
        active = _active_from_matrix(g, nk, y_ref=(0.0,) * p)
        # the LP needs no LICQ: cover dependent and over-determined sets too
        licq = dataclasses.replace(kkt.licq_check(active), holds=True)
        solved.clear()
        cert = kkt.obstruction_test(active, licq=licq)
        (inst,) = solved
        out = solve(inst)
        check = lp.verify_outcome(inst, out)
        assert check.ok, check.failures
        reference = brute_force_optimum(*_reference_obstruction_lp(g[:nk], g[nk:]))
        assert cert.s_star == pytest.approx(reference, abs=1e-9)
        if highs:
            assert cert.s_star == pytest.approx(_highs_obstruction_value(g[:nk], g[nk:]), abs=1e-9)
        sigma = np.asarray(cert.mu) @ g[:nk] + np.asarray(cert.lam) @ g[nk:]
        assert cert.sigma == pytest.approx(tuple(sigma), abs=1e-12)
        assert min(cert.sigma) == pytest.approx(cert.s_star, abs=1e-9)
        ok, failures = kkt.verify_certificate(cert, active)
        assert ok, (g, nk, cert, failures)
        conclusions.add(cert.conclusion)
        checked += 1
    assert conclusions == {kkt.OBSTRUCTION, kkt.NO_OBSTRUCTION}


def test_obstruction_agrees_with_support_trend_on_the_example():
    problem = builtin("soland")
    corner = kkt.obstruction_test(kkt.active_set(problem, (0.0, 0.0)))
    trend0 = support.support_trend(*ladder(problem, (0.0,), 18), (0.0, 0.0))
    assert corner.conclusion == kkt.OBSTRUCTION
    assert trend0.verdict == support.VANISHING

    interior = kkt.obstruction_test(kkt.active_set(problem, (1.0, -1.0)))
    trend1 = support.support_trend(*ladder(problem, (1.0,), 18), (1.0, -1.0))
    assert interior.conclusion == kkt.NO_OBSTRUCTION
    assert trend1.verdict == support.PERSISTENT
    sigma = np.asarray(interior.sigma)
    normalized = sigma / sigma.sum()
    assert normalized == pytest.approx(trend1.last.weights, abs=1e-3)


def test_certificate_embeds_assumptions():
    problem = builtin("soland")
    cert = kkt.obstruction_test(kkt.active_set(problem, (0.0, 0.0)))
    assert any("LICQ" in a for a in cert.assumptions)
