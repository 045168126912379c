import itertools

import numpy as np
import pytest

from paretocert import linprog as lp
from paretocert import support
from paretocert.errors import NumericalBreakdown
from paretocert.problems import (
    GridSpec,
    builtin,
    load_document,
    refinement_ladder,
    sample_criterion_space,
)


def brute_force_optimum(inst: lp.LpInstance, tol=1e-7):
    """Vertex enumeration oracle: intersect every n-subset of constraints
    (equalities always included) and keep the best feasible point."""
    n = inst.num_vars
    normals = []
    offsets = []
    forced = []
    for i in range(inst.num_rows):
        normals.append(inst.A[i])
        offsets.append(inst.b[i])
        if inst.relations[i] == lp.EQ:
            forced.append(len(normals) - 1)
    for j in range(n):
        if np.isfinite(inst.lower[j]):
            e = np.zeros(n)
            e[j] = 1.0
            normals.append(e)
            offsets.append(inst.lower[j])
        if np.isfinite(inst.upper[j]):
            e = np.zeros(n)
            e[j] = 1.0
            normals.append(e)
            offsets.append(inst.upper[j])
    free = [k for k in range(len(normals)) if k not in forced]
    if len(forced) > n:
        return None
    best = None
    for extra in itertools.combinations(free, n - len(forced)):
        rows = list(forced) + list(extra)
        M = np.asarray([normals[k] for k in rows])
        rhs = np.asarray([offsets[k] for k in rows])
        try:
            x = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            continue
        if _feasible(inst, x, tol):
            value = float(inst.c @ x)
            if best is None or value > best:
                best = value
    return best


def _feasible(inst, x, tol):
    if np.any(x < inst.lower - tol) or np.any(x > inst.upper + tol):
        return False
    resid = inst.A @ x - inst.b
    for i, rel in enumerate(inst.relations):
        if rel == lp.LE and resid[i] > tol:
            return False
        if rel == lp.GE and resid[i] < -tol:
            return False
        if rel == lp.EQ and abs(resid[i]) > tol:
            return False
    return True


def test_simple_maximum():
    inst = lp.lp_instance([1.0], [[1.0]], [3.0], (lp.LE,))
    out = lp.solve_lp(inst)
    assert out.status == "optimal"
    assert out.x[0] == pytest.approx(3.0)
    assert out.value == pytest.approx(3.0)
    assert lp.verify_outcome(inst, out).ok


def test_infeasible_with_farkas_certificate():
    inst = lp.lp_instance([1.0], [[1.0]], [-1.0], (lp.LE,))
    out = lp.solve_lp(inst)
    assert out.status == "infeasible"
    check = lp.verify_outcome(inst, out)
    assert check.ok, check.failures


def test_unbounded_with_ray():
    inst = lp.lp_instance([1.0, 0.0], [[1.0, 1.0]], [1.0], (lp.GE,))
    out = lp.solve_lp(inst)
    assert out.status == "unbounded"
    check = lp.verify_outcome(inst, out)
    assert check.ok, check.failures


def test_equality_and_free_variables():
    # max t with w1 + w2 = 1, w_i >= t: the uniform weights win
    c = [0.0, 0.0, 1.0]
    A = [[1.0, 1.0, 0.0], [1.0, 0.0, -1.0], [0.0, 1.0, -1.0]]
    b = [1.0, 0.0, 0.0]
    inst = lp.lp_instance(
        c, A, b, (lp.EQ, lp.GE, lp.GE), lower=[-np.inf] * 3, upper=[np.inf] * 3
    )
    out = lp.solve_lp(inst)
    assert out.status == "optimal"
    assert out.value == pytest.approx(0.5)
    assert out.x[0] == pytest.approx(0.5)
    assert lp.verify_outcome(inst, out).ok


def test_negative_lower_bounds():
    inst = lp.lp_instance(
        [-1.0], [[1.0]], [5.0], (lp.LE,), lower=[-4.0], upper=[np.inf]
    )
    out = lp.solve_lp(inst)
    assert out.status == "optimal"
    assert out.x[0] == pytest.approx(-4.0)


def test_bounded_above_variable_flip():
    inst = lp.lp_instance(
        [1.0], [[1.0]], [10.0], (lp.LE,), lower=[-np.inf], upper=[2.0]
    )
    out = lp.solve_lp(inst)
    assert out.status == "optimal"
    assert out.x[0] == pytest.approx(2.0)
    assert lp.verify_outcome(inst, out).ok


def _random_instance(rng):
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 7))
    A = rng.integers(-4, 5, size=(m, n)).astype(float)
    b = rng.integers(-5, 6, size=m).astype(float)
    c = rng.integers(-4, 5, size=n).astype(float)
    relations = []
    n_eq = 0
    for i in range(m):
        roll = rng.random()
        if roll < 0.15 and n_eq < min(2, n) and np.any(A[i] != 0):
            relations.append(lp.EQ)
            n_eq += 1
        elif roll < 0.6:
            relations.append(lp.LE)
        else:
            relations.append(lp.GE)
    # two equality rows must be independent or the vertex oracle goes blind
    eq_rows = [i for i, r in enumerate(relations) if r == lp.EQ]
    if len(eq_rows) == 2 and np.linalg.matrix_rank(A[eq_rows]) < 2:
        relations[eq_rows[1]] = lp.LE
    lower = np.zeros(n)
    upper = np.full(n, float(rng.integers(3, 11)))
    return lp.lp_instance(c, A, b, tuple(relations), lower=lower, upper=upper)


def test_agrees_with_vertex_enumeration_on_500_random_instances():
    rng = np.random.default_rng(20250813)
    solved = 0
    infeasible = 0
    for _ in range(500):
        inst = _random_instance(rng)
        out = lp.solve_lp(inst)
        oracle = brute_force_optimum(inst)
        if oracle is None:
            assert out.status == "infeasible", (inst.A, inst.b, inst.relations)
            infeasible += 1
        else:
            assert out.status == "optimal"
            assert out.value == pytest.approx(oracle, abs=1e-7)
            solved += 1
        check = lp.verify_outcome(inst, out)
        assert check.ok, check.failures
    assert solved > 150 and infeasible > 50  # both verdicts are well exercised


def test_certificates_verify_on_unbounded_random_instances():
    rng = np.random.default_rng(77)
    seen_unbounded = 0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
        b = rng.integers(-3, 4, size=m).astype(float)
        c = rng.integers(-3, 4, size=n).astype(float)
        relations = tuple(lp.LE if rng.random() < 0.7 else lp.GE for _ in range(m))
        inst = lp.lp_instance(c, A, b, relations)  # x >= 0, no upper bounds
        out = lp.solve_lp(inst)
        check = lp.verify_outcome(inst, out)
        assert check.ok, (out.status, check.failures)
        if out.status == "unbounded":
            seen_unbounded += 1
    assert seen_unbounded > 20


def test_row_activation_matches_dense_solve():
    rng = np.random.default_rng(4242)
    n = 3
    m = 400
    A = rng.normal(size=(m, n))
    b = np.abs(rng.normal(size=m)) + 0.5
    c = np.abs(rng.normal(size=n)) + 0.1
    relations = tuple(lp.LE for _ in range(m))
    inst = lp.lp_instance(c, A, b, relations)
    tall = lp.solve_lp(inst)  # activation path (m > threshold)
    dense = lp._solve_dense(inst, 1e-12)
    assert tall.status == dense.status == "optimal"
    assert tall.value == pytest.approx(dense.value, rel=1e-9, abs=1e-9)
    assert lp.verify_outcome(inst, tall).ok


def test_determinism_identical_outcomes():
    rng = np.random.default_rng(11)
    A = rng.integers(-3, 4, size=(5, 3)).astype(float)
    b = rng.integers(0, 6, size=5).astype(float)
    c = rng.integers(-3, 4, size=3).astype(float)
    inst = lp.lp_instance(c, A, b, (lp.LE,) * 5, upper=np.full(3, 9.0))
    one = lp.solve_lp(inst)
    two = lp.solve_lp(inst)
    assert one == two


def test_rejects_non_finite_data():
    with pytest.raises(ValueError):
        lp.lp_instance([np.inf], [[1.0]], [1.0], (lp.LE,))


def test_iteration_limit_reports_breakdown(monkeypatch):
    monkeypatch.setattr(lp, "_MAX_ITER", 1)
    inst = lp.lp_instance([1.0, 1.0], [[1.0, 2.0], [2.0, 1.0]], [4.0, 4.0], (lp.LE, lp.LE))
    with pytest.raises(NumericalBreakdown):
        lp.solve_lp(inst)


def test_blocking_pivot_below_tolerance_is_reported():
    # the only blocking row has a 1e-13 pivot: refuse rather than call it unbounded
    inst = lp.lp_instance([1.0], [[1e-13]], [1.0], (lp.LE,))
    with pytest.raises(NumericalBreakdown):
        lp.solve_lp(inst)


def _many_pivot_instance():
    """A dense instance (60 rows, 12 bounded variables) that takes several
    hundred pivots, far more than the refactorization interval."""
    rng = np.random.default_rng(5)
    n, m = 12, 60
    A = rng.normal(size=(m, n))
    relations = tuple(lp.LE if i % 3 else lp.GE for i in range(m))
    b = (rng.random(m) + 0.5) * np.where(np.asarray(relations) == lp.GE, -1.0, 1.0)
    c = rng.random(n) + 0.1
    return lp.lp_instance(c, A, b, relations, upper=np.full(n, 5.0))


def _assert_same_outcome(one, two):
    assert one.status == two.status
    assert one.basis == two.basis
    for name in ("x", "value", "duals", "farkas", "ray"):
        a, b = getattr(one, name), getattr(two, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert np.max(np.abs(np.subtract(a, b)), initial=0.0) <= 1e-12, name


def test_fresh_factorization_at_every_pivot_changes_nothing(monkeypatch):
    rng = np.random.default_rng(20250813)
    instances = [_random_instance(rng) for _ in range(500)] + [_many_pivot_instance()]
    maintained = [lp.solve_lp(inst) for inst in instances]
    monkeypatch.setattr(lp, "_REFACTOR_EVERY", 1)
    fresh = [lp.solve_lp(inst) for inst in instances]
    for one, two in zip(maintained, fresh):
        _assert_same_outcome(one, two)


def test_long_solve_refactorizes_periodically(monkeypatch):
    inst = _many_pivot_instance()
    events = []
    update, factorize = lp._pivot, lp._factorize
    monkeypatch.setattr(lp, "_pivot", lambda *args: events.append("update") or update(*args))
    monkeypatch.setattr(
        lp, "_factorize", lambda *args: events.append("factorize") or factorize(*args)
    )
    out = lp.solve_lp(inst)
    assert out.status == "optimal" and lp.verify_outcome(inst, out).ok
    runs = " ".join(events).split("factorize")
    updates_between = [run.split().count("update") for run in runs]
    assert max(updates_between) <= lp._REFACTOR_EVERY - 1
    assert updates_between.count(lp._REFACTOR_EVERY - 1) >= 3
    assert sum(updates_between) > 5 * lp._REFACTOR_EVERY


def _reference_excess(inst, growth, active):
    viol = []
    for i, rel in enumerate(inst.relations):
        if i in active:
            viol.append(0.0)
        elif rel == lp.LE:
            viol.append(growth[i])
        elif rel == lp.GE:
            viol.append(-growth[i])
        else:
            viol.append(abs(growth[i]))
    return viol


def _reference_activation(inst, tol=1e-8, batch=8):
    """The active row sets of the row activation loop, row by row in Python."""
    m = inst.num_rows
    active = [i for i in range(m) if inst.relations[i] == lp.EQ]
    for i in range(m):
        if len(active) >= min(m, 32):
            break
        if inst.relations[i] != lp.EQ:
            active.append(i)
    sets = [sorted(set(active))]
    while True:
        out = lp._solve_dense(lp._restrict(inst, np.asarray(sets[-1])), 1e-12)
        if out.status == "infeasible":
            return sets
        viol = _reference_excess(inst, inst.A @ np.asarray(out.x) - inst.b, sets[-1])
        if out.status == "unbounded":
            blocking = _reference_excess(inst, inst.A @ np.asarray(out.ray), sets[-1])
            if any(v > tol for v in blocking):
                viol = blocking
        # most violated first, ties by row index (sorted is stable)
        worst = [i for i in sorted(range(m), key=lambda i: -viol[i]) if viol[i] > tol]
        if not worst:
            return sets
        sets.append(sorted(set(sets[-1]) | set(worst[:batch])))


def test_activation_order_matches_row_by_row_reference(monkeypatch):
    rng = np.random.default_rng(31)
    instances = []
    for k in range(30):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(100, 200))
        x0 = rng.integers(0, 3, size=n).astype(float)
        c = rng.integers(-3, 4, size=n).astype(float)
        if k % 3 == 0:
            # covering rows with a nonnegative objective: unbounded
            A = rng.integers(0, 4, size=(m, n)).astype(float)
            relations = (lp.GE,) * m
            b = A @ x0 - rng.integers(0, 3, size=m)
            c = np.abs(c) + 1.0
        else:
            # integer rows through or near an integer point: many tied violations
            A = rng.integers(-3, 4, size=(m, n)).astype(float)
            relations = tuple(str(r) for r in rng.choice([lp.LE, lp.GE], size=m, p=[0.8, 0.2]))
            if k % 3 == 1:
                relations = (lp.EQ,) + relations[1:]
            slack = rng.integers(0, 3, size=m) * (1 if k % 5 else -1)
            b = A @ x0 + np.where(np.asarray(relations) == lp.GE, -slack, slack)
            b[0] = A[0] @ x0
        instances.append(lp.lp_instance(c, A, b, relations, upper=np.full(n, np.inf)))
    expected = [_reference_activation(inst) for inst in instances]
    recorded = []
    restrict = lp._restrict
    monkeypatch.setattr(
        lp, "_restrict", lambda inst, rows: recorded[-1].append(list(rows)) or restrict(inst, rows)
    )
    seen = set()
    for inst, sets in zip(instances, expected):
        recorded.append([])
        out = lp.solve_lp(inst)
        assert recorded[-1] == sets
        assert lp.verify_outcome(inst, out).ok
        seen.add(out.status)
    assert seen == {"optimal", "unbounded", "infeasible"}


def _highs_value(inst):
    """The optimum of ``inst`` by HiGHS, or its status name when there is none."""
    from scipy.optimize import linprog

    relations = np.asarray(inst.relations)
    le, ge, eq = relations == lp.LE, relations == lp.GE, relations == lp.EQ
    res = linprog(
        -inst.c,
        A_ub=np.vstack([inst.A[le], -inst.A[ge]]),
        b_ub=np.concatenate([inst.b[le], -inst.b[ge]]),
        A_eq=inst.A[eq] if eq.any() else None,
        b_eq=inst.b[eq] if eq.any() else None,
        bounds=[
            (None if np.isinf(lo) else lo, None if np.isinf(up) else up)
            for lo, up in zip(inst.lower, inst.upper)
        ],
        method="highs",
        # HiGHS's default 1e-7 tolerances leave rows violated by more than
        # the 1e-9 the margins are compared at
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    return {0: None, 2: "infeasible", 3: "unbounded"}[res.status] or -res.fun


def _margin_instances(monkeypatch, problem, anchors, levels):
    """Every LP ``support.support_margin`` solves along the anchors' ladders."""
    solved = []

    def recording(inst, **kwargs):
        solved.append(inst)
        return lp.solve_lp(inst, **kwargs)

    monkeypatch.setattr(support, "solve_lp", recording)
    for anchor in anchors:
        cloud = sample_criterion_space(problem, GridSpec.geometric(anchor, levels))
        y_ref = problem.criteria_at(anchor)
        for level_cloud in refinement_ladder(problem, cloud, anchor, levels):
            support.support_margin(level_cloud, y_ref)
    return solved


def _near_degenerate_tall_instance(rng):
    """Hundreds of rows, each a copy of one of six, tilted by about 1e-4:
    many rows pass near each vertex."""
    n = int(rng.integers(2, 5))
    m = int(rng.integers(120, 400))
    base = rng.integers(-3, 4, size=(6, n)).astype(float)
    pick = rng.integers(0, len(base), size=m)
    A = base[pick] + 1e-4 * rng.normal(size=(m, n))
    b = rng.integers(0, 3, size=6).astype(float)[pick]
    relations = tuple(lp.GE if r < 0.2 else lp.LE for r in rng.random(m))
    b = np.where(np.asarray(relations) == lp.GE, -b - 1.0, b)
    c = rng.integers(-3, 4, size=n).astype(float)
    return lp.lp_instance(c, A, b, relations, lower=np.full(n, -2.0), upper=np.full(n, 2.0))


@pytest.mark.parametrize("case", ["soland", "plane2d", "near_degenerate"])
def test_agrees_with_highs(monkeypatch, case):
    pytest.importorskip("scipy.optimize")
    if case == "soland":
        anchors = [(0.5,), (1.6875,), (4.0,)]
        instances = _margin_instances(monkeypatch, builtin("soland"), anchors, 24)
    elif case == "plane2d":
        problem = load_document({
            "type": "analytic", "decision_dim": 2, "criterion_dim": 3,
            "domain": [[0, 1], [0, 1]], "criteria": ["x0", "x1", "-(x0^2 + x1^2)"],
        })
        anchors = [(0.0, 1.0), (0.25, 0.75), (0.5, 0.5)]
        instances = _margin_instances(monkeypatch, problem, anchors, 8)
        assert max(inst.num_rows for inst in instances) > 96  # row activation runs
    else:
        # on these two seeds a solver without either safeguard of the
        # maintained inverse (a fresh factorization before a verdict or a
        # small pivot) returns a wrong optimum
        instances = [
            _near_degenerate_tall_instance(rng)
            for rng in (np.random.default_rng(1983), np.random.default_rng(1986))
            for _ in range(40)
        ]
    for inst in instances:
        out = lp.solve_lp(inst)
        check = lp.verify_outcome(inst, out)
        assert check.ok, (out.status, check.failures)
        expected = _highs_value(inst)
        if isinstance(expected, str):
            assert out.status == expected
        else:
            assert out.status == "optimal"
            assert out.value == pytest.approx(expected, abs=1e-9)
