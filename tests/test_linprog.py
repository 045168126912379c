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


def _reference_standard_form(inst):
    """The standard form built column by column in Python: A, b, c and the
    variable and sign of each structural column."""
    m, n = inst.num_rows, inst.num_vars
    col_var, col_sign, caps = [], [], []
    shift = np.zeros(n)
    for j in range(n):
        lo, up = inst.lower[j], inst.upper[j]
        if np.isinf(lo) and np.isinf(up):
            col_var += [j, j]
            col_sign += [1.0, -1.0]
        elif np.isinf(lo):
            shift[j] = up
            col_var.append(j)
            col_sign.append(-1.0)
        else:
            shift[j] = lo
            col_var.append(j)
            col_sign.append(1.0)
            if not np.isinf(up):
                caps.append((len(col_var) - 1, up - lo))
    relations = list(inst.relations) + [lp.LE] * len(caps)
    A = np.zeros((m + len(caps), len(col_var)))
    for t, (j, sgn) in enumerate(zip(col_var, col_sign)):
        A[:m, t] = inst.A[:, j] * sgn
    b = list(inst.b - inst.A @ shift)
    for r, (t, cap) in enumerate(caps):
        A[m + r, t] = 1.0
        b.append(cap)
    slack_rows = [i for i, rel in enumerate(relations) if rel != lp.EQ]
    slacks = np.zeros((len(relations), len(slack_rows)))
    for s, i in enumerate(slack_rows):
        slacks[i, s] = 1.0 if relations[i] == lp.LE else -1.0
    A = np.hstack([A, slacks])
    b = np.asarray(b)
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0
    c = np.zeros(A.shape[1])
    for t, (j, sgn) in enumerate(zip(col_var, col_sign)):
        c[t] = inst.c[j] * sgn
    return A, b, c, col_var, col_sign, shift


def test_standard_form_matches_column_by_column_reference():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        # free, bounded below, bounded above, or both
        kind = rng.integers(0, 4, size=n)
        lower = np.where(kind % 2 == 1, rng.integers(-3, 2, size=n), -np.inf)
        upper = np.where(kind >= 2, rng.integers(2, 6, size=n), np.inf)
        relations = tuple(str(r) for r in rng.choice([lp.LE, lp.EQ, lp.GE], size=m))
        inst = lp.lp_instance(
            rng.normal(size=n), rng.normal(size=(m, n)), rng.normal(size=m), relations,
            lower=lower, upper=upper,
        )
        A, b, c, col_var, col_sign, shift = _reference_standard_form(inst)
        std = lp._Standardized(inst)
        assert np.array_equal(std.A, A) and np.array_equal(std.b, b)
        assert np.array_equal(std.c, c)
        x_std = rng.random(A.shape[1])
        x = shift.copy()
        ray = np.zeros(n)
        for t, (j, sgn) in enumerate(zip(col_var, col_sign)):
            x[j] += sgn * x_std[t]
            ray[j] += sgn * x_std[t]
        assert np.array_equal(std.x_original(x_std), x)
        assert np.array_equal(std.ray_original(x_std), ray)
        y_std = rng.normal(size=A.shape[0])
        flipped = inst.b - inst.A @ shift < 0
        assert np.array_equal(std.duals_original(y_std), np.where(flipped, -y_std[:m], y_std[:m]))


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


def test_breakdown_names_the_phase_and_the_standardized_shape(monkeypatch):
    # each row gets a slack column: 2 rows x 4 columns, then 1 row x 2 columns
    inst = lp.lp_instance([1.0, 1.0], [[1.0, 2.0], [2.0, 1.0]], [4.0, 4.0], (lp.LE, lp.LE))
    with monkeypatch.context() as patch:
        patch.setattr(lp, "_MAX_ITER", 1)
        with pytest.raises(NumericalBreakdown) as limit:
            lp.solve_lp(inst)
    assert str(limit.value) == (
        "simplex iteration limit exceeded in phase 1 of a 2 x 4 standardized LP"
    )
    # phase 1 prices the slack in; phase 2 meets the 1e-13 pivot
    with pytest.raises(NumericalBreakdown) as pivot:
        lp.solve_lp(lp.lp_instance([1.0], [[1e-13]], [1.0], (lp.LE,)))
    assert str(pivot.value).endswith("in phase 2 of a 1 x 2 standardized LP")


def test_blocking_pivot_below_tolerance_is_reported():
    # the only blocking row has a 1e-13 pivot: refuse rather than call it unbounded
    inst = lp.lp_instance([1.0], [[1e-13]], [1.0], (lp.LE,))
    with pytest.raises(NumericalBreakdown):
        lp.solve_lp(inst)


def _random_cuts(rng):
    """Up to 8 cut rows over p = 1..5 criteria: normal and small-integer rows,
    zero rows, duplicates, and rows all negative or all positive."""
    p, m = int(rng.integers(1, 6)), int(rng.integers(0, 9))
    rows = []
    for _ in range(m):
        kind = int(rng.integers(6))
        if kind == 0:
            rows.append(rng.normal(size=p))
        elif kind == 1:
            rows.append(rng.integers(-2, 3, size=p).astype(float))
        elif kind == 2:
            rows.append(np.zeros(p))
        elif kind == 3 and rows:
            rows.append(rows[int(rng.integers(len(rows)))].copy())
        else:
            rows.append(np.abs(rng.normal(size=p)) * (-1.0 if kind == 4 else 1.0))
    return np.asarray(rows, dtype=float).reshape(m, p)


def test_cone_margin_start_matches_the_two_phase_solve(monkeypatch):
    solve = lp.solve_lp
    started = []
    monkeypatch.setattr(
        lp, "solve_lp", lambda inst, start=None: started.append((inst, start)) or solve(inst, start)
    )
    rng = np.random.default_rng(1018)
    for _ in range(400):
        cuts = _random_cuts(rng)
        m, p = cuts.shape
        for mass in ("lambda", "lambda+nu", "nu"):
            out = lp.cone_margin(cuts, mass=mass)
            inst, start = started.pop()
            two_phase = solve(inst)
            assert out.status == two_phase.status, (cuts, mass)
            if out.status == "optimal":
                assert abs(out.value - two_phase.value) <= 1e-12
            assert lp.verify_outcome(inst, out).ok
            if mass == "nu" and m == 0:
                assert start is None and out.status == "infeasible"
                continue
            # the start is the vertex the docstring names, and it is feasible
            std = lp._Standardized(inst)
            basis, binv = lp._start_basis(std, start)
            x_std = np.zeros(std.A.shape[1])
            x_std[basis] = binv @ std.b
            x = std.x_original(x_std)
            assert not lp._feasibility_failures(inst, x, 1e-12)
            u = 1.0 / p if mass != "nu" else -cuts[0].min()
            assert x[0] == pytest.approx(u, abs=1e-15)


def test_infeasible_or_malformed_start_raises():
    inst = lp.lp_instance([-1.0, -1.0], [[1.0, -1.0]], [1.0], (lp.EQ,))
    assert lp.solve_lp(inst, [0]).value == -1.0
    for start in ([1], [0, 1], [2], []):  # x1 = -1; then not one variable per row
        with pytest.raises(ValueError):
            lp.solve_lp(inst, start)


def _many_pivot_instance():
    """A dense instance (100 rows, 20 bounded variables) that takes several
    hundred pivots, far more than the refactorization interval."""
    rng = np.random.default_rng(5)
    n, m = 20, 100
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


def _recording_margin_lps(monkeypatch):
    """The list every LP ``linprog.cone_margin`` solves from now on is added to."""
    solved = []
    solve = lp.solve_lp
    monkeypatch.setattr(
        lp, "solve_lp", lambda inst, start=None: solved.append(inst) or solve(inst, start)
    )
    return solved


def _margin_instances(monkeypatch, problem, anchors, levels):
    """Every LP ``support.support_margin`` solves along the anchors' ladders."""
    solved = _recording_margin_lps(monkeypatch)
    for anchor in anchors:
        cloud = sample_criterion_space(problem, GridSpec.geometric(anchor, levels))
        y_ref = problem.criteria_at(anchor)
        for level_cloud in refinement_ladder(problem, cloud, anchor, levels):
            support.support_margin(level_cloud, y_ref)
    return solved


def _near_parallel_margin_instances(monkeypatch, rng, count):
    """Hard and soft margin LPs over 50 to 400 cuts, each a copy of one of six
    directions tilted by about 1e-4: many columns pass near each vertex."""
    solved = _recording_margin_lps(monkeypatch)
    for _ in range(count):
        p = int(rng.integers(2, 4))
        m = int(rng.integers(50, 401))
        base = rng.integers(-3, 4, size=(6, p)).astype(float)
        diffs = base[rng.integers(0, len(base), size=m)] + 1e-4 * rng.normal(size=(m, p))
        # the normalized, deduplicated cuts of support.support_margin
        cuts = np.unique(diffs / np.max(np.abs(diffs), axis=1)[:, None], axis=0)
        for mass in ("lambda", "lambda+nu"):
            lp.cone_margin(cuts, mass=mass)
    return solved


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
        assert {inst.num_rows for inst in instances} == {4}  # p + 1 rows, p = 3
    else:
        instances = _near_parallel_margin_instances(monkeypatch, np.random.default_rng(1983), 200)
    monkeypatch.undo()
    assert instances
    statuses = set()
    for inst in instances:
        out = lp.solve_lp(inst)
        check = lp.verify_outcome(inst, out)
        assert check.ok, (out.status, check.failures)
        statuses.add(out.status)
        expected = _highs_value(inst)
        if isinstance(expected, str):
            assert out.status == expected
        else:
            assert out.status == "optimal"
            assert out.value == pytest.approx(expected, abs=1e-9)
    if case == "near_degenerate":
        assert statuses == {"optimal", "unbounded"}  # hard margins both feasible and not
