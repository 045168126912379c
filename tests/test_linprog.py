import dataclasses
import itertools
import json

import numpy as np
import pytest

from paretocert import cli, geoffrion, support
from paretocert import linprog as lp
from paretocert.errors import NumericalBreakdown
from paretocert.problems import (
    GridSpec,
    Ladder,
    builtin,
    grid_nodes,
    load_document,
    sample_criterion_space,
)

MASSES = ("lambda", "lambda+nu", "nu")


def brute_force_optimum(c, A, b, G, h, tol=1e-7):
    """Vertex enumeration oracle: the largest c @ x over the vertices of
    {x : A x = b, G x >= h}, each the solution of the equalities and of
    len(c) - len(b) inequalities held tight; None when no vertex is feasible.
    It cannot see unboundedness: an unbounded LP needs a verified ray."""
    n = len(c)
    best = None
    for tight in itertools.combinations(range(len(h)), n - len(b)):
        rows = list(tight)
        try:
            x = np.linalg.solve(np.vstack([A, G[rows]]), np.concatenate([b, h[rows]]))
        except np.linalg.LinAlgError:
            continue
        if np.all(np.abs(A @ x - b) <= tol) and np.all(G @ x >= h - tol):
            value = float(c @ x)
            best = value if best is None else max(best, value)
    return best


def general_form(inst):
    """The cone-margin LP of ``inst`` written out entry by entry: maximize
    c @ x subject to A x = b and G x >= h over x = (u, lambda, nu)."""
    m, p = inst.cuts.shape
    n = 1 + p + m
    A = np.zeros((p + 1, n))
    for i in range(p):
        A[i, 0] = 1.0  # u
        A[i, 1 + i] = -1.0  # lambda_i
        for k in range(m):
            A[i, 1 + p + k] = inst.cuts[k, i]  # nu_k
    A[p, 1 : 1 + p] = 1.0 if inst.mass in ("lambda", "lambda+nu") else 0.0
    A[p, 1 + p :] = 1.0 if inst.mass in ("nu", "lambda+nu") else 0.0
    b = np.zeros(p + 1)
    b[p] = 1.0
    c = np.zeros(n)
    c[0] = -1.0  # minimize u
    return c, A, b, np.eye(n)[1:], np.zeros(n - 1)  # lambda, nu >= 0


def _random_cuts(rng, p=None):
    """Up to 8 cut rows over p = 1..5 criteria, or over ``p``: normal and
    small-integer rows, zero rows, duplicates, near-parallel copies, and rows
    all negative or all positive."""
    p, m = int(rng.integers(1, 6)) if p is None else p, int(rng.integers(0, 9))
    rows = []
    for _ in range(m):
        kind = int(rng.integers(7))
        if kind == 0:
            rows.append(rng.normal(size=p))
        elif kind == 1:
            rows.append(rng.integers(-2, 3, size=p).astype(float))
        elif kind == 2:
            rows.append(np.zeros(p))
        elif kind == 3 and rows:
            rows.append(rows[int(rng.integers(len(rows)))].copy())
        elif kind == 4 and rows:
            row = rows[int(rng.integers(len(rows)))]
            rows.append(row + 1e-7 * rng.normal(size=p))
        else:
            rows.append(np.abs(rng.normal(size=p)) * (-1.0 if kind == 5 else 1.0))
    return np.asarray(rows, dtype=float).reshape(m, p)


def _random_instance(rng):
    """A cone-margin instance over ``_random_cuts`` with a random mass."""
    while True:
        cuts, mass = _random_cuts(rng), MASSES[int(rng.integers(3))]
        if len(cuts) or mass != "nu":  # the nu mass over no cuts is infeasible
            return lp.ConeInstance(cuts, mass)


def test_simple_maximum():
    # no cuts: u = lambda_i = 1/p, and the maximum of -u is -1/2
    inst = lp.ConeInstance(np.zeros((0, 2)), "lambda")
    out = lp.solve_lp(inst)
    assert out.status == "optimal"
    assert out.x == pytest.approx((0.5, 0.5, 0.5))
    assert out.value == pytest.approx(-0.5)
    assert lp.verify_outcome(inst, out).ok


def test_unbounded_with_ray():
    # no unit-sum weights keep the cut (1, 1) non-positive: the dual is unbounded
    inst = lp.ConeInstance([[1.0, 1.0]], "lambda")
    out = lp.solve_lp(inst)
    assert out.status == "unbounded"
    check = lp.verify_outcome(inst, out)
    assert check.ok, check.failures


def test_equality_and_free_variables():
    # the soft margin of the cut (2, 1): lambda_i = u + C_i nu with unit mass
    # is least at nu = 1/2, lambda = (1/2, 0), where the free u is -1/2
    inst = lp.ConeInstance([[2.0, 1.0]], "lambda+nu")
    out = lp.solve_lp(inst)
    assert out.status == "optimal"
    assert out.value == pytest.approx(0.5)
    assert out.x == pytest.approx((-0.5, 0.5, 0.0, 0.5))
    assert lp.verify_outcome(inst, out).ok


def test_agrees_with_vertex_enumeration_on_500_random_instances():
    rng = np.random.default_rng(20250813)
    solved = unbounded = 0
    for _ in range(500):
        inst = _random_instance(rng)
        out = lp.solve_lp(inst)
        check = lp.verify_outcome(inst, out)
        assert check.ok, (inst, check.failures)
        if out.status == "unbounded":  # the verified ray proves it
            unbounded += 1
            continue
        assert out.status == "optimal" and 0 in out.basis  # the free u never leaves
        assert out.value == pytest.approx(brute_force_optimum(*general_form(inst)), abs=1e-7)
        solved += 1
    assert solved > 300 and unbounded > 30  # both verdicts are well exercised


def test_certificates_verify_on_unbounded_random_instances():
    rng = np.random.default_rng(77)
    seen_unbounded = 0
    for _ in range(200):
        cuts = _random_cuts(rng)
        p = cuts.shape[1]
        # up to p + 1 positive cuts, whose cone often holds the direction (1, ..., 1)
        cuts = np.vstack([cuts, np.abs(rng.normal(size=(int(rng.integers(0, p + 2)), p)))])
        inst = lp.ConeInstance(cuts, "lambda")
        out = lp.solve_lp(inst)
        check = lp.verify_outcome(inst, out)
        assert check.ok, (out.status, check.failures)
        if out.status == "unbounded":
            seen_unbounded += 1
            # no weights satisfy every cut: the soft margin is negative
            soft = lp.cone_margin(cuts, mass="lambda+nu")
            assert soft.status == "optimal" and soft.value > 0.0
    assert seen_unbounded > 60


def test_verify_outcome_rejects_tampered_certificates():
    inst = lp.ConeInstance([[2.0, -1.0], [-1.0, 0.5]], "lambda")
    out = lp.solve_lp(inst)
    assert out.status == "optimal" and lp.verify_outcome(inst, out).ok
    x, duals = np.asarray(out.x), np.asarray(out.duals)
    for bad in (
        dataclasses.replace(out, x=tuple(x + 1e-3 * np.eye(len(x))[1])),
        dataclasses.replace(out, value=out.value + 1e-3),
        dataclasses.replace(out, duals=tuple(duals + 1e-3 * np.eye(len(duals))[0])),
        dataclasses.replace(out, status="infeasible"),
    ):
        assert not lp.verify_outcome(inst, bad).ok
    ray_inst = lp.ConeInstance([[1.0, 1.0]], "lambda")
    ray_out = lp.solve_lp(ray_inst)
    ray = np.asarray(ray_out.ray)
    assert lp.verify_outcome(ray_inst, ray_out).ok
    for bad in (tuple(-ray), tuple(ray + np.eye(len(ray))[1])):
        assert not lp.verify_outcome(ray_inst, dataclasses.replace(ray_out, ray=bad)).ok


def test_determinism_identical_outcomes():
    cuts = np.random.default_rng(11).integers(-3, 4, size=(40, 3)).astype(float)
    for mass in MASSES:
        assert lp.cone_margin(cuts, mass=mass) == lp.cone_margin(cuts, mass=mass)


def test_rejects_non_finite_data():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError):
            lp.cone_margin([[1.0, bad]], mass="lambda")


def test_infeasible_or_malformed_start_raises():
    # the nu mass over no cuts has no feasible point, so no start basis
    with pytest.raises(ValueError, match="no feasible point"):
        lp.cone_margin(np.zeros((0, 2)), mass="nu")
    with pytest.raises(ValueError, match="mass"):
        lp.cone_margin([[1.0, 2.0]], mass="mu")
    for cuts in ([1.0, 2.0], np.zeros((3, 0))):  # not an m x p matrix with p >= 1
        with pytest.raises(ValueError):
            lp.cone_margin(cuts, mass="lambda")
    # a prefix is of the instance's cuts, and not empty under the nu mass
    cuts = [[1.0, -2.0], [0.5, 0.5]]
    for mass, end in (("lambda", 3), ("lambda+nu", -1), ("nu", 0)):
        with pytest.raises(ValueError, match="first"):
            lp.solve_lp(lp.ConeInstance(cuts, mass), end)


def test_instance_holds_a_read_only_view_of_the_cuts():
    cuts = np.array([[1.0, -2.0], [0.5, 0.5]])
    inst = lp.ConeInstance(cuts, "lambda+nu")
    assert np.shares_memory(inst.cuts, cuts) and not inst.cuts.flags.writeable
    assert cuts.flags.writeable  # the caller's array is left as it was
    assert inst.num_rows == 3  # p + 1 rows however many cuts


def test_every_cone_margin_solve_passes_solve_lp_and_solve_linear(monkeypatch):
    # bench/tracer.py counts LP solves, their rows and basis factorizations
    # by wrapping these two names
    # (in every module that holds them, as support does solve_lp)
    solved, factorized = [], []
    solve, solve_linear = lp.solve_lp, lp._solve_linear

    def record(inst, *end):
        solved.append(inst.num_rows)
        return solve(inst, *end)

    monkeypatch.setattr(lp, "solve_lp", record)
    monkeypatch.setattr(support, "solve_lp", record)
    monkeypatch.setattr(
        lp, "_solve_linear", lambda *args: factorized.append(1) or solve_linear(*args)
    )
    cuts = np.random.default_rng(3).normal(size=(50, 4))
    for mass in MASSES:
        lp.cone_margin(cuts, mass=mass)
    assert solved == [5, 5, 5] and len(factorized) >= 3
    # a ladder's levels solve over prefixes of one instance, each a call
    steps = Ladder(rows=np.arange(50), entry=np.repeat([1, 2], 25), levels=2)
    support.support_trend(cuts, steps, (0.0,) * 4)
    assert len(solved) >= 5 and set(solved[3:]) == {5}


def test_iteration_limit_reports_breakdown(monkeypatch):
    # the cut (2, -1) takes one pivot from the start basis to the margin 1/3
    assert lp.cone_margin([[2.0, -1.0]], mass="lambda").value == pytest.approx(-1.0 / 3.0)
    monkeypatch.setattr(lp, "_MAX_ITER", 1)
    with pytest.raises(NumericalBreakdown):
        lp.cone_margin([[2.0, -1.0]], mass="lambda")


def test_breakdown_names_the_cone_shape_and_mass(monkeypatch):
    # p = 2 criteria and one cut: 3 rows over the columns (u, lambda_1, lambda_2, nu)
    with monkeypatch.context() as patch:
        patch.setattr(lp, "_MAX_ITER", 1)
        with pytest.raises(NumericalBreakdown) as limit:
            lp.cone_margin([[2.0, -1.0]], mass="lambda")
    assert str(limit.value) == (
        "simplex iteration limit exceeded in a 3 x 4 cone-margin LP (mass lambda)"
    )
    with pytest.raises(NumericalBreakdown) as pivot:
        lp.cone_margin([[1.0, 1.0 - 2e-13]], mass="lambda")
    assert str(pivot.value) == (
        "pivot below 1e-12 with no alternative in column 3 in a 3 x 4 cone-margin LP "
        "(mass lambda)"
    )
    # over a prefix, the shape is the prefix's LP's
    inst = lp.ConeInstance([[1.0, 1.0 - 2e-13], [1.0, 0.0], [0.0, 1.0]], "lambda")
    with pytest.raises(NumericalBreakdown, match=r"in a 3 x 4 cone-margin LP \(mass lambda\)$"):
        lp.solve_lp(inst, 1)


def test_blocking_pivot_below_tolerance_is_reported():
    # nu's direction moves lambda_2 by 1e-13 per unit: the only blocking row's
    # pivot is below tolerance, so refuse rather than call the LP unbounded
    with pytest.raises(NumericalBreakdown):
        lp.cone_margin([[1.0, 1.0 - 2e-13]], mass="lambda")


def test_rounding_below_the_direction_scale_blocks_no_pivot():
    # after two pivots nu_1's direction has entries near 400 and 1.8e-14 in
    # lambda_1's row: rounding, not a blocking pivot, so the LP is unbounded
    cuts = [
        [-1.7669013773655462, 1.4494983136057766, 0.8962844409666224],
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
        [1.2435526602180633, 0.0930034127674028, 1.618085975080798],
        [-1.0, 2.0, -2.0],
    ]
    inst = lp.ConeInstance(cuts, "lambda")
    out = lp.solve_lp(inst)
    assert out.status == "unbounded" and lp.verify_outcome(inst, out).ok


def test_tiny_cuts_are_not_taken_for_noise():
    # the reduced cost of a cut scales with the cut: cuts of size 4e-9 or
    # 1e-7 whose cone holds the direction (1, ..., 1) still make the hard
    # margin LP unbounded
    for cuts in ([[0.0], [3.9e-9]], [[1e-7, 1e-7]], [[1.0, -1.0], [1e-7, 1.2e-7]]):
        inst = lp.ConeInstance(cuts, "lambda")
        out = lp.solve_lp(inst)
        check = lp.verify_outcome(inst, out)
        assert out.status == "unbounded" and check.ok, (cuts, out.status, check.failures)


def test_cone_margin_start_basis_is_primal_feasible():
    rng = np.random.default_rng(1018)
    for _ in range(400):
        cuts = _random_cuts(rng)
        m, p = cuts.shape
        for mass in MASSES:
            if mass == "nu" and m == 0:
                continue
            inst = lp.ConeInstance(cuts, mass)
            basis = lp._start_basis(inst)
            assert basis[0] == 0 and len(set(basis)) == p + 1  # u first, one column per row
            _, A, b, _, _ = general_form(inst)
            x = np.zeros(A.shape[1])
            x[basis] = np.linalg.solve(A[:, basis], b)
            assert np.all(x[1:] >= -1e-12), (cuts, mass)
            # the vertex the docstring names
            u = 1.0 / p if mass != "nu" else -cuts[0].min()
            assert x[0] == pytest.approx(u, abs=1e-15)
            assert lp.verify_outcome(inst, lp.solve_lp(inst)).ok


def _highs_value(inst):
    """The optimum of ``inst`` by HiGHS, or its status name when there is none."""
    from scipy.optimize import linprog

    c, A, b, _, _ = general_form(inst)
    res = linprog(
        -c,
        A_eq=A,
        b_eq=b,
        bounds=[(None, None)] + [(0, None)] * (len(c) - 1),
        method="highs",
        # HiGHS's default 1e-7 tolerances leave rows violated by more than
        # the 1e-9 the margins are compared at
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    return {0: None, 2: "infeasible", 3: "unbounded"}[res.status] or -res.fun


def _recording_margin_lps(monkeypatch):
    """The list every LP ``linprog.cone_margin`` and the support margins'
    levels solve from now on is added to, each as an instance over its own
    cuts: a level's LP is over a prefix of its instance's cuts."""
    solved = []
    solve = lp.solve_lp

    def record(inst, end=None):
        solved.append(inst if end is None else lp.ConeInstance(inst.cuts[:end], inst.mass))
        return solve(inst, end)

    monkeypatch.setattr(lp, "solve_lp", record)
    monkeypatch.setattr(support, "solve_lp", record)
    return solved


def _margin_instances(monkeypatch, problem, anchors, levels):
    """Every LP ``support.support_margin`` solves along the anchors' ladders."""
    solved = _recording_margin_lps(monkeypatch)
    for anchor in anchors:
        y_ref = problem.criteria_at(anchor)
        for k in range(1, levels + 1):
            support.support_margin(sample_criterion_space(problem, GridSpec.geometric(anchor, k)), y_ref)
    return solved


def _closed_form_margins(monkeypatch, problem, anchors, levels):
    """Each cone-margin instance ``support.support_margin`` would solve along
    the anchors' ladders, with the report it gives without solving one: for
    p = 2 every margin there is the closed form."""
    solved = _recording_margin_lps(monkeypatch)
    margins = []
    for anchor in anchors:
        y_ref = problem.criteria_at(anchor)
        for k in range(1, levels + 1):
            cloud = sample_criterion_space(problem, GridSpec.geometric(anchor, k))
            cuts = geoffrion.prepare_cuts(cloud, y_ref)
            inst = lp.ConeInstance(cuts.cuts, "lambda")
            margins.append((inst, support.support_margin(cuts)))
    assert not solved
    return margins


def _near_parallel_margin_instances(monkeypatch, rng, count):
    """Hard and soft margin LPs over 50 to 400 cuts, each a copy of one of six
    directions tilted by about 1e-4: many columns pass near each vertex."""
    solved = _recording_margin_lps(monkeypatch)
    for _ in range(count):
        cuts = _near_parallel_cuts(rng)
        for mass in ("lambda", "lambda+nu"):
            lp.cone_margin(cuts, mass=mass)
    return solved


def _near_parallel_cuts(rng):
    """50 to 400 normalized cuts over p = 2 or 3, each a copy of one of six
    directions tilted by about 1e-4."""
    p = int(rng.integers(2, 4))
    m = int(rng.integers(50, 401))
    base = rng.integers(-3, 4, size=(6, p)).astype(float)
    diffs = base[rng.integers(0, len(base), size=m)] + 1e-4 * rng.normal(size=(m, p))
    # the normalized cuts of support.support_margin
    return diffs / np.max(np.abs(diffs), axis=1)[:, None]


@pytest.mark.parametrize("case", ["soland", "plane2d", "near_degenerate", "p5"])
def test_agrees_with_highs(monkeypatch, case):
    pytest.importorskip("scipy.optimize")
    if case == "soland":
        # p = 2 margins solve no LP: HiGHS checks the closed form instead
        anchors = [(0.5,), (1.6875,), (4.0,)]
        margins = _closed_form_margins(monkeypatch, builtin("soland"), anchors, 24)
        assert len(margins) == 72
        for inst, report in margins:
            expected = _highs_value(inst)
            assert not isinstance(expected, str) and report.feasible
            assert -report.margin == pytest.approx(expected, abs=1e-9)  # the value is -u
        return
    if case == "plane2d":
        problem = load_document({
            "type": "analytic", "decision_dim": 2, "criterion_dim": 3,
            "domain": [[0, 1], [0, 1]], "criteria": ["x0", "x1", "-(x0^2 + x1^2)"],
        })
        anchors = [(0.0, 1.0), (0.25, 0.75), (0.5, 0.5)]
        instances = _margin_instances(monkeypatch, problem, anchors, 8)
        assert {inst.num_rows for inst in instances} == {4}  # p + 1 rows, p = 3
    elif case == "p5":
        # five criteria: the hard and soft margins of the 25 default probes
        # over a 33-point grid per axis
        problem = load_document({
            "type": "analytic", "decision_dim": 2, "criterion_dim": 5,
            "domain": [[0, 1], [0, 1]], "criteria": ["x0", "x1", "-x0^2", "-x1^2", "x0*x1"],
        })
        cloud = sample_criterion_space(problem, GridSpec.uniform(2, 33))
        probes = grid_nodes(problem, GridSpec.uniform(2, 5)).tolist()
        assert len(probes) == 25
        instances = [
            lp.ConeInstance(geoffrion.prepare_cuts(cloud, problem.criteria_at(x)).cuts, mass)
            for x in probes
            for mass in ("lambda", "lambda+nu")
        ]
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
            assert out.value == pytest.approx(expected, abs=1e-10 if case == "p5" else 1e-9)
    if case == "near_degenerate":
        assert statuses == {"optimal", "unbounded"}  # hard margins both feasible and not


def test_p5_report_takes_few_factorizations_per_lp(monkeypatch, tmp_path, capsys):
    # degenerate pivots at the five-criteria problem's probes on the domain's
    # edge: each LP's factorizations, one per pivot, stay few
    problem = tmp_path / "p5.json"
    problem.write_text(json.dumps({
        "type": "analytic", "decision_dim": 2, "criterion_dim": 5,
        "domain": [[0, 1], [0, 1]], "criteria": ["x0", "x1", "-x0^2", "-x1^2", "x0*x1"],
    }))
    counts = []  # factorizations per solve
    factorize, solve = lp._factorize, lp.solve_lp

    def counting_factorize(A, basis):
        counts[-1] += 1
        return factorize(A, basis)

    def counting_solve(*args):
        counts.append(0)
        return solve(*args)

    monkeypatch.setattr(lp, "_factorize", counting_factorize)
    monkeypatch.setattr(lp, "solve_lp", counting_solve)  # the obstruction LPs
    monkeypatch.setattr(support, "solve_lp", counting_solve)  # the margin LPs
    assert cli.main(["report", str(problem), "--grid", "33", "--levels", "10"]) == 0
    capsys.readouterr()
    assert len(counts) > 250 and max(counts) <= 50, (len(counts), max(counts))


# ---------------------------------------------------------------------------
# the solver's fixed cost per solve, against references of the code it replaced


def _numpy_entering(A, reduced, enterable, binv, x_basic, basis, start):
    """``linprog._entering`` as it was before pricing took one pass and the
    ratio test ran in Python floats: the bit-for-bit reference."""
    eligible = enterable & (reduced > lp._ENTER_TOL)
    while eligible.any():
        j = int(np.argmax(np.where(eligible, reduced, -np.inf)))
        eligible[j] = False
        d = binv @ A[:, j]
        rows = (d[1:] > lp._PIVOT_TOL).nonzero()[0] + 1
        ratios = np.maximum(x_basic[rows], 0.0) / d[rows]
        theta = ratios.min(initial=np.inf)
        if not np.isfinite(theta):
            if reduced[j] > lp._UNBOUNDED_GUARD * np.abs(A[:, j]).max():
                return j, d, None
            continue
        ties = rows[ratios <= theta + 1e-12]
        if theta == 0.0 and len(ties) > 1:
            # the lexicographically least row: narrow the ties column by column
            lex = (binv[ties] @ start) / d[ties][:, None]
            for k in range(lex.shape[1]):
                least = lex[:, k] == lex[:, k].min()
                ties, lex = ties[least], lex[least]
            return j, d, int(ties[0])
        pos, d_pos = int(ties[0]), float(d[ties[0]])
        for i, d_i in zip(ties[1:].tolist(), d[ties[1:]].tolist()):
            if d_i > d_pos * (1.0 + 1e-12) or (
                abs(d_i - d_pos) <= 1e-12 * d_pos and basis[i] < basis[pos]
            ):
                pos, d_pos = i, d_i
        return j, d, pos
    return None


def _pricing_state(rng):
    """A random simplex state for ``_entering``, whose reduced costs are
    ``cost - summed``, a cost vector less the row duals' sums over the
    columns: small integer columns and values (exact ratio ties and equal
    pivots), copies of columns (equal reduced costs), ratios and pivots 1e-13
    apart, columns that no row blocks, reduced costs at and just above the
    entering tolerance, some of them noise on a large column, and the basis
    columns a degenerate stretch started from, with rows that tie at first."""
    p, n = int(rng.integers(1, 6)), int(rng.integers(2, 30))
    n = max(n, p + 2)
    A = rng.integers(-2, 3, size=(p + 1, n)).astype(float)
    if rng.random() < 0.5:
        A += 1e-13 * rng.integers(-1, 2, size=A.shape)  # near-equal pivots
    copies = rng.integers(0, n, size=int(rng.integers(0, n)))
    A[:, rng.integers(0, n, size=len(copies))] = A[:, copies]
    blocked = rng.random(n) < 0.2
    A[1:, blocked] = -np.abs(A[1:, blocked])  # no row blocks these, with binv = I
    A[:, rng.random(n) < 0.2] *= rng.choice([1e3, 1e7])  # noise below the guard on 1e7
    binv = np.eye(p + 1) if rng.random() < 0.7 else rng.normal(size=(p + 1, p + 1))
    # degenerate states, whose zero values tie at ratio 0, or positive values
    degenerate = rng.random() < 0.5
    x_basic = rng.integers(0 if degenerate else 1, 3, size=p + 1).astype(float)
    x_basic[degenerate & (rng.random(p + 1) < 0.3)] = -1e-17  # rounding below a zero value
    x_basic += 1e-13 * rng.integers(-1, 2, size=p + 1)  # near-equal ratios
    basis = [0, *rng.permutation(np.arange(1, n))[:p].tolist()]
    enterable = np.ones(n, dtype=bool)
    enterable[basis] = False
    cost = rng.choice([-1.0, 0.0, lp._ENTER_TOL, 2e-9, 1e-8, 0.5, 1.0, 2.0], size=n)
    cost[copies] = cost[rng.integers(0, n, size=len(copies))]
    summed = rng.choice([0.0, -0.0, 1e-9, 0.25], size=n)  # y @ A, as summed row by row
    start = A[:, basis] if rng.random() < 0.5 else rng.integers(-1, 2, size=(p + 1, p + 1)) * 1.0
    return A, cost, summed, enterable, binv, x_basic, basis, start


def test_entering_matches_the_numpy_reference_on_random_states():
    rng = np.random.default_rng(1977)
    seen = dict.fromkeys(("none", "unbounded", "lexicographic", "tie", "equal_pivots", "null"), 0)
    for _ in range(20000):
        A, cost, summed, enterable, binv, x_basic, basis, start = _pricing_state(rng)
        reduced = cost - summed
        want = _numpy_entering(A, reduced, enterable, binv, x_basic, basis, start)
        # as _revised_simplex prices: a cost of -inf at the basic columns
        priced = np.where(enterable, cost, -np.inf) - summed
        state = (A, binv, x_basic, basis, start)
        before = [np.array(a, copy=True) for a in state]
        got = lp._entering(A, priced, binv, x_basic.tolist(), basis, start)
        for kept, now in zip(before, state):
            assert np.array_equal(kept, now)  # the state is left as it was
        assert (got is None) == (want is None)
        if got is None:
            seen["none"] += 1
            continue
        assert got[0] == want[0] and got[2] == want[2] and got[1].tobytes() == want[1].tobytes()
        seen["unbounded"] += got[2] is None
        if got[2] is not None:
            d = want[1]
            rows = [i for i in range(1, len(d)) if d[i] > lp._PIVOT_TOL]
            ratios = {i: max(x_basic[i], 0.0) / d[i] for i in rows}
            theta = min(ratios.values())
            ties = [d[i] for i, ratio in ratios.items() if ratio <= theta + 1e-12]
            seen["lexicographic"] += theta == 0.0 and len(ties) > 1
            seen["tie"] += theta > 0.0 and len(ties) > 1
            seen["equal_pivots"] += theta > 0.0 and len(ties) > len(set(ties))
        # a column priced above the chosen one was passed over as noise
        seen["null"] += bool(np.where(enterable, reduced, -np.inf).max() > reduced[got[0]])
    assert min(seen.values()) > 300, seen


def test_start_inverse_is_kept_read_only_and_equals_a_fresh_factorization():
    rng = np.random.default_rng(6)
    for p in range(1, 7):
        for mass in ("lambda", "lambda+nu"):
            inst = lp.ConeInstance(rng.normal(size=(5, p)), mass)
            basis = lp._start_basis(inst)
            start = lp._start_inverse(inst.matrix, basis)
            kept = lp._START_INVERSES[p + 1]
            assert start.tobytes() == lp._factorize(inst.matrix, basis).tobytes()
            assert start is kept and not kept.flags.writeable
            with pytest.raises(ValueError):
                kept[0, 0] = 1.0
    # solves that pivot only read it: the kept inverse is as it was
    kept = {p: lp._START_INVERSES[p].tobytes() for p in range(2, 8)}
    for p in range(2, 7):
        cuts = rng.normal(size=(40, p))
        cuts[:, 0] = -np.abs(cuts[:, 0])  # the weights e_1 keep every cut
        for mass in ("lambda", "lambda+nu"):
            out = lp.cone_margin(cuts, mass=mass)
            assert out.status == "optimal" and set(out.basis) != set(range(1 + p)), (p, mass)
    assert kept == {p: lp._START_INVERSES[p].tobytes() for p in range(2, 8)}


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_prefix_solves_equal_solves_over_the_prefix_cuts(p):
    # ladder levels solve over prefixes of one instance's matrix; each must
    # be the solve over the prefix's own cuts, to the bit, including the
    # soft margins of deep levels whose cuts no weights satisfy
    rng = np.random.default_rng(100 + p)
    infeasible = 0
    for _ in range(20):
        m = int(rng.integers(10, 120))
        diffs = rng.normal(size=(m, p)) - 1.0
        # dominating points enter late: the deepest levels are infeasible
        late = rng.integers(m // 2, m, size=int(rng.integers(0, 3)))
        diffs[late] = np.abs(diffs[late])
        diffs[rng.integers(0, m, size=m // 5)] = diffs[rng.integers(0, m, size=m // 5)]
        columns = diffs / np.max(np.abs(diffs), axis=1)[:, None]
        ends = np.unique(rng.integers(1, m + 1, size=8))
        for mass in ("lambda", "lambda+nu"):
            inst = lp.ConeInstance(columns, mass)
            for end in ends.tolist():
                got = lp.solve_lp(inst, end)
                want = lp.cone_margin(columns[:end], mass=mass)
                for name in ("status", "x", "value", "basis", "duals", "ray"):
                    assert repr(getattr(got, name)) == repr(getattr(want, name)), (end, mass, name)
                infeasible += got.status == "unbounded"
    assert infeasible > 5


# ---------------------------------------------------------------------------
# the simplex against the one it replaced: each factorization a solve against
# the identity, the basic values and duals products with unit vectors, the
# costs held in arrays, and each instance's matrix built whole


def _reference_matrix(inst):
    """``ConeInstance.matrix`` as it was built before the head blocks were kept."""
    m, p = inst.cuts.shape
    on_lambda, on_nu = lp._MASS_ROWS[inst.mass]
    A = np.zeros((p + 1, 1 + p + m))
    A[:p, 0] = 1.0
    A[:p, 1 : 1 + p] = -np.eye(p)
    A[:p, 1 + p :] = inst.cuts.T
    A[p, 1 : 1 + p] = float(on_lambda)
    A[p, 1 + p :] = float(on_nu)
    return A


def _reference_factorize(A, basis):
    try:
        return np.linalg.solve(A[:, basis], np.eye(len(basis)))
    except np.linalg.LinAlgError:
        raise NumericalBreakdown("singular basis matrix") from None


def _reference_revised_simplex(A, b, c, basis, binv, factorize):
    """``linprog._revised_simplex`` as it was, factorizing with ``factorize``."""
    basis = list(basis)
    c_basis = c[basis]
    c_enter = c.copy()
    c_enter[basis] = -np.inf
    start = A[:, basis]
    for _ in range(lp._MAX_ITER):
        x_basic = binv @ b
        y = c_basis @ binv
        priced = c_enter - (y[:, None] * A).sum(axis=0)
        choice = lp._entering(A, priced, binv, x_basic.tolist(), basis, start)
        if choice is None:
            return "optimal", basis, x_basic, y, None, None
        j, d, pos = choice
        if pos is None:
            if float(np.max(d[1:])) > lp._PIVOT_TOL * 1e-2 * max(1.0, float(np.abs(d).max())):
                raise NumericalBreakdown(
                    f"pivot below {lp._PIVOT_TOL} with no alternative in column {j}"
                )
            return "unbounded", basis, x_basic, y, j, d
        c_enter[basis[pos]] = c[basis[pos]]
        c_enter[j] = -np.inf
        basis[pos] = j
        c_basis[pos] = c[j]
        binv = factorize(A, basis)
        if x_basic[pos] > 0.0:
            start = A[:, basis]
    raise NumericalBreakdown("simplex iteration limit exceeded")


def _reference_solve_lp(inst, end=None, factorize=_reference_factorize):
    """``linprog.solve_lp`` as it was, every inverse from ``factorize``."""
    m, p = inst.cuts.shape
    end = m if end is None else end
    n = 1 + p + end
    A = _reference_matrix(inst)[:, :n]
    b = np.zeros(p + 1)
    b[p] = 1.0
    c = np.zeros(n)
    c[0] = -1.0
    try:
        basis = lp._start_basis(inst)
        binv = factorize(A, basis)
        status, basis, x_basic, y, enter, direction = _reference_revised_simplex(
            A, b, c, basis, binv, factorize
        )
    except NumericalBreakdown as exc:
        raise NumericalBreakdown(
            f"{exc} in a {p + 1} x {n} cone-margin LP (mass {inst.mass})"
        ) from None
    x = np.zeros(n)
    x[basis] = np.where(x_basic > 0.0, x_basic, 0.0)
    x[0] = x_basic[0]
    if status == "unbounded":
        ray = np.zeros(n)
        ray[enter] = 1.0
        ray[basis] = -direction
        ray /= np.abs(A[:, enter]).max()
        return lp.LpOutcome(status="unbounded", x=tuple(x.tolist()), ray=tuple(ray.tolist()))
    return lp.LpOutcome(
        status="optimal",
        x=tuple(x.tolist()),
        value=0.0 - float(x[0]),
        basis=tuple(sorted(basis)),
        duals=tuple(y.tolist()),
    )


def _solve_repr(solve, inst, end):
    """``repr`` of each field of ``solve(inst, end)``, or the breakdown's message."""
    try:
        out = solve(inst, end)
    except NumericalBreakdown as exc:
        return "breakdown", str(exc)
    return tuple(repr(getattr(out, f.name)) for f in dataclasses.fields(out))


def _reference_cases(rng):
    """(instance, ends) pairs: ``_random_cuts`` and normal cuts over p = 1..6
    under every mass, near-parallel cuts and positive cuts whose hard margin
    LP is often unbounded, each solved over all its cuts and up to three prefixes."""
    cases = []
    for p, mass in itertools.product(range(1, 7), MASSES):
        for _ in range(40):
            for cuts in (_random_cuts(rng, p), rng.normal(size=(int(rng.integers(0, 41)), p))):
                if len(cuts) or mass != "nu":
                    cases.append(lp.ConeInstance(cuts, mass))
    for _ in range(30):
        cuts = _near_parallel_cuts(rng)
        cases += [lp.ConeInstance(cuts, "lambda"), lp.ConeInstance(cuts, "lambda+nu")]
    for _ in range(200):
        cuts = _random_cuts(rng)
        p = cuts.shape[1]
        positive = np.abs(rng.normal(size=(int(rng.integers(0, p + 2)), p)))
        cases.append(lp.ConeInstance(np.vstack([cuts, positive]), "lambda"))
    ends = []
    for inst in cases:
        first = 1 if inst.mass == "nu" else 0
        ends.append([None, *np.unique(rng.integers(first, len(inst.cuts) + 1, size=3)).tolist()])
    return list(zip(cases, ends))


@pytest.fixture(scope="module")
def reference_cases():
    return _reference_cases(np.random.default_rng(20261022))


def test_solves_match_the_reference_simplex(reference_cases):
    statuses = set()
    for inst, ends in reference_cases:
        for end in ends:
            want = _solve_repr(_reference_solve_lp, inst, end)
            assert _solve_repr(lp.solve_lp, inst, end) == want, (inst, end)
            statuses.add(want[0])
    assert statuses == {"'optimal'", "'unbounded'"}


def test_breakdowns_match_the_reference_simplex(monkeypatch):
    pivot = lp.ConeInstance([[1.0, 1.0 - 2e-13], [1.0, 0.0], [0.0, 1.0]], "lambda")
    for end in (None, 1):
        want = _solve_repr(_reference_solve_lp, pivot, end)
        assert want[0] == "breakdown" and _solve_repr(lp.solve_lp, pivot, end) == want
    monkeypatch.setattr(lp, "_MAX_ITER", 1)
    for mass in MASSES:
        inst = lp.ConeInstance([[2.0, -1.0], [-1.0, 3.0]], mass)
        want = _solve_repr(_reference_solve_lp, inst, None)
        assert want[0] == "breakdown" and _solve_repr(lp.solve_lp, inst, None) == want


def _flip_signed_zeros(binv):
    """A copy of ``binv`` with the sign of each zero in its last column and
    first row flipped: the same inverse, with other signed zeros."""
    out = binv.copy()
    edge = np.zeros(out.shape, dtype=bool)
    edge[:, -1] = edge[0] = True
    np.negative(out, out=out, where=edge & (out == 0.0))
    return out


def test_signed_zeros_of_the_inverse_match_the_reference(monkeypatch, reference_cases):
    # the basic values and duals read the inverse's last column and first
    # row; a zero there must come out as the products with unit vectors gave it
    flipped = []
    solve_linear = lp._solve_linear

    def flipping(M):
        binv = solve_linear(M)
        flipped.append(bool(((binv[:, -1] == 0.0) | (binv[0] == 0.0)).any()))
        return _flip_signed_zeros(binv)

    monkeypatch.setattr(lp, "_solve_linear", flipping)
    monkeypatch.setattr(lp, "_start_inverse", lp._factorize)  # not the kept copy
    zeros = []  # whether an optimal outcome has u or a dual at zero

    def reference(inst, end):
        out = _reference_solve_lp(
            inst, end, lambda A, basis: _flip_signed_zeros(_reference_factorize(A, basis))
        )
        zeros.append(out.status == "optimal" and (out.x[0] == 0.0 or 0.0 in out.duals))
        return out

    for inst, ends in reference_cases[::2]:
        for end in ends:
            want = _solve_repr(reference, inst, end)
            assert _solve_repr(lp.solve_lp, inst, end) == want, (inst, end)
    assert sum(flipped) > 800 and sum(zeros) > 350, (sum(flipped), sum(zeros))


def test_solve_linear_is_the_solve_against_the_identity():
    rng = np.random.default_rng(1)
    for _ in range(5000):
        k = int(rng.integers(1, 8))
        M = rng.normal(size=(k, k))
        if rng.random() < 0.5:
            M = rng.integers(-2, 3, size=(k, k)).astype(float)
            M[M == 0.0] = rng.choice([0.0, -0.0], size=int((M == 0.0).sum()))
        try:
            want = np.linalg.solve(M, np.eye(k)).tobytes()
        except np.linalg.LinAlgError:
            with pytest.raises(NumericalBreakdown) as singular:
                lp._solve_linear(M)
            assert str(singular.value) == "singular basis matrix"
            continue
        assert lp._solve_linear(M).tobytes() == want
    with pytest.raises(NumericalBreakdown) as singular:
        lp._solve_linear(np.ones((3, 3)))
    assert str(singular.value) == "singular basis matrix"


def test_instance_matrix_equals_the_reference_and_head_blocks_are_read_only():
    rng = np.random.default_rng(8)
    for p, mass in itertools.product(range(1, 7), MASSES):
        for m in (0, 1, 3, 40) if mass != "nu" else (1, 3, 40):
            cuts = rng.normal(size=(m, p))
            cuts[rng.random(cuts.shape) < 0.2] = -0.0
            inst = lp.ConeInstance(cuts, mass)
            assert inst.matrix.tobytes() == _reference_matrix(inst).tobytes(), (p, mass, m)
            assert inst.matrix.shape == (p + 1, 1 + p + m) and not inst.matrix.flags.writeable
        kept = lp._HEAD_BLOCKS[p, mass]
        assert not kept.flags.writeable and not np.shares_memory(kept, inst.matrix)
        with pytest.raises(ValueError):
            kept[0, 0] = 2.0
