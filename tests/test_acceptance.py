"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one pass/fail line (run with ``pytest -s`` to see them live)."""

import itertools
import json
import time

import numpy as np
import pytest

from paretocert import exprlang, geoffrion, kkt, linprog as lp, pareto, support
from paretocert.cli import main as cli_main
from paretocert.problems import (
    AxisSpec,
    GridSpec,
    builtin,
    load_document,
    refinement_ladder,
    sample_criterion_space,
)


def ladder(problem, anchor, levels):
    """The deepest level of the refinement toward ``anchor`` and the ladder
    cut from it."""
    cloud = sample_criterion_space(problem, GridSpec.geometric(anchor, levels))
    return cloud, refinement_ladder(problem, cloud, anchor, levels)


def _report(name, ok=True):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture
def soland():
    return builtin("soland")


def test_criterion_1_every_sampled_point_is_efficient(soland):
    start = time.perf_counter()
    # the last grid is the nodes 0, 1 and 2
    short = load_document(dict(soland.to_document(), domain=[[0, 2]]))
    cases = [
        (soland, GridSpec.uniform(1, 101)),
        (soland, GridSpec(((AxisSpec.geometric(0.0, 20),),))),
        (soland, GridSpec(((AxisSpec.uniform(64), AxisSpec.geometric(1.0, 12)),))),
        (short, GridSpec.uniform(1, 3)),
    ]
    for problem, grid in cases:
        cloud = sample_criterion_space(problem, grid)
        assert pareto.pareto_filter(cloud) == list(range(len(cloud)))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("1 efficiency: every sampled point survives the filter")


def test_criterion_2_ratio_is_inverse_decision(soland):
    start = time.perf_counter()
    for k in range(1, 21):
        x = 2.0 ** -k
        ratio = geoffrion.proper_efficiency_report([soland.criteria_at([x])], (0.0, 0.0)).m_hat
        assert abs(ratio - 1.0 / x) <= 1e-9 * (1.0 / x)
    evidence = geoffrion.divergence_probe(*ladder(soland, (0.0,), 20), (0.0, 0.0))
    assert evidence.ratios == tuple(2.0 ** k for k in range(1, 21))
    assert evidence.growth
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("2 trade-off ratio equals the inverse decision and doubles per level")


def test_criterion_3_obstruction_at_the_corner(soland):
    start = time.perf_counter()
    active = kkt.active_set(soland, (0.0, 0.0))
    assert active.active_ineq == (0,)
    assert active.eq == (0,)
    assert np.max(np.abs(active.gradients - np.asarray([[-1.0, 0.0], [0.0, 1.0]]))) <= 1e-12
    licq = kkt.licq_check(active)
    assert licq.holds and licq.rank == 2
    cert = kkt.obstruction_test(active, licq=licq)
    assert cert.conclusion == kkt.OBSTRUCTION
    assert abs(cert.s_star) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("3 corner point: LICQ holds and the obstruction pins s* to zero")


def test_criterion_4_positive_control(soland):
    start = time.perf_counter()
    cert = kkt.obstruction_test(kkt.active_set(soland, (1.0, -1.0)))
    assert cert.conclusion == kkt.NO_OBSTRUCTION
    assert abs(cert.sigma[0] / cert.sigma[1] - 1.5) <= 1e-6

    cloud = sample_criterion_space(soland, GridSpec.uniform(1, 1025))
    margin = support.support_margin(cloud, (1.0, -1.0))
    assert abs(margin.margin - 0.4) <= 0.01
    assert abs(margin.weights[0] - 0.6) <= 0.01
    assert abs(margin.weights[1] - 0.4) <= 0.01

    arr = cloud.as_array()
    box = [(float(arr[:, i].min()) - 1.0, float(arr[:, i].max()) + 1.0) for i in range(2)]
    witness = support.build_witness((1.0, -1.0), margin.weights, box, cloud)
    verification = support.verify_witness(witness, cloud)
    assert len(verification.checks) == 3
    assert verification.all_passed, verification.checks
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report("4 positive control: support, certificate, and witness all confirm")


def test_criterion_5_margin_law(soland):
    for k in range(2, 21):
        grid = GridSpec(((AxisSpec.geometric(0.0, k),),))
        cloud = sample_criterion_space(soland, grid)
        margin = support.support_margin(cloud, (0.0, 0.0)).margin
        x_min = 2.0 ** -k
        assert abs(margin - x_min / (1.0 + x_min)) <= 1e-6
    trend = support.support_trend(*ladder(soland, (0.0,), 20), (0.0, 0.0))
    assert trend.verdict == support.VANISHING
    _report("5 margin law: t* = x_min / (1 + x_min) and the support vanishes")


# ---------------------------------------------------------------------------
# criterion 6: oracle suites


def _brute_pareto(points):
    keep = []
    for i, a in enumerate(points):
        if not any(
            all(x >= y for x, y in zip(b, a)) and any(x != y for x, y in zip(b, a))
            for j, b in enumerate(points)
            if j != i
        ):
            keep.append(i)
    return keep


def test_criterion_6a_pareto_oracle():
    rng = np.random.default_rng(20250818)
    for case in range(200):
        n = int(rng.integers(1, 501)) if case < 20 else int(rng.integers(1, 121))
        p = int(rng.integers(2, 5))
        if rng.random() < 0.5:
            cloud = [tuple(float(v) for v in rng.integers(-3, 4, size=p)) for _ in range(n)]
        else:
            cloud = [tuple(float(v) for v in rng.normal(size=p)) for _ in range(n)]
        assert pareto.pareto_filter(cloud) == _brute_pareto(cloud)
    _report("6a efficient-set filter matches the pairwise brute force")


def _basic_feasible_points(M, r):
    """Every basic feasible solution of {z >= 0 : M z = r}, one row each."""
    k, n = M.shape
    bases = np.asarray(list(itertools.combinations(range(n), k)))
    B = np.moveaxis(M[:, bases], 0, 1)  # one k x k basis matrix per row of bases
    nonsingular = np.abs(np.linalg.det(B)) > 1e-9
    bases, B = bases[nonsingular], B[nonsingular]
    z = np.linalg.solve(B, np.broadcast_to(r, (len(B), k))[..., None])[..., 0]
    feasible = np.all(z >= -1e-9, axis=1)
    points = np.zeros((int(feasible.sum()), n))
    points[np.arange(len(points))[:, None], bases[feasible]] = z[feasible]
    return points


def _vertex_enumeration(cuts, mass):
    """The cone-margin LP over (u+, u-, lambda, nu) >= 0 by enumeration:
    'unbounded' when the improving directions, scaled to u- - u+ = 1, have a
    vertex, else the largest -u = u- - u+ over the vertices."""
    m, p = cuts.shape
    M = np.zeros((p + 1, 2 + p + m))
    M[:p, 0], M[:p, 1] = 1.0, -1.0
    M[:p, 2 : 2 + p] = -np.eye(p)
    M[:p, 2 + p :] = cuts.T
    M[p, 2 : 2 + p] = float(mass in ("lambda", "lambda+nu"))
    M[p, 2 + p :] = float(mass in ("nu", "lambda+nu"))
    improving = np.zeros(2 + p + m)
    improving[:2] = -1.0, 1.0
    if len(_basic_feasible_points(np.vstack([M, improving]), np.eye(p + 2)[p + 1])):
        return "unbounded"
    points = _basic_feasible_points(M, np.eye(p + 1)[p])
    return float(np.max(points[:, 1] - points[:, 0]))


def test_criterion_6b_lp_oracle():
    rng = np.random.default_rng(20250819)
    statuses = {"optimal": 0, "unbounded": 0}
    for _ in range(500):
        p, m = int(rng.integers(1, 5)), int(rng.integers(0, 7))
        cuts = rng.integers(-4, 5, size=(m, p)).astype(float)
        mass = ("lambda", "lambda+nu", "nu")[int(rng.integers(3 if m else 2))]
        out = lp.cone_margin(cuts, mass=mass)
        oracle = _vertex_enumeration(cuts, mass)
        if oracle == "unbounded":
            assert out.status == "unbounded"
        else:
            assert out.status == "optimal"
            assert abs(out.value - oracle) <= 1e-7
        statuses[out.status] += 1
        assert lp.verify_outcome(lp.ConeInstance(cuts, mass), out).ok
    assert min(statuses.values()) > 50  # both verdicts are well exercised
    _report("6b simplex matches vertex enumeration and all certificates verify")


def test_criterion_6c_obstruction_oracle():
    rng = np.random.default_rng(20250820)
    checked = 0
    while checked < 100:
        g = rng.normal(size=(2, 2))
        n_ineq = int(rng.integers(0, 3))
        active = kkt.ActiveSet(
            y_ref=(0.0, 0.0),
            active_ineq=tuple(range(n_ineq)),
            eq=tuple(range(2 - n_ineq)),
            gradients=g,
        )
        if not kkt.licq_check(active).holds:
            continue
        cert = kkt.obstruction_test(active)
        if cert.s_star is not None and abs(cert.s_star) < 1e-4:
            continue
        t = np.linspace(0.0, 1.0, 100001)
        best = -np.inf
        signs0 = (1.0,) if n_ineq >= 1 else (1.0, -1.0)
        signs1 = (1.0,) if n_ineq >= 2 else (1.0, -1.0)
        for s0 in signs0:
            for s1 in signs1:
                sigma = np.outer(t * s0, g[0]) + np.outer((1.0 - t) * s1, g[1])
                best = max(best, float(sigma.min(axis=1).max()))
        assert (cert.conclusion == kkt.NO_OBSTRUCTION) == (best > 1e-9)
        checked += 1
    _report("6c obstruction verdicts match the dense multiplier grid")


def _brute_m_hat(points, y_ref):
    p = len(y_ref)
    m_hat = 0.0
    dominated = False
    for y in points:
        for i in range(p):
            if y[i] <= y_ref[i]:
                continue
            ratios = [
                (y[i] - y_ref[i]) / (y_ref[j] - y[j]) for j in range(p) if y_ref[j] > y[j]
            ]
            if not ratios:
                dominated = True
            else:
                m_hat = max(m_hat, min(ratios))
    return dominated, m_hat


def test_criterion_6d_proper_efficiency_oracle():
    rng = np.random.default_rng(20250821)
    for _ in range(100):
        n = int(rng.integers(1, 301))
        p = int(rng.integers(2, 5))
        pts = [tuple(float(v) for v in rng.normal(size=p)) for _ in range(n)]
        y_ref = tuple(float(v) for v in rng.normal(size=p))
        dominated, m_hat = _brute_m_hat(pts, y_ref)
        report = geoffrion.proper_efficiency_report(pts, y_ref)
        if dominated:
            assert report.status == geoffrion.DOMINATED
        else:
            assert report.status == geoffrion.PROPER
            assert report.m_hat == m_hat
    _report("6d ratio bounds match the triple-loop brute force")


def test_criterion_7_gradient_checks():
    from test_exprlang import _finite_difference, _random_case

    rng = np.random.default_rng(20250822)
    accepted = 0
    attempts = 0
    while accepted < 1000 and attempts < 40000:
        attempts += 1
        expr, point = _random_case(rng)
        try:
            value = exprlang.evaluate(expr, point)
            grad = exprlang.gradient(expr, point)
            fds = [_finite_difference(expr, point, k) for k in range(len(point))]
        except Exception:
            continue
        if abs(value) > 1e2 or any(abs(g) > 1e2 for g in grad):
            continue
        if all(abs(g) < 1e-1 for g in grad):
            continue
        used = False
        for k in range(len(point)):
            if abs(grad[k]) < 1e-1:
                continue
            assert abs(fds[k] - grad[k]) / abs(grad[k]) < 1e-5
            used = True
        if used:
            accepted += 1
    assert accepted == 1000
    _report("7 exact gradients match central differences on 1000 cases")


def test_criterion_8_report_determinism(tmp_path):
    doc = {
        "type": "analytic",
        "decision_dim": 1,
        "criterion_dim": 2,
        "domain": [[0, 4]],
        "criteria": ["x0^2", "-x0^3"],
        "constraints": {"ineq": ["-y0"], "eq": ["y1 + y0^1.5"]},
    }
    problem_file = tmp_path / "soland.json"
    problem_file.write_text(json.dumps(doc))
    one = tmp_path / "one.json"
    two = tmp_path / "two.json"
    args = ["report", str(problem_file), "--levels", "12", "--grid", "65"]
    assert cli_main(args + ["--out", str(one)]) == 0
    assert cli_main(args + ["--out", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()
    _report("8 identical invocations produce byte-identical reports")
