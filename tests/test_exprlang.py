import math
from fractions import Fraction

import numpy as np
import pytest

from paretocert import exprlang as ex
from paretocert.errors import (
    DimensionError,
    DomainError,
    ExprSyntaxError,
    NonConstantExponent,
    NonDifferentiable,
)


def test_parse_power_structure():
    expr = ex.parse("x0^2", 1, 0)
    assert expr.root == ex.Pow(ex.Var("x", 0), Fraction(2))
    assert expr.space == "x"


def test_parse_decimal_exponent_is_exact_rational():
    expr = ex.parse("y1 + y0^1.5", 0, 2)
    assert expr.root == ex.BinOp("+", ex.Var("y", 1), ex.Pow(ex.Var("y", 0), Fraction(3, 2)))


def test_parse_fraction_exponent():
    expr = ex.parse("y0^3/2", 0, 1)
    assert expr.root == ex.Pow(ex.Var("y", 0), Fraction(3, 2))


def test_parenthesized_exponent_is_the_same_constant():
    assert ex.parse("y0^(3/2)", 0, 1).root == ex.parse("y0^3/2", 0, 1).root
    assert ex.parse("y0^(1.5) + 1", 0, 1).root == ex.parse("y0^1.5 + 1", 0, 1).root
    # the parenthesized exponent ends at ')': the '/' after it divides
    expr = ex.parse("x0^(2)/4", 1, 0)
    assert expr.root == ex.BinOp("/", ex.Pow(ex.Var("x", 0), Fraction(2)), ex.Const(4.0))
    assert ex.to_source(ex.parse("y0^(3/2)", 0, 1)) == "y0^3/2"


def test_parenthesized_exponent_must_be_constant():
    with pytest.raises(NonConstantExponent) as err:
        ex.parse("y0^(x0)", 1, 1)
    assert err.value.position == 4
    with pytest.raises(NonConstantExponent) as err:
        ex.parse("y0^(3/x0)", 1, 1)
    assert err.value.position == 6
    with pytest.raises(ExprSyntaxError, match="zero denominator in exponent") as err:
        ex.parse("y0^(3/0)", 0, 1)
    assert err.value.position == 6
    with pytest.raises(ExprSyntaxError):
        ex.parse("y0^(3/2", 0, 1)


def test_literal_beyond_the_float_range_is_a_syntax_error():
    huge = "1" + "0" * 400
    for source, position in [(f"x0/{huge} - x0", 3), (f"{huge}*x0", 0), (f"x0^{huge}", 3)]:
        with pytest.raises(ExprSyntaxError, match="beyond the float range") as err:
            ex.parse(source, 1, 0)
        assert err.value.position == position
    # the largest finite literals still parse
    assert ex.parse("1" + "0" * 308, 0, 1).root == ex.Const(1e308)


def test_exponent_slash_does_not_eat_division_by_variable():
    expr = ex.parse("x0^2/x1", 2, 0)
    assert expr.root == ex.BinOp("/", ex.Pow(ex.Var("x", 0), Fraction(2)), ex.Var("x", 1))


def test_non_constant_exponent_rejected():
    with pytest.raises(NonConstantExponent):
        ex.parse("x0^x0", 1, 0)


def test_variable_out_of_range():
    with pytest.raises(DimensionError):
        ex.parse("x1", 1, 0)
    with pytest.raises(DimensionError):
        ex.parse("y0", 1, 0)


def test_mixed_variable_families_rejected():
    with pytest.raises(DimensionError):
        ex.parse("x0 + y0", 1, 1)


def test_non_ascii_letter_is_an_unexpected_character():
    for source, position in [("é", 0), ("x0 + é", 5), ("y0*ß1", 3), ("xé0", 1)]:
        with pytest.raises(ExprSyntaxError, match="unexpected character") as err:
            ex.parse(source, 1, 1)
        assert err.value.position == position


def test_syntax_error_carries_position():
    with pytest.raises(ExprSyntaxError) as err:
        ex.parse("x0 + ", 1, 0)
    assert err.value.position == 5


@pytest.mark.parametrize(
    "source, dims, point, expected",
    [
        ("x0^2", (1, 0), [3.0], 9.0),
        ("y1 + y0^1.5", (0, 2), [4.0, -8.0], 0.0),
        ("-y0", (0, 2), [0.5, 0.0], -0.5),
        ("-x0^3", (1, 0), [2.0], -8.0),
        ("(x0 + 1) * (x0 - 1)", (1, 0), [3.0], 8.0),
        ("x0^3/2", (1, 0), [4.0], 8.0),
    ],
)
def test_evaluate(source, dims, point, expected):
    expr = ex.parse(source, *dims)
    assert ex.evaluate(expr, point) == pytest.approx(expected, abs=1e-12)


def test_odd_root_of_negative_base():
    expr = ex.parse("x0^1/3", 1, 0)
    assert ex.evaluate(expr, [-8.0]) == pytest.approx(-2.0)
    expr = ex.parse("x0^2/3", 1, 0)
    assert ex.evaluate(expr, [-8.0]) == pytest.approx(4.0)


def test_even_denominator_root_rejects_negative_base():
    expr = ex.parse("x0^1/2", 1, 0)
    with pytest.raises(DomainError):
        ex.evaluate(expr, [-1.0])


def test_division_by_zero():
    expr = ex.parse("1/x0", 1, 0)
    with pytest.raises(DomainError):
        ex.evaluate(expr, [0.0])


def test_overflow_is_a_domain_error():
    expr = ex.parse("x0^900", 1, 0)
    with pytest.raises(DomainError):
        ex.evaluate(expr, [100.0])


def test_evaluate_checks_point_length():
    expr = ex.parse("x0", 2, 0)
    with pytest.raises(DimensionError):
        ex.evaluate(expr, [1.0])


def test_gradient_constraint_rows():
    g1 = ex.parse("-y0", 0, 2)
    assert ex.gradient(g1, [0.0, 0.0]) == (-1.0, 0.0)
    h1 = ex.parse("y1 + y0^1.5", 0, 2)
    assert ex.gradient(h1, [0.0, 0.0]) == (0.0, 1.0)
    assert ex.gradient(h1, [1.0, -1.0]) == (1.5, 1.0)


def test_gradient_power_above_one_exists_at_zero():
    expr = ex.parse("y0^1.5", 0, 1)
    assert ex.gradient(expr, [0.0]) == (0.0,)


def test_gradient_square_root_not_differentiable_at_zero():
    expr = ex.parse("y0^1/2", 0, 1)
    with pytest.raises(NonDifferentiable):
        ex.gradient(expr, [0.0])


# ---------------------------------------------------------------------------
# randomized properties

_EXPONENTS = [
    Fraction(2),
    Fraction(3),
    Fraction(4),
    Fraction(1, 2),
    Fraction(3, 2),
    Fraction(5, 2),
    Fraction(1, 3),
    Fraction(2, 3),
]


def _random_node(rng, depth, dim):
    choice = rng.integers(0, 6 if depth > 0 else 2)
    if choice == 0:
        return ex.Const(float(rng.integers(1, 40)) / 8.0)
    if choice == 1:
        return ex.Var("y", int(rng.integers(0, dim)))
    if choice == 2:
        return ex.Neg(_random_node(rng, depth - 1, dim))
    if choice == 3:
        op = ["+", "-", "*", "/"][rng.integers(0, 4)]
        return ex.BinOp(op, _random_node(rng, depth - 1, dim), _random_node(rng, depth - 1, dim))
    if choice == 4:
        exponent = _EXPONENTS[rng.integers(0, len(_EXPONENTS))]
        return ex.Pow(_random_node(rng, depth - 1, dim), exponent)
    return ex.BinOp("+", _random_node(rng, depth - 1, dim), _random_node(rng, depth - 1, dim))


def _random_case(rng, dim=2):
    node = _random_node(rng, 3, dim)
    expr = ex.Expression(node, 0, dim, "y")
    point = tuple(0.4 + 1.8 * rng.random() for _ in range(dim))
    return expr, point


def _finite_difference(expr, point, k, h=1e-6):
    lo = list(point)
    hi = list(point)
    lo[k] -= h
    hi[k] += h
    return (ex.evaluate(expr, hi) - ex.evaluate(expr, lo)) / (2.0 * h)


def test_gradient_matches_central_differences_1000_cases():
    rng = np.random.default_rng(20250810)
    accepted = 0
    attempts = 0
    while accepted < 1000 and attempts < 40000:
        attempts += 1
        expr, point = _random_case(rng)
        try:
            value = ex.evaluate(expr, point)
            grad = ex.gradient(expr, point)
            fds = [_finite_difference(expr, point, k) for k in range(len(point))]
        except (DomainError, NonDifferentiable):
            continue
        # keep scales sane so the finite-difference error stays below tolerance
        if abs(value) > 1e2 or any(abs(g) > 1e2 for g in grad):
            continue
        if all(abs(g) < 1e-1 for g in grad):
            continue
        checked = False
        for k in range(len(point)):
            if abs(grad[k]) < 1e-1:
                continue
            rel = abs(fds[k] - grad[k]) / abs(grad[k])
            assert rel < 1e-5, f"{ex.to_source(expr)} at {point}: {fds[k]} vs {grad[k]}"
            checked = True
        if checked:
            accepted += 1
    assert accepted == 1000


# ---------------------------------------------------------------------------
# gradients against a reference walk: one dual pass per variable


def _reference_dual(node, point, k):
    """The value of ``node`` at ``point`` and its partial in variable ``k``."""
    if isinstance(node, ex.Const):
        return node.value, 0.0
    if isinstance(node, ex.Var):
        return point[node.index], 1.0 if node.index == k else 0.0
    if isinstance(node, ex.Neg):
        v, d = _reference_dual(node.operand, point, k)
        return -v, -d
    if isinstance(node, ex.Pow):
        bv, bd = _reference_dual(node.base, point, k)
        q = node.exponent
        value = ex._pow_value(bv, q)
        if q == 0:
            return value, 0.0
        if bv == 0.0:
            if q == 1:
                return value, bd
            if q > 1:
                return value, 0.0
            raise NonDifferentiable(
                f"base^({q}) has no derivative at base 0 (exponent between 0 and 1)"
            )
        return value, float(q) * ex._pow_value(bv, q - 1) * bd
    lv, ld = _reference_dual(node.left, point, k)
    rv, rd = _reference_dual(node.right, point, k)
    if node.op == "+":
        return lv + rv, ld + rd
    if node.op == "-":
        return lv - rv, ld - rd
    if node.op == "*":
        return lv * rv, ld * rv + lv * rd
    if rv == 0.0:
        raise DomainError("division by zero")
    return lv / rv, (ld * rv - lv * rd) / (rv * rv)


def _reference_gradient(expr, point):
    pt = tuple(float(v) for v in point)
    out = []
    for k in range(len(pt)):
        value, deriv = _reference_dual(expr.root, pt, k)
        if not math.isfinite(value) or not math.isfinite(deriv):
            raise DomainError(f"derivative produced a non-finite value at {point}")
        out.append(deriv)
    return tuple(out)


def _outcome(f, *args):
    """``repr`` of each entry of ``f(*args)``, or the type and message it raises."""
    try:
        return [repr(v) for v in f(*args)]
    except Exception as exc:  # the oracle's own exceptions are compared too
        return type(exc), str(exc)


# where the reference's quotient rule divides by a square that underflows to
# 0 and raises a bare ZeroDivisionError, gradient raises this
_UNDERFLOWED_SQUARE = (DomainError, "derivative of a quotient divides by an underflowed square")


def _assert_gradient_matches_reference(expr, point):
    want = _outcome(_reference_gradient, expr, point)
    if isinstance(want, tuple) and want[0] is ZeroDivisionError:
        want = _UNDERFLOWED_SQUARE
    assert _outcome(ex.gradient, expr, point) == want, f"{ex.to_source(expr)} at {point}"
    return want


def test_gradient_matches_reference_walk_on_2000_random_trees():
    rng = np.random.default_rng(20261020)
    outcomes = [_assert_gradient_matches_reference(*_random_case(rng)) for _ in range(2000)]
    # both gradients and errors are compared
    assert sum(isinstance(o, list) for o in outcomes) > 1000
    assert DomainError in {o[0] for o in outcomes if isinstance(o, tuple)}


def test_gradient_matches_reference_walk_at_edge_points():
    rng = np.random.default_rng(20261021)
    trees = _EDGE_TREES + [_random_node(rng, 3, 2) for _ in range(300)]
    points = _random_points(rng, 20)
    errors = set()
    for node in trees:
        for point in points.tolist():
            outcome = _assert_gradient_matches_reference(ex.Expression(node, 0, 2, "y"), point)
            if isinstance(outcome, tuple):
                errors.add(outcome[0])
    assert errors >= {DomainError, NonDifferentiable}


@pytest.mark.parametrize(
    "source, point",
    [
        # a zero base with q = 0, 1, 2 and 1/2, signed zeros included
        ("y0^0 * y1", (0.0, 2.0)),
        ("y0^1 + y1^1", (-0.0, 0.0)),
        ("-(y0^1) * y1", (0.0, 3.0)),
        ("-(y0^1) * y1", (-0.0, 3.0)),
        ("y0^2 - y1^2", (0.0, -0.0)),
        ("(y0 - y1)^2", (1.5, 1.5)),
        ("y0^1/2", (0.0, 1.0)),
        ("(y1 - 1)^1/2", (4.0, 1.0)),
        # a negative base with odd and even denominators
        ("y0^1/3 + y1^5/3", (-8.0, -0.125)),
        ("y0^2/3 * y1", (-27.0, 2.0)),
        ("y0^1/2", (-4.0, 1.0)),
        ("y0^3/4 + y1", (1.0, -1.0)),
        # division by zero, in the value and under a power
        ("y0 / y1", (1.0, 0.0)),
        ("y0 / (y1 - y1)", (1.0, 2.0)),
        ("(1 / y0)^0", (0.0, 1.0)),
        # an overflowing power, in the value and in the derivative
        ("y0^900", (100.0, 1.0)),
        ("y0^300 * y1", (1e200, 1.0)),
        ("y0^3/2 * y1", (1e300, 1e300)),
        # quotients and products whose partials leave the float range; the
        # square of 1e-170 underflows to 0
        ("y0 / y1", (1.0, 1e-170)),
        ("y0 * y1 * y1", (1e300, 1e10)),
    ],
)
def test_gradient_matches_reference_walk_on_hand_cases(source, point):
    outcome = _assert_gradient_matches_reference(ex.parse(source, 0, 2), point)
    if point == (1.0, 1e-170):
        assert outcome == _UNDERFLOWED_SQUARE


def test_gradient_at_a_zero_length_point_is_empty():
    for source in ["1", "1/0", "0^1/2", "(0 - 1)^1/2"]:
        expr = ex.parse(source, 0, 0)
        assert ex.gradient(expr, []) == _reference_gradient(expr, []) == ()


def _nodes(node):
    children = [getattr(node, f, None) for f in ("operand", "base", "left", "right")]
    return 1 + sum(_nodes(c) for c in children if c is not None)


def test_gradient_walks_the_tree_once(monkeypatch):
    expr = ex.parse("y0 * y1 / (y2 + 1) - y0^3/2 + -(y1 - y2)^2", 0, 3)
    walk, visits = ex._eval, []

    def counted(node, *args):
        visits.append(node)
        return walk(node, *args)

    monkeypatch.setattr(ex, "_eval", counted)
    grad = ex.gradient(expr, (1.0, 2.0, 3.0))
    assert len(visits) == _nodes(expr.root) == 16
    assert grad == _reference_gradient(expr, (1.0, 2.0, 3.0))


def test_print_parse_round_trip_preserves_values():
    rng = np.random.default_rng(42)
    done = 0
    while done < 300:
        expr, point = _random_case(rng)
        try:
            want = ex.evaluate(expr, point)
        except (DomainError, NonDifferentiable):
            continue
        source = ex.to_source(expr)
        reparsed = ex.parse(source, 0, 2)
        assert ex.evaluate(reparsed, point) == pytest.approx(want, rel=1e-12, abs=1e-12)
        done += 1


def test_printer_handles_negative_exponents():
    node = ex.Pow(ex.Var("y", 0), Fraction(-2))
    expr = ex.Expression(node, 0, 1, "y")
    source = ex.to_source(expr)
    reparsed = ex.parse(source, 0, 1)
    assert ex.evaluate(reparsed, [2.0]) == pytest.approx(0.25)


def test_expressions_are_immutable():
    expr = ex.parse("x0^2", 1, 0)
    with pytest.raises(Exception):
        expr.root = ex.Const(1.0)


# ---------------------------------------------------------------------------
# array evaluation against the scalar path

# zeros of both signs, negative bases for odd and even denominators, values
# whose powers and products overflow, and multiples of 1/8 that make the
# random trees' divisors vanish
_BASES = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, -3.375, 2.0, 4.875, -4.875, 5e-324, -5e-324,
          1e155, -1e155, 1e300, -1e300, math.inf, -math.inf, math.nan]

_EDGE_TREES = [
    ex.Pow(ex.Var("y", 0), Fraction(-1)),  # zero base, negative exponent
    ex.Pow(ex.Var("y", 0), Fraction(-3, 2)),
    ex.Pow(ex.Var("y", 0), Fraction(0)),
    ex.Pow(ex.Var("y", 0), Fraction(11, 10)),
    ex.Pow(ex.BinOp("-", ex.Var("y", 0), ex.Var("y", 1)), Fraction(1, 3)),
    ex.Pow(ex.Neg(ex.Var("y", 1)), Fraction(5, 3)),
    ex.Pow(ex.Var("y", 0), Fraction(10**400)),  # an exponent beyond the float range
    ex.Pow(ex.Var("y", 0), Fraction(10**400, 3)),
    ex.Pow(ex.Const(-2.0), Fraction(1, 2)),  # constant bases broadcast
    ex.BinOp("/", ex.Const(1.0), ex.BinOp("-", ex.Var("y", 0), ex.Const(0.5))),
    ex.BinOp("/", ex.Var("y", 1), ex.Neg(ex.Var("y", 0))),
    ex.Pow(ex.BinOp("/", ex.Const(1.0), ex.Var("y", 0)), Fraction(0)),
    ex.BinOp("*", ex.Var("y", 0), ex.Var("y", 1)),
    ex.Const(0.25),
]


def _scalar_values(expr, points):
    """``evaluate`` at each row: the value, or None where it raises."""
    out = []
    for row in points:
        try:
            out.append(ex.evaluate(expr, row))
        except DomainError:
            out.append(None)
    return out


def _assert_array_matches_scalar(expr, points):
    points = np.asarray(points, dtype=float)
    values, bad = ex.evaluate_array(expr, points)
    want = _scalar_values(expr, points)
    assert bad.tolist() == [w is None for w in want], ex.to_source(expr)
    for got, w in zip(values.tolist(), want):
        if w is not None:  # the same bits, signed zeros included
            assert np.float64(got).view(np.int64) == np.float64(w).view(np.int64), (
                f"{ex.to_source(expr)}: {got!r} != {w!r}"
            )


def _random_points(rng, n, dim=2):
    pool = np.array(_BASES + [k / 8.0 for k in range(-40, 41)])
    points = rng.choice(pool, size=(n, dim))
    wide = rng.random(n) < 0.3  # generic values between the pool's
    points[wide] = rng.uniform(-5.0, 5.0, size=(int(wide.sum()), dim))
    return points


def test_array_evaluation_matches_scalar_bits():
    rng = np.random.default_rng(20251019)
    trees = _EDGE_TREES + [_random_node(rng, 3, 2) for _ in range(400)]
    points = _random_points(rng, 300)
    for node in trees:
        _assert_array_matches_scalar(ex.Expression(node, 0, 2, "y"), points)


def test_array_evaluation_matches_scalar_bits_generated():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    value = st.sampled_from(_BASES) | st.floats() | st.integers(-40, 40).map(lambda k: k / 8.0)
    rows = st.lists(st.tuples(value, value), min_size=1, max_size=30)

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(st.integers(0, 2**32 - 1), rows)
    def check(seed, points):
        node = _random_node(np.random.default_rng(seed), 3, 2)
        _assert_array_matches_scalar(ex.Expression(node, 0, 2, "y"), points)

    check()


def test_array_evaluation_signals_nothing():
    expr = ex.parse("1/y0 + (y1 - 1)^1/2 + y0^300 * (y1 - 1)^300", 0, 2)
    with np.errstate(all="raise"):
        values, bad = ex.evaluate_array(expr, [[0.0, 2.0], [1.0, 0.0], [1e200, 1e200], [1.0, 2.0]])
    assert bad.tolist() == [True, True, True, False]
    assert values[3] == 3.0


def test_array_evaluation_checks_point_width():
    expr = ex.parse("x0 + x1", 2, 0)
    with pytest.raises(DimensionError):
        ex.evaluate_array(expr, np.zeros((3, 1)))
    with pytest.raises(DimensionError):
        ex.evaluate_array(expr, np.zeros(3))
