"""Arithmetic expression language for criterion and constraint functions.

Grammar:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor   := atom ['^' exponent]
    exponent := ratio | '(' ratio ')'
    ratio    := number ['/' number]
    atom     := number | ident | '-' atom | '(' expr ')'
    ident    := ('x' | 'y') digits
    number   := integer or decimal literal within the float range

Variables ``x0..x{n-1}`` live in the decision space and ``y0..y{p-1}`` in the
criterion space. Exponents must be constants and are kept as exact rationals:
``a^(r/s)`` uses the sign-aware real root when ``s`` is odd and rejects
negative bases when ``s`` is even.

One walker, ``_eval``, evaluates a tree in three arithmetics: floats
(:func:`evaluate`), numpy columns (:func:`evaluate_array`, one walk for a
whole array of points, with :func:`evaluate`'s float bits at every point) and
forward-mode duals (:func:`gradient`, a value and all its partials in one
walk: exact derivatives, not finite differences). Expressions are immutable
after :func:`parse`, and all three are pure and safe to call from any number
of threads.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Union

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    ExprSyntaxError,
    NonConstantExponent,
    NonDifferentiable,
)

Node = Union["Const", "Var", "Neg", "BinOp", "Pow"]


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    kind: str  # 'x' or 'y'
    index: int


@dataclass(frozen=True)
class Neg:
    operand: Node


@dataclass(frozen=True)
class BinOp:
    op: str  # one of '+', '-', '*', '/'
    left: Node
    right: Node


@dataclass(frozen=True)
class Pow:
    base: Node
    exponent: Fraction


@dataclass(frozen=True)
class Expression:
    """A parsed expression together with the dimensions it was checked against.

    ``space`` records which variable family the expression binds to; points
    passed to :func:`evaluate` and :func:`gradient` must have the matching
    length (``decision_dim`` for 'x', ``criterion_dim`` for 'y').
    """

    root: Node
    decision_dim: int
    criterion_dim: int
    space: str

    @property
    def point_dim(self) -> int:
        return self.decision_dim if self.space == "x" else self.criterion_dim


# ---------------------------------------------------------------------------
# lexer / parser

_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?|\.\d+")
_IDENT_RE = re.compile(r"[A-Za-z]+\d*")
_VAR_RE = re.compile(r"([xy])(\d+)\Z")


@dataclass(frozen=True)
class _Token:
    kind: str  # 'number' | 'ident' | '+', '-', '*', '/', '^', '(', ')' | 'end'
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    n = len(source)
    while pos < n:
        ch = source[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdigit() or ch == ".":
            m = _NUMBER_RE.match(source, pos)
            if m is None:
                raise ExprSyntaxError("malformed number", pos, expected=("number",))
            if not math.isfinite(float(m.group())):
                raise ExprSyntaxError("numeric literal beyond the float range", pos)
            tokens.append(_Token("number", m.group(), pos))
            pos = m.end()
        elif ch.isascii() and ch.isalpha():
            m = _IDENT_RE.match(source, pos)
            tokens.append(_Token("ident", m.group(), pos))
            pos = m.end()
        elif ch in "+-*/^()":
            tokens.append(_Token(ch, ch, pos))
            pos += 1
        else:
            raise ExprSyntaxError(
                f"unexpected character {ch!r}", pos, expected=("number", "variable", "operator")
            )
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], decision_dim: int, criterion_dim: int):
        self.tokens = tokens
        self.i = 0
        self.decision_dim = decision_dim
        self.criterion_dim = criterion_dim
        self.used_kinds: set[str] = set()

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.take()
        if tok.kind != kind:
            raise ExprSyntaxError(
                f"found {tok.text!r}" if tok.text else "unexpected end of input",
                tok.pos,
                expected=(kind,),
            )
        return tok

    def parse_expr(self) -> Node:
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Node:
        node = self.parse_factor()
        while self.peek().kind in ("*", "/"):
            op = self.take().kind
            node = BinOp(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> Node:
        base = self.parse_atom()
        if self.peek().kind == "^":
            self.take()
            return Pow(base, self.parse_exponent())
        return base

    def parse_exponent(self) -> Fraction:
        if self.peek().kind != "(":
            return self.parse_ratio(grouped=False)
        self.take()
        value = self.parse_ratio(grouped=True)
        self.expect(")")
        return value

    def parse_ratio(self, *, grouped: bool) -> Fraction:
        value = self.parse_exponent_literal()
        # a '/' directly followed by a number is part of the exponent (e.g.
        # y0^3/2); inside parentheses every '/' is, so a variable after it is
        # a non-constant exponent
        if self.peek().kind == "/" and (grouped or self.tokens[self.i + 1].kind == "number"):
            self.take()
            den_pos = self.peek().pos
            den = self.parse_exponent_literal()
            if den == 0:
                raise ExprSyntaxError("zero denominator in exponent", den_pos)
            value /= den
        return value

    def parse_exponent_literal(self) -> Fraction:
        tok = self.peek()
        if tok.kind != "number":
            raise NonConstantExponent(
                f"exponent must be a numeric constant, found {tok.text!r}",
                tok.pos,
                expected=("number",),
            )
        self.take()
        return Fraction(tok.text)

    def parse_atom(self) -> Node:
        tok = self.take()
        if tok.kind == "number":
            return Const(float(tok.text))
        if tok.kind == "ident":
            m = _VAR_RE.match(tok.text)
            if m is None:
                raise ExprSyntaxError(
                    f"unknown identifier {tok.text!r}", tok.pos, expected=("x<k>", "y<k>")
                )
            kind, index = m.group(1), int(m.group(2))
            dim = self.decision_dim if kind == "x" else self.criterion_dim
            if index >= dim:
                space = "decision" if kind == "x" else "criterion"
                raise DimensionError(
                    f"variable {tok.text} out of range: {space} dimension is {dim}"
                )
            self.used_kinds.add(kind)
            return Var(kind, index)
        if tok.kind == "-":
            return Neg(self.parse_atom())
        if tok.kind == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        raise ExprSyntaxError(
            f"found {tok.text!r}" if tok.text else "unexpected end of input",
            tok.pos,
            expected=("number", "variable", "'-'", "'('"),
        )


def parse(source: str, decision_dim: int, criterion_dim: int) -> Expression:
    """Parse ``source`` against the declared decision and criterion dimensions."""
    if decision_dim < 0 or criterion_dim < 0:
        raise DimensionError("dimensions must be non-negative")
    parser = _Parser(_tokenize(source), decision_dim, criterion_dim)
    root = parser.parse_expr()
    parser.expect("end")
    if parser.used_kinds == {"x", "y"}:
        raise DimensionError("expression mixes decision (x) and criterion (y) variables")
    if "x" in parser.used_kinds:
        space = "x"
    elif "y" in parser.used_kinds:
        space = "y"
    else:
        space = "x" if criterion_dim == 0 else "y"
    return Expression(root, decision_dim, criterion_dim, space)


# ---------------------------------------------------------------------------
# evaluation

def _pow_value(base: float, q: Fraction) -> float:
    if q == 0:
        return 1.0
    if base == 0.0:
        if q < 0:
            raise DomainError("zero base with a negative exponent")
        return 0.0
    try:
        if q.denominator == 1:
            return float(base) ** q.numerator
        if base < 0.0:
            if q.denominator % 2 == 0:
                raise DomainError(f"negative base {base} with even-denominator exponent {q}")
            magnitude = (-base) ** float(q)
            return -magnitude if q.numerator % 2 else magnitude
        return base ** float(q)
    except OverflowError:
        raise DomainError(f"overflow computing {base} ^ {q}") from None


def _divide(left: float, right: float) -> float:
    if right == 0.0:
        raise DomainError("division by zero")
    return left / right


# how floats evaluate each node: '+', '-', '*', '/' and '^' take the operands'
# values, 'neg' the operand's and 'const' the node's float
_FLOAT_RULES = {"const": float, "neg": operator.neg, "^": _pow_value, "/": _divide,
                "+": operator.add, "-": operator.sub, "*": operator.mul}


def _eval(node: Node, point, rules=_FLOAT_RULES):
    """The value of ``node`` at ``point``, one entry per variable, by
    ``rules`` (keyed as ``_FLOAT_RULES``): floats, numpy columns or duals."""
    if isinstance(node, Const):
        return rules["const"](node.value)
    if isinstance(node, Var):
        return point[node.index]
    if isinstance(node, Neg):
        return rules["neg"](_eval(node.operand, point, rules))
    if isinstance(node, Pow):
        return rules["^"](_eval(node.base, point, rules), node.exponent)
    return rules[node.op](_eval(node.left, point, rules), _eval(node.right, point, rules))


def _check_point(expr: Expression, point) -> tuple[float, ...]:
    pt = tuple(float(v) for v in point)
    if len(pt) != expr.point_dim:
        raise DimensionError(f"expected a point of length {expr.point_dim}, got {len(pt)}")
    return pt


def evaluate(expr: Expression, point) -> float:
    """Evaluate ``expr`` at ``point`` with standard real arithmetic.

    Raises DomainError rather than returning a non-finite value.
    """
    value = _eval(expr.root, _check_point(expr, point))
    if not math.isfinite(value):
        raise DomainError(f"evaluation produced a non-finite value at {point}")
    return value


def _pow_column(base: np.ndarray, q: Fraction) -> tuple[np.ndarray, np.ndarray]:
    """``_pow_value`` at every entry of ``base`` and the mask of the entries
    where it raises.

    The power itself is Python's ``**``, one entry at a time: ``np.power``
    rounds differently on a few percent of inputs.
    """
    failed = np.zeros(len(base), dtype=bool)
    if q == 0:
        return np.ones(len(base)), failed
    out = np.zeros(len(base))  # a zero base gives +0.0
    if q < 0:
        failed |= base == 0.0
    positive = base > 0.0
    rest = ~positive & (base != 0.0)  # negative and NaN bases
    try:
        exponent = q.numerator if q.denominator == 1 else float(q)
        out[positive] = list(map(pow, base[positive].tolist(), repeat(exponent)))
    except OverflowError:
        rest |= positive
    where = np.flatnonzero(rest)
    for i, b in zip(where.tolist(), base[where].tolist()):
        try:
            out[i] = _pow_value(b, q)
        except DomainError:
            failed[i] = True
    return out, failed


def evaluate_array(expr: Expression, points) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate ``expr`` at every row of the (N, d) array ``points`` in one
    walk of the tree: ``(values, bad)``.

    ``bad[i]`` is True exactly where ``evaluate(expr, points[i])`` raises
    DomainError; everywhere else ``values[i]`` has that call's float bits,
    signed zeros included.
    """
    columns = np.asarray(points, dtype=float)
    if columns.ndim != 2 or columns.shape[1] != expr.point_dim:
        raise DimensionError(
            f"expected points of length {expr.point_dim}, got shape {columns.shape}"
        )
    n = len(columns)
    bad = np.zeros(n, dtype=bool)

    def power(base, q):
        values, failed = _pow_column(np.broadcast_to(base, (n,)), q)
        np.logical_or(bad, failed, out=bad)
        return values

    def divide(left, right):
        np.logical_or(bad, right == 0.0, out=bad)
        return np.divide(left, right)

    rules = {**_FLOAT_RULES, "/": divide, "^": power}
    # inf and NaN are expected in the rows that go bad
    with np.errstate(all="ignore"):
        values = np.array(np.broadcast_to(_eval(expr.root, tuple(columns.T), rules), (n,)))
        np.logical_or(bad, ~np.isfinite(values), out=bad)
    return values, bad


# ---------------------------------------------------------------------------
# forward-mode differentiation

def _dual_rules(n: int) -> dict:
    """How duals over ``n`` variables evaluate each node. A dual is the tuple
    of a value and its ``n`` partials, each by the rules of a one-variable dual."""
    zeros = (0.0,) * n

    def lift(f):
        return lambda *duals: tuple(map(f, *duals))

    def mul(left, right):
        lv, rv = left[0], right[0]
        return (lv * rv, *(l * rv + lv * r for l, r in zip(left[1:], right[1:])))

    def divide(left, right):
        lv, rv = left[0], right[0]
        value, square = _divide(lv, rv), rv * rv
        if square == 0.0:  # rv is not 0, but its square underflows
            raise DomainError("derivative of a quotient divides by an underflowed square")
        return (value, *((l * rv - lv * r) / square for l, r in zip(left[1:], right[1:])))

    def power(base, q):
        bv = base[0]
        value = _pow_value(bv, q)
        if q == 0 or bv == 0.0 and q > 1:
            return (value, *zeros)
        if bv == 0.0:  # q < 0 is already a DomainError inside _pow_value
            if q != 1:
                raise NonDifferentiable(
                    f"base^({q}) has no derivative at base 0 (exponent between 0 and 1)"
                )
            return (value, *base[1:])
        scale = float(q) * _pow_value(bv, q - 1)
        return (value, *(scale * d for d in base[1:]))

    return {"const": lambda c: (c, *zeros), "neg": lift(operator.neg), "^": power, "/": divide,
            "+": lift(operator.add), "-": lift(operator.sub), "*": mul}


def gradient(expr: Expression, point) -> tuple[float, ...]:
    """Exact gradient of ``expr`` at ``point``, in one walk of the tree over duals."""
    pt = _check_point(expr, point)
    if not pt:
        return ()
    n = len(pt)
    units = tuple((v, *(float(j == k) for j in range(n))) for k, v in enumerate(pt))
    value, *partials = _eval(expr.root, units, _dual_rules(n))
    if not all(map(math.isfinite, (value, *partials))):
        raise DomainError(f"derivative produced a non-finite value at {point}")
    return tuple(partials)


# ---------------------------------------------------------------------------
# canonical printer

def _fmt_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _fmt_exponent(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _print_atom(node: Node) -> str:
    if isinstance(node, Var):
        return _print(node)
    if isinstance(node, Const) and node.value >= 0:
        return _print(node)
    return f"({_print(node)})"


def _print(node: Node) -> str:
    if isinstance(node, Const):
        return _fmt_number(node.value)
    if isinstance(node, Var):
        return f"{node.kind}{node.index}"
    if isinstance(node, Neg):
        return f"-{_print_atom(node.operand)}"
    if isinstance(node, Pow):
        if node.exponent < 0:
            # the grammar has no negative exponents; print the reciprocal instead
            return f"(1 / {_print_atom(node.base)}^{_fmt_exponent(-node.exponent)})"
        return f"{_print_atom(node.base)}^{_fmt_exponent(node.exponent)}"
    return f"({_print(node.left)} {node.op} {_print(node.right)})"


def to_source(expr: Expression | Node) -> str:
    """Render an expression as parseable source text (canonical, fully parenthesized)."""
    node = expr.root if isinstance(expr, Expression) else expr
    return _print(node)
