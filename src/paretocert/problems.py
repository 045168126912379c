"""Problem model: analytic criteria over a box, criterion point clouds, JSON
ingestion, builtin examples, and deterministic grid sampling.

Both problem kinds are immutable after construction. Sampling always emits
points in lexicographic grid order, so identical grids give bit-identical
clouds, and the rows of a sampled cloud that hold a sub-grid equal a fresh
sample of it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import exprlang
from .errors import (
    DimensionError,
    DomainError,
    ExprSyntaxError,
    SchemaError,
    UnknownBuiltin,
)


@dataclass(frozen=True)
class AnalyticProblem:
    """Criteria f_i over a box of decisions, plus an optional criterion-space
    constraint description (inequalities g(y) <= 0 and equalities h(y) = 0)."""

    decision_dim: int
    criterion_dim: int
    domain: tuple[tuple[float, float], ...]
    criteria: tuple[exprlang.Expression, ...]
    ineq: tuple[exprlang.Expression, ...] = ()
    eq: tuple[exprlang.Expression, ...] = ()
    label: str = ""

    @property
    def has_constraints(self) -> bool:
        return bool(self.ineq) or bool(self.eq)

    def criteria_at(self, x) -> tuple[float, ...]:
        pt = tuple(float(v) for v in x)
        if len(pt) != self.decision_dim:
            raise DimensionError(
                f"decision point has length {len(pt)}, expected {self.decision_dim}"
            )
        return tuple(exprlang.evaluate(f, pt) for f in self.criteria)

    def to_document(self) -> dict:
        doc = {
            "type": "analytic",
            "decision_dim": self.decision_dim,
            "criterion_dim": self.criterion_dim,
            "domain": [[lo, hi] for lo, hi in self.domain],
            "criteria": [exprlang.to_source(f) for f in self.criteria],
        }
        if self.has_constraints:
            doc["constraints"] = {
                "ineq": [exprlang.to_source(e) for e in self.ineq],
                "eq": [exprlang.to_source(e) for e in self.eq],
            }
        return doc

    def digest(self) -> str:
        return _digest(self.to_document())


@dataclass(frozen=True, eq=False, init=False)
class PointCloud:
    """A finite set of criterion vectors, optionally tagged with the decisions
    that produced them: a read-only (N, p) float array of points and an
    optional read-only (N, n) float array of decisions, fixed at
    construction. A sampled cloud keeps ``axes``, the sorted values of each
    axis of its grid as read-only arrays, whose product its rows are."""

    criterion_dim: int
    provenance: str
    _points: np.ndarray = field(repr=False)
    _decisions: np.ndarray | None = field(repr=False)
    axes: tuple[np.ndarray, ...] | None = field(repr=False)

    def __init__(
        self, criterion_dim: int, points, decisions=None, provenance: str = "external", axes=None
    ):
        """Points and decisions may be sequences of vectors or 2-D arrays; a
        read-only float array is kept as it is, anything else is copied."""
        object.__setattr__(self, "criterion_dim", criterion_dim)
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "_points", _owned_array(points))
        object.__setattr__(self, "_decisions", None if decisions is None else _owned_array(decisions))
        object.__setattr__(self, "axes", axes and tuple(_read_only(np.array(a)) for a in axes))

    def __len__(self) -> int:
        return len(self._points)

    def as_array(self) -> np.ndarray:
        """The points as one read-only (N, p) float array, the same object on
        every call."""
        return self._points

    def decision_array(self) -> np.ndarray | None:
        """The decisions as one read-only (N, n) float array, or None."""
        return self._decisions

    @property
    def decisions(self) -> tuple[tuple[float, ...], ...] | None:
        """The decisions as tuple rows, built anew on each access; the
        package itself reads ``decision_array()``."""
        return None if self._decisions is None else tuple(map(tuple, self._decisions.tolist()))

    def to_document(self) -> dict:
        doc = {
            "type": "cloud",
            "criterion_dim": self.criterion_dim,
            "points": self._points.tolist(),
        }
        if self._decisions is not None:
            doc["decisions"] = self._decisions.tolist()
        return doc

    def digest(self) -> str:
        return _digest(self.to_document())


def _digest(document: dict) -> str:
    """The SHA-256 of a problem document's canonical JSON text."""
    canon = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _owned_array(rows) -> np.ndarray:
    """``rows`` as a read-only float array that no caller can write: a
    read-only float array as it is, a writable array copied, a sequence
    converted."""
    if isinstance(rows, np.ndarray) and rows.flags.writeable:
        rows = rows.copy()
    return point_array(rows)


def point_array(cloud) -> np.ndarray:
    """The (N, p) float array of a PointCloud (its own array), of a
    non-empty 2-D array (itself when read-only and float, else a read-only
    view or conversion) or of a plain sequence of vectors; read-only in
    each case."""
    if isinstance(cloud, PointCloud):
        return cloud.as_array()
    if isinstance(cloud, np.ndarray) and cloud.ndim == 2 and len(cloud):
        array = np.asarray(cloud, dtype=float)
        if array.flags.writeable:
            array = array.view()
            array.flags.writeable = False
        return array
    rows = list(cloud)
    if not rows:
        raise ValueError("empty point cloud")
    if len({len(row) for row in rows}) > 1:
        raise DimensionError("cloud points have inconsistent dimensions")
    array = np.array(rows, dtype=float)
    array.flags.writeable = False
    return array


def distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The groups of equal rows of an (N, p) array, in lexicographic order:
    ``(order, starts, groups)``.

    ``order`` sorts the rows stably with column 0 as the primary key, group g
    is ``order[starts[g]:starts[g + 1]]``, and row i is in group
    ``groups[i]``. ``a[order[starts]]`` are the distinct rows in the order
    numpy's row-wise unique gives them, and ``groups`` is its inverse.
    ``0.0`` equals ``-0.0``, and the representative of a group is its first
    row in input order. The order is one stable ``np.lexsort``, and a group
    starts where a sorted column changes, so a row holding a NaN is alone.
    """
    n, p = a.shape
    order = np.lexsort(a.T[::-1])
    new = np.zeros(n, dtype=bool)
    new[:1] = True
    # one sorted column at a time: no sorted copy of the whole array
    for j in range(p):
        column = a[order, j]
        new[1:] |= column[1:] != column[:-1]
    starts = np.flatnonzero(new)
    groups = np.empty(n, dtype=np.intp)
    groups[order] = np.cumsum(new) - 1
    return order, starts, groups


# ---------------------------------------------------------------------------
# grids

@dataclass(frozen=True)
class AxisSpec:
    """One generator of grid values along a single decision dimension."""

    kind: str  # 'uniform' | 'geometric'
    count: int = 0
    anchor: float = 0.0
    levels: int = 0

    @staticmethod
    def uniform(count: int) -> "AxisSpec":
        return AxisSpec("uniform", count=count)

    @staticmethod
    def geometric(anchor: float, levels: int) -> "AxisSpec":
        """The anchor and its offsets 2^-k, k = 1..levels, on both sides."""
        return AxisSpec("geometric", anchor=float(anchor), levels=levels)


@dataclass(frozen=True)
class GridSpec:
    """Per-dimension axis generators; values of the generators in one group
    are merged (sorted, deduplicated) before taking the Cartesian product."""

    axes: tuple[tuple[AxisSpec, ...], ...]

    @staticmethod
    def uniform(decision_dim: int, count: int) -> "GridSpec":
        return GridSpec(tuple((AxisSpec.uniform(count),) for _ in range(decision_dim)))

    @staticmethod
    def geometric(anchor, levels: int) -> "GridSpec":
        """Level ``levels`` of the refinement toward a decision anchor."""
        return GridSpec(tuple((AxisSpec.geometric(a, levels),) for a in anchor))


def _axis_values(spec: AxisSpec, lo: float, hi: float) -> list[float]:
    if spec.kind == "uniform":
        if spec.count < 1:
            raise SchemaError("uniform grid resolution must be at least 1")
        return [float(v) for v in np.linspace(lo, hi, spec.count)]
    if spec.kind == "geometric":
        return [v for v, _ in _geometric_values(spec, lo, hi)]
    raise SchemaError(f"unknown axis kind {spec.kind!r}")


def _geometric_values(spec: AxisSpec, lo: float, hi: float) -> list[tuple[float, int]]:
    """The values of a geometric axis, each with the level k whose offset 2^-k
    made it (1 for the anchor), in order of level; a value may repeat when an
    offset is lost to rounding."""
    if spec.levels < 1:
        raise SchemaError("geometric refinement needs at least one level")
    if not lo <= spec.anchor <= hi:
        raise SchemaError(f"geometric anchor {spec.anchor} outside domain [{lo}, {hi}]")
    vals = [(spec.anchor, 1)]
    for k in range(1, spec.levels + 1):
        off = 2.0 ** (-k)
        for v in (spec.anchor - off, spec.anchor + off):
            if lo <= v <= hi:
                vals.append((v, k))
    return vals


def _grid_axes(problem: AnalyticProblem, grid: GridSpec) -> list[list[float]]:
    """The sorted, deduplicated values of each decision axis of ``grid``."""
    if len(grid.axes) != problem.decision_dim:
        raise SchemaError(
            f"grid has {len(grid.axes)} axes, problem has {problem.decision_dim} decision dimensions"
        )
    axis_values = []
    for d, group in enumerate(grid.axes):
        lo, hi = problem.domain[d]
        merged: set[float] = set()
        for spec in group:
            merged.update(_axis_values(spec, lo, hi))
        axis_values.append(sorted(merged))
    return axis_values


def _grid_array(axis_values: list[list[float]]) -> np.ndarray:
    """The nodes of the product of the axes as the rows of one read-only
    array, in the order of ``itertools.product``: the last axis varies fastest."""
    nodes = np.stack(np.meshgrid(*axis_values, indexing="ij"), axis=-1)
    return _read_only(nodes.reshape(-1, len(axis_values)))


def grid_nodes(problem: AnalyticProblem, grid: GridSpec) -> np.ndarray:
    """The decisions of ``grid`` as the rows of one read-only array, in
    lexicographic order, evaluating nothing."""
    return _grid_array(_grid_axes(problem, grid))


def sample_criterion_space(
    problem: AnalyticProblem, grid: GridSpec, *, tol_feas: float = 1e-9
) -> PointCloud:
    """Evaluate the criteria over the full grid, in lexicographic grid order;
    the cloud keeps the grid's sorted axis values, to be cut by ``cut_grid``.

    When the problem carries a constraint description, every sampled image is
    checked against it (within ``tol_feas``) so inconsistent descriptions
    surface immediately.

    Each expression is evaluated once over the whole grid, with the float bits
    of evaluating it point by point. The first grid point where that would
    fail, in grid order and with criteria before constraints, is evaluated
    and checked again on its own, so the error and the point it names are
    those of a point-by-point pass.
    """
    axis_values = _grid_axes(problem, grid)
    decisions = _grid_array(axis_values)
    columns = []
    bad = np.zeros(len(decisions), dtype=bool)
    for f in problem.criteria:
        values, failed = exprlang.evaluate_array(f, decisions)
        columns.append(values)
        bad |= failed
    points = np.column_stack(columns)
    with np.errstate(invalid="ignore"):  # the images of bad nodes may be NaN
        for e in problem.ineq:
            values, failed = exprlang.evaluate_array(e, points)
            bad |= failed | (values > tol_feas)
        for e in problem.eq:
            values, failed = exprlang.evaluate_array(e, points)
            bad |= failed | (np.abs(values) > tol_feas)
    if bad.any():
        _check_node(problem, tuple(decisions[int(np.argmax(bad))].tolist()), tol_feas)
        raise RuntimeError("a grid node failed as an array but passes on its own")
    return PointCloud(
        criterion_dim=problem.criterion_dim,
        points=_read_only(points),
        decisions=decisions,
        provenance=f"sampled:{problem.digest()[:12]}",
        axes=axis_values,
    )


def _check_node(problem: AnalyticProblem, x: tuple[float, ...], tol_feas: float) -> None:
    """Evaluate the criteria at one grid node and check the image against the
    constraint description; raise where sampling must stop. A DomainError
    names the expression it arose in and the decision ``x``."""
    y = tuple(_node_value(f, x, f"criteria[{i}]", x) for i, f in enumerate(problem.criteria))
    g = [_node_value(e, y, f"ineq[{k}]", x) for k, e in enumerate(problem.ineq)]
    h = [_node_value(e, y, f"eq[{j}]", x) for j, e in enumerate(problem.eq)]
    for k, val in enumerate(g):
        if val > tol_feas:
            raise SchemaError(
                f"constraint description inconsistent: g[{k}]({y}) = {val} > {tol_feas} at x = {x}"
            )
    for j, val in enumerate(h):
        if abs(val) > tol_feas:
            raise SchemaError(
                f"constraint description inconsistent: h[{j}]({y}) = {val} at x = {x}"
            )


def _node_value(expr: exprlang.Expression, point, name: str, x: tuple[float, ...]) -> float:
    """``expr`` at ``point``; a DomainError is raised again with the
    expression's ``name`` and source text and the decision ``x``."""
    try:
        return exprlang.evaluate(expr, point)
    except DomainError as exc:
        raise DomainError(f'{exc} in {name} "{exprlang.to_source(expr)}" at x = {x}') from None


def cut_grid(problem: AnalyticProblem, cloud: PointCloud, grid: GridSpec) -> np.ndarray:
    """The rows of a cloud that ``problem`` was sampled into that hold the
    nodes of ``grid``, as sorted read-only indices.

    The cloud's points at those rows equal ``sample_criterion_space(problem,
    grid)`` point for point and in order, and nothing is evaluated: axes are
    clipped the same way and the lexicographic order survives subsetting.
    The rows come from per-axis lookups in the cloud's axes. Raises
    SchemaError when a node is missing or the cloud was not sampled.
    """
    return grid_rows(cloud, axis_indices(problem, cloud, grid))


def axis_indices(problem: AnalyticProblem, cloud: PointCloud, grid: GridSpec) -> list[np.ndarray]:
    """Per decision axis, the indices of the values of ``grid`` in the axes of
    a sampled cloud, sorted; raises SchemaError when one is missing."""
    if cloud.axes is None:
        raise SchemaError("only a sampled cloud can be cut")
    indices = []
    for axis, values in zip(cloud.axes, _grid_axes(problem, grid)):
        indices.append(np.searchsorted(axis, values))
        if (np.take(axis, indices[-1], mode="clip") != values).any():
            raise SchemaError("the grid is not contained in the sampled cloud")
    return indices


def grid_rows(cloud: PointCloud, indices: list[np.ndarray]) -> np.ndarray:
    """The rows of a sampled cloud at the product of sorted per-axis indices
    (``axis_indices``), as sorted read-only indices in lexicographic order."""
    shape = [len(axis) for axis in cloud.axes]
    return _read_only(np.ravel_multi_index(np.ix_(*indices), shape).reshape(-1))


@dataclass(frozen=True, eq=False)
class Ladder:
    """The nested level clouds of a refinement toward a decision anchor, held
    as rows of the cloud they were cut from: the rows of the deepest level
    and the level at which each of them enters.

    Level k is the rows with ``entry <= k``, in order: the grid
    ``GridSpec.geometric(anchor, k)`` cut from that cloud.
    """

    rows: np.ndarray  # read-only sorted indices into the cloud
    entry: np.ndarray  # read-only ints in 1..levels, one per row
    levels: int

    def __len__(self) -> int:
        return self.levels


def ladder_steps(ladder) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """The levels k = 1..len(ladder) and the offset 2^-k that each adds; a
    SchemaError when the ladder has no level."""
    if not ladder:
        raise SchemaError("refinement ladder needs at least one level")
    levels = tuple(range(1, len(ladder) + 1))
    return levels, tuple(2.0 ** (-k) for k in levels)


def refinement_ladder(problem: AnalyticProblem, cloud: PointCloud, anchor, levels: int) -> Ladder:
    """The ladder of level clouds toward a decision anchor, as rows of ``cloud``.

    Level k is the grid ``GridSpec.geometric(anchor, k)``: the anchor and its
    offsets 2^-j, j = 1..k, on both sides, clipped to the domain. ``cloud``
    must contain level ``levels``. That level is cut once; a row enters at
    the largest, over its decision's coordinates, of the first level whose
    clipped axis values hold the coordinate.
    """
    indices = axis_indices(problem, cloud, GridSpec.geometric(anchor, levels))
    entries = []
    for d, (axis, idx) in enumerate(zip(cloud.axes, indices)):
        first: dict[float, int] = {}
        for v, k in _geometric_values(AxisSpec.geometric(anchor[d], levels), *problem.domain[d]):
            first.setdefault(v, k)
        entries.append([first[v] for v in axis[idx].tolist()])
    entry = np.max(np.broadcast_arrays(*np.ix_(*entries)), axis=0).reshape(-1)
    return Ladder(rows=grid_rows(cloud, indices), entry=_read_only(entry), levels=levels)


# ---------------------------------------------------------------------------
# JSON ingestion

def _expect(doc: dict, key: str, types, path: str):
    if key not in doc:
        raise SchemaError(f"{path}: missing required field {key!r}")
    value = doc[key]
    if not isinstance(value, types):
        raise SchemaError(f"{path}.{key}: unexpected type {type(value).__name__}")
    return value


def _finite_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise SchemaError(f"{path}: non-finite value")
    return out


def _number_rows(raw: list, width: int | None, path: str) -> np.ndarray:
    """The non-empty list ``raw`` of rows of finite numbers as one read-only
    float array, every row of length ``width``.

    When ``width`` is None the rows take the length of row 0, and a row's
    entries are checked before its length, so that a bad entry is named
    even in a row of the wrong length. Well-formed input is checked and
    converted in one numpy pass; otherwise the row-by-row loop names the
    first bad row or entry.
    """
    entries_first = width is None
    if entries_first:
        if not isinstance(raw[0], list):
            raise SchemaError(f"{path}[0]: expected a vector")
        width = len(raw[0])
    if (
        all(isinstance(row, list) and len(row) == width for row in raw)
        and {type(v) for row in raw for v in row} <= {int, float}
    ):
        try:
            array = np.array(raw, dtype=float)
        except OverflowError:  # an integer beyond the float range
            array = None
        if array is not None and np.isfinite(array).all():
            array.flags.writeable = False
            return array
    rows = []
    for i, row in enumerate(raw):
        if isinstance(row, list) and (entries_first or len(row) == width):
            rows.append([_finite_number(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)])
        if not isinstance(row, list) or len(row) != width:
            raise SchemaError(f"{path}[{i}]: expected a vector of length {width}")
    return point_array(rows)


def _parse_exprs(sources, decision_dim: int, criterion_dim: int, path: str):
    if not isinstance(sources, list) or not all(isinstance(s, str) for s in sources):
        raise SchemaError(f"{path}: expected a list of expression strings")
    out = []
    for i, src in enumerate(sources):
        try:
            out.append(exprlang.parse(src, decision_dim, criterion_dim))
        except (ExprSyntaxError, DimensionError) as exc:
            exc.args = (f"{path}[{i}]: {exc.args[0]}",) + exc.args[1:]
            raise
    return tuple(out)


def _load_analytic(doc: dict, label: str = "") -> AnalyticProblem:
    n = _expect(doc, "decision_dim", int, "problem")
    p = _expect(doc, "criterion_dim", int, "problem")
    if n < 1:
        raise SchemaError("problem.decision_dim: must be at least 1")
    if p < 2:
        raise SchemaError("problem.criterion_dim: must be at least 2")
    raw_domain = _expect(doc, "domain", list, "problem")
    if len(raw_domain) != n:
        raise SchemaError(f"problem.domain: expected {n} intervals, got {len(raw_domain)}")
    domain = []
    for d, pair in enumerate(raw_domain):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"problem.domain[{d}]: expected [lo, hi]")
        lo = _finite_number(pair[0], f"problem.domain[{d}][0]")
        hi = _finite_number(pair[1], f"problem.domain[{d}][1]")
        if lo > hi:
            raise SchemaError(f"problem.domain[{d}]: lo > hi")
        domain.append((lo, hi))
    criteria = _parse_exprs(_expect(doc, "criteria", list, "problem"), n, 0, "problem.criteria")
    if len(criteria) != p:
        raise SchemaError(f"problem.criteria: expected {p} expressions, got {len(criteria)}")
    ineq: tuple = ()
    eq: tuple = ()
    if "constraints" in doc:
        cons = doc["constraints"]
        if not isinstance(cons, dict):
            raise SchemaError("problem.constraints: expected an object")
        unknown = set(cons) - {"ineq", "eq"}
        if unknown:
            raise SchemaError(f"problem.constraints: unknown keys {sorted(unknown)}")
        ineq = _parse_exprs(cons.get("ineq", []), 0, p, "problem.constraints.ineq")
        eq = _parse_exprs(cons.get("eq", []), 0, p, "problem.constraints.eq")
    return AnalyticProblem(
        decision_dim=n,
        criterion_dim=p,
        domain=tuple(domain),
        criteria=criteria,
        ineq=ineq,
        eq=eq,
        label=label,
    )


def _load_cloud(doc: dict, label: str = "") -> PointCloud:
    p = _expect(doc, "criterion_dim", int, "cloud")
    if p < 1:
        raise SchemaError("cloud.criterion_dim: must be at least 1")
    raw_points = _expect(doc, "points", list, "cloud")
    if not raw_points:
        raise SchemaError("cloud.points: must not be empty")
    points = _number_rows(raw_points, p, "cloud.points")
    decisions = None
    if "decisions" in doc:
        raw_dec = doc["decisions"]
        if not isinstance(raw_dec, list) or len(raw_dec) != len(points):
            raise SchemaError("cloud.decisions: must parallel cloud.points")
        decisions = _number_rows(raw_dec, None, "cloud.decisions")
    return PointCloud(
        criterion_dim=p,
        points=points,
        decisions=decisions,
        provenance=label or "external",
    )


def load_document(doc: dict, label: str = ""):
    if not isinstance(doc, dict):
        raise SchemaError("problem document must be a JSON object")
    kind = _expect(doc, "type", str, "problem")
    if kind == "analytic":
        return _load_analytic(doc, label)
    if kind == "cloud":
        return _load_cloud(doc, label)
    raise SchemaError(f"problem.type: unknown type {kind!r}")


def load_problem(document: str, label: str = ""):
    """Parse and fully validate a problem JSON document.

    Returns an AnalyticProblem or a PointCloud depending on the "type" field.
    """
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None
    return load_document(doc, label)


# ---------------------------------------------------------------------------
# builtins

_BUILTIN_DOCS = {
    # One decision variable on [0, 4] with criteria (x^2, -x^3); the image is
    # described in criterion space by -y0 <= 0 and y1 + y0^(3/2) = 0.
    "soland": {
        "type": "analytic",
        "decision_dim": 1,
        "criterion_dim": 2,
        "domain": [[0.0, 4.0]],
        "criteria": ["x0^2", "-x0^3"],
        "constraints": {"ineq": ["-y0"], "eq": ["y1 + y0^3/2"]},
    },
}


def builtin(name: str) -> AnalyticProblem:
    """Return a named builtin problem. Known names: soland."""
    doc = _BUILTIN_DOCS.get(name)
    if doc is None:
        known = ", ".join(sorted(_BUILTIN_DOCS))
        raise UnknownBuiltin(f"unknown builtin {name!r} (known: {known})")
    return _load_analytic(doc, label=f"builtin:{name}")
