"""Problem model: analytic criteria over a box, criterion point clouds, JSON
ingestion, builtin examples, and deterministic grid sampling.

Both problem kinds are immutable after construction. Sampling always emits
points in lexicographic grid order, so identical grids give bit-identical
clouds, and a sub-grid cut out of a sampled cloud equals a fresh sample.
"""

from __future__ import annotations

import hashlib
import itertools
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

    def constraint_values(self, y) -> tuple[tuple[float, ...], tuple[float, ...]]:
        g = tuple(exprlang.evaluate(e, y) for e in self.ineq)
        h = tuple(exprlang.evaluate(e, y) for e in self.eq)
        return g, h

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
        canon = json.dumps(self.to_document(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


@dataclass(frozen=True)
class PointCloud:
    """A finite set of criterion vectors, optionally tagged with the decisions
    that produced them."""

    criterion_dim: int
    points: tuple[tuple[float, ...], ...]
    decisions: tuple[tuple[float, ...], ...] | None = None
    provenance: str = "external"
    # read-only arrays of ``points`` and ``decisions``, built on first use or
    # sliced from the parent's by cut_grid
    _arrays: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.points)

    def as_array(self) -> np.ndarray:
        """The points as one read-only (N, p) float array, the same object on
        every call."""
        return self._array("points")

    def decision_array(self) -> np.ndarray | None:
        """The decisions as one read-only (N, n) float array, or None."""
        return None if self.decisions is None else self._array("decisions")

    def _array(self, name: str) -> np.ndarray:
        if name not in self._arrays:
            self._arrays[name] = point_array(getattr(self, name))
        return self._arrays[name]

    def to_document(self) -> dict:
        doc = {
            "type": "cloud",
            "criterion_dim": self.criterion_dim,
            "points": [list(p) for p in self.points],
        }
        if self.decisions is not None:
            doc["decisions"] = [list(d) for d in self.decisions]
        return doc

    def digest(self) -> str:
        canon = json.dumps(self.to_document(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def point_array(cloud) -> np.ndarray:
    """The (N, p) float array of a PointCloud (its cached array) or of a plain
    sequence of vectors; read-only either way."""
    if isinstance(cloud, PointCloud):
        return cloud.as_array()
    rows = list(cloud)
    if not rows:
        raise ValueError("empty point cloud")
    if len({len(row) for row in rows}) > 1:
        raise DimensionError("cloud points have inconsistent dimensions")
    array = np.array(rows, dtype=float)
    array.flags.writeable = False
    return array


# ---------------------------------------------------------------------------
# grids

@dataclass(frozen=True)
class AxisSpec:
    """One generator of grid values along a single decision dimension."""

    kind: str  # 'uniform' | 'geometric' | 'explicit'
    count: int = 0
    anchor: float = 0.0
    levels: int = 0
    values: tuple[float, ...] = ()

    @staticmethod
    def uniform(count: int) -> "AxisSpec":
        return AxisSpec("uniform", count=count)

    @staticmethod
    def geometric(anchor: float, levels: int) -> "AxisSpec":
        """The anchor and its offsets 2^-k, k = 1..levels, on both sides."""
        return AxisSpec("geometric", anchor=float(anchor), levels=levels)

    @staticmethod
    def explicit(values) -> "AxisSpec":
        return AxisSpec("explicit", values=tuple(float(v) for v in values))


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
        if spec.levels < 1:
            raise SchemaError("geometric refinement needs at least one level")
        if not lo <= spec.anchor <= hi:
            raise SchemaError(f"geometric anchor {spec.anchor} outside domain [{lo}, {hi}]")
        vals = [spec.anchor]
        for k in range(1, spec.levels + 1):
            off = 2.0 ** (-k)
            for v in (spec.anchor - off, spec.anchor + off):
                if lo <= v <= hi:
                    vals.append(v)
        return vals
    if spec.kind == "explicit":
        if not spec.values:
            raise SchemaError("explicit axis needs at least one value")
        for v in spec.values:
            if not lo <= v <= hi:
                raise SchemaError(f"grid value {v} outside domain [{lo}, {hi}]")
        return list(spec.values)
    raise SchemaError(f"unknown axis kind {spec.kind!r}")


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


def grid_nodes(problem: AnalyticProblem, grid: GridSpec) -> list[tuple[float, ...]]:
    """The decisions of ``grid`` in lexicographic order, evaluating nothing."""
    return list(itertools.product(*_grid_axes(problem, grid)))


def sample_criterion_space(
    problem: AnalyticProblem, grid: GridSpec, *, tol_feas: float = 1e-9
) -> PointCloud:
    """Evaluate the criteria over the full grid, in lexicographic grid order.

    When the problem carries a constraint description, every sampled image is
    checked against it (within ``tol_feas``) so inconsistent descriptions
    surface immediately.
    """
    points: list[tuple[float, ...]] = []
    decisions: list[tuple[float, ...]] = []
    for x in grid_nodes(problem, grid):
        y = problem.criteria_at(x)
        if problem.has_constraints:
            g, h = problem.constraint_values(y)
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
        points.append(y)
        decisions.append(tuple(x))
    return PointCloud(
        criterion_dim=problem.criterion_dim,
        points=tuple(points),
        decisions=tuple(decisions),
        provenance=f"sampled:{problem.digest()[:12]}",
    )


def cut_grid(problem: AnalyticProblem, cloud: PointCloud, grid: GridSpec) -> PointCloud:
    """The nodes of ``grid`` taken from a cloud that ``problem`` was sampled into.

    Equals ``sample_criterion_space(problem, grid)`` point for point and in
    order, without evaluating anything: axes are clipped the same way and the
    lexicographic order survives subsetting. Returns ``cloud`` itself when the
    grid covers all of it; raises SchemaError when a node is missing.
    """
    decisions = cloud.decision_array()
    if decisions is None:
        raise SchemaError("only a cloud with decisions can be cut")
    axis_values = _grid_axes(problem, grid)
    keep = np.logical_and.reduce([np.isin(decisions[:, d], v) for d, v in enumerate(axis_values)])
    rows = np.flatnonzero(keep)
    if not np.array_equal(decisions[rows], list(itertools.product(*axis_values))):
        raise SchemaError("the grid is not contained in the sampled cloud")
    if len(rows) == len(cloud):
        return cloud
    cut = PointCloud(
        criterion_dim=cloud.criterion_dim,
        points=tuple(cloud.points[i] for i in rows),
        decisions=tuple(cloud.decisions[i] for i in rows),
        provenance=cloud.provenance,
    )
    cut._arrays.update(points=cloud.as_array()[rows], decisions=decisions[rows])
    for array in cut._arrays.values():
        array.flags.writeable = False
    return cut


def refinement_ladder(
    problem: AnalyticProblem, cloud: PointCloud, anchor, levels: int
) -> tuple[PointCloud, ...]:
    """The nested level clouds toward a decision anchor, cut from ``cloud``.

    Level k (at index k - 1) is the grid ``GridSpec.geometric(anchor, k)``:
    the anchor and its offsets 2^-j, j = 1..k, on both sides, clipped to the
    domain. ``cloud`` must contain level ``levels``.
    """
    deepest = cut_grid(problem, cloud, GridSpec.geometric(anchor, levels))
    return tuple(
        cut_grid(problem, deepest, GridSpec.geometric(anchor, k)) for k in range(1, levels)
    ) + (deepest,)


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
    out = float(value)
    if not math.isfinite(out):
        raise SchemaError(f"{path}: non-finite value")
    return out


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
    points = []
    for i, row in enumerate(raw_points):
        if not isinstance(row, list) or len(row) != p:
            raise SchemaError(f"cloud.points[{i}]: expected a vector of length {p}")
        points.append(tuple(_finite_number(v, f"cloud.points[{i}][{j}]") for j, v in enumerate(row)))
    decisions = None
    if "decisions" in doc:
        raw_dec = doc["decisions"]
        if not isinstance(raw_dec, list) or len(raw_dec) != len(points):
            raise SchemaError("cloud.decisions: must parallel cloud.points")
        decisions = tuple(
            tuple(_finite_number(v, f"cloud.decisions[{i}][{j}]") for j, v in enumerate(row))
            for i, row in enumerate(raw_dec)
        )
    return PointCloud(
        criterion_dim=p,
        points=tuple(points),
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
