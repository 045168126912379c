import itertools
import json

import numpy as np
import pytest

from paretocert import cli, exprlang, geoffrion, problems, support
from paretocert.errors import (
    DimensionError,
    DomainError,
    ExprSyntaxError,
    SchemaError,
    UnknownBuiltin,
)
from test_support import level_ladder

SOLAND_DOC = {
    "type": "analytic",
    "decision_dim": 1,
    "criterion_dim": 2,
    "domain": [[0, 4]],
    "criteria": ["x0^2", "-x0^3"],
    "constraints": {"ineq": ["-y0"], "eq": ["y1 + y0^1.5"]},
}

# a concave 2-D image whose square domain clips the refinement at edges and corners
PLANE2D_DOC = {
    "type": "analytic",
    "decision_dim": 2,
    "criterion_dim": 3,
    "domain": [[0, 1], [0, 1]],
    "criteria": ["x0", "x1", "-(x0^2 + x1^2)"],
    "constraints": {
        "ineq": ["-y0", "-y1", "y0 - 1", "y1 - 1"],
        "eq": ["y2 + y0^2 + y1^2"],
    },
}


def test_load_analytic_problem():
    problem = problems.load_problem(json.dumps(SOLAND_DOC))
    assert isinstance(problem, problems.AnalyticProblem)
    assert problem.decision_dim == 1
    assert problem.criterion_dim == 2
    assert problem.domain == ((0.0, 4.0),)
    assert problem.has_constraints
    assert problem.criteria_at([2.0]) == (4.0, -8.0)


def test_load_cloud():
    doc = {"type": "cloud", "criterion_dim": 2, "points": [[0, 0], [1, -1]]}
    cloud = problems.load_problem(json.dumps(doc))
    assert isinstance(cloud, problems.PointCloud)
    assert len(cloud) == 2
    assert repr(cloud.as_array().tolist()) == repr([[0.0, 0.0], [1.0, -1.0]])


def test_missing_criteria_is_schema_error():
    doc = dict(SOLAND_DOC)
    del doc["criteria"]
    with pytest.raises(SchemaError):
        problems.load_problem(json.dumps(doc))


def test_expression_errors_carry_field_path():
    doc = dict(SOLAND_DOC)
    doc["criteria"] = ["x0^2", "x0^^3"]
    with pytest.raises(ExprSyntaxError) as err:
        problems.load_problem(json.dumps(doc))
    assert "criteria[1]" in str(err.value)


def test_criterion_dim_must_be_at_least_two():
    doc = dict(SOLAND_DOC)
    doc["criterion_dim"] = 1
    doc["criteria"] = ["x0^2"]
    with pytest.raises(SchemaError):
        problems.load_problem(json.dumps(doc))


def test_invalid_json():
    with pytest.raises(SchemaError):
        problems.load_problem("{not json")


def test_non_finite_point_rejected():
    doc = {"type": "cloud", "criterion_dim": 2, "points": [[0, 1e400]]}
    with pytest.raises(SchemaError):
        problems.load_problem(json.dumps(doc))


@pytest.mark.parametrize(
    "field, rows, message",
    [
        ("points", [[0, 1], [1]], "cloud.points[1]: expected a vector of length 2"),
        ("points", [[0, 1], 5], "cloud.points[1]: expected a vector of length 2"),
        ("points", [[0, 1], [True, 1]], "cloud.points[1][0]: expected a number"),
        ("points", [[0, 1], [1, "2"]], "cloud.points[1][1]: expected a number"),
        ("points", [[0, None], [1, 2]], "cloud.points[0][1]: expected a number"),
        ("points", [[0, 1], [float("nan"), 1]], "cloud.points[1][0]: non-finite value"),
        ("points", [[0, 1], [1, float("-inf")]], "cloud.points[1][1]: non-finite value"),
        ("points", [[0, 1], [10**400, 1]], "cloud.points[1][0]: non-finite value"),
        ("decisions", [[0], [False]], "cloud.decisions[1][0]: expected a number"),
        ("decisions", [[0], ["1"]], "cloud.decisions[1][0]: expected a number"),
        ("decisions", [[0], [1, "x"]], "cloud.decisions[1][1]: expected a number"),
        ("decisions", [[0], [float("inf")]], "cloud.decisions[1][0]: non-finite value"),
        ("decisions", [[0], [-(10**400)]], "cloud.decisions[1][0]: non-finite value"),
        # every decision row is a vector of the length of row 0
        ("decisions", [[0], 5], "cloud.decisions[1]: expected a vector of length 1"),
        ("decisions", [[0], [1, 2]], "cloud.decisions[1]: expected a vector of length 1"),
        ("decisions", [[0, 1], [2]], "cloud.decisions[1]: expected a vector of length 2"),
        ("decisions", [5, [0]], "cloud.decisions[0]: expected a vector"),
        # a point row of the wrong length is named before its entries
        ("points", [[0, 1], [1, "x", 3]], "cloud.points[1]: expected a vector of length 2"),
    ],
)
def test_cloud_entries_are_named_when_rejected(field, rows, message):
    doc = {"type": "cloud", "criterion_dim": 2, "points": [[0, 1], [2, 3]]}
    doc[field] = rows
    with pytest.raises(SchemaError) as err:
        problems.load_document(doc)
    assert str(err.value) == message


def test_cloud_numbers_convert_as_floats():
    values = [[0, -0.0], [2**53 + 1, 2**70 + 3], [-(10**300) - 7, 0.1], [1e308, -5]]
    cloud = problems.load_document(
        {"type": "cloud", "criterion_dim": 2, "points": values, "decisions": values}
    )
    want = [[float(v) for v in row] for row in values]
    for array in (cloud.as_array(), cloud.decision_array()):
        assert repr(array.tolist()) == repr(want)  # bit for bit, signed zeros included
        assert array.tobytes() == problems.point_array(want).tobytes()
        assert array.shape == (4, 2) and not array.flags.writeable
    # decision rows share one length
    with pytest.raises(SchemaError, match=r"cloud.decisions\[1\]: expected a vector of length 1"):
        problems.load_document(
            {"type": "cloud", "criterion_dim": 1, "points": [[0], [1], [2]], "decisions": [[0], [1, 2], [3]]}
        )


def test_builtin_soland_matches_document_form():
    problem = problems.builtin("soland")
    assert problem.criteria_at([2.0]) == (4.0, -8.0)
    loaded = problems.load_problem(json.dumps(SOLAND_DOC))
    assert problem.digest() == loaded.digest()


def test_unknown_builtin():
    with pytest.raises(UnknownBuiltin):
        problems.builtin("nope")


def test_sample_uniform_grid():
    problem = problems.load_document(dict(problems.builtin("soland").to_document(), domain=[[0, 2]]))
    grid = problems.GridSpec.uniform(1, 3)
    cloud = problems.sample_criterion_space(problem, grid)
    assert repr(cloud.as_array().tolist()) == repr([[0.0, 0.0], [1.0, -1.0], [4.0, -8.0]])
    assert repr(cloud.decision_array().tolist()) == repr([[0.0], [1.0], [2.0]])


def test_sample_geometric_grid():
    problem = problems.builtin("soland")
    grid = problems.GridSpec(((problems.AxisSpec.geometric(0.0, 20),),))
    cloud = problems.sample_criterion_space(problem, grid)
    assert len(cloud) == 21  # the anchor plus twenty offsets (negatives clipped)
    ys = cloud.as_array()[:, 0].tolist()
    assert min(ys) == 0.0
    assert sorted(ys)[1] == 2.0 ** -40


def test_zero_resolution_is_schema_error():
    problem = problems.builtin("soland")
    grid = problems.GridSpec(((problems.AxisSpec.uniform(0),),))
    with pytest.raises(SchemaError):
        problems.sample_criterion_space(problem, grid)
    grid = problems.GridSpec(((problems.AxisSpec.geometric(0.0, 0),),))
    with pytest.raises(SchemaError):
        problems.sample_criterion_space(problem, grid)


def test_sampled_images_satisfy_constraint_description():
    problem = problems.builtin("soland")
    cloud = problems.sample_criterion_space(problem, problems.GridSpec.uniform(1, 101))
    for y in cloud.as_array().tolist():
        assert exprlang.evaluate(problem.ineq[0], y) <= 1e-9
        assert abs(exprlang.evaluate(problem.eq[0], y)) <= 1e-9


def test_inconsistent_constraints_surface_during_sampling():
    doc = dict(SOLAND_DOC)
    doc["constraints"] = {"ineq": [], "eq": ["y1 - y0"]}  # wrong description
    problem = problems.load_problem(json.dumps(doc))
    with pytest.raises(SchemaError):
        problems.sample_criterion_space(problem, problems.GridSpec.uniform(1, 5))


def test_sampling_is_deterministic_bit_for_bit():
    problem = problems.builtin("soland")
    grid = problems.GridSpec(
        ((problems.AxisSpec.uniform(64), problems.AxisSpec.geometric(1.0, 12)),)
    )
    one = problems.sample_criterion_space(problem, grid)
    two = problems.sample_criterion_space(problem, grid)
    assert one.as_array().tobytes() == two.as_array().tobytes()
    assert one.decision_array().tobytes() == two.decision_array().tobytes()


def test_grid_axis_count_must_match():
    problem = problems.builtin("soland")
    grid = problems.GridSpec.uniform(2, 3)
    with pytest.raises(SchemaError):
        problems.sample_criterion_space(problem, grid)


def joined_grid(problem, anchors, count, levels):
    """The uniform grid joined with every anchor's refinement to ``levels``."""
    return problems.GridSpec(tuple(
        (problems.AxisSpec.uniform(count),)
        + tuple(problems.AxisSpec.geometric(a[d], levels) for a in anchors)
        for d in range(problem.decision_dim)
    ))


def assert_rows_are_the_sample(cloud, rows, fresh):
    """The rows of ``cloud`` at ``rows`` equal the fresh sample bit for bit,
    signed zeros included."""
    assert not rows.flags.writeable
    assert np.all(np.diff(rows) > 0)
    pairs = [(cloud.as_array(), fresh.as_array()), (cloud.decision_array(), fresh.decision_array())]
    for array, want in pairs:
        got = array[rows]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_ladder_steps_are_shared_by_both_trends():
    ladder = level_ladder(np.arange(3), [1, 2, 3], 3)
    assert problems.ladder_steps(ladder) == ((1, 2, 3), (0.5, 0.25, 0.125))
    points = np.array([[0.0, 1.0], [1.0, 0.5], [0.5, 0.75]])
    trend = support.support_trend(points, ladder, (0.5, 0.75))
    probe = geoffrion.divergence_probe(points, ladder, (0.5, 0.75))
    assert (trend.levels, trend.offsets) == (probe.levels, probe.offsets) == problems.ladder_steps(ladder)


@pytest.mark.parametrize(
    "problem, anchors, count, levels",
    [
        (problems.builtin("soland"), [(0.0,), (1.6875,), (4.0,)], 65, 24),
        # from level 52 on, the offsets of 3, 3.375 and 4 round back to the anchor
        (problems.builtin("soland"), [(0.0,), (3.0,), (3.375,), (4.0,)], 9, 60),
        (
            problems.load_problem(json.dumps(PLANE2D_DOC)),
            [(0.0, 0.0), (1.0, 1.0), (0.0, 0.5), (1.0, 0.3), (0.25, 0.75), (0.3, 0.6)],
            9,
            8,
        ),
    ],
    ids=["soland", "soland_deep", "plane2d"],
)
def test_ladder_levels_equal_fresh_sampling(problem, anchors, count, levels):
    cloud = problems.sample_criterion_space(problem, joined_grid(problem, anchors, count, levels))
    for anchor in anchors:
        ladder = problems.refinement_ladder(problem, cloud, anchor, levels)
        assert len(ladder) == levels
        assert not ladder.rows.flags.writeable and not ladder.ends.flags.writeable
        assert np.all(np.diff(ladder.ends) >= 0) and ladder.ends[-1] == len(ladder.rows)
        starts = [0, *ladder.ends[:-1].tolist()]
        for k, (start, end) in enumerate(zip(starts, ladder.ends.tolist()), start=1):
            assert np.all(np.diff(ladder.rows[start:end]) > 0)  # the level's new rows
            grid = problems.GridSpec.geometric(anchor, k)
            level = np.sort(ladder.rows[:end])
            level.flags.writeable = False
            assert_rows_are_the_sample(cloud, level, problems.sample_criterion_space(problem, grid))
            assert np.array_equal(level, problems.cut_grid(problem, cloud, grid))
        if levels == 60 and anchor[0] >= 3.0:
            # the offsets from 2^-52 on round onto the anchor: those levels add no row
            assert np.all(ladder.ends[51:] == ladder.ends[50])


def test_cut_of_the_whole_grid_is_the_cloud():
    problem = problems.builtin("soland")
    grid = joined_grid(problem, [(1.0,)], 17, 6)
    cloud = problems.sample_criterion_space(problem, grid)
    rows = problems.cut_grid(problem, cloud, grid)
    assert np.array_equal(rows, np.arange(len(cloud)))


def test_cutting_a_grid_the_cloud_lacks_raises():
    problem = problems.builtin("soland")
    coarse = problems.sample_criterion_space(problem, problems.GridSpec.uniform(1, 3))
    with pytest.raises(SchemaError):
        problems.cut_grid(problem, coarse, problems.GridSpec.uniform(1, 5))
    shallow = problems.sample_criterion_space(problem, problems.GridSpec.geometric((1.0,), 4))
    with pytest.raises(SchemaError):
        problems.refinement_ladder(problem, shallow, (1.0,), 5)
    with pytest.raises(SchemaError):
        problems.refinement_ladder(problem, shallow, (1.5,), 1)
    bare = problems.PointCloud(criterion_dim=2, points=coarse.as_array())
    with pytest.raises(SchemaError):
        problems.cut_grid(problem, bare, problems.GridSpec.uniform(1, 3))


def _named_value(problem, kind, index, point, x):
    """Expression ``index`` of ``problem``'s ``kind`` at ``point``; a domain
    error names that expression and the decision ``x``."""
    expr = getattr(problem, kind)[index]
    try:
        return exprlang.evaluate(expr, point)
    except DomainError as exc:
        source = exprlang.to_source(expr)
        raise DomainError(f'{exc} in {kind}[{index}] "{source}" at x = {x}') from None


def scalar_sample(problem, grid, tol_feas=1e-9):
    """Point-by-point sampling, the reference for sample_criterion_space:
    the points and decisions, or the error it raises."""
    points, decisions = [], []
    try:
        for x in map(tuple, problems.grid_nodes(problem, grid).tolist()):
            y = tuple(_named_value(problem, "criteria", i, x, x) for i in range(problem.criterion_dim))
            g = [_named_value(problem, "ineq", k, y, x) for k in range(len(problem.ineq))]
            h = [_named_value(problem, "eq", j, y, x) for j in range(len(problem.eq))]
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
            decisions.append(x)
    except (DomainError, SchemaError) as exc:
        return exc
    return tuple(points), tuple(decisions)


def _analytic(criteria, ineq=(), eq=(), domain=((-2, 2),)):
    doc = {
        "type": "analytic",
        "decision_dim": len(domain),
        "criterion_dim": len(criteria),
        "domain": [list(d) for d in domain],
        "criteria": list(criteria),
        "constraints": {"ineq": list(ineq), "eq": list(eq)},
    }
    return problems.load_problem(json.dumps(doc))


SOLAND = problems.builtin("soland")
# the slow Soland problem: the support margin at the origin vanishes like x^(1/10)
SLOW_SOLAND = _analytic(["x0", "-(x0^11/10)"], ineq=["-y0"], eq=["y1 + y0^11/10"], domain=((0, 2),))
PLANE2D = problems.load_problem(json.dumps(PLANE2D_DOC))

GRID9 = problems.GridSpec.uniform(1, 9)  # -2, -1.5, ..., 2 on [-2, 2]


@pytest.mark.parametrize(
    "problem, grid, first",
    [
        # a violation at x = -0.5 before a division by zero at x = 1, and one at
        # x = 1 after a division by zero at x = -1
        (_analytic(["x0", "1/(x0 - 1)"], ineq=["y0 + 1"]), GRID9, "g[0]((-0.5, -0.6666666666666666))"),
        (_analytic(["x0", "1/(x0 + 1)"], ineq=["y0 - 0.5"]), GRID9, "division by zero"),
        # a constraint's own domain error at x = 1, after a violation at x = 0.5
        # and before one at x = 1.5
        (_analytic(["x0", "x0"], ineq=["y0 - 0.25"], eq=["(0.5 - y1)^1/2 * 0"]), GRID9, "g[0]((0.5, 0.5))"),
        (_analytic(["x0", "x0"], ineq=["y0 - 1.25"], eq=["(0.5 - y1)^1/2 * 0"]), GRID9, "negative base -0.5"),
        # at one point, an equality's domain error comes before an inequality's violation
        (_analytic(["x0", "x0"], ineq=["y0 - 0.75"], eq=["(0.75 - y1)^1/2 * 0"]), GRID9, "negative base -0.25"),
        # an overflowing power at x = -0.5, and a non-finite product at x = -1
        (_analytic(["x0", "(10*(x0 + 2))^300"], ineq=["y0 - 1"]), GRID9, "overflow computing 15.0 ^ 300"),
        (_analytic(["x0", "(10*(x0 + 2))^200 * (10*(x0 + 2))^200"]), GRID9, "non-finite value at (-1.0,)"),
        # violations of the second equality, then of the first, in grid order
        (_analytic(["x0", "x0^2"], eq=["y1 - y0^2", "y0 + 1.5"]), GRID9, "h[1]((-2.0, 4.0))"),
        (
            _analytic(["x0", "x1", "x0*x1"], ineq=["y2 - 0.5"], domain=((0, 1), (0, 1))),
            problems.GridSpec.uniform(2, 17),
            "g[0]((0.5625, 0.9375, 0.52734375))",
        ),
        (
            _analytic(["x0", "1/(x1 - 0.5)"], domain=((0, 1), (0, 1))),
            problems.GridSpec.uniform(2, 9),
            "division by zero",
        ),
        # clouds: negative bases, fractional powers at a zero base, a 2-D grid
        (SOLAND, joined_grid(SOLAND, [(0.0,), (3.375,)], 65, 40), None),
        (SLOW_SOLAND, joined_grid(SLOW_SOLAND, [(0.0,)], 33, 40), None),
        (PLANE2D, joined_grid(PLANE2D, [(0.0, 0.5), (0.25, 0.75)], 9, 8), None),
    ],
)
def test_sampling_equals_the_point_by_point_loop(problem, grid, first):
    want = scalar_sample(problem, grid)
    if isinstance(want, Exception):
        assert first in str(want)
        with pytest.raises(type(want)) as err:
            problems.sample_criterion_space(problem, grid)
        assert str(err.value) == str(want)
        return
    assert first is None
    cloud = problems.sample_criterion_space(problem, grid)
    points, decisions = want
    # bit for bit, signed zeros included
    assert cloud.as_array().tobytes() == np.array(points).tobytes()
    assert cloud.decision_array().tobytes() == np.array(decisions).tobytes()


def isin_rows(problem, cloud, grid):
    """The rows of ``cloud`` holding the nodes of ``grid``, found by one
    ``np.isin`` scan of the whole cloud per axis: the reference for the
    per-axis lookups of ``cut_grid``."""
    decisions = cloud.decision_array()
    axis_values = problems._grid_axes(problem, grid)
    keep = np.logical_and.reduce([np.isin(decisions[:, d], v) for d, v in enumerate(axis_values)])
    rows = np.flatnonzero(keep)
    if not np.array_equal(decisions[rows], problems.grid_nodes(problem, grid)):
        raise SchemaError("the grid is not contained in the sampled cloud")
    return rows


CUBE3D = _analytic(
    ["x0 + x2", "x1 - x2", "-(x0^2 + x1^2 + x2^2)"], domain=((0, 1), (0, 1), (0, 1))
)


@pytest.mark.parametrize(
    "problem, anchors, count, levels",
    [
        # 0 and 4 clip the refinement; from level 52 on, the offsets of 3,
        # 3.375 and 4 round back onto the anchor
        (SOLAND, [(0.0,), (1.6875,), (3.0,), (3.375,), (4.0,)], 9, 60),
        (
            problems.load_problem(json.dumps(PLANE2D_DOC)),
            [(0.0, 0.0), (1.0, 0.3), (0.3, 0.6)],
            9,
            8,
        ),
        (CUBE3D, [(0.0, 0.5, 1.0), (0.25, 0.75, 0.3)], 5, 4),
    ],
    ids=["soland", "plane2d", "cube3d"],
)
def test_row_sets_equal_the_isin_scan(problem, anchors, count, levels):
    cfg = cli.Config(levels=levels, grid=count)
    specs = [cli._PointSpec(decision=a, criterion=problem.criteria_at(a)) for a in anchors]
    cloud = cli._analysis_cloud(problem, specs, cfg)
    n = problem.decision_dim
    uniform = problems.GridSpec.uniform(n, count)
    for grid in (uniform, joined_grid(problem, anchors, count, levels)):
        want = isin_rows(problem, cloud, grid)
        assert np.array_equal(problems.cut_grid(problem, cloud, grid), want)
    indices = problems.axis_indices(problem, cloud, uniform)
    for spec in specs:
        ladder = problems.refinement_ladder(problem, cloud, spec.decision, levels)
        for k in range(1, levels + 1):
            grid = problems.GridSpec.geometric(spec.decision, k)
            want = isin_rows(problem, cloud, grid)
            assert np.array_equal(np.sort(ladder.rows[: ladder.ends[k - 1]]), want)
            assert np.array_equal(problems.cut_grid(problem, cloud, grid), want)
        witness = joined_grid(problem, [spec.decision], count, min(levels, 12))
        rows = cli._witness_rows(cloud, ladder, indices)
        assert np.array_equal(rows, isin_rows(problem, cloud, witness))
    missing = problems.GridSpec.uniform(n, count + 2)  # holds nodes the cloud lacks
    for cut in (isin_rows, problems.cut_grid):
        with pytest.raises(SchemaError):
            cut(problem, cloud, missing)
    # the same rows, without the axes of a sampled cloud
    unsampled = problems.PointCloud(
        cloud.criterion_dim, cloud.as_array(), decisions=cloud.decision_array()
    )
    want = problems.cut_grid(problem, cloud, uniform)
    assert np.array_equal(isin_rows(problem, unsampled, uniform), want)
    with pytest.raises(SchemaError):
        problems.cut_grid(problem, unsampled, uniform)
    with pytest.raises(SchemaError):
        problems.refinement_ladder(problem, unsampled, anchors[0], levels)


def test_point_array_rejects_ragged_input():
    with pytest.raises(DimensionError):
        problems.point_array([(0.0, 1.0), (1.0,)])
    with pytest.raises(ValueError):
        problems.point_array([])


def assert_matches_unique(a):
    """``distinct_rows`` against numpy: ``order`` is ``np.lexsort``'s
    permutation whatever the rows hold, ``groups`` follows ``starts`` along
    it, a row holding a NaN is a group of its own, and the other rows are
    grouped as ``np.unique(axis=0)`` groups them. Without NaN, also the same
    distinct rows as ``np.unique`` in the same order, the same group for
    every row, and each group stood for by its first row in input order."""
    a = np.asarray(a, dtype=float)
    order, starts, groups = problems.distinct_rows(a)
    assert order.tobytes() == np.lexsort(a.T[::-1]).tobytes()
    sizes = np.diff(np.r_[starts, len(a)])
    assert np.array_equal(groups[order], np.repeat(np.arange(len(starts)), sizes))
    nan = np.isnan(a).any(axis=1)
    assert (sizes[groups[nan]] == 1).all()
    inverse = np.unique(a[~nan], axis=0, return_inverse=True)[1].reshape(-1).tolist()
    same = set(zip(groups[~nan].tolist(), inverse))
    assert len(same) == len(set(groups[~nan].tolist())) == len(set(inverse))
    if nan.any():
        return
    want, inverse = np.unique(a, axis=0, return_inverse=True)
    assert np.array_equal(a[order[starts]], want)
    assert np.array_equal(groups, inverse.reshape(-1))
    firsts = [int(np.flatnonzero(groups == g)[0]) for g in range(len(starts))]
    assert order[starts].tolist() == firsts
    assert np.all(np.diff(groups[order]) >= 0)


def test_distinct_rows_match_unique_on_duplicate_heavy_matrices():
    rng = np.random.default_rng(1975)
    values = np.array([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, np.nan])
    for p in range(1, 6):
        for n in (1, 2, 7, 40, 300):
            assert_matches_unique(rng.integers(-2, 3, size=(n, p)))
            with_nan = values[rng.integers(0, len(values), size=(n, p))]
            assert_matches_unique(with_nan)
            # a column of one value, NaN included, ties every row in it
            for tie in (0.0, -0.0, np.nan):
                with_nan[:, rng.integers(p)] = tie
                assert_matches_unique(with_nan)


def test_distinct_rows_match_lexsort_where_a_product_of_ranks_overflows():
    # about 10^4 distinct values per column, each held by about three rows:
    # the five columns' ranks multiply to about 10^20, beyond int64, so no
    # single integer key of column ranks could order these rows
    rng = np.random.default_rng(20)
    a = rng.integers(0, 10_000, size=(30_000, 5)) / 8.0
    assert len(np.unique(a[:, 0])) ** 5 > np.iinfo(np.int64).max
    a[rng.integers(30_000, size=3_000)] = a[rng.integers(30_000, size=3_000)]
    assert_matches_unique(a)
    assert_matches_unique(a[:, ::-1] * -1.0)


def test_distinct_rows_match_unique_on_edge_shapes():
    rng = np.random.default_rng(3)
    assert_matches_unique([[1.5, -2.0, 0.0]])
    rows = np.unique(rng.integers(-3, 4, size=(50, 3)), axis=0).astype(float)
    assert_matches_unique(rows)
    assert_matches_unique(rows[::-1])
    assert_matches_unique(np.repeat(rows, 3, axis=0)[::-1])
    inf = np.inf
    assert_matches_unique(
        [[inf, 0.0], [-inf, 1.0], [1.0, inf], [inf, 0.0], [-inf, -inf], [1.0, inf], [0.0, -inf]]
    )


def test_distinct_rows_merge_signed_zeros_into_the_first_row():
    a = np.array([[0.0, 1.0], [-0.0, 1.0], [-0.0, -0.0], [1.0, 0.0], [0.0, 0.0], [1.0, -0.0]])
    assert_matches_unique(a)
    order, starts, groups = problems.distinct_rows(a)
    assert groups.tolist() == [1, 1, 0, 2, 0, 2]
    assert order[starts].tolist() == [2, 0, 3]
    assert np.signbit(a[order[starts]]).tolist() == [[True, True], [False, False], [False, False]]


def test_distinct_rows_match_unique_on_generated_matrices():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # a small pool makes duplicates, signed zeros, infinities and NaN common
    pool = [-np.inf, -1.0, -5e-324, -0.0, 0.0, 5e-324, 0.5, 1.0, np.inf, np.nan]
    value = st.sampled_from(pool) | st.floats(allow_nan=True)
    matrices = st.integers(1, 5).flatmap(
        lambda p: st.lists(st.tuples(*[value] * p), min_size=1, max_size=40)
    )

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(matrices)
    def check(rows):
        assert_matches_unique(rows)

    check()


def test_cloud_arrays_are_built_once_and_read_only():
    soland = problems.builtin("soland")
    cloud = problems.sample_criterion_space(soland, problems.GridSpec.uniform(1, 5))
    points = cloud.as_array()
    assert points is cloud.as_array() is problems.point_array(cloud)
    decisions = cloud.decision_array()
    assert decisions is cloud.decision_array()
    # the tuple rows are a view derived from the array
    assert cloud.decisions == tuple(tuple(x) for x in decisions.tolist())
    for array in (points, decisions):
        with pytest.raises(ValueError):
            array[0, 0] = 1.0
    bare = problems.PointCloud(criterion_dim=2, points=points)
    assert bare.as_array() is points  # a read-only float array is kept as it is
    assert bare.decision_array() is None and bare.decisions is None


def test_cloud_owns_a_copy_of_a_writable_array():
    points = np.array([[0.0, 1.0], [2.0, 3.0]])
    decisions = np.array([[0.5], [1.5]])
    cloud = problems.PointCloud(criterion_dim=2, points=points, decisions=decisions)
    points[0, 0] = decisions[0, 0] = 9.0
    assert repr(cloud.as_array().tolist()) == repr([[0.0, 1.0], [2.0, 3.0]])
    assert repr(cloud.decision_array().tolist()) == repr([[0.5], [1.5]])
    assert not cloud.as_array().flags.writeable


def test_grid_nodes_are_the_product_of_the_axes():
    # the last axis varies fastest, as in itertools.product
    grid = problems.GridSpec(
        ((problems.AxisSpec.uniform(5), problems.AxisSpec.geometric(0.25, 3)),
         (problems.AxisSpec.uniform(3),))
    )
    axes = [[0.0, 0.125, 0.25, 0.375, 0.5, 0.75, 1.0], [0.0, 0.5, 1.0]]
    nodes = problems.grid_nodes(PLANE2D, grid)
    assert not nodes.flags.writeable
    assert repr(nodes.tolist()) == repr([list(x) for x in itertools.product(*axes)])
    cube = _analytic(["x0", "x1", "x2"], domain=((0, 1), (-1, 1), (2, 3)))
    grid = problems.GridSpec(tuple((problems.AxisSpec.uniform(k),) for k in (2, 3, 4)))
    axes = [[0.0, 1.0], [-1.0, 0.0, 1.0], [2.0, 2.0 + 1 / 3, 2.0 + 2 / 3, 3.0]]
    nodes = problems.grid_nodes(cube, grid)
    assert repr(nodes.tolist()) == repr([list(x) for x in itertools.product(*axes)])
