import json

import pytest

from paretocert import problems
from paretocert.errors import (
    DimensionError,
    ExprSyntaxError,
    SchemaError,
    UnknownBuiltin,
)

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
    assert cloud.points == ((0.0, 0.0), (1.0, -1.0))


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


def test_builtin_soland_matches_document_form():
    problem = problems.builtin("soland")
    assert problem.criteria_at([2.0]) == (4.0, -8.0)
    loaded = problems.load_problem(json.dumps(SOLAND_DOC))
    assert problem.digest() == loaded.digest()


def test_unknown_builtin():
    with pytest.raises(UnknownBuiltin):
        problems.builtin("nope")


def test_sample_explicit_grid():
    problem = problems.builtin("soland")
    grid = problems.GridSpec(((problems.AxisSpec.explicit([0.0, 1.0, 2.0]),),))
    cloud = problems.sample_criterion_space(problem, grid)
    assert cloud.points == ((0.0, 0.0), (1.0, -1.0), (4.0, -8.0))
    assert cloud.decisions == ((0.0,), (1.0,), (2.0,))


def test_sample_geometric_grid():
    problem = problems.builtin("soland")
    grid = problems.GridSpec(((problems.AxisSpec.geometric(0.0, 20),),))
    cloud = problems.sample_criterion_space(problem, grid)
    assert len(cloud) == 21  # the anchor plus twenty offsets (negatives clipped)
    ys = [pt[0] for pt in cloud.points]
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
    for y in cloud.points:
        g, h = problem.constraint_values(y)
        assert g[0] <= 1e-9
        assert abs(h[0]) <= 1e-9


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
    assert one.points == two.points
    assert one.decisions == two.decisions
    assert repr(one.points) == repr(two.points)


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


def assert_same_cloud(cut, fresh):
    assert repr(cut.points) == repr(fresh.points)  # bit for bit, signed zeros included
    assert repr(cut.decisions) == repr(fresh.decisions)
    assert cut.provenance == fresh.provenance
    pairs = [(cut.as_array(), fresh.as_array()), (cut.decision_array(), fresh.decision_array())]
    for got, want in pairs:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert not got.flags.writeable


@pytest.mark.parametrize(
    "problem, anchors, count, levels",
    [
        (problems.builtin("soland"), [(0.0,), (1.6875,), (4.0,)], 65, 24),
        (
            problems.load_problem(json.dumps(PLANE2D_DOC)),
            [(0.0, 0.0), (1.0, 1.0), (0.0, 0.5), (1.0, 0.3), (0.25, 0.75), (0.3, 0.6)],
            9,
            8,
        ),
    ],
    ids=["soland", "plane2d"],
)
def test_ladder_levels_equal_fresh_sampling(problem, anchors, count, levels):
    cloud = problems.sample_criterion_space(problem, joined_grid(problem, anchors, count, levels))
    for anchor in anchors:
        ladder = problems.refinement_ladder(problem, cloud, anchor, levels)
        assert len(ladder) == levels
        for k, level in enumerate(ladder, start=1):
            fresh = problems.sample_criterion_space(problem, problems.GridSpec.geometric(anchor, k))
            assert_same_cloud(level, fresh)


def test_cut_of_the_whole_grid_is_the_cloud():
    problem = problems.builtin("soland")
    grid = joined_grid(problem, [(1.0,)], 17, 6)
    cloud = problems.sample_criterion_space(problem, grid)
    assert problems.cut_grid(problem, cloud, grid) is cloud


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
    bare = problems.PointCloud(criterion_dim=2, points=coarse.points)
    with pytest.raises(SchemaError):
        problems.cut_grid(problem, bare, problems.GridSpec.uniform(1, 3))


def test_point_array_rejects_ragged_input():
    with pytest.raises(DimensionError):
        problems.point_array([(0.0, 1.0), (1.0,)])
    with pytest.raises(ValueError):
        problems.point_array([])


def test_cloud_arrays_are_built_once_and_read_only():
    soland = problems.builtin("soland")
    cloud = problems.sample_criterion_space(soland, problems.GridSpec.uniform(1, 5))
    points = cloud.as_array()
    assert points is cloud.as_array() is problems.point_array(cloud)
    assert points.tolist() == [list(y) for y in cloud.points]
    decisions = cloud.decision_array()
    assert decisions is cloud.decision_array()
    assert decisions.tolist() == [list(x) for x in cloud.decisions]
    for array in (points, decisions):
        with pytest.raises(ValueError):
            array[0, 0] = 1.0
    assert problems.PointCloud(criterion_dim=2, points=cloud.points).decision_array() is None
