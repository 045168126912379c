import numpy as np
import pytest

from paretocert import pareto, problems
from paretocert.errors import DimensionError


def brute_force_filter(points):
    """Independent O(n^2 p) oracle: scan every ordered pair."""
    keep = []
    for i, a in enumerate(points):
        dominated = False
        for j, b in enumerate(points):
            if i == j:
                continue
            if all(x >= y for x, y in zip(b, a)) and any(x != y for x, y in zip(b, a)):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    return keep


def test_dominates_examples():
    assert pareto.dominates((1, 0), (0, 0))
    assert not pareto.dominates((1, -1), (0, 0))
    assert not pareto.dominates((0, 0), (0, 0))


def test_dominates_matches_componentwise_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = tuple(rng.integers(-2, 3, size=3).tolist())
        b = tuple(rng.integers(-2, 3, size=3).tolist())
        want = all(x >= y for x, y in zip(a, b)) and any(x > y for x, y in zip(a, b))
        assert pareto.dominates(a, b) == want
        assert not (pareto.dominates(a, b) and pareto.dominates(b, a))


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        pareto.dominates((1, 2), (1, 2, 3))


def test_soland_sample_all_efficient():
    assert pareto.pareto_filter([(0, 0), (1, -1), (4, -8)]) == [0, 1, 2]


def test_dominated_point_removed():
    assert pareto.pareto_filter([(0, 0), (1, 0)]) == [1]


def test_duplicates_of_an_efficient_value_all_survive():
    cloud = [(1.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.5, 0.4)]
    assert pareto.pareto_filter(cloud) == [0, 1, 2, 3]


def test_accepts_point_cloud_objects():
    cloud = problems.PointCloud(criterion_dim=2, points=((0.0, 0.0), (1.0, 0.0)))
    assert pareto.pareto_filter(cloud) == [1]


def test_empty_cloud_rejected():
    with pytest.raises(ValueError):
        pareto.pareto_filter([])


def _random_cloud(rng, n, p):
    if rng.random() < 0.5:
        # small integer coordinates create plenty of ties and duplicates
        return [tuple(float(v) for v in rng.integers(-3, 4, size=p))
                for _ in range(n)]
    return [tuple(float(v) for v in rng.normal(size=p)) for _ in range(n)]


def test_filter_matches_brute_force_on_random_clouds():
    rng = np.random.default_rng(20250811)
    for case in range(200):
        n = int(rng.integers(1, 501)) if case < 20 else int(rng.integers(1, 121))
        p = int(rng.integers(2, 5))
        cloud = _random_cloud(rng, n, p)
        assert pareto.pareto_filter(cloud) == brute_force_filter(cloud)


def test_filter_matches_brute_force_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # a small pool of values makes ties and duplicates common
    coordinate = st.sampled_from(
        [-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf]
    ) | st.floats(allow_nan=False)
    clouds = st.integers(1, 5).flatmap(
        lambda p: st.lists(st.tuples(*[coordinate] * p), min_size=1, max_size=300)
    )

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(clouds)
    def check(cloud):
        assert pareto.pareto_filter(cloud) == brute_force_filter(cloud)

    check()


@pytest.mark.parametrize(
    "cloud",
    [
        [(1.0, 1.0), (np.nan, 0.0), (0.0, 0.0)],
        [(1.0, 1.0, 1.0), (0.0, np.nan, 2.0), (np.nan, 0.0, 0.0)],
    ],
)
def test_nan_coordinate_rejected(cloud):
    with pytest.raises(ValueError, match="point 1 "):
        pareto.pareto_filter(cloud)


def test_staircase_agrees_with_front_sweep():
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(1, 200))
        p = int(rng.integers(1, 4))
        desc = np.unique(np.asarray(_random_cloud(rng, n, p)), axis=0)[::-1]
        assert np.array_equal(pareto._staircase_sweep(desc), pareto._front_sweep(desc))


def test_large_three_criteria_cloud_keeps_exactly_the_surface():
    # half the points lie on the concave surface y2 = -(y0^2 + y1^2), on which
    # no point dominates another; the other half are surface points pushed
    # down by a nonnegative, nonzero shift, each dominated by its origin
    rng = np.random.default_rng(80000)
    half = 40000
    uv = rng.random((half, 2))
    surface = np.column_stack([uv, -(uv[:, 0] ** 2 + uv[:, 1] ** 2)])
    shift = rng.random((half, 3)) * 0.2
    shift[np.arange(half), rng.integers(3, size=half)] += 0.01
    shifted = surface[rng.integers(half, size=half)] - shift
    order = rng.permutation(2 * half)
    cloud = np.vstack([surface, shifted])[order]
    assert pareto.pareto_filter(cloud) == np.flatnonzero(order < half).tolist()


def test_filter_invariant_under_permutation():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 120))
        p = int(rng.integers(2, 4))
        cloud = _random_cloud(rng, n, p)
        base = set(pareto.pareto_filter(cloud))
        perm = rng.permutation(n)
        shuffled = [cloud[i] for i in perm]
        mapped = {int(perm[i]) for i in pareto.pareto_filter(shuffled)}
        assert mapped == base
