from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archopt.pareto import (
    crowding_distance,
    dominates,
    fast_nondominated_sort,
    hypervolume,
    nondominated_indices,
)


# -- oracles -------------------------------------------------------------------


def brute_force_fronts(points):
    """Peel fronts by direct pairwise dominance checks."""
    remaining = list(range(len(points)))
    fronts = []
    while remaining:
        front = [
            i
            for i in remaining
            if not any(dominates(points[j], points[i]) for j in remaining if j != i)
        ]
        fronts.append(front)
        remaining = [i for i in remaining if i not in front]
    return fronts


def hv_inclusion_exclusion(points, ref):
    """Union volume of boxes [p, ref] by inclusion-exclusion (n <= ~10)."""
    points = np.asarray(points, dtype=float)
    ref = np.asarray(ref, dtype=float)
    total = 0.0
    for r in range(1, len(points) + 1):
        for subset in combinations(range(len(points)), r):
            corner = points[list(subset)].max(axis=0)
            volume = np.prod(np.maximum(ref - corner, 0.0))
            total += (-1) ** (r + 1) * volume
    return total


# -- dominance / sorting ---------------------------------------------------------


def test_dominates_basics():
    assert dominates((1, 1), (2, 2))
    assert dominates((1, 2), (1, 3))
    assert not dominates((1, 1), (1, 1))
    assert not dominates((1, 3), (2, 1))
    rows = np.array([(1, 1), (1, 3), (2, 2), (3, 1), (2, 3)], dtype=float)
    point = (2, 2)
    assert dominates(rows, point).tolist() == [bool(dominates(row, point)) for row in rows]
    assert dominates(rows, point).tolist() == [True, False, False, False, False]
    assert dominates(point, rows).tolist() == [False, False, False, False, True]


def test_sort_three_point_chain():
    fronts = fast_nondominated_sort([(1, 1), (1, 2), (2, 2)])
    assert fronts == [[0], [1], [2]]


def test_sort_identical_points_single_front():
    fronts = fast_nondominated_sort([(1.0, 2.0)] * 5)
    assert fronts == [[0, 1, 2, 3, 4]]


def test_sort_single_point():
    assert fast_nondominated_sort([(3.0, 4.0)]) == [[0]]


def test_sort_matches_brute_force_on_random_sets():
    rng = np.random.default_rng(20)
    for _ in range(20):
        n = int(rng.integers(2, 120))
        d = int(rng.integers(2, 5))
        points = rng.integers(0, 6, size=(n, d)).astype(float)  # ties likely
        assert fast_nondominated_sort(points) == brute_force_fronts(points)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
        min_size=1,
        max_size=40,
    )
)
def test_first_front_is_nondominated(points):
    points = [tuple(float(v) for v in p) for p in points]
    front = fast_nondominated_sort(points)[0]
    for i in front:
        assert not any(dominates(points[j], points[i]) for j in range(len(points)) if j != i)
    assert sorted(nondominated_indices(points)) == sorted(front)


# -- crowding ---------------------------------------------------------------------


def test_crowding_extremes_are_infinite():
    points = [(0.0, 4.0), (1.0, 3.0), (2.0, 2.0), (4.0, 0.0)]
    crowd = crowding_distance(points)
    assert crowd[0] == np.inf and crowd[-1] == np.inf
    assert np.isfinite(crowd[1]) and np.isfinite(crowd[2])
    # interior: normalized cuboid side sums
    assert crowd[1] == pytest.approx((2 - 0) / 4 + (4 - 2) / 4)


def test_crowding_all_identical_marks_stable_extremes():
    crowd = crowding_distance([(1.0, 1.0)] * 4)
    assert crowd[0] == np.inf and crowd[-1] == np.inf
    assert crowd[1] == 0.0 and crowd[2] == 0.0


def test_crowding_single_and_pair():
    assert crowding_distance([(1.0, 2.0)])[0] == np.inf
    assert (crowding_distance([(1.0, 2.0), (2.0, 1.0)]) == np.inf).all()


# -- hypervolume -------------------------------------------------------------------


def test_hv_two_point_hand_example():
    assert hypervolume([(1.0, 2.0), (2.0, 1.0)], (3.0, 3.0)) == pytest.approx(3.0)


def test_hv_unit_box():
    assert hypervolume([(1.0, 1.0)], (2.0, 2.0)) == pytest.approx(1.0)


def test_hv_duplicates_do_not_double_count():
    pts = [(1.0, 2.0), (1.0, 2.0), (2.0, 1.0)]
    assert hypervolume(pts, (3.0, 3.0)) == pytest.approx(3.0)


def test_hv_rejects_nondominating_point():
    with pytest.raises(ValueError, match="does not dominate"):
        hypervolume([(1.0, 4.0)], (3.0, 3.0))


def test_hv_matches_inclusion_exclusion_2d():
    rng = np.random.default_rng(40)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        points = rng.uniform(0.0, 1.0, size=(n, 2))
        ref = np.array([1.1, 1.1])
        assert hypervolume(points, ref) == pytest.approx(hv_inclusion_exclusion(points, ref), abs=1e-9)


def test_hv_matches_inclusion_exclusion_3d_4d():
    rng = np.random.default_rng(41)
    for d in (3, 4):
        for _ in range(20):
            n = int(rng.integers(1, 8))
            points = rng.uniform(0.0, 1.0, size=(n, d))
            ref = np.full(d, 1.2)
            assert hypervolume(points, ref) == pytest.approx(hv_inclusion_exclusion(points, ref), abs=1e-9)


def test_hv_monotone_under_new_nondominated_points():
    rng = np.random.default_rng(42)
    for _ in range(30):
        points = rng.uniform(0.0, 1.0, size=(6, 3))
        ref = np.full(3, 1.5)
        base = hypervolume(points, ref)
        extra = rng.uniform(0.0, 1.0, size=3)
        grown = hypervolume(np.vstack([points, extra]), ref)
        assert grown >= base - 1e-12
