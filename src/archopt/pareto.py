"""Pareto dominance machinery: non-dominated sorting, crowding distance,
and exact hypervolume.  All objectives are minimized.  A sort given a
budget check ``spent`` raises ``kernels.BudgetSpent`` once it is spent."""

from __future__ import annotations

import numpy as np

from . import kernels
from .kernels import dominates


def fast_nondominated_sort(points, spent=None) -> list[list[int]]:
    """Partition point indices into fronts F1, F2, ... by Pareto rank,
    checking ``spent()`` between blocks of the dominance matrix and between
    fronts."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if n == 0:
        return []
    dom = kernels.dominance_matrix(points, spent)
    counts = dom.sum(axis=0).astype(np.int64)  # how many points dominate each
    fronts: list[list[int]] = []
    assigned = np.zeros(n, dtype=bool)
    current = np.where(counts == 0)[0]
    while current.size:
        if spent is not None and spent():
            raise kernels.BudgetSpent
        fronts.append([int(i) for i in current])
        assigned[current] = True
        counts = counts - dom[current].sum(axis=0)
        current = np.where((counts == 0) & ~assigned)[0]
    return fronts


def nondominated_indices(points) -> list[int]:
    """Indices of the first front (members dominated by nothing)."""
    points = np.asarray(points, dtype=float)
    if points.shape[0] == 0:
        return []
    dom = kernels.dominance_matrix(points)
    return [int(i) for i in np.where(~dom.any(axis=0))[0]]


def crowding_distance(front_points) -> np.ndarray:
    """NSGA-II crowding: +inf at each objective's extremes (stable sort
    order breaks ties), normalized cuboid side sums elsewhere."""
    points = np.asarray(front_points, dtype=float)
    n, dim = points.shape
    distance = np.zeros(n)
    if n <= 2:
        distance[:] = np.inf
        return distance
    for m in range(dim):
        order = np.argsort(points[:, m], kind="stable")
        values = points[order, m]
        distance[order[0]] = np.inf
        distance[order[-1]] = np.inf
        span = values[-1] - values[0]
        if span > 0 and np.isfinite(span):
            interior = order[1:-1]
            gaps = (values[2:] - values[:-2]) / span
            distance[interior] = distance[interior] + gaps
    return distance


# ---------------------------------------------------------------------------
# Hypervolume (exact, recursive dimension sweep)
# ---------------------------------------------------------------------------


def _filter_nondominated(points: np.ndarray) -> np.ndarray:
    points = np.unique(points, axis=0)
    if points.shape[0] <= 1:
        return points
    keep = nondominated_indices(points)
    return points[keep]

def _staircase_area(points: np.ndarray, ref: np.ndarray) -> float:
    # 2-D base case: points sorted by x, strictly decreasing in y after
    # the non-dominated filter.
    order = np.argsort(points[:, 0], kind="stable")
    pts = points[order]
    area = 0.0
    prev_y = ref[1]
    for x, y in pts:
        area += (ref[0] - x) * (prev_y - y)
        prev_y = y
    return area


def _hv_sweep(points: np.ndarray, ref: np.ndarray) -> float:
    points = _filter_nondominated(points)
    if points.shape[0] == 0:
        return 0.0
    dim = points.shape[1]
    if dim == 1:
        return float(ref[0] - points[:, 0].min())
    if dim == 2:
        return _staircase_area(points, ref)
    order = np.argsort(points[:, -1], kind="stable")
    pts = points[order]
    boundaries = np.append(pts[1:, -1], ref[-1])
    volume = 0.0
    for i in range(pts.shape[0]):
        depth = boundaries[i] - pts[i, -1]
        if depth > 0.0:
            volume += depth * _hv_sweep(pts[: i + 1, :-1], ref[:-1])
    return volume


def hypervolume(points, reference_point) -> float:
    """Exact hypervolume of the region dominated by ``points`` and bounded
    by ``reference_point`` (minimization).  Every point must dominate the
    reference point."""
    points = np.asarray(points, dtype=float)
    ref = np.asarray(reference_point, dtype=float)
    if points.size == 0:
        return 0.0
    points = np.atleast_2d(points)
    if points.shape[1] != ref.shape[0]:
        raise ValueError(f"points have {points.shape[1]} objectives, reference has {ref.shape[0]}")
    outside = ~dominates(points, ref)
    if outside.any():
        row = points[outside.argmax()]
        raise ValueError(f"point {row.tolist()} does not dominate reference {ref.tolist()}")
    return float(_hv_sweep(points, ref))
