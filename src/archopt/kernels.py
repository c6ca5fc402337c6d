"""Numeric hot kernels in numpy: MVA recursions and Pareto dominance.

``dominates`` is the one dominance rule of the package; the sorting,
archive and hypervolume code in ``pareto`` and ``moea`` all build on it.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# Exact MVA, single closed class.
#
# Recursion over population n = 1..N with K processor-sharing stations:
#   R_k(n) = D_k * (1 + Q_k(n-1));  X(n) = n / (Z + sum_k R_k(n));
#   Q_k(n) = X(n) * R_k(n)
# Returns (X, R_total, per-station residence times, per-station queues).
# ---------------------------------------------------------------------------


def exact_mva(demands, think_time, population):
    q = np.zeros_like(demands)
    r = np.zeros_like(demands)
    x = 0.0
    r_total = 0.0
    for n in range(1, population + 1):
        r = demands * (1.0 + q)
        r_total = float(r.sum())
        x = n / (think_time + r_total)
        q = x * r
    return x, r_total, r, q


# ---------------------------------------------------------------------------
# Approximate MVA, multiclass (Bard-Schweitzer).
#
# Fixed point of
#   A_kj = sum_i Q_ki - Q_kj / N_j
#   R_kj = D_kj * (1 + A_kj);  X_j = N_j / (Z_j + sum_k R_kj);  Q_kj = X_j R_kj
# iterated (Jacobi updates) until max |dQ| < tol or max_iter is hit.
# Returns (X, per-class R, Q matrix, iterations, residual, converged flag).
# ---------------------------------------------------------------------------


def amva(demands, populations, think_times, tol, max_iter):
    n_stations, n_classes = demands.shape
    q = np.broadcast_to(populations / n_stations, (n_stations, n_classes)).copy()
    residual = 0.0
    for it in range(max_iter):
        arrival_q = q.sum(axis=1, keepdims=True) - q / populations
        r = demands * (1.0 + arrival_q)
        r_class = r.sum(axis=0)
        x = populations / (think_times + r_class)
        q_new = x * r
        residual = float(np.abs(q_new - q).max())
        q = q_new
        if residual < tol:
            return x, r_class, q, it + 1, residual, True
    return x, r_class, q, max_iter, residual, False


# ---------------------------------------------------------------------------
# Pareto dominance (minimization).
# ---------------------------------------------------------------------------


def dominates(a, b):
    """True where a is <= b in every objective and < in at least one.

    Broadcasts over leading axes: an (n, d) array against a (d,) point
    gives one answer per row."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return (a <= b).all(-1) & (a < b).any(-1)


def dominance_matrix(points):
    """dom[i, j] is True iff point i dominates point j."""
    return dominates(points[:, None, :], points[None, :, :])
