"""Numeric hot kernels in numpy: MVA recursions and Pareto dominance.

``amva`` is the one approximate-MVA kernel: it solves a stack of queueing
models at once, and a single model is a stack of one.

``dominates`` is the one dominance rule of the package, and
``dominance_matrix`` applies it to every pair of a point set; the sorting,
archive and hypervolume code in ``pareto`` and ``moea`` all build on them.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# Exact MVA, single closed class.
#
# Recursion over population n = 1..N with K processor-sharing stations:
#   R_k(n) = D_k * (1 + Q_k(n-1));  X(n) = n / (Z + sum_k R_k(n));
#   Q_k(n) = X(n) * R_k(n)
# Returns (X, R_total) at population N.
# ---------------------------------------------------------------------------


def exact_mva(demands, think_time, population):
    q = np.zeros(np.shape(demands))
    x = 0.0
    r_total = 0.0
    for n in range(1, population + 1):
        r = demands * (1.0 + q)
        r_total = float(r.sum())
        x = n / (think_time + r_total)
        q = x * r
    return x, r_total


# ---------------------------------------------------------------------------
# Approximate MVA, multiclass (Bard-Schweitzer), over a stack of models.
#
# Fixed point of
#   A_kj = sum_i Q_ki - Q_kj / N_j
#   R_kj = D_kj * (1 + A_kj);  X_j = N_j / (Z_j + sum_k R_kj);  Q_kj = X_j R_kj
# iterated (Jacobi updates) until max |dQ| < tol or max_iter is hit.
#
# Model b has n_stations[b] stations; the rows past them are zero-demand
# padding whose queues stay 0, so they add exact zeros, last, to each
# station sum and 0 to the residual.  A model's results are frozen at the
# iteration it converges in and it leaves the stack; the loop ends when
# the stack is empty or at max_iter.  Never pad classes, and stack a
# one-class model only with models of its own station count: numpy sums
# a contiguous axis pairwise, so zeros there would regroup the sum.
# Returns per model (X, per-class R, iterations, residual, converged); the
# residual is the last max |dQ|, read when a model does not converge.
# ---------------------------------------------------------------------------


def amva(demands, populations, think_times, n_stations, tol, max_iter):
    n_models, max_stations, n_classes = demands.shape
    present = np.arange(max_stations)[None, :, None] < n_stations[:, None, None]
    q = np.where(present, populations[:, None, :] / n_stations[:, None, None], 0.0)
    x_out = np.zeros((n_models, n_classes))
    r_out = np.zeros((n_models, n_classes))
    iterations = np.full(n_models, max_iter)
    residual = np.zeros(n_models)
    converged = np.zeros(n_models, dtype=bool)
    active = np.arange(n_models)
    class_populations = populations[:, None, :]
    for it in range(max_iter):
        arrival_q = q.sum(axis=2, keepdims=True) - q / class_populations
        r = demands * (1.0 + arrival_q)
        r_class = r.sum(axis=1)
        x = populations / (think_times + r_class)
        q_new = x[:, None, :] * r
        step = np.abs(q_new - q).max(axis=(1, 2))
        q = q_new
        done = step < tol
        leaving = done if it < max_iter - 1 else np.ones(done.shape, dtype=bool)
        if not leaving.any():
            continue
        models = active[leaving]
        x_out[models] = x[leaving]
        r_out[models] = r_class[leaving]
        residual[models] = step[leaving]
        converged[models] = done[leaving]
        iterations[models[done[leaving]]] = it + 1
        stay = ~leaving
        active, q, demands = active[stay], q[stay], demands[stay]
        populations, think_times, class_populations = populations[stay], think_times[stay], class_populations[stay]
        if not active.size:
            break
    return x_out, r_out, iterations, residual, converged


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


# Rows of an (n, n) matrix built at once: the temporaries of the dominance
# matrix, and of SPEA2's distances, stay near this many rows, so their
# memory grows as n, not n^2.
BLOCK_ROWS = 256


def dominance_matrix(points, spent=None):
    """dom[i, j] is True iff points[i] dominates points[j].  Built in
    blocks of ``BLOCK_ROWS`` rows, one objective at a time, so no temporary
    is larger than a block; None once ``spent()`` is true between blocks."""
    points = np.asarray(points, dtype=float)
    n = len(points)
    dom = np.empty((n, n), dtype=bool)
    for start in range(0, n, BLOCK_ROWS):
        if spent is not None and spent():
            return None
        block = points[start : start + BLOCK_ROWS]
        no_worse = np.ones((len(block), n), dtype=bool)
        better = np.zeros((len(block), n), dtype=bool)
        for a, b in zip(block.T, points.T):
            no_worse &= a[:, None] <= b[None, :]
            better |= a[:, None] < b[None, :]
        np.logical_and(no_worse, better, out=dom[start : start + BLOCK_ROWS])
    return dom
