"""Closed multiclass queueing models over processor nodes, solved a batch at a time.

One job class per usage scenario, one processor-sharing station per node;
multi-core nodes are approximated by rate scaling (demand / cores).
``to_qn`` maps a compiled chunk onto one ``QnModel``, a batch of one model
per fold: fold b's stations are rows ``node_start[b]:node_start[b + 1]``,
as in the chunk.  The search solves every batch with Bard-Schweitzer
approximate MVA: ``solve_amva_many`` returns one ``QnSolution`` of
batch-wide arrays with each fold's failure in its place, and ``solve_amva``
is the one-model view, a batch of one that raises.  Exact MVA (single
class only) is the tests' reference for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .model import CompiledChunk

AMVA_TOL = 1e-6
AMVA_MAX_ITER = 100_000
EXACT_MVA_MAX_POPULATION = 10_000


class SolverError(RuntimeError):
    """The fixed-point iteration did not converge."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True, eq=False)
class QnModel:
    """Closed models of one class count, one per fold; fold b's stations
    are rows ``node_start[b]:node_start[b + 1]`` of ``demands``."""

    station_ids: list[tuple[str, ...]]  # per fold
    class_ids: tuple[str, ...]
    demands: np.ndarray  # (stations of every fold, classes) seconds, rate-scaled by cores
    node_start: np.ndarray  # (folds + 1,)
    populations: np.ndarray  # (folds, classes) integer >= 1
    think_times: np.ndarray  # (folds, classes) seconds >= 0


@dataclass(frozen=True, eq=False)
class QnSolution:
    """The solution of a ``QnModel`` batch, in its rows; a failed fold's
    throughput, response time and utilization rows are zeros."""

    throughput: np.ndarray  # (folds, classes) X_j, 1/s
    response_time: np.ndarray  # (folds, classes) R_j, s
    utilization: np.ndarray  # (stations of every fold,) U_k in [0, 1 + eps]
    delay: np.ndarray  # (folds, classes) True for a class with zero total demand
    iterations: np.ndarray  # (folds,) AMVA iterations; 0 with no contending class
    failures: list[SolverError | ValueError | None]  # per fold


@dataclass(frozen=True, eq=False)
class PerformanceResult:
    """One model's solution: what ``solve_amva`` and ``solve_exact_mva`` return."""

    station_ids: tuple[str, ...]
    class_ids: tuple[str, ...]
    throughput: np.ndarray  # X_j, 1/s
    response_time: np.ndarray  # R_j, s
    utilization: np.ndarray  # U_k in [0, 1 + eps]
    delay_only: tuple[str, ...] = ()  # classes with zero total demand
    iterations: int = 0


def to_qn(chunk: CompiledChunk) -> QnModel:
    """The closed queueing models of a chunk's folds, as one batch in the
    chunk's node rows.  The class ids are those of the first fold's root;
    a chunk's folds share one scenario count."""
    return QnModel(
        station_ids=chunk.station_ids,
        class_ids=chunk.folds[0].root.scenario_ids,
        demands=chunk.demands / chunk.node_cores[:, None],
        node_start=np.asarray(chunk.node_start),
        populations=chunk.populations,
        think_times=chunk.think_times,
    )


def _unbounded(class_id: str) -> ValueError:
    return ValueError(f"class '{class_id}' has zero demand and zero think time; throughput is unbounded")


def solve_exact_mva(qn: QnModel) -> PerformanceResult:
    """Exact MVA recursion of a batch of one single-class model."""
    n_classes = len(qn.class_ids)
    if n_classes != 1:
        raise ValueError(f"exact MVA handles exactly one class, got {n_classes}; use AMVA (solve_amva)")
    population = int(qn.populations[0, 0])
    if population > EXACT_MVA_MAX_POPULATION:
        raise ValueError(f"population {population} exceeds exact MVA limit {EXACT_MVA_MAX_POPULATION}")
    demands = qn.demands[:, 0]
    think_time = float(qn.think_times[0, 0])
    delay = not demands.any()
    if delay and think_time <= 0.0:
        raise _unbounded(qn.class_ids[0])
    x, r_total = kernels.exact_mva(np.ascontiguousarray(demands), think_time, population)
    return PerformanceResult(
        station_ids=qn.station_ids[0],
        class_ids=qn.class_ids,
        throughput=np.array([x]),
        response_time=np.array([r_total]),
        utilization=demands * x,
        delay_only=qn.class_ids if delay else (),
    )


def solve_amva_many(qn: QnModel) -> QnSolution:
    """Bard-Schweitzer approximate MVA of a batch, for any number of
    classes.  A fold fails alone, in its place: with a SolverError when the
    iteration does not converge, or a ValueError when a class has neither
    demand nor think time.  Folds with the same number of contending
    classes are solved in one stacked kernel call (one-class folds only
    with the same station count, see ``kernels.amva``)."""
    demands, node_start, populations, think_times = qn.demands, qn.node_start, qn.populations, qn.think_times
    n_stations = np.diff(node_start)
    # demands are >= 0, so any order of summing tells zero from nonzero
    delay = np.add.reduceat(demands, node_start[:-1]) == 0.0
    unbounded = delay & (think_times <= 0.0)
    failures: list[SolverError | ValueError | None] = [
        _unbounded(qn.class_ids[np.argmax(classes)]) if classes.any() else None for classes in unbounded
    ]
    throughput = np.divide(populations, think_times, out=np.zeros(populations.shape), where=delay & ~unbounded)
    response = np.zeros(populations.shape)
    iterations = np.zeros(len(populations), dtype=int)

    # one stack per contending-class count, and a one-class stack per
    # station count (keyed by its negative)
    n_busy = (~delay).sum(axis=1)
    stack_of = np.where(n_busy == 1, -n_stations, n_busy)
    solvable = (n_busy > 0) & ~unbounded.any(axis=1)
    for stack in sorted(set(stack_of[solvable].tolist())):  # not np.unique: its first call imports numpy.ma
        members = np.flatnonzero(solvable & (stack_of == stack))
        busy = np.nonzero(~delay[members])[1].reshape(len(members), -1)  # each member's contending classes
        cells = (members[:, None], busy)
        sizes = n_stations[members]
        present = np.arange(sizes.max()) < sizes[:, None]
        station_rows = np.where(present, node_start[members, None] + np.arange(sizes.max()), 0)
        stacked = np.where(present[:, :, None], demands[station_rows[:, :, None], busy[:, None, :]], 0.0)
        x, r_class, used, residual, converged = kernels.amva(
            stacked, populations[cells], think_times[cells], sizes, AMVA_TOL, AMVA_MAX_ITER
        )
        throughput[cells], response[cells], iterations[members] = x, r_class, used
        for b, last in zip(members[~converged], residual[~converged]):
            failures[b] = SolverError(
                f"AMVA did not converge within {AMVA_MAX_ITER} iterations (residual {last:.3e})",
                residual=float(last),
            )

    utilization = np.zeros(len(demands))
    for b, failure in enumerate(failures):
        if failure is None:
            rows = slice(node_start[b], node_start[b + 1])
            utilization[rows] = demands[rows] @ throughput[b]
        else:
            throughput[b] = response[b] = 0.0
    return QnSolution(throughput, response, utilization, delay, iterations, failures)


def solve_amva(qn: QnModel) -> PerformanceResult:
    """Bard-Schweitzer approximate MVA of one model: ``solve_amva_many`` of
    a batch of one, raising its SolverError or ValueError."""
    solution = solve_amva_many(qn)
    (failure,) = solution.failures
    if failure is not None:
        raise failure
    return PerformanceResult(
        station_ids=qn.station_ids[0],
        class_ids=qn.class_ids,
        throughput=solution.throughput[0],
        response_time=solution.response_time[0],
        utilization=solution.utilization,
        delay_only=tuple(c for c, zero in zip(qn.class_ids, solution.delay[0]) if zero),
        iterations=int(solution.iterations[0]),
    )


def perfq(initial: np.ndarray, refactored: np.ndarray) -> np.ndarray:
    """Mean relative response-time change of each row of ``refactored``
    against the ``initial`` response times, sign-adjusted so improvement is
    positive; each scenario contributes equally and a term is 0 when both
    response times are 0.  The terms are added one scenario at a time from
    0.0, in the order Python's ``sum`` adds them."""
    initial, refactored = np.asarray(initial, float), np.asarray(refactored, float)
    if refactored.shape[-1:] != initial.shape:
        raise ValueError(f"scenario sets differ: {initial.shape} vs {refactored.shape[-1:]} response times")
    total = np.zeros(refactored.shape[:-1])
    for before, after in zip(initial, np.moveaxis(refactored, -1, 0)):
        denom = after + before
        total += np.divide(before - after, denom, out=np.zeros(denom.shape), where=denom != 0.0)
    return total / len(initial)
