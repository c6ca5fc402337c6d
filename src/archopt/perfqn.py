"""Closed multiclass queueing model over processor nodes.

One job class per usage scenario, one processor-sharing station per node;
multi-core nodes are approximated by rate scaling (demand / cores).
The search solves every model with Bard-Schweitzer approximate MVA:
``solve_amva_many`` solves a chunk of models in stacked kernel calls and
returns each model's result or failure, and ``solve_amva`` is a batch of
one that raises.  Exact MVA (single class only) is the tests' reference
for it.
"""

from __future__ import annotations

from collections.abc import Sequence
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
    station_ids: tuple[str, ...]
    class_ids: tuple[str, ...]
    demands: np.ndarray  # (stations, classes) seconds, rate-scaled by cores
    populations: np.ndarray  # (classes,) integer >= 1
    think_times: np.ndarray  # (classes,) seconds >= 0


@dataclass(frozen=True, eq=False)
class PerformanceResult:
    station_ids: tuple[str, ...]
    class_ids: tuple[str, ...]
    throughput: np.ndarray  # X_j, 1/s
    response_time: np.ndarray  # R_j, s
    utilization: np.ndarray  # U_k in [0, 1 + eps]
    delay_only: tuple[str, ...] = ()  # classes with zero total demand
    iterations: int = 0


def to_qn(chunk: CompiledChunk) -> list[QnModel]:
    """Map each fold of a chunk onto the closed queueing model; a model's
    matrices are row slices of the chunk's."""
    demands = chunk.demands / chunk.node_cores[:, None]
    rows = chunk.node_start
    return [
        QnModel(
            station_ids=chunk.station_ids[b],
            class_ids=fold.root.scenario_ids,
            demands=demands[rows[b] : rows[b + 1]],
            populations=chunk.populations[b],
            think_times=chunk.think_times[b],
        )
        for b, fold in enumerate(chunk.folds)
    ]


def _split_delay_classes(qn: QnModel) -> tuple[np.ndarray, np.ndarray]:
    """Indices of contending vs pure-delay (zero total demand) classes."""
    totals = qn.demands.sum(axis=0)
    delay = np.where(totals == 0.0)[0]
    busy = np.where(totals > 0.0)[0]
    for j in delay:
        if qn.think_times[j] <= 0.0:
            raise ValueError(
                f"class '{qn.class_ids[j]}' has zero demand and zero think time; throughput is unbounded"
            )
    return busy, delay


def solve_exact_mva(qn: QnModel) -> PerformanceResult:
    """Exact MVA recursion; single-class models only."""
    n_classes = len(qn.class_ids)
    if n_classes != 1:
        raise ValueError(f"exact MVA handles exactly one class, got {n_classes}; use AMVA (solve_amva)")
    population = int(qn.populations[0])
    if population > EXACT_MVA_MAX_POPULATION:
        raise ValueError(f"population {population} exceeds exact MVA limit {EXACT_MVA_MAX_POPULATION}")

    busy, delay = _split_delay_classes(qn)
    if len(delay) == 1:
        x = np.array([population / qn.think_times[0]])
        return PerformanceResult(
            station_ids=qn.station_ids,
            class_ids=qn.class_ids,
            throughput=x,
            response_time=np.zeros(1),
            utilization=np.zeros(len(qn.station_ids)),
            delay_only=qn.class_ids,
        )

    x, r_total = kernels.exact_mva(
        np.ascontiguousarray(qn.demands[:, 0]), float(qn.think_times[0]), population
    )
    throughput = np.array([x])
    return PerformanceResult(
        station_ids=qn.station_ids,
        class_ids=qn.class_ids,
        throughput=throughput,
        response_time=np.array([r_total]),
        utilization=qn.demands[:, 0] * x,
    )


def solve_amva_many(qns: Sequence[QnModel]) -> list[PerformanceResult | SolverError | ValueError]:
    """Bard-Schweitzer approximate MVA of many models, for any number of
    classes.  Returns, per model in order, its result, a SolverError when
    the iteration does not converge, or a ValueError when a class has
    neither demand nor think time.  Models with the same number of
    contending classes are solved in one stacked kernel call (one-class
    models only with the same station count, see ``kernels.amva``)."""
    splits: list[tuple[np.ndarray, np.ndarray] | ValueError] = []
    groups: dict[tuple[int, int], list[int]] = {}  # model indices per stack
    for i, qn in enumerate(qns):
        try:
            busy, delay = _split_delay_classes(qn)
        except ValueError as exc:
            splits.append(exc)
            continue
        splits.append((busy, delay))
        if len(busy):
            groups.setdefault((len(busy), len(qn.station_ids) if len(busy) == 1 else 0), []).append(i)

    solutions: dict[int, tuple] = {}
    for (n_busy, _), members in groups.items():
        busy = [splits[i][0] for i in members]
        n_stations = np.array([len(qns[i].station_ids) for i in members])
        demands = np.zeros((len(members), n_stations.max(), n_busy))
        for b, (i, cols) in enumerate(zip(members, busy)):
            demands[b, : n_stations[b]] = qns[i].demands[:, cols]
        populations = np.array([qns[i].populations[cols] for i, cols in zip(members, busy)])
        think_times = np.array([qns[i].think_times[cols] for i, cols in zip(members, busy)])
        x, r_class, iterations, residual, converged = kernels.amva(
            demands, populations, think_times, n_stations, AMVA_TOL, AMVA_MAX_ITER
        )
        for b, i in enumerate(members):
            solutions[i] = (x[b], r_class[b], iterations[b], residual[b], converged[b])

    return [
        split if isinstance(split, ValueError) else _amva_result(qn, *split, solutions.get(i))
        for i, (qn, split) in enumerate(zip(qns, splits))
    ]


def _amva_result(qn: QnModel, busy: np.ndarray, delay: np.ndarray, solution: tuple | None) -> PerformanceResult | SolverError:
    """One model's result from its kernel solution (None: no contending class)."""
    n_classes = len(qn.class_ids)
    throughput = np.zeros(n_classes)
    response = np.zeros(n_classes)
    iterations = 0

    if solution is not None:
        x, r_class, iterations, residual, converged = solution
        if not converged:
            return SolverError(
                f"AMVA did not converge within {AMVA_MAX_ITER} iterations (residual {residual:.3e})",
                residual=float(residual),
            )
        throughput[busy] = x
        response[busy] = r_class
    for j in delay:
        throughput[j] = qn.populations[j] / qn.think_times[j]

    utilization = qn.demands @ throughput
    return PerformanceResult(
        station_ids=qn.station_ids,
        class_ids=qn.class_ids,
        throughput=throughput,
        response_time=response,
        utilization=utilization,
        delay_only=tuple(qn.class_ids[j] for j in delay),
        iterations=int(iterations),
    )


def solve_amva(qn: QnModel) -> PerformanceResult:
    """Bard-Schweitzer approximate MVA of one model: ``solve_amva_many`` of
    a batch of one, raising the model's SolverError or ValueError."""
    (result,) = solve_amva_many([qn])
    if isinstance(result, Exception):
        raise result
    return result


def perfq(initial: PerformanceResult, refactored: PerformanceResult) -> float:
    """Mean relative response-time change, sign-adjusted so improvement is
    positive; each scenario contributes equally and a term is 0 when both
    response times are 0."""
    if initial.class_ids != refactored.class_ids:
        raise ValueError(
            f"scenario sets differ: {initial.class_ids} vs {refactored.class_ids}"
        )
    terms = []
    for before, after in zip(initial.response_time, refactored.response_time):
        denom = after + before
        terms.append(0.0 if denom == 0.0 else (before - after) / denom)
    return sum(terms) / len(terms)
