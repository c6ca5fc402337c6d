"""Closed multiclass queueing model over processor nodes.

One job class per usage scenario, one processor-sharing station per node;
multi-core nodes are approximated by rate scaling (demand / cores).
The search solves every model with Bard-Schweitzer approximate MVA;
exact MVA (single class only) is the tests' reference for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .model import Architecture, demand_matrix

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
    queue_length: np.ndarray  # (stations, classes)
    delay_only: tuple[str, ...] = ()  # classes with zero total demand
    iterations: int = 0
    residual: float = 0.0


def to_qn(arch: Architecture) -> QnModel:
    """Map a validated architecture onto the closed queueing model."""
    demands = demand_matrix(arch)
    cores = np.array([n.cores for n in arch.nodes], dtype=float)
    return QnModel(
        station_ids=tuple(n.id for n in arch.nodes),
        class_ids=tuple(s.id for s in arch.scenarios),
        demands=demands / cores[:, None],
        populations=np.array([s.population for s in arch.scenarios], dtype=float),
        think_times=np.array([s.think_time for s in arch.scenarios], dtype=float),
    )


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
            queue_length=np.zeros_like(qn.demands),
            delay_only=qn.class_ids,
        )

    x, r_total, _, q = kernels.exact_mva(
        np.ascontiguousarray(qn.demands[:, 0]), float(qn.think_times[0]), population
    )
    throughput = np.array([x])
    return PerformanceResult(
        station_ids=qn.station_ids,
        class_ids=qn.class_ids,
        throughput=throughput,
        response_time=np.array([r_total]),
        utilization=qn.demands[:, 0] * x,
        queue_length=q.reshape(-1, 1),
    )


def solve_amva(qn: QnModel) -> PerformanceResult:
    """Bard-Schweitzer approximate MVA for any number of classes."""
    n_stations = len(qn.station_ids)
    n_classes = len(qn.class_ids)
    busy, delay = _split_delay_classes(qn)

    throughput = np.zeros(n_classes)
    response = np.zeros(n_classes)
    queue = np.zeros((n_stations, n_classes))
    iterations = 0
    residual = 0.0

    if len(busy):
        demands = np.ascontiguousarray(qn.demands[:, busy])
        x, r_class, q, iterations, residual, converged = kernels.amva(
            demands, qn.populations[busy], qn.think_times[busy], AMVA_TOL, AMVA_MAX_ITER
        )
        if not converged:
            raise SolverError(
                f"AMVA did not converge within {AMVA_MAX_ITER} iterations (residual {residual:.3e})",
                residual=float(residual),
            )
        throughput[busy] = x
        response[busy] = r_class
        queue[:, busy] = q
    for j in delay:
        throughput[j] = qn.populations[j] / qn.think_times[j]

    utilization = qn.demands @ throughput
    return PerformanceResult(
        station_ids=qn.station_ids,
        class_ids=qn.class_ids,
        throughput=throughput,
        response_time=response,
        utilization=utilization,
        queue_length=queue,
        delay_only=tuple(qn.class_ids[j] for j in delay),
        iterations=int(iterations),
        residual=float(residual),
    )


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
