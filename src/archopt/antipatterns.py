"""Performance antipattern detection on a scored chunk and its queueing solution.

Three crisp rules with relative thresholds:

* Blob: a component concentrating invocations on a saturated node.
* Concurrent Processing Systems: a saturated node next to an idle one.
* Pipe and Filter: one operation dominating a scenario's demand on a
  saturated node.

The count objective is the number of distinct (kind, element) detections:
``detect`` counts them for every architecture of a scored chunk from the
rules' masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import CompiledChunk
from .perfqn import QnSolution


@dataclass(frozen=True)
class Thresholds:
    util_high: float = 0.8
    util_low: float = 0.3
    blob_share: float = 2.0  # multiple of the mean per-component invocations
    paf_demand_share: float = 0.5  # fraction of a scenario's total demand

    def __post_init__(self):
        if not 0.0 <= self.util_low < self.util_high <= 1.0:
            raise ValueError(f"need 0 <= util_low < util_high <= 1, got {self.util_low}, {self.util_high}")
        for name in ("blob_share", "paf_demand_share"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be a positive finite number, got {getattr(self, name)}")


class _Rules(NamedTuple):
    """Where each rule fires on a scored chunk, over its concatenated rows
    (see ``CompiledChunk``)."""

    blob: np.ndarray  # per component
    hot: np.ndarray  # per node: utilization at or above util_high
    idle: np.ndarray  # per node: utilization at or below util_low
    pipe_and_filter: np.ndarray  # per operation


def _rules(chunk: CompiledChunk, solution: QnSolution, th: Thresholds) -> _Rules:
    """The rules over a chunk, from its solution's utilization in the
    chunk's node rows, as ``to_qn`` numbers the stations; a failed fold's
    rows are zeros, so it counts as idle everywhere."""
    node_util = solution.utilization
    comp_util = node_util[chunk.component_node]
    op_util = comp_util[chunk.operation_component]

    # mean invocations per (architecture, scenario): each column summed in
    # component order, then divided by the component count, as mean(axis=0)
    invocations = chunk.invocations
    n_scen = chunk.n_scenarios
    comp_arch = chunk.owners(chunk.component_start)
    cells = (comp_arch[:, None] * n_scen + np.arange(n_scen)).ravel()
    sums = np.bincount(cells, weights=invocations.ravel(), minlength=len(chunk) * n_scen).reshape(-1, n_scen)
    mean_invocations = sums / np.diff(chunk.component_start)[:, None]
    heavy = invocations > (th.blob_share * mean_invocations)[comp_arch]

    # speed-independent demand of each step, summed per (architecture,
    # scenario) and per (operation, scenario) in step order; only an
    # operation on a node at or above util_high can fire, so its own sums
    # are built over those operations' steps alone
    step_demand = chunk.step_count * chunk.operation_demand[chunk.step_operation]
    total = np.bincount(chunk.step_scenario, weights=step_demand, minlength=len(chunk) * n_scen).reshape(-1, n_scen)
    hot_op = op_util >= th.util_high
    steps = np.flatnonzero(hot_op[chunk.step_operation])
    rank = np.cumsum(hot_op) - 1  # a hot operation's row among the hot ones
    own = chunk.scenario_sums(rank[chunk.step_operation[steps]], int(hot_op.sum()), step_demand, steps)
    total = total[chunk.owners(chunk.operation_start)[hot_op]]
    share = np.divide(own, total, out=np.zeros(own.shape), where=total > 0.0)
    pipe_and_filter = np.zeros_like(hot_op)
    pipe_and_filter[hot_op] = ((total > 0.0) & (share >= th.paf_demand_share)).any(axis=1)

    return _Rules(
        blob=(comp_util >= th.util_high) & heavy.any(axis=1),
        hot=node_util >= th.util_high,
        idle=node_util <= th.util_low,
        pipe_and_filter=pipe_and_filter,
    )


def detect(chunk: CompiledChunk, solution: QnSolution, thresholds: Thresholds | None = None) -> list[int | None]:
    """Per architecture of the chunk, the number of distinct (kind, element)
    detections; None where its solve failed."""
    rules = _rules(chunk, solution, thresholds or Thresholds())
    size = len(chunk)

    def fired(mask, start):
        return np.bincount(chunk.owners(start)[mask], minlength=size)

    # a node pair fires when one node is hot and the other idle; util_low <
    # util_high, so no node is both and every hot-idle pair fires once
    pairs = fired(rules.hot, chunk.node_start) * fired(rules.idle, chunk.node_start)
    counts = fired(rules.blob, chunk.component_start) + pairs + fired(rules.pipe_and_filter, chunk.operation_start)
    return [count if failure is None else None for count, failure in zip(counts.tolist(), solution.failures)]
