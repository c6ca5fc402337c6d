"""Performance antipattern detection on (architecture, performance) pairs.

Three crisp rules with relative thresholds:

* Blob: a component concentrating invocations on a saturated node.
* Concurrent Processing Systems: a saturated node next to an idle one.
* Pipe and Filter: one operation dominating a scenario's demand on a
  saturated node.

The count objective is the number of distinct (kind, element) detections:
``detect`` counts them from the rules' masks, and ``explain`` lists them
with their metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import Architecture
from .perfqn import PerformanceResult

BLOB = "blob"
CONCURRENT_PROCESSING = "concurrent_processing"
PIPE_AND_FILTER = "pipe_and_filter"


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


@dataclass(frozen=True)
class Detection:
    kind: str
    elements: tuple[str, ...]
    scenario: str | None
    metrics: tuple[tuple[str, float], ...]


class _Rules(NamedTuple):
    """Where each rule fires on one scored architecture, with the arrays
    ``explain`` reads its metrics from."""

    node_util: np.ndarray
    comp_util: np.ndarray  # utilization of each component's node
    op_util: np.ndarray  # utilization of each operation's node
    invocations: np.ndarray  # (component, scenario)
    mean_invocations: np.ndarray  # per scenario
    heavy: np.ndarray  # (component, scenario): invocations above the blob share
    blob: np.ndarray  # per component
    hot: np.ndarray  # per node: utilization at or above util_high
    idle: np.ndarray  # per node: utilization at or below util_low
    share: np.ndarray  # (operation, scenario): share of the scenario's demand
    dominant: np.ndarray  # (operation, scenario)
    pipe_and_filter: np.ndarray  # per operation


def _rules(arch: Architecture, perf: PerformanceResult, th: Thresholds) -> _Rules:
    view = arch.compiled
    util = {node_id: float(u) for node_id, u in zip(perf.station_ids, perf.utilization)}
    node_util = np.array([util[node.id] for node in view.nodes])
    comp_util = node_util[view.component_node]
    op_util = comp_util[view.operation_component]

    invocations, _ = view.routes
    mean_invocations = invocations.mean(axis=0)
    heavy = invocations > th.blob_share * mean_invocations

    # speed-independent demand of each step, summed per scenario and per
    # (operation, scenario) in step order
    step_demand = view.step_count * view.operation_demand[view.step_operation]
    total = view.per_scenario(np.zeros_like(view.step_operation), 1, step_demand)[0]
    own = view.per_scenario(view.step_operation, len(view.operations), step_demand)
    share = np.divide(own, total, out=np.zeros_like(own), where=total > 0.0)
    dominant = (total > 0.0) & (share >= th.paf_demand_share)

    return _Rules(
        node_util=node_util,
        comp_util=comp_util,
        op_util=op_util,
        invocations=invocations,
        mean_invocations=mean_invocations,
        heavy=heavy,
        blob=(comp_util >= th.util_high) & heavy.any(axis=1),
        hot=node_util >= th.util_high,
        idle=node_util <= th.util_low,
        share=share,
        dominant=dominant,
        pipe_and_filter=(op_util >= th.util_high) & dominant.any(axis=1),
    )


def detect(arch: Architecture, perf: PerformanceResult, thresholds: Thresholds | None = None) -> int:
    """The number of distinct (kind, element) detections, which is
    ``len(explain(...))`` without building them."""
    rules = _rules(arch, perf, thresholds or Thresholds())
    # a node pair fires when one node is hot and the other idle; util_low <
    # util_high, so no node is both and every hot-idle pair fires once
    pairs = int(np.count_nonzero(rules.hot)) * int(np.count_nonzero(rules.idle))
    return int(np.count_nonzero(rules.blob)) + pairs + int(np.count_nonzero(rules.pipe_and_filter))


def explain(arch: Architecture, perf: PerformanceResult, thresholds: Thresholds | None = None) -> list[Detection]:
    """All distinct (kind, element) detections with their metrics, in
    deterministic order."""
    rules = _rules(arch, perf, thresholds or Thresholds())
    view = arch.compiled
    detections: list[Detection] = []

    # one detection per component, at its first heavy scenario
    for i in np.flatnonzero(rules.blob):
        j = int(np.argmax(rules.heavy[i]))
        detections.append(
            Detection(
                kind=BLOB,
                elements=(view.components[i].id,),
                scenario=view.scenarios[j].id,
                metrics=(
                    ("invocations", float(rules.invocations[i, j])),
                    ("mean_invocations", float(rules.mean_invocations[j])),
                    ("node_utilization", float(rules.comp_util[i])),
                ),
            )
        )

    first, second = np.triu_indices(len(view.nodes), 1)
    fires = (rules.hot[first] & rules.idle[second]) | (rules.idle[first] & rules.hot[second])
    for p in np.flatnonzero(fires):
        pair = rules.node_util[[first[p], second[p]]]
        detections.append(
            Detection(
                kind=CONCURRENT_PROCESSING,
                elements=(view.nodes[first[p]].id, view.nodes[second[p]].id),
                scenario=None,
                metrics=(("utilization_high", float(pair.max())), ("utilization_low", float(pair.min()))),
            )
        )

    # one detection per operation, at its first dominated scenario
    for o in np.flatnonzero(rules.pipe_and_filter):
        j = int(np.argmax(rules.dominant[o]))
        detections.append(
            Detection(
                kind=PIPE_AND_FILTER,
                elements=(view.operations[o].id,),
                scenario=view.scenarios[j].id,
                metrics=(("demand_share", float(rules.share[o, j])), ("node_utilization", float(rules.op_util[o]))),
            )
        )

    return detections
