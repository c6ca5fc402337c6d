"""Performance antipattern detection on (architecture, performance) pairs.

Three crisp rules with relative thresholds:

* Blob: a component concentrating invocations on a saturated node.
* Concurrent Processing Systems: a saturated node next to an idle one.
* Pipe and Filter: one operation dominating a scenario's demand on a
  saturated node.

The count objective is the number of distinct (kind, element) detections.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        if self.blob_share <= 0.0 or self.paf_demand_share <= 0.0:
            raise ValueError("share thresholds must be > 0")


@dataclass(frozen=True)
class Detection:
    kind: str
    elements: tuple[str, ...]
    scenario: str | None
    metrics: tuple[tuple[str, float], ...]


def detect(arch: Architecture, perf: PerformanceResult, thresholds: Thresholds | None = None) -> list[Detection]:
    """All distinct (kind, element) detections, in deterministic order."""
    th = thresholds or Thresholds()
    view = arch.compiled
    util = {node_id: float(u) for node_id, u in zip(perf.station_ids, perf.utilization)}
    node_util = np.array([util[node.id] for node in view.nodes])
    detections: list[Detection] = []

    invocations, _ = view.routes
    mean_invocations = invocations.mean(axis=0)  # per scenario
    comp_util = node_util[view.component_node]
    heavy = invocations > th.blob_share * mean_invocations
    # one detection per component, at its first heavy scenario
    for i in np.flatnonzero((comp_util >= th.util_high) & heavy.any(axis=1)):
        j = int(np.argmax(heavy[i]))
        detections.append(
            Detection(
                kind=BLOB,
                elements=(view.components[i].id,),
                scenario=view.scenarios[j].id,
                metrics=(
                    ("invocations", float(invocations[i, j])),
                    ("mean_invocations", float(mean_invocations[j])),
                    ("node_utilization", float(comp_util[i])),
                ),
            )
        )

    first, second = np.triu_indices(len(view.nodes), 1)
    high = np.maximum(node_util[first], node_util[second])
    low = np.minimum(node_util[first], node_util[second])
    for p in np.flatnonzero((high >= th.util_high) & (low <= th.util_low)):
        detections.append(
            Detection(
                kind=CONCURRENT_PROCESSING,
                elements=(view.nodes[first[p]].id, view.nodes[second[p]].id),
                scenario=None,
                metrics=(("utilization_high", float(high[p])), ("utilization_low", float(low[p]))),
            )
        )

    # speed-independent demand of each step, summed per scenario and per
    # (operation, scenario) in step order
    step_demand = view.step_count * view.operation_demand[view.step_operation]
    total = view.per_scenario(np.zeros_like(view.step_operation), 1, step_demand)[0]
    own = view.per_scenario(view.step_operation, len(view.operations), step_demand)
    share = np.divide(own, total, out=np.zeros_like(own), where=total > 0.0)
    dominant = (total > 0.0) & (share >= th.paf_demand_share)
    op_util = comp_util[view.operation_component]
    # one detection per operation, at its first dominated scenario
    for o in np.flatnonzero((op_util >= th.util_high) & dominant.any(axis=1)):
        j = int(np.argmax(dominant[o]))
        detections.append(
            Detection(
                kind=PIPE_AND_FILTER,
                elements=(view.operations[o].id,),
                scenario=view.scenarios[j].id,
                metrics=(("demand_share", float(share[o, j])), ("node_utilization", float(op_util[o]))),
            )
        )

    return detections
