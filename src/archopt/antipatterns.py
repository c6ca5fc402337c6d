"""Performance antipattern detection on (architecture, performance) pairs.

Three crisp rules with relative thresholds:

* Blob: a component concentrating invocations on a saturated node.
* Concurrent Processing Systems: a saturated node next to an idle one.
* Pipe and Filter: one operation dominating a scenario's demand on a
  saturated node.

The count objective is the number of distinct (kind, element) detections:
``detect`` counts them for every architecture of a scored chunk from the
rules' masks, and ``explain`` lists them for one architecture with their
metrics.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import Architecture, CompiledChunk
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
    """Where each rule fires on a scored chunk, over its concatenated rows
    (see ``CompiledChunk``), with the arrays ``explain`` reads its metrics
    from."""

    node_util: np.ndarray
    comp_util: np.ndarray  # utilization of each component's node
    op_util: np.ndarray  # utilization of each operation's node
    invocations: np.ndarray  # (component, scenario)
    mean_invocations: np.ndarray  # (architecture, scenario)
    heavy: np.ndarray  # (component, scenario): invocations above the blob share
    blob: np.ndarray  # per component
    hot: np.ndarray  # per node: utilization at or above util_high
    idle: np.ndarray  # per node: utilization at or below util_low
    share: np.ndarray  # (operation, scenario): share of the scenario's demand
    dominant: np.ndarray  # (operation, scenario)
    pipe_and_filter: np.ndarray  # per operation


def _rules(chunk: CompiledChunk, perfs: Sequence[PerformanceResult | Exception], th: Thresholds) -> _Rules:
    """The rules over a chunk.  Each performance result lists utilization in
    its architecture's node order, as ``to_qn`` numbers the stations; an
    architecture whose entry is a failure counts as idle everywhere."""
    nodes = np.diff(chunk.node_start)
    node_util = np.concatenate(
        [perf.utilization if isinstance(perf, PerformanceResult) else np.zeros(n) for perf, n in zip(perfs, nodes)]
    )
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
    # scenario) and per (operation, scenario) in step order
    step_demand = chunk.step_count * chunk.operation_demand[chunk.step_operation]
    total = np.bincount(chunk.step_scenario, weights=step_demand, minlength=len(chunk) * n_scen).reshape(-1, n_scen)
    total = total[chunk.owners(chunk.operation_start)]
    own = chunk.scenario_sums(chunk.step_operation, len(chunk.operation_demand), step_demand)
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


def detect(
    chunk: CompiledChunk, perfs: Sequence[PerformanceResult | Exception], thresholds: Thresholds | None = None
) -> list[int | None]:
    """Per architecture of the chunk, the number of distinct (kind, element)
    detections, which is ``len(explain(...))`` without building them; None
    where its performance entry is a failure."""
    rules = _rules(chunk, perfs, thresholds or Thresholds())
    size = len(chunk)

    def fired(mask, start):
        return np.bincount(chunk.owners(start)[mask], minlength=size)

    # a node pair fires when one node is hot and the other idle; util_low <
    # util_high, so no node is both and every hot-idle pair fires once
    pairs = fired(rules.hot, chunk.node_start) * fired(rules.idle, chunk.node_start)
    counts = fired(rules.blob, chunk.component_start) + pairs + fired(rules.pipe_and_filter, chunk.operation_start)
    return [count if isinstance(perf, PerformanceResult) else None for count, perf in zip(counts.tolist(), perfs)]


def explain(arch: Architecture, perf: PerformanceResult, thresholds: Thresholds | None = None) -> list[Detection]:
    """All distinct (kind, element) detections of one architecture with
    their metrics, in deterministic order; read from the rules of its
    chunk of one."""
    rules = _rules(CompiledChunk([arch]), [perf], thresholds or Thresholds())
    operations = [op for comp in arch.components for op in comp.operations]
    detections: list[Detection] = []

    # one detection per component, at its first heavy scenario
    for i in np.flatnonzero(rules.blob):
        j = int(np.argmax(rules.heavy[i]))
        detections.append(
            Detection(
                kind=BLOB,
                elements=(arch.components[i].id,),
                scenario=arch.scenarios[j].id,
                metrics=(
                    ("invocations", float(rules.invocations[i, j])),
                    ("mean_invocations", float(rules.mean_invocations[0, j])),
                    ("node_utilization", float(rules.comp_util[i])),
                ),
            )
        )

    first, second = np.triu_indices(len(arch.nodes), 1)
    fires = (rules.hot[first] & rules.idle[second]) | (rules.idle[first] & rules.hot[second])
    for p in np.flatnonzero(fires):
        pair = rules.node_util[[first[p], second[p]]]
        detections.append(
            Detection(
                kind=CONCURRENT_PROCESSING,
                elements=(arch.nodes[first[p]].id, arch.nodes[second[p]].id),
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
                elements=(operations[o].id,),
                scenario=arch.scenarios[j].id,
                metrics=(("demand_share", float(rules.share[o, j])), ("node_utilization", float(rules.op_util[o]))),
            )
        )

    return detections
