"""The per-architecture scoring path that the chunk scorer replaced.

Each function reads one architecture through its own index arrays, as the
program did before it compiled and scored candidates a chunk at a time.
The chunk scorer must give the same bits; ``test_chunk.py`` checks it.
"""

import numpy as np

from archopt.antipatterns import Thresholds
from archopt.model import Architecture
from archopt.perfqn import QnModel, SolverError, solve_amva


class View:
    """Index arrays of one architecture (operations in component order,
    steps in scenario order)."""

    def __init__(self, arch: Architecture):
        self.arch = arch
        node_index = {n.id: k for k, n in enumerate(arch.nodes)}
        op_index, op_component = {}, []
        for i, comp in enumerate(arch.components):
            for op in comp.operations:
                op_index[op.id] = len(op_index)
                op_component.append(i)
        self.operations = [op for comp in arch.components for op in comp.operations]
        self.operation_component = np.array(op_component, np.intp)
        self.operation_demand = np.array([op.cpu_demand for op in self.operations], float)
        self.component_node = np.array([node_index[arch.deployment[c.id]] for c in arch.components], np.intp)
        self.step_scenario = np.array([j for j, s in enumerate(arch.scenarios) for _ in s.steps], np.intp)
        self.step_operation = np.array([op_index[st.operation] for s in arch.scenarios for st in s.steps], np.intp)
        self.step_count = np.array([st.count for s in arch.scenarios for st in s.steps], float)
        self.step_node = self.component_node[self.operation_component[self.step_operation]]
        ends = np.array([node_index[e] for link in arch.links for e in link.endpoints], np.intp).reshape(-1, 2)
        self.link_between = np.full((len(arch.nodes), len(arch.nodes)), -1, np.intp)
        self.link_between[ends[:, 0], ends[:, 1]] = self.link_between[ends[:, 1], ends[:, 0]] = np.arange(len(ends))

    def per_scenario(self, rows, n_rows, weights, steps=slice(None)):
        n_scen = len(self.arch.scenarios)
        flat = np.bincount(rows * n_scen + self.step_scenario[steps], weights=weights[steps], minlength=n_rows * n_scen)
        return flat.reshape(n_rows, n_scen)

    def routes(self):
        """(invocations, messages), or None when a call has no link."""
        node, scen = self.step_node, self.step_scenario
        cross = np.flatnonzero((node[1:] != node[:-1]) & (scen[1:] == scen[:-1])) + 1
        links = self.link_between[node[cross - 1], node[cross]]
        if (links < 0).any():
            return None
        invocations = self.per_scenario(
            self.operation_component[self.step_operation], len(self.arch.components), self.step_count
        )
        return invocations, self.per_scenario(links, len(self.arch.links), self.step_count, cross)

    def demands(self):
        speed = np.array([n.speed_factor for n in self.arch.nodes])
        weights = self.step_count * self.operation_demand[self.step_operation] / speed[self.step_node]
        return self.per_scenario(self.step_node, len(self.arch.nodes), weights)


def to_qn(arch: Architecture) -> QnModel:
    cores = np.array([n.cores for n in arch.nodes], dtype=float)
    return QnModel(
        station_ids=tuple(n.id for n in arch.nodes),
        class_ids=tuple(s.id for s in arch.scenarios),
        demands=View(arch).demands() / cores[:, None],
        populations=np.array([s.population for s in arch.scenarios], dtype=float),
        think_times=np.array([s.think_time for s in arch.scenarios], dtype=float),
    )


def reliability(arch: Architecture) -> float | None:
    """The mix-weighted reliability, or None when a call has no link."""
    routes = View(arch).routes()
    if routes is None:
        return None
    invocations, messages = routes
    thetas = np.array([c.failure_probability for c in arch.components])
    psis = np.array([l.failure_probability for l in arch.links])
    survival = np.power(1.0 - thetas[:, None], invocations).prod(axis=0)
    survival = survival * np.power(1.0 - psis[:, None], messages).prod(axis=0)
    weights = np.array([s.mix_weight for s in arch.scenarios])
    return float(weights @ survival)


def rules(arch: Architecture, perf, th: Thresholds) -> dict[str, np.ndarray]:
    """The antipattern rules' masks of one architecture."""
    view = View(arch)
    util = {node_id: float(u) for node_id, u in zip(perf.station_ids, perf.utilization)}
    node_util = np.array([util[node.id] for node in arch.nodes])
    comp_util = node_util[view.component_node]
    op_util = comp_util[view.operation_component]
    invocations = view.per_scenario(view.operation_component[view.step_operation], len(arch.components), view.step_count)
    mean_invocations = invocations.mean(axis=0)
    heavy = invocations > th.blob_share * mean_invocations
    step_demand = view.step_count * view.operation_demand[view.step_operation]
    total = view.per_scenario(np.zeros_like(view.step_operation), 1, step_demand)[0]
    own = view.per_scenario(view.step_operation, len(view.operations), step_demand)
    share = np.divide(own, total, out=np.zeros_like(own), where=total > 0.0)
    dominant = (total > 0.0) & (share >= th.paf_demand_share)
    return {
        "blob": (comp_util >= th.util_high) & heavy.any(axis=1),
        "hot": node_util >= th.util_high,
        "idle": node_util <= th.util_low,
        "pipe_and_filter": (op_util >= th.util_high) & dominant.any(axis=1),
    }


def detect(arch: Architecture, perf, th: Thresholds) -> int:
    fired = rules(arch, perf, th)
    pairs = int(np.count_nonzero(fired["hot"])) * int(np.count_nonzero(fired["idle"]))
    return int(np.count_nonzero(fired["blob"])) + pairs + int(np.count_nonzero(fired["pipe_and_filter"]))


def score(arch: Architecture, th: Thresholds):
    """(performance, reliability, antipattern count) of one architecture, or
    the solver's failure."""
    try:
        perf = solve_amva(to_qn(arch))
    except (SolverError, ValueError) as exc:  # no convergence, or a class with no demand and no think time
        return exc
    return perf, reliability(arch), detect(arch, perf, th)
