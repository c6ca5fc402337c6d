"""Architecture description model.

Defines the component/node/link/scenario types, their well-formedness
rules, JSON (de)serialization, and the derived matrices consumed by the
performance and reliability evaluators.  Architecture values are treated
as immutable after validation; refactoring produces new values.  Each
architecture compiles once, on first use, into a ``CompiledArchitecture``
of index arrays that every derived matrix is read from.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

MIX_WEIGHT_TOL = 1e-9


class ModelFormatError(ValueError):
    """An architecture document cannot be parsed or violates the schema."""


class RoutingError(ValueError):
    """A cross-node call has no connecting network link."""


@dataclass(frozen=True)
class Operation:
    id: str
    cpu_demand: float  # seconds per invocation on a speed-1.0 node


@dataclass(frozen=True)
class Component:
    id: str
    operations: tuple[Operation, ...]
    failure_probability: float  # probability of failure per invocation


@dataclass(frozen=True)
class ProcessorNode:
    id: str
    speed_factor: float = 1.0
    cores: int = 1


@dataclass(frozen=True)
class NetworkLink:
    id: str
    endpoints: tuple[str, str]  # unordered pair of node ids
    failure_probability: float = 0.0  # per message
    delay: float = 0.0  # seconds per message


@dataclass(frozen=True)
class CallStep:
    operation: str
    count: float  # expected invocations per scenario cycle


@dataclass(frozen=True)
class UsageScenario:
    id: str
    mix_weight: float
    population: int  # closed workload users
    think_time: float  # seconds
    steps: tuple[CallStep, ...]


@dataclass(frozen=True)
class Architecture:
    components: tuple[Component, ...]
    nodes: tuple[ProcessorNode, ...]
    links: tuple[NetworkLink, ...]
    scenarios: tuple[UsageScenario, ...]
    deployment: dict[str, str]  # component id -> node id (never mutate)

    def component(self, component_id: str) -> Component:
        for comp in self.components:
            if comp.id == component_id:
                return comp
        raise KeyError(component_id)

    def node(self, node_id: str) -> ProcessorNode:
        for node in self.nodes:
            if node.id == node_id:
                return node
        raise KeyError(node_id)

    @cached_property
    def compiled(self) -> CompiledArchitecture:
        """Index view of this architecture, built on first use and kept on
        the instance (``cached_property`` writes ``__dict__``, which a frozen
        dataclass allows), so it lives exactly as long as the architecture."""
        return CompiledArchitecture(self)

    @cached_property
    def owner_map(self) -> dict[str, Component]:
        """Operation id -> owning component, built on first use and kept on
        the instance like ``compiled`` (shared; do not mutate)."""
        return {op.id: comp for comp in self.components for op in comp.operations}


def unrouted_call(arch: Architecture) -> str | None:
    """The first cross-node call that no network link joins, as the text of
    its ``RoutingError``, or None when every call is routable.

    Walks each scenario's steps in order: the caller of a step is the node
    hosting the previous step's operation; the first step's caller is the
    client, which sits outside all nodes.  Requires resolvable references
    (a deployment target for every component, an owner for every step).
    """
    return _first_unrouted_call(arch.components, arch.deployment, arch.links, arch.scenarios)


def _first_unrouted_call(components, deployment, links, scenarios) -> str | None:
    linked = {link.endpoints for link in links}  # unordered pairs, stored as given
    node_of = {op.id: deployment[comp.id] for comp in components for op in comp.operations}
    for scen in scenarios:
        caller = None
        for step in scen.steps:
            callee = node_of[step.operation]
            if (
                caller is not None
                and caller != callee
                and (caller, callee) not in linked
                and (callee, caller) not in linked
            ):
                return (
                    f"scenario '{scen.id}': call to '{step.operation}' crosses nodes "
                    f"('{caller}', '{callee}') with no connecting link"
                )
            caller = callee
    return None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def validate(arch: Architecture) -> list[str]:
    """Check every invariant and return one description per violation.

    An empty list means the architecture is well formed.  Each entry names
    the violated rule and the offending element.
    """
    violations: list[str] = []
    node_ids = [n.id for n in arch.nodes]
    comp_ids = [c.id for c in arch.components]
    op_ids = [op.id for c in arch.components for op in c.operations]
    link_ids = [l.id for l in arch.links]
    scen_ids = [s.id for s in arch.scenarios]

    for category, ids in (
        ("component", comp_ids),
        ("operation", op_ids),
        ("node", node_ids),
        ("link", link_ids),
        ("scenario", scen_ids),
    ):
        seen = set()
        for elem_id in ids:
            if elem_id in seen:
                violations.append(f"duplicate-id: {category} id '{elem_id}' is not unique")
            seen.add(elem_id)

    for comp in arch.components:
        if not 0.0 <= comp.failure_probability <= 1.0:
            violations.append(
                f"failure-probability-range: component '{comp.id}' has "
                f"failure probability {comp.failure_probability}, must be in [0, 1]"
            )
        if not comp.operations:
            violations.append(f"component-empty: component '{comp.id}' owns no operations")
        for op in comp.operations:
            if not (math.isfinite(op.cpu_demand) and op.cpu_demand >= 0.0):
                violations.append(
                    f"cpu-demand-range: operation '{op.id}' has cpu demand "
                    f"{op.cpu_demand}, must be finite and >= 0"
                )

    for node in arch.nodes:
        if not (math.isfinite(node.speed_factor) and node.speed_factor > 0.0):
            violations.append(
                f"speed-factor-range: node '{node.id}' has speed factor "
                f"{node.speed_factor}, must be > 0"
            )
        if not _is_integer(node.cores) or node.cores < 1:
            violations.append(f"cores-range: node '{node.id}' has cores {node.cores}, must be an integer >= 1")

    node_id_set = set(node_ids)
    pair_link: dict[frozenset[str], NetworkLink] = {}
    for link in arch.links:
        a, b = link.endpoints
        if a == b:
            violations.append(f"link-endpoints: link '{link.id}' endpoints must differ")
        first = pair_link.setdefault(frozenset(link.endpoints), link)
        if first is not link:
            violations.append(f"link-parallel: links '{first.id}' and '{link.id}' join the same two nodes")
        for endpoint in link.endpoints:
            if endpoint not in node_id_set:
                violations.append(f"link-endpoints: link '{link.id}' references missing node '{endpoint}'")
        if not 0.0 <= link.failure_probability <= 1.0:
            violations.append(
                f"failure-probability-range: link '{link.id}' has failure "
                f"probability {link.failure_probability}, must be in [0, 1]"
            )
        if not (math.isfinite(link.delay) and link.delay >= 0.0):
            violations.append(f"delay-range: link '{link.id}' has delay {link.delay}, must be finite and >= 0")

    comp_id_set = set(comp_ids)
    for comp_id in arch.deployment:
        if comp_id not in comp_id_set:
            violations.append(f"deployment-unknown-component: deployment entry for missing component '{comp_id}'")
    for comp_id in comp_ids:
        target = arch.deployment.get(comp_id)
        if target is None:
            violations.append(f"deployment-total: component '{comp_id}' has no deployment target")
        elif target not in node_id_set:
            violations.append(f"deployment-target: component '{comp_id}' is deployed to missing node '{target}'")

    op_id_set = set(op_ids)
    for scen in arch.scenarios:
        if not 0.0 <= scen.mix_weight <= 1.0:
            violations.append(
                f"scenario-mix-weight-range: scenario '{scen.id}' has mix weight "
                f"{scen.mix_weight}, must be in [0, 1]"
            )
        if not _is_integer(scen.population) or scen.population < 1:
            violations.append(
                f"scenario-population: scenario '{scen.id}' has population "
                f"{scen.population}, must be an integer >= 1"
            )
        if not (math.isfinite(scen.think_time) and scen.think_time >= 0.0):
            violations.append(
                f"scenario-think-time: scenario '{scen.id}' has think time "
                f"{scen.think_time}, must be finite and >= 0"
            )
        if not scen.steps:
            violations.append(f"scenario-steps-empty: scenario '{scen.id}' has no steps")
        for step in scen.steps:
            if step.operation not in op_id_set:
                violations.append(
                    f"step-unknown-operation: scenario '{scen.id}' references missing operation '{step.operation}'"
                )
            if not (math.isfinite(step.count) and step.count >= 0.0):
                violations.append(
                    f"step-count-range: scenario '{scen.id}' step for '{step.operation}' "
                    f"has count {step.count}, must be finite and >= 0"
                )

    if arch.scenarios:
        total_weight = math.fsum(s.mix_weight for s in arch.scenarios)
        if abs(total_weight - 1.0) > MIX_WEIGHT_TOL:
            violations.append(f"scenario-mix-sum: scenario mix weights must sum to 1, got {total_weight!r}")
    else:
        violations.append("scenario-missing: architecture defines no usage scenarios")

    # the walk needs every reference resolved, which the checks above vouch for
    if not violations:
        call = unrouted_call(arch)
        if call is not None:
            violations.append(f"routing: {call}")

    return violations


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def to_dict(arch: Architecture) -> dict:
    return {
        "components": [
            {
                "id": c.id,
                "failure_probability": c.failure_probability,
                "operations": [{"id": o.id, "cpu_demand": o.cpu_demand} for o in c.operations],
            }
            for c in arch.components
        ],
        "nodes": [{"id": n.id, "speed_factor": n.speed_factor, "cores": n.cores} for n in arch.nodes],
        "links": [
            {
                "id": l.id,
                "nodes": list(l.endpoints),
                "failure_probability": l.failure_probability,
                "delay": l.delay,
            }
            for l in arch.links
        ],
        "scenarios": [
            {
                "id": s.id,
                "mix_weight": s.mix_weight,
                "population": s.population,
                "think_time": s.think_time,
                "steps": [{"operation": st.operation, "count": st.count} for st in s.steps],
            }
            for s in arch.scenarios
        ],
        "deployment": dict(arch.deployment),
    }


def save(arch: Architecture) -> str:
    """Serialize to the architecture document format (JSON text)."""
    return json.dumps(to_dict(arch), indent=2, sort_keys=True) + "\n"


def digest(arch: Architecture) -> str:
    """Stable content hash of an architecture (used as phenotype digest)."""
    canonical = json.dumps(to_dict(arch), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _expect(obj, key: str, kind, path: str, optional_default=None):
    if key not in obj:
        if optional_default is not None:
            return optional_default
        raise ModelFormatError(f"{path}.{key}: required key is missing")
    value = obj[key]
    if kind is float:
        if not _is_number(value):
            raise ModelFormatError(f"{path}.{key}: expected a number, got {type(value).__name__}")
        return float(value)
    if kind is int:
        if not _is_integer(value):
            raise ModelFormatError(f"{path}.{key}: expected an integer, got {type(value).__name__}")
        return value
    if not isinstance(value, kind):
        raise ModelFormatError(f"{path}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def from_dict(doc: dict) -> Architecture:
    """Build an Architecture from a parsed document without validating it."""
    if not isinstance(doc, dict):
        raise ModelFormatError("$: document root must be an object")

    components = []
    for i, raw in enumerate(_expect(doc, "components", list, "$")):
        path = f"$.components[{i}]"
        if not isinstance(raw, dict):
            raise ModelFormatError(f"{path}: expected an object")
        operations = []
        for k, raw_op in enumerate(_expect(raw, "operations", list, path)):
            op_path = f"{path}.operations[{k}]"
            if not isinstance(raw_op, dict):
                raise ModelFormatError(f"{op_path}: expected an object")
            operations.append(
                Operation(id=_expect(raw_op, "id", str, op_path), cpu_demand=_expect(raw_op, "cpu_demand", float, op_path))
            )
        components.append(
            Component(
                id=_expect(raw, "id", str, path),
                operations=tuple(operations),
                failure_probability=_expect(raw, "failure_probability", float, path),
            )
        )

    nodes = []
    for i, raw in enumerate(_expect(doc, "nodes", list, "$")):
        path = f"$.nodes[{i}]"
        if not isinstance(raw, dict):
            raise ModelFormatError(f"{path}: expected an object")
        nodes.append(
            ProcessorNode(
                id=_expect(raw, "id", str, path),
                speed_factor=_expect(raw, "speed_factor", float, path, optional_default=1.0),
                cores=_expect(raw, "cores", int, path, optional_default=1),
            )
        )

    links = []
    for i, raw in enumerate(_expect(doc, "links", list, "$") if "links" in doc else []):
        path = f"$.links[{i}]"
        if not isinstance(raw, dict):
            raise ModelFormatError(f"{path}: expected an object")
        endpoints = _expect(raw, "nodes", list, path)
        if len(endpoints) != 2 or not all(isinstance(e, str) for e in endpoints):
            raise ModelFormatError(f"{path}.nodes: expected a pair of node ids")
        links.append(
            NetworkLink(
                id=_expect(raw, "id", str, path),
                endpoints=(endpoints[0], endpoints[1]),
                failure_probability=_expect(raw, "failure_probability", float, path, optional_default=0.0),
                delay=_expect(raw, "delay", float, path, optional_default=0.0),
            )
        )

    scenarios = []
    for i, raw in enumerate(_expect(doc, "scenarios", list, "$")):
        path = f"$.scenarios[{i}]"
        if not isinstance(raw, dict):
            raise ModelFormatError(f"{path}: expected an object")
        steps = []
        for k, raw_step in enumerate(_expect(raw, "steps", list, path)):
            step_path = f"{path}.steps[{k}]"
            if not isinstance(raw_step, dict):
                raise ModelFormatError(f"{step_path}: expected an object")
            steps.append(
                CallStep(
                    operation=_expect(raw_step, "operation", str, step_path),
                    count=_expect(raw_step, "count", float, step_path),
                )
            )
        scenarios.append(
            UsageScenario(
                id=_expect(raw, "id", str, path),
                mix_weight=_expect(raw, "mix_weight", float, path),
                population=_expect(raw, "population", int, path),
                think_time=_expect(raw, "think_time", float, path),
                steps=tuple(steps),
            )
        )

    deployment = _expect(doc, "deployment", dict, "$")
    for comp_id, node_id in deployment.items():
        if not isinstance(node_id, str):
            raise ModelFormatError(f"$.deployment.{comp_id}: expected a node id string")

    return Architecture(
        components=tuple(components),
        nodes=tuple(nodes),
        links=tuple(links),
        scenarios=tuple(scenarios),
        deployment=dict(deployment),
    )


def load(document: str, check: bool = True) -> Architecture:
    """Parse an architecture document; with ``check`` enforce all invariants."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    arch = from_dict(doc)
    if check:
        violations = validate(arch)
        if violations:
            raise ModelFormatError("invalid architecture:\n" + "\n".join(f"  - {v}" for v in violations))
    return arch


# ---------------------------------------------------------------------------
# Compiled view and derived matrices
# ---------------------------------------------------------------------------


def _frozen(values, dtype) -> np.ndarray:
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


class CompiledArchitecture:
    """Index arrays of one architecture; build it with ``arch.compiled``.

    Operations are numbered in component order, then in the order their
    component lists them.  Steps are flattened in scenario order, then in
    the order their scenario lists them.  Accumulating over the flat steps
    therefore adds in the same order as a loop over the object graph,
    which keeps every derived value bit-identical to such a loop.

    Requires resolvable references (a deployment target for every
    component, a node for every link endpoint, an owner for every step)
    and at most one link per node pair; a validated architecture has
    them.  The search builds a view only for the initial model and for
    each candidate it scores, where the queueing model, reliability and
    the antipattern rules read it; a feasibility probe checks routing on
    the object graph (``unrouted_call``) instead.  Derived matrices are
    built on first use, so an unroutable architecture still has demands.
    The view shares the architecture's element tuples, and every array it
    holds or returns is read-only, because every reader of the
    architecture shares it.
    """

    def __init__(self, arch: Architecture):
        self.nodes, self.components, self.scenarios = arch.nodes, arch.components, arch.scenarios
        # link count and RoutingError text; the view keeps no reference to
        # the architecture, which holds the view, so both are freed together
        self.deployment, self.links = arch.deployment, arch.links
        node_index = {n.id: k for k, n in enumerate(arch.nodes)}
        op_index: dict[str, int] = {}
        op_component = []
        for i, comp in enumerate(arch.components):
            for op in comp.operations:
                op_index[op.id] = len(op_index)
                op_component.append(i)
        self.operation_component = _frozen(op_component, np.intp)
        self.component_node = _frozen([node_index[arch.deployment[c.id]] for c in arch.components], np.intp)
        self.step_scenario = _frozen([j for j, s in enumerate(arch.scenarios) for _ in s.steps], np.intp)
        self.step_operation = _frozen([op_index[st.operation] for s in arch.scenarios for st in s.steps], np.intp)
        self.step_count = _frozen([st.count for s in arch.scenarios for st in s.steps], float)
        # link_between[a, b]: index of the link joining nodes a and b, in
        # both directions; -1 where no link joins them
        ends = np.array([node_index[end] for link in arch.links for end in link.endpoints], np.intp).reshape(-1, 2)
        table = np.full((len(arch.nodes), len(arch.nodes)), -1, np.intp)
        table[ends[:, 0], ends[:, 1]] = table[ends[:, 1], ends[:, 0]] = np.arange(len(ends))
        table.flags.writeable = False
        self.link_between = table

    @cached_property
    def operations(self) -> tuple[Operation, ...]:
        """Every operation, in index order."""
        return tuple(op for comp in self.components for op in comp.operations)

    @cached_property
    def operation_demand(self) -> np.ndarray:
        return _frozen([op.cpu_demand for op in self.operations], float)

    @property
    def step_node(self) -> np.ndarray:
        return self.component_node[self.operation_component[self.step_operation]]

    def per_scenario(
        self, rows: np.ndarray, n_rows: int, weights: np.ndarray, steps: slice | np.ndarray = slice(None)
    ) -> np.ndarray:
        """(n_rows, scenarios) sums of ``weights[steps]`` at (rows, scenario
        of each step), added in step order."""
        n_scen = len(self.scenarios)
        flat = np.bincount(
            rows * n_scen + self.step_scenario[steps], weights=weights[steps], minlength=n_rows * n_scen
        )
        out = flat.reshape(n_rows, n_scen)
        out.flags.writeable = False
        return out

    @cached_property
    def routes(self) -> tuple[np.ndarray, np.ndarray]:
        """Expected component invocations v[i, j] and link messages m[l, j].

        The caller of step n is the component owning step n-1's operation;
        the caller of the first step is the client, which sits outside all
        nodes and therefore contributes no link messages.  A message is
        charged to the one link joining its node pair (``link_between``),
        in step order.  Raises ``RoutingError`` with the text of
        ``unrouted_call`` when a cross-node call has no link; the error is
        not memoized.
        """
        step_node, scen = self.step_node, self.step_scenario
        cross = np.flatnonzero((step_node[1:] != step_node[:-1]) & (scen[1:] == scen[:-1])) + 1
        links = self.link_between[step_node[cross - 1], step_node[cross]]
        if (links < 0).any():
            raise RoutingError(_first_unrouted_call(self.components, self.deployment, self.links, self.scenarios))
        invocations = self.per_scenario(
            self.operation_component[self.step_operation], len(self.components), self.step_count
        )
        messages = self.per_scenario(links, len(self.links), self.step_count, cross)
        return invocations, messages

    @cached_property
    def demands(self) -> np.ndarray:
        """Per-node, per-scenario CPU demand in seconds (see ``demand_matrix``)."""
        step_node = self.step_node
        speed = np.array([n.speed_factor for n in self.nodes])
        weights = self.step_count * self.operation_demand[self.step_operation] / speed[step_node]
        return self.per_scenario(step_node, len(self.nodes), weights)


def demand_matrix(arch: Architecture) -> np.ndarray:
    """Per-node, per-scenario CPU demand in seconds (read-only).

    D[k, j] sums, over the operations deployed on node k, the scenario-j
    expected invocation count times the operation's cpu demand, divided by
    the node's speed factor.
    """
    return arch.compiled.demands


def invocation_matrix(arch: Architecture) -> tuple[np.ndarray, np.ndarray]:
    """Expected component invocations v[i, j] and link messages m[l, j]
    (read-only); see ``CompiledArchitecture.routes``.  Raises
    ``RoutingError`` when a cross-node call has no connecting link."""
    return arch.compiled.routes
