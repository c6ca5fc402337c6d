"""Architecture description model.

Defines the component/node/link/scenario types, their well-formedness
rules, JSON (de)serialization, and the derived matrices consumed by the
performance and reliability evaluators.  Architecture values are treated
as immutable after validation.  Refactoring works on ``Fold`` values: an
architecture's rows by id, kept once per search, plus an overlay of what
a plan's actions changed.  ``Architecture`` is the input and output form.
A chunk of folds compiles once into a ``CompiledChunk`` of concatenated
index arrays, and every derived matrix of the chunk is read from it.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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

    @cached_property
    def fold(self) -> Fold:
        """This architecture as the root of its folds, built on first use and
        kept on the instance (``cached_property`` writes ``__dict__``, which
        a frozen dataclass allows).  Needs resolvable references and ids
        unique within each kind, as a validated architecture has them."""
        root = FoldRoot(self)
        return Fold(root, tuple(root.comp), tuple(root.node_index), root.links, root.steps, len(root.owner), {}, {}, ())


# An id of the form f"{stem}_copy{k}" (k >= 1, no leading zero), as node
# copies and their link copies are named; the last such suffix is the one.
_COPY_ID = re.compile(r"(.*)_copy([1-9][0-9]*)")


class FoldRoot:
    """What every fold of one architecture shares, built once.

    ``comp`` maps a component id to (operation ids, failure probability,
    node id), ``owner`` an operation id to its component, ``pairs`` holds
    the endpoints of every link in both orders, and ``taken`` every id but
    the components'.  ``demand``, ``node`` (speed factor, cores) and
    ``scenarios_of`` (the scenarios invoking an operation) also take the
    ids that refactoring generates: a twin operation or node copy always
    takes its source's values, and its id names one source (the digits
    after its last ``_clone``/``_copy`` are the suffix), so one entry per
    id is exact for every fold.  ``copies`` maps k to the stems of the
    source's ids of the form ``<stem>_copy<k>``.  A fold only appends
    nodes and links, so the rows of the source's nodes and links,
    compiled here, are the first rows of every fold's.
    """

    def __init__(self, arch: Architecture):
        self.source = arch
        comps, nodes, links = arch.components, arch.nodes, arch.links
        self.comp = {c.id: (tuple(op.id for op in c.operations), c.failure_probability, arch.deployment[c.id]) for c in comps}
        self.owner = {op.id: c.id for c in comps for op in c.operations}
        self.demand = {op.id: op.cpu_demand for c in comps for op in c.operations}
        self.node = {n.id: (n.speed_factor, n.cores) for n in nodes}
        self.node_ids = frozenset(self.node)
        self.node_index = {n.id: k for k, n in enumerate(nodes)}
        self.n_nodes, self.n_links = len(nodes), len(links)
        self.links = tuple((l.id, *l.endpoints, l.failure_probability, l.delay) for l in links)
        self.link_ids = frozenset(l.id for l in links)
        self.links_at = {n.id: tuple(link for link in self.links if n.id in link[1:3]) for n in nodes}
        self.pairs = frozenset(pair for l in links for pair in (l.endpoints, l.endpoints[::-1]))
        self.steps = tuple(tuple((step.operation, step.count) for step in scen.steps) for scen in arch.scenarios)
        self.scenario_ids = tuple(s.id for s in arch.scenarios)
        scenarios_of: dict[str, list[int]] = {}
        for j, scen in enumerate(arch.scenarios):
            for step in scen.steps:
                invoking = scenarios_of.setdefault(step.operation, [])
                if j not in invoking:
                    invoking.append(j)
        self.scenarios_of = {op: tuple(invoking) for op, invoking in scenarios_of.items()}
        self.taken = frozenset(self.owner) | self.node_ids | self.link_ids | set(self.scenario_ids)
        copies: dict[int, set[str]] = {}
        for elem_id in self.taken | self.comp.keys():
            match = _COPY_ID.fullmatch(elem_id)
            if match:
                copies.setdefault(int(match[2]), set()).add(match[1])
        self.copies = {k: frozenset(stems) for k, stems in copies.items()}
        # the source's own rows of a compiled chunk, local to its fold
        self.speed = [n.speed_factor for n in nodes]
        self.cores = [n.cores for n in nodes]
        self.ends = [self.node_index[end] for l in links for end in l.endpoints]
        self.psi = [l.failure_probability for l in links]
        self.mix = [s.mix_weight for s in arch.scenarios]
        self.population = [s.population for s in arch.scenarios]
        self.think = [s.think_time for s in arch.scenarios]
        # the source's elements, which a fold's architecture reuses where unchanged
        self.components = {c.id: c for c in comps}
        self.operations = {op.id: op for c in comps for op in c.operations}

    @cached_property
    def fragments(self) -> tuple[dict[int, str], dict[str, str]]:
        """The canonical JSON of each of the source's components, nodes,
        links and scenarios, by ``id()`` of the element (the source keeps
        it alive), and of each component and node id, quoted."""
        source = self.source
        encoded = {id(e): _canonical(as_dict(e)) for kind, as_dict in _ELEMENT_DICTS.items() for e in getattr(source, kind)}
        return encoded, {text: _canonical(text) for text in (*self.comp, *self.node)}


class Fold(NamedTuple):
    """An architecture as its root's rows plus what a plan changed.

    The tuples are in the architecture's order, each shared with the fold
    it was derived from unless that step changed it: component ids, node
    ids, link rows ``(id, a, b, failure probability, delay)`` and each
    scenario's ``(operation, count)`` steps.  ``comp`` (changed component
    rows, None for a removed one) and ``owner`` (changed owners) overlay
    the root's; ``added`` holds the generated operation, node and link
    ids.  Read an overlay inline, ``d[k] if k in d else root_d[k]``.  A
    fold is never mutated: an action builds a new one.
    """

    root: FoldRoot
    components: tuple[str, ...]
    nodes: tuple[str, ...]
    links: tuple[tuple[str, str, str, float, float], ...]
    steps: tuple[tuple[tuple[str, float], ...], ...]
    n_ops: int
    comp: dict
    owner: dict[str, str]
    added: tuple[str, ...]

    def row(self, component_id: str):
        """The component's (operation ids, failure probability, node id), or
        None when the fold has no such component."""
        comp = self.comp
        return comp[component_id] if component_id in comp else self.root.comp.get(component_id)

    def _elements(self) -> tuple[tuple, tuple, tuple, tuple]:
        """The components, nodes, links and scenarios of ``architecture()``;
        each that the plan left unchanged is the root's source's own (a
        redeployed component is, too: its node is in the deployment)."""
        root = self.root
        source, overlay, operations, demand = root.source, self.comp, root.operations, root.demand
        components = []
        for c in self.components:
            if c not in overlay or overlay[c][:2] == root.comp.get(c, ())[:2]:
                components.append(root.components[c])
                continue
            ops, theta, _ = overlay[c]
            components.append(
                Component(c, tuple(operations[op] if op in operations else Operation(op, demand[op]) for op in ops), theta)
            )
        scenarios = tuple(
            scen
            if steps is original
            else UsageScenario(
                scen.id, scen.mix_weight, scen.population, scen.think_time, tuple(CallStep(*step) for step in steps)
            )
            for scen, steps, original in zip(source.scenarios, self.steps, root.steps)
        )
        return (
            tuple(components),
            source.nodes + tuple(ProcessorNode(n, *root.node[n]) for n in self.nodes[root.n_nodes :]),
            source.links + tuple(NetworkLink(i, (a, b), psi, delay) for i, a, b, psi, delay in self.links[root.n_links :]),
            scenarios,
        )

    def architecture(self) -> Architecture:
        """The architecture this fold stands for; it shares every element
        the plan left unchanged with the root's source."""
        return Architecture(*self._elements(), deployment={c: self.row(c)[2] for c in self.components})

    def digest(self) -> str:
        """``digest(self.architecture())``: the same canonical JSON, joined
        from the fragments its root encoded once; only the elements and ids
        that the plan changed or added are encoded here."""
        encoded, quoted = self.root.fragments
        parts = {
            kind: "[" + ",".join(encoded.get(id(e)) or _canonical(as_dict(e)) for e in elements) + "]"
            for (kind, as_dict), elements in zip(_ELEMENT_DICTS.items(), self._elements())
        }

        def q(text: str) -> str:
            return quoted.get(text) or _canonical(text)

        parts["deployment"] = "{" + ",".join(f"{q(c)}:{q(self.row(c)[2])}" for c in sorted(self.components)) + "}"
        document = "{" + ",".join(f'"{key}":{parts[key]}' for key in sorted(parts)) + "}"
        return hashlib.sha256(document.encode("utf-8")).hexdigest()


def unrouted_call(fold: Fold, scenarios: Iterable[int] | None = None) -> str | None:
    """The first cross-node call that no network link joins, as the text of
    its ``RoutingError``, or None when every call is routable.  This walk
    is the one routing decision: ``validate`` and every ``is_feasible``
    probe take it, so every architecture a search scores is routable.

    Walks the steps of each of ``scenarios`` (indices, ascending; all when
    None) in order: the caller of a step is the node hosting the previous
    step's operation; the first step's caller is the client, which sits
    outside all nodes.  Requires resolvable references (a deployment
    target for every component, an owner for every step).
    """
    root = fold.root
    comp, owner = fold.comp, fold.owner
    root_comp, root_owner, linked = root.comp, root.owner, root.pairs
    steps, added = fold.steps, None
    for j in range(len(steps)) if scenarios is None else scenarios:
        caller = None
        for op, _ in steps[j]:
            c = owner[op] if op in owner else root_owner[op]
            callee = (comp[c] if c in comp else root_comp[c])[2]
            if caller is not None and caller != callee and (caller, callee) not in linked:
                if added is None:  # the endpoints of the plan's links, on the first call they may join
                    added = {pair for _, a, b, _, _ in fold.links[root.n_links :] for pair in ((a, b), (b, a))}
                if (caller, callee) not in added:
                    return (
                        f"scenario '{root.scenario_ids[j]}': call to '{op}' crosses nodes "
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
        call = unrouted_call(arch.fold)
        if call is not None:
            violations.append(f"routing: {call}")

    return violations


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _component_dict(c: Component) -> dict:
    operations = [{"id": o.id, "cpu_demand": o.cpu_demand} for o in c.operations]
    return {"id": c.id, "failure_probability": c.failure_probability, "operations": operations}


def _node_dict(n: ProcessorNode) -> dict:
    return {"id": n.id, "speed_factor": n.speed_factor, "cores": n.cores}


def _link_dict(l: NetworkLink) -> dict:
    return {"id": l.id, "nodes": list(l.endpoints), "failure_probability": l.failure_probability, "delay": l.delay}


def _scenario_dict(s: UsageScenario) -> dict:
    steps = [{"operation": st.operation, "count": st.count} for st in s.steps]
    return {"id": s.id, "mix_weight": s.mix_weight, "population": s.population, "think_time": s.think_time, "steps": steps}


# The element lists of the document: each key, also the field of
# ``Architecture`` that holds them in this order, and its element's dict.
_ELEMENT_DICTS = {"components": _component_dict, "nodes": _node_dict, "links": _link_dict, "scenarios": _scenario_dict}


def to_dict(arch: Architecture) -> dict:
    document = {kind: [as_dict(e) for e in getattr(arch, kind)] for kind, as_dict in _ELEMENT_DICTS.items()}
    return {**document, "deployment": dict(arch.deployment)}


def save(arch: Architecture) -> str:
    """Serialize to the architecture document format (JSON text)."""
    return json.dumps(to_dict(arch), indent=2, sort_keys=True) + "\n"


# The canonical JSON text that a digest hashes: sorted keys, no spaces.
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def digest(arch: Architecture) -> str:
    """Stable content hash of an architecture (used as phenotype digest)."""
    return hashlib.sha256(_canonical(to_dict(arch)).encode("utf-8")).hexdigest()


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


def _object(raw, path: str, keys: tuple[str, ...]) -> None:
    """Check that ``raw`` is an object of the document whose every key is one of ``keys``."""
    if not isinstance(raw, dict):
        raise ModelFormatError(f"{path}: expected an object")
    for key in raw:
        if key not in keys:
            raise ModelFormatError(f"{path}.{key}: unknown key")


def from_dict(doc: dict) -> Architecture:
    """Build an Architecture from a parsed document without validating it.
    A key the format does not define is rejected, not ignored."""
    _object(doc, "$", ("components", "nodes", "links", "scenarios", "deployment"))

    components = []
    for i, raw in enumerate(_expect(doc, "components", list, "$")):
        path = f"$.components[{i}]"
        _object(raw, path, ("id", "operations", "failure_probability"))
        operations = []
        for k, raw_op in enumerate(_expect(raw, "operations", list, path)):
            op_path = f"{path}.operations[{k}]"
            _object(raw_op, op_path, ("id", "cpu_demand"))
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
        _object(raw, path, ("id", "speed_factor", "cores"))
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
        _object(raw, path, ("id", "nodes", "failure_probability", "delay"))
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
        _object(raw, path, ("id", "mix_weight", "population", "think_time", "steps"))
        steps = []
        for k, raw_step in enumerate(_expect(raw, "steps", list, path)):
            step_path = f"{path}.steps[{k}]"
            _object(raw_step, step_path, ("operation", "count"))
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
# Compiled chunk and derived matrices
# ---------------------------------------------------------------------------


def _frozen(values, dtype) -> np.ndarray:
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


class CompiledChunk:
    """Index arrays of a chunk of folds, concatenated.

    Each fold's nodes, components, operations, links and steps take
    consecutive rows after those of the folds before it; fold b owns rows
    ``start[b]:start[b + 1]`` of each kind (``node_start``,
    ``component_start``, ...).  Operations are numbered in component
    order, then in the order their component lists them; steps in
    scenario order, then in the order their scenario lists them.  Every
    derived matrix is one ``np.bincount`` over the whole chunk, and each
    bin receives entries of one fold only, in its step order, so a fold's
    values are bit-identical to a loop over its own architecture.

    The folds share one scenario count, so every per-scenario matrix is
    ``(rows, scenarios)``.  Each needs resolvable references (a deployment
    target for every component, a node for every link endpoint, an owner
    for every step), at least one component, and at most one link per
    node pair; a validated architecture and its folds have them.  The
    search scores only folds that passed ``validate`` or an
    ``is_feasible`` probe, so ``invocation_matrix`` routes a chunk as a
    whole.  Derived matrices are built on first use; every array is
    read-only.
    """

    def __init__(self, folds: Sequence[Fold]):
        self.folds = folds = tuple(folds)
        counts = {len(fold.steps) for fold in folds}
        if len(counts) != 1:
            raise ValueError(f"a chunk needs architectures with one scenario count, got {sorted(counts)}")
        (self.n_scenarios,) = counts
        # rows index their fold's own rows first, and each fold's row
        # offsets are added once, for the whole chunk
        speed, cores, theta, comp_node, demand, op_comp = [], [], [], [], [], []
        step_op, step_count, scen_steps, ends, psi, mix, population, think = [], [], [], [], [], [], [], []
        node_start, component_start, operation_start, link_start, step_start = [0], [0], [0], [0], [0]
        for fold in folds:
            root = fold.root
            node_attr, root_comp, overlay, root_demand = root.node, root.comp, fold.comp, root.demand
            speed += root.speed
            cores += root.cores
            ends += root.ends
            psi += root.psi
            node_index = root.node_index
            added = fold.nodes[root.n_nodes :]
            if added:
                node_index = {**node_index, **{node: k for k, node in enumerate(added, root.n_nodes)}}
                speed += [node_attr[node][0] for node in added]
                cores += [node_attr[node][1] for node in added]
                added_links = fold.links[root.n_links :]
                ends += [node_index[end] for link in added_links for end in (link[1], link[2])]
                psi += [link[3] for link in added_links]
            rows = [overlay[c] if c in overlay else root_comp[c] for c in fold.components]
            comp_node += [node_index[row[2]] for row in rows]
            theta += [row[1] for row in rows]
            ops = [op for row in rows for op in row[0]]
            op_comp += [i for i, row in enumerate(rows) for _ in row[0]]
            demand += [root_demand[op] for op in ops]
            op_index = {op: k for k, op in enumerate(ops)}
            step_op += [op_index[op] for steps in fold.steps for op, _ in steps]
            step_count += [count for steps in fold.steps for _, count in steps]
            scen_steps += [len(steps) for steps in fold.steps]
            mix += root.mix
            population += root.population
            think += root.think
            node_start.append(len(speed))
            component_start.append(len(theta))
            operation_start.append(len(demand))
            link_start.append(len(psi))
            step_start.append(len(step_op))
        self.node_start, self.component_start = node_start, component_start
        self.operation_start, self.link_start = operation_start, link_start
        self.station_ids = [fold.nodes for fold in folds]

        def rows_of(local, start, owner_start):
            """``local`` row indices of each fold's rows (bounded by ``start``)
            plus the fold's first row of the kind that ``owner_start`` bounds."""
            offsets = np.repeat(np.array(owner_start[:-1], dtype=np.intp), np.diff(start))
            array = np.array(local, dtype=np.intp) + offsets
            array.flags.writeable = False
            return array

        shape = (len(folds), self.n_scenarios)
        self.node_speed, self.node_cores = _frozen(speed, float), _frozen(cores, float)
        self.component_theta = _frozen(theta, float)
        self.component_node = rows_of(comp_node, component_start, node_start)
        self.operation_demand = _frozen(demand, float)
        self.operation_component = rows_of(op_comp, operation_start, component_start)
        self.link_psi = _frozen(psi, float)
        self.link_ends = rows_of(ends, [2 * k for k in link_start], node_start).reshape(-1, 2)
        self.step_operation, self.step_count = rows_of(step_op, step_start, operation_start), _frozen(step_count, float)
        # each step's scenario, numbered across the chunk: fold b's scenario
        # j is b * n_scenarios + j
        self.step_scenario = np.repeat(np.arange(len(scen_steps)), scen_steps)
        self.step_column = self.step_scenario % self.n_scenarios  # the scenario within its fold
        self.step_scenario.flags.writeable = self.step_column.flags.writeable = False
        self.mix_weights = _frozen(mix, float).reshape(shape)
        self.populations = _frozen(population, float).reshape(shape)
        self.think_times = _frozen(think, float).reshape(shape)

    def __len__(self) -> int:
        return len(self.folds)

    def owners(self, start: list[int]) -> np.ndarray:
        """The architecture of each row of the kind that ``start`` bounds."""
        return np.repeat(np.arange(len(self)), np.diff(start))

    @cached_property
    def step_component(self) -> np.ndarray:
        return self.operation_component[self.step_operation]

    @cached_property
    def step_node(self) -> np.ndarray:
        return self.component_node[self.step_component]

    def scenario_sums(self, rows: np.ndarray, n_rows: int, weights: np.ndarray, steps=slice(None)) -> np.ndarray:
        """(n_rows, scenarios) sums of ``weights[steps]`` at (rows, scenario
        of each step), added in step order."""
        n_scen = self.n_scenarios
        flat = np.bincount(
            rows * n_scen + self.step_column[steps], weights=weights[steps], minlength=n_rows * n_scen
        )
        out = flat.reshape(n_rows, n_scen)
        out.flags.writeable = False
        return out

    @cached_property
    def demands(self) -> np.ndarray:
        """(nodes, scenarios) CPU demand in seconds of every node of the
        chunk: D[k, j] sums, over the operations deployed on node k, the
        scenario-j expected invocation count times the operation's cpu
        demand, divided by the node's speed factor."""
        node = self.step_node
        weights = self.step_count * self.operation_demand[self.step_operation] / self.node_speed[node]
        return self.scenario_sums(node, len(self.node_speed), weights)

    @cached_property
    def invocations(self) -> np.ndarray:
        """(components, scenarios) expected invocations v[i, j] of every
        component of the chunk."""
        return self.scenario_sums(self.step_component, len(self.component_theta), self.step_count)


def invocation_matrix(chunk: CompiledChunk) -> tuple[np.ndarray, np.ndarray]:
    """The chunk's expected component invocations v[i, j] and link messages
    m[l, j] (read-only); fold b owns rows ``component_start[b]:
    component_start[b + 1]`` of v and ``link_start[b]:link_start[b + 1]``
    of m.

    The caller of step n is the component owning step n-1's operation when
    both are in one scenario; the caller of a scenario's first step is the
    client, which sits outside all nodes and so sends no message.  A
    message is charged to the one link joining its node pair, found by one
    sorted lookup of the pair's key over both orders of every link's
    endpoints.  Raises the ``RoutingError`` of the chunk's first
    unroutable fold, with the text of its ``unrouted_call``.
    """
    node, scen = chunk.step_node, chunk.step_scenario
    cross = np.flatnonzero((node[1:] != node[:-1]) & (scen[1:] == scen[:-1])) + 1
    n_nodes, n_links = len(chunk.node_speed), len(chunk.link_psi)
    first, second = chunk.link_ends.T
    # a key that no node pair has keeps the lookup in range
    keys = np.concatenate(([-1], first * n_nodes + second, second * n_nodes + first))
    order = np.argsort(keys)
    keys, link_of = keys[order], np.concatenate(([-1], np.arange(n_links), np.arange(n_links)))[order]
    wanted = node[cross - 1] * n_nodes + node[cross]
    at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    unrouted = cross[keys[at] != wanted]
    if unrouted.size:
        raise RoutingError(unrouted_call(chunk.folds[scen[unrouted[0]] // chunk.n_scenarios]))
    return chunk.invocations, chunk.scenario_sums(link_of[at], n_links, chunk.step_count, cross)
