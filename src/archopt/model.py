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
from collections.abc import Sequence
from dataclasses import MISSING, dataclass
from functools import cached_property
from types import GenericAlias, UnionType
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


class _RootRows(NamedTuple):
    """A source's own rows of a compiled chunk, local to its fold, in
    ``CompiledChunk``'s numbering (see ``FoldRoot.rows``)."""

    components: tuple[str, ...]
    op_comp: list[int]
    demand: list[float]
    op_index: dict[str, int]
    step_op: list[list[int]]  # per scenario
    step_count: list[list[float]]


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
    source's ids of the form ``<stem>_copy<k>``, and ``node_copies`` holds
    each node copy built for a template that no link of its plan touched
    (see ``refactoring._instantiate_node``).  A fold only appends nodes
    and links, so the rows of the source's nodes and links, compiled
    here, are the first rows of every fold's.  ``rows`` and ``fragments``,
    the source's other compiled rows and its canonical JSON, are built on
    first use.
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
        self.node_copies: dict[tuple[str, int], tuple] = {}
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
    def rows(self) -> _RootRows:
        """The source's operation and step rows of a compiled chunk, built
        on the first compile.  A fold only appends operations,
        so these operation rows are the first of every fold's, and a
        scenario's step rows are every fold's that did not split it."""
        comp_ids = list(self.comp)
        op_index = {op: k for k, op in enumerate(self.owner)}
        return _RootRows(
            components=tuple(comp_ids),
            op_comp=[comp_ids.index(c) for c in self.owner.values()],
            demand=[self.demand[op] for op in self.owner],
            op_index=op_index,
            step_op=[[op_index[op] for op, _ in steps] for steps in self.steps],
            step_count=[[count for _, count in steps] for steps in self.steps],
        )

    @cached_property
    def fragments(self) -> tuple[tuple[dict, dict, dict, dict, dict], tuple[bool, bool, bool, bool]]:
        """Memos of canonical JSON, the source's encoded here and a fold's
        own on first use (``Fold.digest``): each component by (id,
        operation ids, failure probability), each node by id, each link by
        its row, each scenario by (index, steps), and each component and
        node id, quoted; and whether each element memo keeps what a fold
        adds.  A row fixes its element's text, except that a float key
        cannot tell -0.0 from 0.0, so a source holding a negative-zero
        failure probability, delay or step count keeps no generated
        component, link or scenario."""
        source = self.source
        memos = (
            {(c, *row[:2]): _canonical(to_dict(e)) for (c, row), e in zip(self.comp.items(), source.components)},
            {n.id: _canonical(to_dict(n)) for n in source.nodes},
            {row: _canonical(to_dict(l)) for row, l in zip(self.links, source.links)},
            {(j, steps): _canonical(to_dict(s)) for j, (steps, s) in enumerate(zip(self.steps, source.scenarios))},
            {text: _canonical(text) for text in (*self.comp, *self.node)},
        )
        floats = [c.failure_probability for c in source.components] + [v for l in self.links for v in l[3:]]
        floats += [count for steps in self.steps for _, count in steps]
        keep = not any(v == 0.0 and math.copysign(1.0, v) < 0.0 for v in floats)
        return memos, (keep, True, keep, keep)


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
        from the fragments its root keeps by row; an element or id is
        encoded only the first time a fold of the root holds it."""
        root, overlay = self.root, self.comp
        memos, keep = root.fragments
        rows = [(c, *(overlay[c] if c in overlay else root.comp[c])) for c in self.components]
        keys = ([row[:3] for row in rows], self.nodes, self.links, list(enumerate(self.steps)))
        texts = [[memo.get(key) for key in kind] for memo, kind in zip(memos, keys)]
        if any(None in kind for kind in texts):  # encode, from the architecture, what no fold held before
            for memo, kind, found, elements, kept in zip(memos, keys, texts, self._elements(), keep):
                for i, text in enumerate(found):
                    if text is None:
                        found[i] = _canonical(to_dict(elements[i]))
                        if kept:
                            memo[kind[i]] = found[i]
        quoted = memos[4]

        def q(text: str) -> str:
            return quoted.get(text) or quoted.setdefault(text, _canonical(text))

        parts = {key: "[" + ",".join(found) + "]" for key, found in zip(_FIELDS[Architecture], texts)}
        parts["deployment"] = "{" + ",".join(f"{q(c)}:{q(node)}" for c, _, _, node in sorted(rows)) + "}"
        document = "{" + ",".join(f'"{key}":{parts[key]}' for key in sorted(parts)) + "}"
        return hashlib.sha256(document.encode("utf-8")).hexdigest()


def unrouted_call(fold: Fold, moved: Sequence[str] | None = None) -> str | None:
    """The first cross-node call that no network link joins, as the text of
    its ``RoutingError``, or None when every call is routable.  This walk
    is the one routing decision: ``validate`` and every ``is_feasible``
    probe take it, so every architecture a search scores is routable.

    Walks the steps of each scenario in order: the caller of a step is the
    node hosting the previous step's operation; the first step's caller is
    the client, which sits outside all nodes.  With ``moved`` (operation
    ids), only the scenarios invoking one of them are walked and only the
    calls into and out of them are checked.  Requires resolvable
    references (a deployment target for every component, an owner for
    every step).
    """
    root = fold.root
    comp, owner = fold.comp, fold.owner
    root_comp, root_owner, linked = root.comp, root.owner, root.pairs
    steps, added = fold.steps, None

    if moved is None:
        scenarios = range(len(steps))
    elif len(moved) == 1:
        scenarios = root.scenarios_of.get(moved[0], ())
    else:
        scenarios = sorted({j for op in moved for j in root.scenarios_of.get(op, ())})
    for j in scenarios:
        previous = None
        for op, _ in steps[j]:
            if previous is not None and (moved is None or op in moved or previous in moved):
                c = owner[previous] if previous in owner else root_owner[previous]
                caller = (comp[c] if c in comp else root_comp[c])[2]
                c = owner[op] if op in owner else root_owner[op]
                callee = (comp[c] if c in comp else root_comp[c])[2]
                if caller != callee and (caller, callee) not in linked:
                    if added is None:  # the endpoints of the plan's links, on the first call they may join
                        added = {pair for _, a, b, _, _ in fold.links[root.n_links :] for pair in ((a, b), (b, a))}
                    if (caller, callee) not in added:
                        return (
                            f"scenario '{root.scenario_ids[j]}': call to '{op}' crosses nodes "
                            f"('{caller}', '{callee}') with no connecting link"
                        )
            previous = op
    return None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class _Field(NamedTuple):
    """A key of a model element's, config's or action record's document object.  ``type`` is float
    (a number), int (an integer), bool, str, an element class (its object), ``list[T]`` (a tuple),
    tuple (a pair of node ids) or dict (component id -> node id); ``T | None`` also takes null."""

    type: object
    default: object = None  # the JSON value of an absent key; None: the class's default, else required
    rule: str = ""  # the violation ``validate`` reports for a value outside ``bound``; "": raised where read
    bound: str = ""  # a key of _BOUNDS
    attr: str = ""  # the element's attribute, when it is not the key


# The document format (README's "Model format" table): each element class's keys
# in the order they are read; a nested list comes first, so its errors precede its owner's id.
# A float (number) or int (integer) field takes only values that fit a float, as a compiled chunk holds them.
# The config and action record modules add their classes' tables.
_FIELDS: dict[object, dict[str, _Field]] = {
    Architecture: {
        "components": _Field(list[Component]),
        "nodes": _Field(list[ProcessorNode]),
        "links": _Field(list[NetworkLink], []),
        "scenarios": _Field(list[UsageScenario]),
        "deployment": _Field(dict),
    },
    Component: {
        "operations": _Field(list[Operation]),
        "id": _Field(str),
        "failure_probability": _Field(float, None, "failure-probability-range", "in [0, 1]"),
    },
    Operation: {"id": _Field(str), "cpu_demand": _Field(float, None, "cpu-demand-range", "finite and >= 0")},
    ProcessorNode: {
        "id": _Field(str),
        "speed_factor": _Field(float, None, "speed-factor-range", "> 0"),
        "cores": _Field(int, None, "cores-range", "an integer >= 1"),
    },
    NetworkLink: {
        "nodes": _Field(tuple, attr="endpoints"),
        "id": _Field(str),
        "failure_probability": _Field(float, None, "failure-probability-range", "in [0, 1]"),
        "delay": _Field(float, None, "delay-range", "finite and >= 0"),
    },
    UsageScenario: {
        "steps": _Field(list[CallStep]),
        "id": _Field(str),
        "mix_weight": _Field(float, None, "scenario-mix-weight-range", "in [0, 1]"),
        "population": _Field(int, None, "scenario-population", "an integer >= 1"),
        "think_time": _Field(float, None, "scenario-think-time", "finite and >= 0"),
    },
    CallStep: {"operation": _Field(str), "count": _Field(float, None, "step-count-range", "finite and >= 0")},
}

# Each bound of a range rule, as its error states it, and its test.
_BOUNDS = {
    "in [0, 1]": lambda v: 0.0 <= v <= 1.0,
    "finite and >= 0": lambda v: math.isfinite(v) and v >= 0.0,
    "> 0": lambda v: math.isfinite(v) and v > 0.0,
    ">= 0": lambda v: v >= 0,
    "an integer >= 1": lambda v: _is_integer(v) and v >= 1,
    "a non-empty list": len,
}


class _Style(NamedTuple):
    """How reading a document words a key its table does not list, a missing key and a value of the
    wrong type, each text naming key {key} of the object at {path}, the two as a path {at}, the type
    {expected} and the one {got}; and the error it raises."""

    unknown: str = "{at}: unknown key"
    missing: str = "{at}: required key is missing"
    wrong: str = "{at}: expected {expected}, got {got}"
    error: type = ValueError


def _out_of_range(element, subject: str) -> list[str]:
    """The violation of each bounded field of ``element`` (named ``subject``) that is out of its bound."""
    return [
        f"{f.rule}: {subject} has {key.replace('_', ' ')} {value}, must be {f.bound}"
        for key, f in _FIELDS[type(element)].items()
        if f.bound and not _BOUNDS[f.bound](value := getattr(element, f.attr or key))
    ]


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
        violations += _out_of_range(comp, f"component '{comp.id}'")
        if not comp.operations:
            violations.append(f"component-empty: component '{comp.id}' owns no operations")
        for op in comp.operations:
            violations += _out_of_range(op, f"operation '{op.id}'")

    for node in arch.nodes:
        violations += _out_of_range(node, f"node '{node.id}'")

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
        violations += _out_of_range(link, f"link '{link.id}'")

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
        violations += _out_of_range(scen, f"scenario '{scen.id}'")
        if not scen.steps:
            violations.append(f"scenario-steps-empty: scenario '{scen.id}' has no steps")
        for step in scen.steps:
            if step.operation not in op_id_set:
                violations.append(
                    f"step-unknown-operation: scenario '{scen.id}' references missing operation '{step.operation}'"
                )
            violations += _out_of_range(step, f"scenario '{scen.id}' step for '{step.operation}'")

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


def to_dict(element) -> dict:
    """The document object of an element of a table: of an architecture, a config or an action."""
    document = {}
    for key, f in _FIELDS[type(element)].items():
        value = getattr(element, f.attr or key)  # a tuple is a list, or a pair of node ids; a dict is copied
        value = [to_dict(e) if type(e) in _FIELDS else e for e in value] if type(value) is tuple else value
        document[key] = to_dict(value) if type(value) in _FIELDS else dict(value) if type(value) is dict else value
    return document


def save(arch: Architecture) -> str:
    """Serialize to the architecture document format (JSON text)."""
    return json.dumps(to_dict(arch), indent=2, sort_keys=True) + "\n"


# The canonical JSON text that a digest hashes: sorted keys, no spaces.
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def digest(arch: Architecture) -> str:
    """Stable content hash of an architecture (used as phenotype digest)."""
    return hashlib.sha256(_canonical(to_dict(arch)).encode("utf-8")).hexdigest()


def _at(path: str, key) -> str:
    """The path of key ``key`` of the object at ``path``; None: ``path`` itself."""
    return path if key is None else f"{path}.{key}"


def _wrong(style: _Style, path: str, key, expected: str, value) -> ValueError:
    """The error of ``value`` at key ``key`` of the object at ``path``, which is not of the type ``expected``."""
    return style.error(style.wrong.format(at=_at(path, key), path=path, key=key, expected=expected, got=type(value).__name__))


def _value(f: _Field, value, path: str, key, style: _Style = _Style()):
    """The value of field ``f`` at key ``key`` of the object at ``path`` (see ``_at``), as its
    element stores it.  A bound without a rule is checked here, one with a rule by ``validate``."""
    given, kind = value, f.type
    if kind is float or kind is int:
        if not (_is_number(value) if kind is float else _is_integer(value)):
            raise _wrong(style, path, key, "a number" if kind is float else "an integer", value)
        try:
            number = float(value)
        except OverflowError:  # a JSON integer can be too large for a float
            raise style.error(f"{_at(path, key)}: integer too large for a float") from None
        value = number if kind is float else value
    elif type(kind) is GenericAlias:  # list[T]
        if not isinstance(value, list):
            raise _wrong(style, path, key, "list", value)
        where, item = _at(path, key), kind.__args__[0]
        if item in _FIELDS:
            value = tuple(item(**_parse(item, e, f"{where}[{i}]", style)) for i, e in enumerate(value))
        else:
            value = tuple(_value(_Field(item), e, f"{where}[{i}]", None, style) for i, e in enumerate(value))
    elif kind in _FIELDS:  # an element's object
        value = kind(**_parse(kind, value, _at(path, key), style))
    elif type(kind) is UnionType:  # T | None
        return None if value is None else _value(f._replace(type=kind.__args__[0]), value, path, key, style)
    elif not isinstance(value, json_type := list if kind is tuple else kind):  # str, bool, tuple or dict
        raise _wrong(style, path, key, json_type.__name__, value)
    elif kind is tuple:
        if len(value) != 2 or not all(isinstance(e, str) for e in value):
            raise style.error(f"{_at(path, key)}: expected a pair of node ids")
        value = tuple(value)
    elif kind is dict:
        for comp_id, node_id in value.items():
            if not isinstance(node_id, str):
                raise style.error(f"{_at(path, key)}.{comp_id}: expected a node id string")
    if f.bound and not f.rule and not _BOUNDS[f.bound](value):
        raise style.error(f"{_at(path, key)} must be {f.bound}, got {given!r}")
    return value


def _parse(cls, raw, path: str, style: _Style = _Style()) -> dict:
    """The constructor arguments of ``cls`` from its document object ``raw`` at ``path``,
    unvalidated.  A key the table does not list is rejected, not ignored; an absent key takes
    the table's default, else the class's own."""
    if not isinstance(raw, dict):
        raise style.error(f"{path}: expected an object")
    fields = _FIELDS[cls]
    for key in raw:
        if key not in fields:
            raise style.error(style.unknown.format(at=_at(path, key), path=path, key=key))
    values = {}
    for key, f in fields.items():
        attr, value = f.attr or key, raw.get(key, f.default)
        if value is None and key not in raw:
            if (own := cls.__dataclass_fields__[attr]).default is not MISSING or own.default_factory is not MISSING:
                continue
            raise style.error(style.missing.format(at=_at(path, key), path=path, key=key))
        values[attr] = _value(f, value, path, key, style)
    return values


def unique_keys(pairs: list[tuple[str, object]], error: type[ValueError] = ModelFormatError) -> dict:
    """The ``object_pairs_hook`` of every JSON file the program reads: a key
    given twice in one object raises ``error``, not read as its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise error(f"duplicate key '{key}'")
        obj[key] = value
    return obj


def load(document: str, check: bool = True) -> Architecture:
    """Parse an architecture document; with ``check`` enforce all invariants."""
    try:
        doc = json.loads(document, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    arch = Architecture(**_parse(Architecture, doc, "$", _Style(error=ModelFormatError)))
    if check:
        violations = validate(arch)
        if violations:
            raise ModelFormatError("invalid architecture:\n" + "\n".join(f"  - {v}" for v in violations))
    return arch


# ---------------------------------------------------------------------------
# Compiled chunk and derived matrices
# ---------------------------------------------------------------------------


def _frozen(values: list, dtype) -> np.ndarray:
    array = np.fromiter(values, dtype, len(values))  # faster than np.array for a list of scalars
    array.flags.writeable = False
    return array


class CompiledChunk:
    """Index arrays of a chunk of folds, concatenated.

    Each fold's nodes, components, operations, links and steps take
    consecutive rows after those of the folds before it; fold b owns rows
    ``start[b]:start[b + 1]`` of each kind (``node_start``,
    ``component_start``, ...).  Nodes, components and links are in the
    fold's order, and steps in scenario order, then in the order their
    scenario lists them.  Operations are numbered root-first: the root's
    in the root's component order, then each twin in the order its clone
    added it.  So a scenario the plan did not split keeps the root's step
    rows, and a move patches one operation's component row; component
    order stays the fold's, because ``reliability`` multiplies over
    component rows in order, and operation order reaches only
    per-operation rows and integer counts.  Every
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
            rows, root_comp, root_demand = root.rows, root.comp, root.demand
            speed += root.speed
            cores += root.cores
            ends += root.ends
            psi += root.psi
            node_index = root.node_index
            added = fold.nodes[root.n_nodes :]
            if added:
                node_attr = root.node
                node_index = {**node_index, **{node: k for k, node in enumerate(added, root.n_nodes)}}
                speed += [node_attr[node][0] for node in added]
                cores += [node_attr[node][1] for node in added]
                added_links = fold.links[root.n_links :]
                ends += [node_index[end] for link in added_links for end in (link[1], link[2])]
                psi += [link[3] for link in added_links]
            overlay, op_index, components = fold.comp, rows.op_index, fold.components
            position = {c: i for i, c in enumerate(components)}
            comps = [overlay[c] if c in overlay else root_comp[c] for c in components]
            comp_node += [node_index[row[2]] for row in comps]
            theta += [row[1] for row in comps]
            # the root's operations keep their rows; each changed owner's is
            # patched, and each twin's appended, in the order it was added
            if components[: len(rows.components)] == rows.components:
                local = rows.op_comp.copy()
            else:  # a root component was emptied: later ones moved up
                local = [position.get(c) for c in root.owner.values()]
            twins = []
            for op, c in fold.owner.items():
                if op in op_index:
                    local[op_index[op]] = position[c]
                else:
                    twins.append(op)
                    local.append(position[c])
            op_comp += local
            demand += rows.demand + [root_demand[op] for op in twins]
            if twins:
                op_index = {**op_index, **dict(zip(twins, range(len(local) - len(twins), len(local))))}
            for steps, original, ops, counts in zip(fold.steps, root.steps, rows.step_op, rows.step_count):
                if steps is original:
                    step_op += ops
                    step_count += counts
                else:
                    step_op += [op_index[op] for op, _ in steps]
                    step_count += [count for _, count in steps]
                scen_steps.append(len(steps))
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
            array = np.fromiter(local, np.intp, len(local)) + offsets
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
