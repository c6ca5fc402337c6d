"""Refactoring action catalog: feasibility, application, and distance.

All actions preserve functional behavior: the operations a scenario
invokes and its total expected demand stay the same, only placement and
replication change.  ``apply`` never mutates its input; it returns a new
architecture.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from enum import Enum
from typing import ClassVar, Iterable, Mapping, Union

import numpy as np

from .model import (
    Architecture,
    CallStep,
    Component,
    NetworkLink,
    Operation,
    ProcessorNode,
    UsageScenario,
    unrouted_call,
)

NEW_NODE_PREFIX = "new-node:"


class ActionKind(str, Enum):
    CLONE = "clone"
    MOVE_TO_NEW = "move_to_new"
    MOVE_TO_COMPONENT = "move_to_component"
    REDEPLOY = "redeploy"


class InfeasibleActionError(ValueError):
    """An action cannot be applied to the given architecture."""

    def __init__(self, reason: str, index: int | None = None):
        self.reason = reason
        self.index = index
        message = reason if index is None else f"action {index}: {reason}"
        super().__init__(message)


class NoFeasibleActionError(RuntimeError):
    """Random sampling found no feasible action of any kind."""


@dataclass(frozen=True)
class CloneComponent:
    """Add a load-sharing replica of a component on a target node."""

    component: str
    target: str  # node id, or "new-node:<template node id>"
    kind: ClassVar[ActionKind] = ActionKind.CLONE


@dataclass(frozen=True)
class MoveOperationToNewComponent:
    """Extract an operation into a fresh component on a target node."""

    operation: str
    target_node: str
    kind: ClassVar[ActionKind] = ActionKind.MOVE_TO_NEW


@dataclass(frozen=True)
class MoveOperationToComponent:
    """Transfer an operation to an existing component."""

    operation: str
    target_component: str
    kind: ClassVar[ActionKind] = ActionKind.MOVE_TO_COMPONENT


@dataclass(frozen=True)
class RedeployComponent:
    """Move a component to a different processor node."""

    component: str
    target: str  # node id, or "new-node:<template node id>"
    kind: ClassVar[ActionKind] = ActionKind.REDEPLOY


RefactoringAction = Union[CloneComponent, MoveOperationToNewComponent, MoveOperationToComponent, RedeployComponent]


@dataclass(frozen=True)
class RefactoringSequence:
    actions: tuple[RefactoringAction, ...]

    def __len__(self) -> int:
        return len(self.actions)


# A sequence with the architecture it folds to from the initial one.
Candidate = tuple[RefactoringSequence, Architecture]
# The fold of each action prefix from one initial architecture.  A fold is
# a pure function of its prefix, so any plan with that prefix may reuse it.
Folds = dict[tuple[RefactoringAction, ...], Architecture]


DEFAULT_BRF: dict[ActionKind, float] = {
    ActionKind.CLONE: 1.23,
    ActionKind.MOVE_TO_NEW: 1.80,
    ActionKind.MOVE_TO_COMPONENT: 1.64,
    ActionKind.REDEPLOY: 1.45,
}


# ---------------------------------------------------------------------------
# Fresh ids
# ---------------------------------------------------------------------------


def _fresh_suffix(taken: set[str], bases: Iterable[str]) -> int:
    """Smallest k >= 1 such that every f"{base}{k}" is unused."""
    k = 1
    bases = list(bases)
    while any(f"{base}{k}" in taken for base in bases):
        k += 1
    return k


def _all_ids(arch: Architecture) -> set[str]:
    ids = {c.id for c in arch.components}
    ids.update(op.id for c in arch.components for op in c.operations)
    ids.update(n.id for n in arch.nodes)
    ids.update(l.id for l in arch.links)
    ids.update(s.id for s in arch.scenarios)
    return ids


def _instantiate_node(arch: Architecture, template_id: str) -> tuple[Architecture, str]:
    """Copy a template node under a fresh id, wired like a peer: links to
    all of the template's neighbors plus one to the template itself."""
    template = arch.node(template_id)
    taken = _all_ids(arch)
    suffix = _fresh_suffix(
        taken, [f"{template_id}_copy", f"{template_id}_uplink"] + [f"{l.id}_copy" for l in arch.links]
    )
    new_id = f"{template_id}_copy{suffix}"
    new_node = ProcessorNode(id=new_id, speed_factor=template.speed_factor, cores=template.cores)
    new_links = list(arch.links)
    template_links = [l for l in arch.links if template_id in l.endpoints]
    for link in template_links:
        other = link.endpoints[0] if link.endpoints[1] == template_id else link.endpoints[1]
        new_links.append(
            NetworkLink(
                id=f"{link.id}_copy{suffix}",
                endpoints=(other, new_id),
                failure_probability=link.failure_probability,
                delay=link.delay,
            )
        )
    # same-segment assumption: the copy reaches its template at least as
    # well as the template's best existing link
    new_links.append(
        NetworkLink(
            id=f"{template_id}_uplink{suffix}",
            endpoints=(template_id, new_id),
            failure_probability=min((l.failure_probability for l in template_links), default=0.0),
            delay=min((l.delay for l in template_links), default=0.0),
        )
    )
    return (
        Architecture(
            components=arch.components,
            nodes=arch.nodes + (new_node,),
            links=tuple(new_links),
            scenarios=arch.scenarios,
            deployment=dict(arch.deployment),
        ),
        new_id,
    )


def _resolve_target_node(arch: Architecture, target: str) -> tuple[Architecture, str] | str:
    """Return (arch-with-node, node-id) or an infeasibility reason."""
    if target.startswith(NEW_NODE_PREFIX):
        template_id = target[len(NEW_NODE_PREFIX):]
        if not any(n.id == template_id for n in arch.nodes):
            return f"template node '{template_id}' does not exist"
        return _instantiate_node(arch, template_id)
    if not any(n.id == target for n in arch.nodes):
        return f"target node '{target}' does not exist"
    return arch, target


# ---------------------------------------------------------------------------
# Application
# ---------------------------------------------------------------------------


def _apply_clone(arch: Architecture, action: CloneComponent):
    try:
        source = arch.component(action.component)
    except KeyError:
        return None, f"component '{action.component}' does not exist"
    resolved = _resolve_target_node(arch, action.target)
    if isinstance(resolved, str):
        return None, resolved
    arch, target_node = resolved

    taken = _all_ids(arch)
    suffix = _fresh_suffix(taken, [f"{source.id}_clone"] + [f"{op.id}_clone" for op in source.operations])
    replica_id = f"{source.id}_clone{suffix}"
    op_twin = {op.id: f"{op.id}_clone{suffix}" for op in source.operations}
    replica = Component(
        id=replica_id,
        operations=tuple(Operation(id=op_twin[op.id], cpu_demand=op.cpu_demand) for op in source.operations),
        failure_probability=source.failure_probability,
    )

    scenarios = []
    for scen in arch.scenarios:
        if not any(step.operation in op_twin for step in scen.steps):
            scenarios.append(scen)  # invokes no cloned operation: kept as it is
            continue
        steps: list[CallStep] = []
        for step in scen.steps:
            if step.operation in op_twin:
                half = step.count / 2.0
                steps.append(CallStep(operation=step.operation, count=half))
                steps.append(CallStep(operation=op_twin[step.operation], count=half))
            else:
                steps.append(step)
        scenarios.append(
            UsageScenario(
                id=scen.id,
                mix_weight=scen.mix_weight,
                population=scen.population,
                think_time=scen.think_time,
                steps=tuple(steps),
            )
        )

    deployment = dict(arch.deployment)
    deployment[replica_id] = target_node
    return (
        Architecture(
            components=arch.components + (replica,),
            nodes=arch.nodes,
            links=arch.links,
            scenarios=tuple(scenarios),
            deployment=deployment,
        ),
        "",
    )


def _detach_operation(arch: Architecture, source: Component, op_id: str):
    """Take operation ``op_id`` off its owner ``source``: returns the
    components (order kept), the deployment and the operation.  An owner
    left empty is dropped together with its deployment entry."""
    moved = next(op for op in source.operations if op.id == op_id)
    remaining = tuple(op for op in source.operations if op.id != op_id)
    deployment = dict(arch.deployment)
    components = []
    for comp in arch.components:
        if comp.id != source.id:
            components.append(comp)
        elif remaining:
            components.append(Component(comp.id, remaining, comp.failure_probability))
    if not remaining:
        del deployment[source.id]
    return components, deployment, moved


def _apply_move_to_component(arch: Architecture, action: MoveOperationToComponent):
    owners = arch.owner_map
    if action.operation not in owners:
        return None, f"operation '{action.operation}' does not exist"
    source = owners[action.operation]
    if not any(c.id == action.target_component for c in arch.components):
        return None, f"target component '{action.target_component}' does not exist"
    if source.id == action.target_component:
        return None, f"operation '{action.operation}' is already owned by '{source.id}'"

    components, deployment, moved = _detach_operation(arch, source, action.operation)
    components = [
        Component(c.id, c.operations + (moved,), c.failure_probability) if c.id == action.target_component else c
        for c in components
    ]
    return (
        Architecture(tuple(components), arch.nodes, arch.links, arch.scenarios, deployment),
        "",
    )


def _apply_move_to_new(arch: Architecture, action: MoveOperationToNewComponent):
    owners = arch.owner_map
    if action.operation not in owners:
        return None, f"operation '{action.operation}' does not exist"
    if not any(n.id == action.target_node for n in arch.nodes):
        return None, f"target node '{action.target_node}' does not exist"
    source = owners[action.operation]

    taken = _all_ids(arch)
    suffix = _fresh_suffix(taken, [f"{action.operation}_host"])
    host_id = f"{action.operation}_host{suffix}"
    components, deployment, moved = _detach_operation(arch, source, action.operation)
    components.append(Component(id=host_id, operations=(moved,), failure_probability=source.failure_probability))
    deployment[host_id] = action.target_node
    return (
        Architecture(tuple(components), arch.nodes, arch.links, arch.scenarios, deployment),
        "",
    )


def _apply_redeploy(arch: Architecture, action: RedeployComponent):
    if not any(c.id == action.component for c in arch.components):
        return None, f"component '{action.component}' does not exist"
    current = arch.deployment[action.component]
    if not action.target.startswith(NEW_NODE_PREFIX) and action.target == current:
        return None, f"target equals current node '{current}'"
    resolved = _resolve_target_node(arch, action.target)
    if isinstance(resolved, str):
        return None, resolved
    arch, target_node = resolved
    deployment = dict(arch.deployment)
    deployment[action.component] = target_node
    return (
        Architecture(arch.components, arch.nodes, arch.links, arch.scenarios, deployment),
        "",
    )


_APPLIERS = {
    ActionKind.CLONE: _apply_clone,
    ActionKind.MOVE_TO_COMPONENT: _apply_move_to_component,
    ActionKind.MOVE_TO_NEW: _apply_move_to_new,
    ActionKind.REDEPLOY: _apply_redeploy,
}


def is_feasible(arch: Architecture, action: RefactoringAction) -> tuple[Architecture | None, str]:
    """Apply the action if it is feasible: (the new architecture, "") or
    (None, the blocking reason), so the first item is truthy exactly when
    the action is feasible.

    The input must be valid.  Each applier checks its own preconditions
    and builds a result that keeps every ``validate`` invariant, so only
    routing is checked here, on the object graph: a probe compiles
    nothing, and only the chunks that are scored are compiled.
    """
    result, reason = _APPLIERS[action.kind](arch, action)
    if result is None:
        return None, reason
    call = unrouted_call(result)
    if call is not None:
        return None, f"result would be unroutable: {call}"
    return result, ""


def apply(arch: Architecture, action: RefactoringAction) -> Architecture:
    """Apply a single feasible action, returning a new architecture."""
    result, reason = is_feasible(arch, action)
    if result is None:
        raise InfeasibleActionError(reason)
    return result


def apply_sequence(arch: Architecture, seq: RefactoringSequence) -> Architecture:
    """Left fold of ``apply``; reports the index of the first infeasible action."""
    current = arch
    for index, action in enumerate(seq.actions):
        result, reason = is_feasible(current, action)
        if result is None:
            raise InfeasibleActionError(reason, index=index)
        current = result
    return current


def distance(seq: RefactoringSequence, brf: Mapping[ActionKind, float] | None = None) -> float:
    """Architectural distance: sum of per-action baseline refactoring factors."""
    table = DEFAULT_BRF if brf is None else brf
    return math.fsum(table[action.kind] for action in seq.actions)


# ---------------------------------------------------------------------------
# Random sampling and repair
# ---------------------------------------------------------------------------


def _pick(rng: np.random.Generator, items: list):
    return items[int(rng.integers(len(items)))]


def _sample_action(arch: Architecture, kind: ActionKind, rng: np.random.Generator, allow_new_nodes: bool):
    node_ids = [n.id for n in arch.nodes]
    new_node_targets = [NEW_NODE_PREFIX + n for n in node_ids] if allow_new_nodes else []
    if kind == ActionKind.CLONE:
        comp = _pick(rng, list(arch.components))
        target = _pick(rng, node_ids + new_node_targets)
        return CloneComponent(comp.id, target)
    if kind == ActionKind.MOVE_TO_COMPONENT:
        owners = arch.owner_map
        op_id = _pick(rng, list(owners))
        others = [c.id for c in arch.components if c.id != owners[op_id].id]
        if not others:
            return None
        return MoveOperationToComponent(op_id, _pick(rng, others))
    if kind == ActionKind.MOVE_TO_NEW:
        owners = arch.owner_map
        op_id = _pick(rng, list(owners))
        return MoveOperationToNewComponent(op_id, _pick(rng, node_ids))
    comp = _pick(rng, list(arch.components))
    current = arch.deployment[comp.id]
    targets = [n for n in node_ids if n != current] + new_node_targets
    if not targets:
        return None
    return RedeployComponent(comp.id, _pick(rng, targets))


# Parameter draws per action kind before random_action gives the kind up.
_MAX_TRIES = 50


def random_action(
    arch: Architecture, rng: np.random.Generator, allow_new_nodes: bool = True
) -> tuple[RefactoringAction, Architecture]:
    """Sample a feasible action: kind uniformly, then parameters by
    reject-and-resample; falls back to the remaining kinds on exhaustion.
    Returns the action with the architecture its accepted probe built."""
    remaining = list(ActionKind)
    while remaining:
        kind = _pick(rng, remaining)
        for _ in range(_MAX_TRIES):
            action = _sample_action(arch, kind, rng, allow_new_nodes)
            if action is None:
                break
            result, _ = is_feasible(arch, action)
            if result is not None:
                return action, result
        remaining.remove(kind)
    raise NoFeasibleActionError("no feasible action exists for this architecture")


def repair(
    arch: Architecture,
    seq: RefactoringSequence,
    rng: np.random.Generator,
    allow_new_nodes: bool = True,
    resample_probability: float = 0.0,
    folds: Folds | None = None,
) -> Candidate:
    """Walk the genes in prefix order and rewrite each infeasible one, and
    each one forced with ``resample_probability``, with a random feasible one.

    Returns the repaired sequence with its folded architecture.  A kept
    gene's fold is read from ``folds`` when its prefix is there, instead of
    probed, and every prefix built is recorded in it; the force draws are
    the same either way.
    """
    folds = {} if folds is None else folds
    current = arch
    prefix: tuple[RefactoringAction, ...] = ()
    for action in seq.actions:
        force = resample_probability > 0.0 and rng.random() < resample_probability
        result = None
        if not force:
            result = folds.get(prefix + (action,)) or is_feasible(current, action)[0]
        if result is None:
            action, result = random_action(current, rng, allow_new_nodes)
        prefix += (action,)
        folds[prefix] = current = result
    return RefactoringSequence(prefix), current


def random_sequence(
    arch: Architecture,
    length: int,
    rng: np.random.Generator,
    allow_new_nodes: bool = True,
    folds: Folds | None = None,
) -> Candidate:
    """Sample a feasible sequence by chaining random actions; returns it
    with its folded architecture, and records each prefix's fold in ``folds``."""
    folds = {} if folds is None else folds
    current = arch
    prefix: tuple[RefactoringAction, ...] = ()
    for _ in range(length):
        action, current = random_action(current, rng, allow_new_nodes)
        prefix += (action,)
        folds[prefix] = current
    return RefactoringSequence(prefix), current


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


# Record keys of each action kind's two fields, in field order; the text
# form ``kind(first->second)`` uses the same order.
_RECORD_FIELDS = {
    ActionKind.CLONE: (CloneComponent, ("component", "target")),
    ActionKind.MOVE_TO_NEW: (MoveOperationToNewComponent, ("operation", "target")),
    ActionKind.MOVE_TO_COMPONENT: (MoveOperationToComponent, ("operation", "component")),
    ActionKind.REDEPLOY: (RedeployComponent, ("component", "target")),
}


def action_to_dict(action: RefactoringAction) -> dict:
    _, keys = _RECORD_FIELDS[action.kind]
    return {"kind": action.kind.value, **dict(zip(keys, astuple(action)))}


def action_from_dict(record: dict) -> RefactoringAction:
    """Inverse of ``action_to_dict``; a malformed record raises ``ValueError``."""
    if not isinstance(record, dict):
        raise ValueError(f"action record must be a JSON object, got {record!r}")
    if "kind" not in record:
        raise ValueError(f"action record {record!r} is missing key 'kind'")
    kinds = [kind.value for kind in ActionKind]
    if record["kind"] not in kinds:
        raise ValueError(f"action record {record!r} has unknown kind, expected one of {', '.join(kinds)}")
    cls, keys = _RECORD_FIELDS[ActionKind(record["kind"])]
    for key in record:
        if key != "kind" and key not in keys:
            raise ValueError(f"{record['kind']} action record {record!r} has unknown key '{key}'")
    for key in keys:
        if key not in record:
            raise ValueError(f"{record['kind']} action record {record!r} is missing key '{key}'")
        if not isinstance(record[key], str):
            raise ValueError(f"{record['kind']} action record {record!r}: '{key}' must be a string")
    return cls(*(record[key] for key in keys))


def sequence_to_records(seq: RefactoringSequence) -> list[dict]:
    return [action_to_dict(a) for a in seq.actions]


def sequence_from_records(records: list[dict]) -> RefactoringSequence:
    return RefactoringSequence(tuple(action_from_dict(r) for r in records))


def action_to_text(action: RefactoringAction) -> str:
    source, target = astuple(action)
    return f"{action.kind.value}({source}->{target})"


def sequence_to_text(seq: RefactoringSequence) -> str:
    return "; ".join(action_to_text(a) for a in seq.actions)
