"""Refactoring action catalog: feasibility, application, and distance.

All actions preserve functional behavior: the operations a scenario
invokes and its total expected demand stay the same, only placement and
replication change.  Actions apply to a ``Fold`` and build a new one,
never mutating their input.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from enum import Enum
from typing import ClassVar, Mapping, Union

import numpy as np

from .model import Fold, unrouted_call

NEW_NODE_PREFIX = "new-node:"


class ActionKind(str, Enum):
    CLONE = "clone"
    MOVE_TO_NEW = "move_to_new"
    MOVE_TO_COMPONENT = "move_to_component"
    REDEPLOY = "redeploy"


class InfeasibleActionError(ValueError):
    """Action ``index`` of a sequence cannot be applied where it stands."""

    def __init__(self, reason: str, index: int):
        self.index = index
        super().__init__(f"action {index}: {reason}")


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


# A refactoring plan: its actions in the order they apply.
Plan = tuple[RefactoringAction, ...]
# A plan with its fold from the initial architecture.
Candidate = tuple[Plan, Fold]
# The fold of each plan prefix from one initial architecture.  A fold is a
# pure function of its prefix, so any plan with that prefix may reuse it.
Folds = dict[Plan, Fold]


DEFAULT_BRF: dict[ActionKind, float] = {
    ActionKind.CLONE: 1.23,
    ActionKind.MOVE_TO_NEW: 1.80,
    ActionKind.MOVE_TO_COMPONENT: 1.64,
    ActionKind.REDEPLOY: 1.45,
}


# ---------------------------------------------------------------------------
# Fresh ids
# ---------------------------------------------------------------------------


def _taken(fold: Fold, elem_id: str) -> bool:
    """Whether any element of the fold has the id: a component, operation,
    node, link or scenario."""
    root, comp = fold.root, fold.comp
    if elem_id in comp:
        if comp[elem_id] is not None:
            return True
    elif elem_id in root.comp:
        return True
    return elem_id in root.taken or elem_id in fold.added


def _fresh_suffix(fold: Fold, bases: list[str]) -> int:
    """Smallest k >= 1 such that every f"{base}{k}" is unused."""
    k = 1
    while any(_taken(fold, f"{base}{k}") for base in bases):
        k += 1
    return k


def _is_node(fold: Fold, node_id: str) -> bool:
    root = fold.root
    return node_id in root.node_ids or node_id in fold.nodes[root.n_nodes :]


def _is_link(fold: Fold, link_id: str) -> bool:
    root = fold.root
    return link_id in root.link_ids or (
        link_id in fold.added and any(link[0] == link_id for link in fold.links[root.n_links :])
    )


def _link_copy_taken(fold: Fold, k: int) -> bool:
    """Whether some link's copy id ``<link>_copy<k>`` is taken.  The taken
    ids of that form are the source's (a component among them may be gone)
    and the node and link copies of the fold's plan."""
    suffix = f"_copy{k}"
    stems = [elem_id[: -len(suffix)] for elem_id in fold.added if elem_id.endswith(suffix)]
    stems += fold.root.copies.get(k, ())
    return any(_is_link(fold, stem) and _taken(fold, stem + suffix) for stem in stems)


def _instantiate_node(fold: Fold, template_id: str) -> tuple[Fold, str]:
    """Copy a template node under a fresh id, wired like a peer: links to
    all of the template's neighbors plus one to the template itself.

    The suffix k is the smallest for which the node id, the uplink id and
    every link's copy id ``<link>_copy<k>`` are unused.  A copy whose
    template no link of the plan touches depends on (template, k) alone,
    so the root builds it once."""
    k = 1
    while (
        _taken(fold, f"{template_id}_copy{k}")
        or _taken(fold, f"{template_id}_uplink{k}")
        or _link_copy_taken(fold, k)
    ):
        k += 1
    root = fold.root
    # the template's links in link order: the root's first, as a fold only appends
    added_links = tuple(link for link in fold.links[root.n_links :] if template_id in (link[1], link[2]))
    copy = None if added_links else root.node_copies.get((template_id, k))
    if copy is None:
        copy = _node_copy(root, template_id, k, root.links_at.get(template_id, ()) + added_links)
        if not added_links:
            root.node_copies[template_id, k] = copy
    new_id, new_links, new_ids = copy
    nodes, links, added = fold.nodes + (new_id,), fold.links + new_links, fold.added + new_ids
    return Fold(root, fold.components, nodes, links, fold.steps, fold.n_ops, fold.comp, fold.owner, added), new_id


def _node_copy(root, template_id: str, k: int, template_links: tuple) -> tuple[str, tuple, tuple[str, ...]]:
    """The id of copy k of a template node with the given links, the copy's
    link rows, and every id it adds."""
    new_id = f"{template_id}_copy{k}"
    root.node[new_id] = root.node[template_id]
    new_links = [
        (f"{link_id}_copy{k}", a if b == template_id else b, new_id, psi, delay)
        for link_id, a, b, psi, delay in template_links
    ]
    # same-segment assumption: the copy reaches its template at least as
    # well as the template's best existing link
    new_links.append(
        (
            f"{template_id}_uplink{k}",
            template_id,
            new_id,
            min((link[3] for link in new_links), default=0.0),
            min((link[4] for link in new_links), default=0.0),
        )
    )
    return new_id, tuple(new_links), (new_id,) + tuple(link[0] for link in new_links)


def _resolve_target_node(fold: Fold, target: str) -> tuple[Fold, str] | str:
    """Return (fold-with-node, node-id) or an infeasibility reason."""
    if target.startswith(NEW_NODE_PREFIX):
        template_id = target[len(NEW_NODE_PREFIX) :]
        if not _is_node(fold, template_id):
            return f"template node '{template_id}' does not exist"
        return _instantiate_node(fold, template_id)
    if not _is_node(fold, target):
        return f"target node '{target}' does not exist"
    return fold, target


# ---------------------------------------------------------------------------
# Application
# ---------------------------------------------------------------------------


def _apply_clone(fold: Fold, action: CloneComponent):
    source = fold.row(action.component)
    if source is None:
        return None, f"component '{action.component}' does not exist"
    resolved = _resolve_target_node(fold, action.target)
    if isinstance(resolved, str):
        return None, resolved
    fold, target_node = resolved

    ops, theta, _ = source
    suffix = _fresh_suffix(fold, [f"{action.component}_clone"] + [f"{op}_clone" for op in ops])
    replica_id = f"{action.component}_clone{suffix}"
    op_twin = {op: f"{op}_clone{suffix}" for op in ops}
    root = fold.root
    scenarios_of = root.scenarios_of
    for op, twin in op_twin.items():
        root.demand[twin] = root.demand[op]
        scenarios_of[twin] = scenarios_of.get(op, ())

    # only the scenarios invoking a cloned operation change
    steps = list(fold.steps)
    for j in sorted({j for op in ops for j in scenarios_of.get(op, ())}):
        split: list[tuple[str, float]] = []
        for step in steps[j]:
            op, count = step
            if op in op_twin:
                half = count / 2.0
                split += ((op, half), (op_twin[op], half))
            else:
                split.append(step)
        steps[j] = tuple(split)

    twins = tuple(op_twin.values())
    components, n_ops = fold.components + (replica_id,), fold.n_ops + len(twins)
    comp = {**fold.comp, replica_id: (twins, theta, target_node)}
    owner = {**fold.owner, **dict.fromkeys(twins, replica_id)}
    return Fold(root, components, fold.nodes, fold.links, tuple(steps), n_ops, comp, owner, fold.added + twins), twins


def _detach_operation(fold: Fold, source_id: str, op_id: str):
    """Take operation ``op_id`` off its owner ``source_id``: returns the
    component ids (order kept) and a new component overlay.  An owner left
    empty is dropped."""
    ops, theta, node = fold.row(source_id)
    remaining = tuple(op for op in ops if op != op_id)
    comp = dict(fold.comp)
    if remaining:
        comp[source_id] = (remaining, theta, node)
        return fold.components, comp
    comp[source_id] = None
    return tuple(c for c in fold.components if c != source_id), comp


def _owner(fold: Fold, op_id: str) -> str | None:
    owner = fold.owner
    return owner[op_id] if op_id in owner else fold.root.owner.get(op_id)


def _moved(fold: Fold, op_id: str, components: tuple[str, ...], comp: dict, owner_id: str):
    """The fold with operation ``op_id`` moved to ``owner_id``, and the
    moved operation."""
    owner = {**fold.owner, op_id: owner_id}
    return Fold(fold.root, components, fold.nodes, fold.links, fold.steps, fold.n_ops, comp, owner, fold.added), (op_id,)


def _apply_move_to_component(fold: Fold, action: MoveOperationToComponent):
    op_id, target_id = action.operation, action.target_component
    source_id = _owner(fold, op_id)
    if source_id is None:
        return None, f"operation '{op_id}' does not exist"
    target = fold.row(target_id)
    if target is None:
        return None, f"target component '{target_id}' does not exist"
    if source_id == target_id:
        return None, f"operation '{op_id}' is already owned by '{source_id}'"

    components, comp = _detach_operation(fold, source_id, op_id)
    ops, theta, node = target
    comp[target_id] = (ops + (op_id,), theta, node)
    return _moved(fold, op_id, components, comp, target_id)


def _apply_move_to_new(fold: Fold, action: MoveOperationToNewComponent):
    op_id, target_node = action.operation, action.target_node
    source_id = _owner(fold, op_id)
    if source_id is None:
        return None, f"operation '{op_id}' does not exist"
    if not _is_node(fold, target_node):
        return None, f"target node '{target_node}' does not exist"

    suffix = _fresh_suffix(fold, [f"{op_id}_host"])
    host_id = f"{op_id}_host{suffix}"
    theta = fold.row(source_id)[1]
    components, comp = _detach_operation(fold, source_id, op_id)
    comp[host_id] = ((op_id,), theta, target_node)
    return _moved(fold, op_id, components + (host_id,), comp, host_id)


def _apply_redeploy(fold: Fold, action: RedeployComponent):
    row = fold.row(action.component)
    if row is None:
        return None, f"component '{action.component}' does not exist"
    ops, theta, current = row
    if not action.target.startswith(NEW_NODE_PREFIX) and action.target == current:
        return None, f"target equals current node '{current}'"
    resolved = _resolve_target_node(fold, action.target)
    if isinstance(resolved, str):
        return None, resolved
    fold, target_node = resolved
    comp = {**fold.comp, action.component: (ops, theta, target_node)}
    return Fold(fold.root, fold.components, fold.nodes, fold.links, fold.steps, fold.n_ops, comp, fold.owner, fold.added), ops


# Each applier checks its action's preconditions and returns (the new fold,
# the operations it put on another node or added) or (None, the reason).
_APPLIERS = {
    ActionKind.CLONE: _apply_clone,
    ActionKind.MOVE_TO_COMPONENT: _apply_move_to_component,
    ActionKind.MOVE_TO_NEW: _apply_move_to_new,
    ActionKind.REDEPLOY: _apply_redeploy,
}


def is_feasible(fold: Fold, action: RefactoringAction) -> tuple[Fold | None, str]:
    """Apply the action if it is feasible: (the new fold, "") or (None, the
    blocking reason), so the first item is truthy exactly when the action
    is feasible.

    The input must be valid.  Each applier checks its own preconditions
    and builds a result that keeps every ``validate`` invariant, so only
    routing is checked here.  Links are only ever added, so a call whose
    caller and callee stay on their nodes stays routable: only the calls
    into and out of the operations the applier names are checked, which
    finds the same first unrouted call as a walk of all.
    """
    result, moved = _APPLIERS[action.kind](fold, action)
    if result is None:
        return None, moved
    call = unrouted_call(result, moved)
    if call is not None:
        return None, f"result would be unroutable: {call}"
    return result, ""


def apply_sequence(fold: Fold, seq: Plan) -> Fold:
    """Apply each action in turn; reports the index of the first infeasible one."""
    for index, action in enumerate(seq):
        result, reason = is_feasible(fold, action)
        if result is None:
            raise InfeasibleActionError(reason, index)
        fold = result
    return fold


def distance(seq: Plan, brf: Mapping[ActionKind, float] | None = None) -> float:
    """Architectural distance: sum of per-action baseline refactoring factors."""
    table = DEFAULT_BRF if brf is None else brf
    return math.fsum(table[action.kind] for action in seq)


# ---------------------------------------------------------------------------
# Random sampling and repair
# ---------------------------------------------------------------------------


def _pick(rng: np.random.Generator, items):
    return items[int(rng.integers(len(items)))]


def _node_target(nodes: tuple[str, ...], index: int) -> str:
    """Target ``index`` of the nodes followed by the new-node target of each."""
    return nodes[index] if index < len(nodes) else NEW_NODE_PREFIX + nodes[index - len(nodes)]


def _pick_operation(fold: Fold, rng: np.random.Generator) -> tuple[int, str]:
    """An operation drawn uniformly in component order, then in the order
    its component lists it, with its owner's position."""
    index = int(rng.integers(fold.n_ops))
    root_comp, comp = fold.root.comp, fold.comp
    for position, c in enumerate(fold.components):
        ops = (comp[c] if c in comp else root_comp[c])[0]
        if index < len(ops):
            return position, ops[index]
        index -= len(ops)
    raise AssertionError("n_ops exceeds the operations of the fold")


def _sample_action(fold: Fold, kind: ActionKind, rng: np.random.Generator, allow_new_nodes: bool):
    # targets are drawn by index from the node ids followed, when new nodes
    # are allowed, by the new-node target of each
    nodes, components = fold.nodes, fold.components
    n_targets = 2 * len(nodes) if allow_new_nodes else len(nodes)
    if kind == ActionKind.CLONE:
        comp = _pick(rng, components)
        return CloneComponent(comp, _node_target(nodes, int(rng.integers(n_targets))))
    if kind == ActionKind.MOVE_TO_COMPONENT:
        owner, op_id = _pick_operation(fold, rng)
        if len(components) == 1:
            return None
        other = int(rng.integers(len(components) - 1))  # any component but the owner
        return MoveOperationToComponent(op_id, components[other + (other >= owner)])
    if kind == ActionKind.MOVE_TO_NEW:
        _, op_id = _pick_operation(fold, rng)
        return MoveOperationToNewComponent(op_id, _pick(rng, nodes))
    comp = _pick(rng, components)
    current = nodes.index(fold.row(comp)[2])
    if n_targets == 1:
        return None
    target = int(rng.integers(n_targets - 1))  # any target but the current node
    return RedeployComponent(comp, _node_target(nodes, target + (target >= current)))


# Parameter draws per action kind before random_action gives the kind up.
_MAX_TRIES = 50


def random_action(fold: Fold, rng: np.random.Generator, allow_new_nodes: bool = True) -> tuple[RefactoringAction, Fold]:
    """Sample a feasible action: kind uniformly, then parameters by
    reject-and-resample; falls back to the remaining kinds on exhaustion.
    Returns the action with the fold its accepted probe built."""
    remaining = list(ActionKind)
    while remaining:
        kind = _pick(rng, remaining)
        for _ in range(_MAX_TRIES):
            action = _sample_action(fold, kind, rng, allow_new_nodes)
            if action is None:
                break
            result, _ = is_feasible(fold, action)
            if result is not None:
                return action, result
        remaining.remove(kind)
    raise NoFeasibleActionError("no feasible action exists for this architecture")


def repair(
    fold: Fold,
    seq: Plan,
    rng: np.random.Generator,
    allow_new_nodes: bool = True,
    resample_probability: float = 0.0,
    folds: Folds | None = None,
) -> Candidate:
    """Walk the genes in prefix order and rewrite each infeasible one, and
    each one forced with ``resample_probability``, with a random feasible one.

    Returns the repaired sequence with its fold.  A kept gene's fold is
    read from ``folds`` when its prefix is there, instead of probed, and
    every prefix's fold is recorded in it; the force draws are the same
    either way.
    """
    folds = {} if folds is None else folds
    prefix: Plan = ()
    for action in seq:
        force = resample_probability > 0.0 and rng.random() < resample_probability
        result = None
        if not force:
            result = folds.get(prefix + (action,)) or is_feasible(fold, action)[0]
        if result is None:
            action, result = random_action(fold, rng, allow_new_nodes)
        prefix += (action,)
        folds[prefix] = fold = result
    return prefix, fold


def random_sequence(
    fold: Fold,
    length: int,
    rng: np.random.Generator,
    allow_new_nodes: bool = True,
    folds: Folds | None = None,
) -> Candidate:
    """Sample a feasible sequence by chaining random actions; returns it
    with its fold, and records each prefix's fold in ``folds``."""
    folds = {} if folds is None else folds
    prefix: Plan = ()
    for _ in range(length):
        action, fold = random_action(fold, rng, allow_new_nodes)
        prefix += (action,)
        folds[prefix] = fold
    return prefix, fold


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


def sequence_to_records(seq: Plan) -> list[dict]:
    return [action_to_dict(a) for a in seq]


def sequence_from_records(records: list[dict]) -> Plan:
    return tuple(action_from_dict(r) for r in records)


def action_to_text(action: RefactoringAction) -> str:
    source, target = astuple(action)
    return f"{action.kind.value}({source}->{target})"


def sequence_to_text(seq: Plan) -> str:
    return "; ".join(action_to_text(a) for a in seq)
