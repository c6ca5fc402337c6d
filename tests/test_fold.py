"""Folds against the object-graph refactoring they replaced (``oracle.py``).

A fold probe must give the oracle's outcome, reason text and ``save()``
bytes, draw the same random numbers, and compile to the same chunk rows;
a fold's digest must be the oracle's digest of its whole document.
The property tests set no ``max_examples``, so a hypothesis profile sets
their size: CI runs them again under ``--hypothesis-profile=thorough``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from archopt.model import CompiledChunk, digest, save
from archopt.refactoring import (
    NEW_NODE_PREFIX,
    ActionKind,
    CloneComponent,
    MoveOperationToComponent,
    MoveOperationToNewComponent,
    RedeployComponent,
    _sample_action,
    apply_sequence,
    is_feasible,
    random_action,
    random_sequence,
)
from conftest import make_arch
from test_refactoring import probe_model


def same_probe(fold, arch, action):
    """Probe ``action`` on the fold and on the oracle's architecture; both
    must agree.  Returns the new (fold, architecture), or None if rejected."""
    got, reason = is_feasible(fold, action)
    want, want_reason = oracle.is_feasible(arch, action)
    assert reason == want_reason, action
    assert (got is None) == (want is None), action
    if got is None:
        return None
    assert save(got.architecture()) == save(want), action
    return got, want


def twin_rngs(rng):
    """Two generators in ``rng``'s state."""
    pair = np.random.default_rng(), np.random.default_rng()
    for twin in pair:
        twin.bit_generator.state = rng.bit_generator.state
    return pair


@settings(deadline=None)
@given(
    name=st.sampled_from(["small", "large", "x3"]),
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(0, 4),
    allow_new_nodes=st.booleans(),
)
def test_fold_probes_match_the_oracle(name, seed, length, allow_new_nodes):
    # every action kind, drawn at each prefix of a random plan, plus every
    # kind to a new node and to ids that do not exist; x3 rejects many
    # actions as unroutable
    arch = probe_model(name)
    rng = np.random.default_rng(seed)
    fold, current = arch.fold, arch
    folds, archs = [fold], [arch]
    for _ in range(length + 1):
        for kind in ActionKind:
            mine, theirs = twin_rngs(rng)
            action = _sample_action(fold, kind, mine, allow_new_nodes)
            assert action == oracle.sample_action(current, kind, theirs, allow_new_nodes)
            assert mine.bit_generator.state == theirs.bit_generator.state
            if action is not None:
                same_probe(fold, current, action)
            rng.random()  # the next kind draws from a new state
        component = current.components[int(rng.integers(len(current.components)))].id
        operation = current.components[0].operations[0].id
        node = current.nodes[int(rng.integers(len(current.nodes)))].id
        for action in (
            CloneComponent(component, NEW_NODE_PREFIX + node),
            RedeployComponent(component, NEW_NODE_PREFIX + node),
            MoveOperationToNewComponent(operation, node),
            MoveOperationToComponent(operation, component),
            CloneComponent("ghost", node),
            CloneComponent(component, NEW_NODE_PREFIX + "ghost"),
            RedeployComponent(component, "ghost"),
            MoveOperationToNewComponent("ghost", node),
            MoveOperationToNewComponent(operation, "ghost"),
            MoveOperationToComponent(operation, "ghost"),
        ):
            same_probe(fold, current, action)
        mine, theirs = twin_rngs(rng)
        action, fold = random_action(fold, mine, allow_new_nodes)
        want, current = oracle.random_action(current, theirs, allow_new_nodes)
        assert action == want
        assert mine.bit_generator.state == theirs.bit_generator.state
        assert save(fold.architecture()) == save(current)
        folds.append(fold)
        archs.append(current)
        rng = mine
    # a chunk of the folds has the rows of the oracle's compile pass, with
    # each fold's operation rows in the chunk's numbering
    chunk = CompiledChunk(folds)
    expected = oracle.chunk_arrays(archs)
    order = [
        start + k
        for start, fold, folded in zip(expected["operation_start"], folds, archs)
        for k in oracle.chunk_operation_rows(arch, folded, fold.added)
    ]
    assert sorted(order) == list(range(len(order)))
    chunk_row = {k: row for row, k in enumerate(order)}
    for attribute in ("operation_demand", "operation_component"):
        expected[attribute] = [expected[attribute][k] for k in order]
    expected["step_operation"] = [chunk_row[k] for k in expected["step_operation"]]
    for attribute, rows in expected.items():
        compiled = getattr(chunk, attribute)
        if attribute == "station_ids":
            assert [tuple(ids) for ids in compiled] == rows
        else:
            assert np.asarray(compiled).ravel().tolist() == np.asarray(rows).ravel().tolist(), attribute


def edge_model(components, nodes=("n1", "n2"), links=(("l12", "n1", "n2"),)):
    """One scenario calling each component's operations in turn, every
    component on n1."""
    return make_arch(
        components=[(cid, 0.01, [(op, 0.1) for op in ops]) for cid, ops in components],
        nodes=[(n, 1.0, 1) for n in nodes],
        deployment={cid: "n1" for cid, _ in components},
        scenarios=[("s1", 1.0, 2, 1.0, [(op, 1.0) for _, ops in components for op in ops])],
        links=[(lid, a, b, 0.001, 0.0) for lid, a, b in links],
    )


def apply_both(arch, actions):
    """Apply ``actions`` to the fold and to the oracle, checking each probe;
    returns the final architecture."""
    fold, current = arch.fold, arch
    for action in actions:
        fold, current = same_probe(fold, current, action)
    return current


def test_a_component_named_like_a_link_copy_takes_the_next_suffix():
    arch = edge_model([("l12_copy1", ["a"]), ("c", ["b"])])
    result = apply_both(arch, [RedeployComponent("c", "new-node:n2")])
    # l12_copy1 is taken, so no link may be copied with suffix 1
    assert [n.id for n in result.nodes][-1] == "n2_copy2"
    assert {l.id for l in result.links} >= {"l12_copy2", "n2_uplink2"}


def test_emptying_that_component_frees_the_suffix():
    arch = edge_model([("l12_copy1", ["a"]), ("c", ["b"])])
    result = apply_both(arch, [MoveOperationToComponent("a", "c"), RedeployComponent("c", "new-node:n2")])
    assert "l12_copy1" not in {c.id for c in result.components}
    assert [n.id for n in result.nodes][-1] == "n2_copy1"


def test_a_node_named_like_a_link():
    # node "x" shares its id with link "x": copying node x takes x_copy1,
    # which is also the id a copy of link x would take
    arch = edge_model([("c", ["a"]), ("d", ["b"])], nodes=("n1", "x"), links=(("x", "n1", "x"),))
    result = apply_both(
        arch,
        [
            RedeployComponent("c", "new-node:x"),
            CloneComponent("d", "new-node:n1"),
            RedeployComponent("d", "new-node:x_copy1"),
        ],
    )
    assert [n.id for n in result.nodes] == ["n1", "x", "x_copy1", "n1_copy2", "x_copy1_copy3"]


def test_an_operation_named_like_a_twin():
    arch = edge_model([("c", ["a", "a_clone1"]), ("d", ["b"])])
    result = apply_both(arch, [CloneComponent("c", "n2"), CloneComponent("c_clone2", "n1")])
    assert [c.id for c in result.components] == ["c", "d", "c_clone2", "c_clone2_clone1"]
    assert [op.id for op in result.components[2].operations] == ["a_clone2", "a_clone1_clone2"]


@settings(deadline=None)
@given(
    name=st.sampled_from(["small", "large", "x3", "edge"]),
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(0, 6),
    allow_new_nodes=st.booleans(),
)
def test_fold_digest_matches_the_whole_document(name, seed, length, allow_new_nodes):
    # every prefix of a random plan: its copies, clones and moved operations
    # are encoded on their own, the rest comes from the root's fragments;
    # "edge" has a component named like a link copy and a non-ASCII id
    arch = edge_model([("l12_copy1", ["a", "b"]), ("cé", ["d"])]) if name == "edge" else probe_model(name)
    plan, _ = random_sequence(arch.fold, length, np.random.default_rng(seed), allow_new_nodes)
    for end in range(len(plan) + 1):
        fold = apply_sequence(arch.fold, plan[:end])
        assert fold.digest() == oracle.digest(fold.architecture()) == digest(fold.architecture())
