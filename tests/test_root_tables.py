"""The tables a ``FoldRoot`` builds once and every fold reads, against the
object-graph refactoring and whole-document digest of ``oracle.py``.

* Node copies: a copy of a template that no link of its plan touches is
  kept per (template, suffix) and reused by every fold of the root.
* Digest fragments: each element's canonical JSON is kept by its row and
  encoded once per root.
* Adjacent calls: a probe checks only the calls into and out of the
  operations its action moved, redeployed or cloned.

The property tests set no ``max_examples``, so a hypothesis profile sets
their size: CI runs them again under ``--hypothesis-profile=thorough``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from archopt import casestudies
from archopt.model import digest, unrouted_call
from archopt.refactoring import (
    _APPLIERS,
    NEW_NODE_PREFIX,
    ActionKind,
    CloneComponent,
    MoveOperationToComponent,
    MoveOperationToNewComponent,
    RedeployComponent,
    _sample_action,
    is_feasible,
    random_action,
    random_sequence,
)
from conftest import make_arch
from test_fold import apply_both, edge_model, same_probe, twin_rngs
from test_refactoring import probe_model

# the edge models of test_fold.py, each built anew so each example starts
# from a fresh root; probe_model's bundled models keep one root per run
EDGE_MODELS = {
    "link-copy-component": lambda: edge_model([("l12_copy1", ["a"]), ("c", ["b"])]),
    "node-named-like-a-link": lambda: edge_model(
        [("c", ["a"]), ("d", ["b"])], nodes=("n1", "x"), links=(("x", "n1", "x"),)
    ),
    "operation-named-like-a-twin": lambda: edge_model([("c", ["a", "a_clone1"]), ("d", ["b"])]),
    "non-ascii": lambda: edge_model([("l12_copy1", ["a", "b"]), ("cé", ["d"])]),
}


def model(name: str):
    return EDGE_MODELS[name]() if name in EDGE_MODELS else probe_model(name)


# -- node copies ----------------------------------------------------------------


def test_two_folds_of_one_root_share_a_node_copy():
    arch = casestudies.load_case_study("small")  # not probe_model's: its root is shared
    root = arch.fold.root
    first = apply_both(arch, [MoveOperationToComponent("check_token", "web"), CloneComponent("web", "new-node:app2")])
    assert list(root.node_copies) == [("app2", 1)]
    second = apply_both(arch, [RedeployComponent("storage", "spare"), RedeployComponent("auth", "new-node:app2")])
    assert list(root.node_copies) == [("app2", 1)]
    added = [link for link in first.links if link not in arch.links]
    assert [link.id for link in added] == ["lan-a1-a2_copy1", "lan-a2-sp_copy1", "app2_uplink1"]
    assert added == [link for link in second.links if link not in arch.links]


def test_a_node_copy_is_not_reused_where_the_plan_touched_its_template():
    # a component holds the id n2_copy1, so a plan that leaves n2 alone
    # copies it with suffix 2, and the root keeps that copy
    arch = edge_model([("n2_copy1", ["a"]), ("c", ["b"])])
    root = arch.fold.root
    apply_both(arch, [RedeployComponent("c", "new-node:n2")])
    assert ("n2", 2) in root.node_copies
    # emptying that component frees n2_copy1; once n2 is copied, its
    # uplink touches n2, so the next copy (suffix 2) copies that uplink too
    result = apply_both(
        arch,
        [MoveOperationToComponent("a", "c"), RedeployComponent("c", "new-node:n2"), CloneComponent("c", "new-node:n2")],
    )
    assert {"n2_copy1", "n2_copy2"} <= {n.id for n in result.nodes}
    assert "n2_uplink1_copy2" in {l.id for l in result.links}


@settings(deadline=None)
@given(
    name=st.sampled_from(["small", "large", "x3", *EDGE_MODELS]),
    seed=st.integers(0, 2**32 - 1),
    plans=st.integers(2, 4),
    length=st.integers(1, 4),
)
def test_node_copies_of_many_plans_on_one_root_match_the_oracle(name, seed, plans, length):
    # several plans of one root copy its nodes: a later plan reads the
    # copies an earlier one left, and a plan that copies a node twice must not
    arch = model(name)
    rng = np.random.default_rng(seed)
    for _ in range(plans):
        fold, current = arch.fold, arch
        for _ in range(length):
            component = current.components[int(rng.integers(len(current.components)))].id
            for node in current.nodes:
                same_probe(fold, current, CloneComponent(component, NEW_NODE_PREFIX + node.id))
                same_probe(fold, current, RedeployComponent(component, NEW_NODE_PREFIX + node.id))
            mine, theirs = twin_rngs(rng)
            action, fold = random_action(fold, mine)
            want, current = oracle.random_action(current, theirs)
            assert action == want
            rng = mine
    assert arch.fold.root.node_copies  # the later plans read what the first one kept


# -- digest fragments -------------------------------------------------------------


@settings(deadline=None)
@given(
    name=st.sampled_from(["small", "large", "x3", *EDGE_MODELS]),
    seed=st.integers(0, 2**32 - 1),
    plans=st.integers(2, 12),
    allow_new_nodes=st.booleans(),
)
def test_many_plans_digested_on_one_root_match_the_oracle(name, seed, plans, allow_new_nodes):
    # later plans read the fragments that earlier ones encoded
    arch = model(name)
    rng = np.random.default_rng(seed)
    for _ in range(plans):
        _, fold = random_sequence(arch.fold, int(rng.integers(0, 7)), rng, allow_new_nodes)
        assert fold.digest() == oracle.digest(fold.architecture()) == digest(fold.architecture())


def test_a_negative_zero_is_never_read_as_a_zero():
    # two hosts b_host1 with one row but for the sign of their failure
    # probability: 0.0 taken from d, -0.0 from c
    arch = make_arch(
        components=[("c", -0.0, [("a", 0.1)]), ("d", 0.0, [("b", 0.1)])],
        nodes=[("n1", 1.0, 1)],
        deployment={"c": "n1", "d": "n1"},
        scenarios=[("s1", 1.0, 2, 1.0, [("a", 1.0), ("b", 1.0)])],
    )
    plans = [
        [MoveOperationToNewComponent("b", "n1")],
        [MoveOperationToComponent("b", "c"), MoveOperationToNewComponent("b", "n1")],
        [MoveOperationToNewComponent("b", "n1")],
    ]
    for plan in plans:
        fold = arch.fold
        for action in plan:
            fold, _ = is_feasible(fold, action)
        assert fold.digest() == oracle.digest(fold.architecture())


# -- adjacent calls ---------------------------------------------------------------


def rejection(fold, action) -> str:
    """The probe's reason, checked against a full walk of the fold the
    action builds when its preconditions hold."""
    _, reason = is_feasible(fold, action)
    applied, _ = _APPLIERS[action.kind](fold, action)
    if applied is not None:
        call = unrouted_call(applied)
        assert call == oracle.unrouted_call(applied.architecture())
        assert reason == ("" if call is None else f"result would be unroutable: {call}")
    return reason


@settings(deadline=None)
@given(
    name=st.sampled_from(["small", "large", "x3"]),
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(0, 4),
)
def test_a_probe_rejects_with_the_full_walks_reason(name, seed, length):
    arch = probe_model(name)
    rng = np.random.default_rng(seed)
    _, fold = random_sequence(arch.fold, length, rng)
    for _ in range(4):
        for kind in ActionKind:
            action = _sample_action(fold, kind, rng, True)
            if action is not None:
                rejection(fold, action)


def three_nodes(steps, deployment, links):
    """Components c (operation a) and d (operation b) on nodes n1-n3 with one
    scenario of the given steps."""
    return make_arch(
        components=[("c", 0.01, [("a", 0.1)]), ("d", 0.01, [("b", 0.1)])],
        nodes=[("n1", 1.0, 1), ("n2", 1.0, 1), ("n3", 1.0, 1)],
        deployment=deployment,
        scenarios=[("s1", 1.0, 2, 1.0, [(op, 1.0) for op in steps])],
        links=[(f"l{a[1]}{b[1]}", a, b, 0.001, 0.0) for a, b in links],
    )


def test_consecutive_steps_of_a_moved_operation():
    # a calls itself on one node; the call out of the last a is the unrouted one
    arch = three_nodes(["a", "a", "b"], {"c": "n1", "d": "n1"}, [("n1", "n2")])
    assert rejection(arch.fold, MoveOperationToNewComponent("a", "n3")) == (
        "result would be unroutable: scenario 's1': call to 'b' crosses nodes ('n3', 'n1') with no connecting link"
    )
    # and the call into the first a, before it
    arch = three_nodes(["b", "a", "a"], {"c": "n1", "d": "n1"}, [("n1", "n2")])
    assert rejection(arch.fold, RedeployComponent("c", "n3")) == (
        "result would be unroutable: scenario 's1': call to 'a' crosses nodes ('n1', 'n3') with no connecting link"
    )
    assert rejection(arch.fold, RedeployComponent("c", "n2")) == ""


def test_a_twin_is_called_from_its_originals_node():
    arch = three_nodes(["a", "b"], {"c": "n1", "d": "n3"}, [("n1", "n3"), ("n1", "n2")])
    # a (n1) calls its twin on n3, which calls b on n3
    assert rejection(arch.fold, CloneComponent("c", "n3")) == ""
    # a's twin on n2 is reached from n1, but n2 has no link to b's n3
    assert rejection(arch.fold, CloneComponent("c", "n2")) == (
        "result would be unroutable: scenario 's1': call to 'b' crosses nodes ('n2', 'n3') with no connecting link"
    )
    # the twin of b on n2 is called from b's n3
    assert rejection(arch.fold, CloneComponent("d", "n2")) == (
        "result would be unroutable: scenario 's1': call to 'b_clone1' crosses nodes ('n3', 'n2') with no connecting link"
    )
