import copy
import functools
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archopt import casestudies
from archopt.model import CompiledChunk, RoutingError, invocation_matrix, load, save, validate
from archopt.refactoring import (
    _APPLIERS,
    _sample_action,
    DEFAULT_BRF,
    ActionKind,
    CloneComponent,
    InfeasibleActionError,
    MoveOperationToComponent,
    MoveOperationToNewComponent,
    RedeployComponent,
    apply_sequence,
    distance,
    is_feasible,
    random_action,
    random_sequence,
    repair,
    sequence_from_records,
    sequence_to_records,
    sequence_to_text,
)
from conftest import apply_action, make_arch


def total_weighted_demand(arch):
    """Per-scenario sum of count * cpu_demand, the conserved quantity."""
    ops = {op.id: op for comp in arch.components for op in comp.operations}
    return [
        math.fsum(step.count * ops[step.operation].cpu_demand for step in scen.steps)
        for scen in arch.scenarios
    ]


# -- feasibility -------------------------------------------------------------


def test_redeploy_to_current_node_infeasible(two_comp_arch):
    ok, reason = is_feasible(two_comp_arch.fold, RedeployComponent("c1", "n1"))
    assert not ok
    assert "target equals current node" in reason


def test_move_to_current_owner_infeasible(two_comp_arch):
    ok, reason = is_feasible(two_comp_arch.fold, MoveOperationToComponent("op1", "c1"))
    assert not ok


def test_clone_on_valid_model_feasible(two_comp_arch):
    ok, reason = is_feasible(two_comp_arch.fold, CloneComponent("c1", "n2"))
    assert ok, reason


def test_unknown_ids_infeasible(two_comp_arch):
    assert not is_feasible(two_comp_arch.fold, CloneComponent("ghost", "n1"))[0]
    assert not is_feasible(two_comp_arch.fold, RedeployComponent("c1", "ghost"))[0]
    assert not is_feasible(two_comp_arch.fold, MoveOperationToNewComponent("ghost", "n1"))[0]


# -- apply -------------------------------------------------------------------


def test_clone_splits_counts_evenly():
    arch = make_arch(
        components=[("c1", 0.05, [("op1", 0.2)])],
        nodes=[("n1", 1.0, 1), ("n2", 1.0, 1)],
        deployment={"c1": "n1"},
        scenarios=[("s1", 1.0, 2, 0.0, [("op1", 10.0)])],
        links=[("l12", "n1", "n2", 0.0, 0.0)],
    )
    result = apply_action(arch, CloneComponent("c1", "n2"))
    assert len(result.components) == 2
    replica = result.components[1]
    assert replica.failure_probability == 0.05
    counts = [step.count for step in result.scenarios[0].steps]
    assert counts == [5.0, 5.0]
    assert sum(counts) == 10.0


def test_redeploy_moves_demand_between_nodes(two_comp_arch):
    before = CompiledChunk([two_comp_arch.fold]).demands
    result = apply_action(two_comp_arch, RedeployComponent("c1", "n2"))
    after = CompiledChunk([result.fold]).demands
    np.testing.assert_allclose(before[0, 0], 0.6)
    np.testing.assert_allclose(after[0, 0], 0.0)
    np.testing.assert_allclose(after[1, 0], before[0, 0] + before[1, 0])
    # column sums over nodes unchanged (equal speed factors)
    np.testing.assert_allclose(after.sum(axis=0), before.sum(axis=0))


def test_move_to_new_component_deletes_emptied_owner(two_comp_arch):
    result = apply_action(two_comp_arch, MoveOperationToNewComponent("op2", "n1"))
    ids = [c.id for c in result.components]
    assert "c2" not in ids  # old owner had only op2
    host = result.components[-1]
    assert [op.id for op in host.operations] == ["op2"]
    assert result.deployment[host.id] == "n1"
    assert validate(result) == []


def test_move_to_existing_component(two_comp_arch):
    result = apply_action(two_comp_arch, MoveOperationToComponent("op2", "c1"))
    assert [c.id for c in result.components] == ["c1"]
    assert [op.id for op in result.components[0].operations] == ["op1", "op2"]


def test_new_node_target_copies_template_and_links(two_comp_arch):
    result = apply_action(two_comp_arch, RedeployComponent("c1", "new-node:n2"))
    assert len(result.nodes) == 3
    fresh = result.nodes[-1]
    assert fresh.id not in {"n1", "n2"}
    assert fresh.speed_factor == 1.0
    # the copy keeps the template's connectivity, so routing still works
    assert validate(result) == []
    assert result.deployment["c1"] == fresh.id


def test_apply_never_mutates_input(two_comp_arch):
    snapshot = copy.deepcopy(two_comp_arch)
    apply_action(two_comp_arch, CloneComponent("c1", "n2"))
    apply_action(two_comp_arch, RedeployComponent("c1", "n2"))
    assert two_comp_arch == snapshot


def test_apply_rejects_infeasible_with_reason(two_comp_arch):
    with pytest.raises(InfeasibleActionError, match="target equals current node"):
        apply_action(two_comp_arch, RedeployComponent("c1", "n1"))


def test_apply_sequence_reports_first_bad_index(two_comp_arch):
    seq = (
        CloneComponent("c1", "n2"),
        RedeployComponent("c2", "n1"),
        RedeployComponent("c2", "n1"),  # now already on n1
        CloneComponent("c2", "n2"),
    )
    with pytest.raises(InfeasibleActionError) as err:
        apply_sequence(two_comp_arch.fold, seq)
    assert err.value.index == 2


def test_independent_actions_commute_structurally(two_comp_arch):
    a = RedeployComponent("c1", "n2")
    b = RedeployComponent("c2", "n1")
    one = apply_action(apply_action(two_comp_arch, a), b)
    other = apply_action(apply_action(two_comp_arch, b), a)
    assert one == other


# -- distance ----------------------------------------------------------------


def test_distance_default_table_sums():
    seq = (
        CloneComponent("c1", "n2"),
        MoveOperationToNewComponent("op1", "n1"),
        MoveOperationToComponent("op1", "c2"),
        RedeployComponent("c1", "n2"),
    )
    assert distance(seq) == pytest.approx(6.12)


def test_distance_empty_sequence_is_zero():
    assert distance(()) == 0.0


def test_distance_uniform_table():
    seq = tuple(CloneComponent("c1", "n2") for _ in range(4))
    assert distance(seq, {kind: 1.0 for kind in ActionKind}) == 4.0


def test_distance_permutation_invariant(small_arch):
    rng = np.random.default_rng(5)
    seq, _ = random_sequence(small_arch.fold, 6, rng)
    shuffled = tuple(seq[i] for i in rng.permutation(6))
    assert distance(shuffled) == distance(seq)


# -- random sampling / repair -------------------------------------------------


def test_random_action_deterministic_for_fixed_seed(small_arch):
    a, built_a = random_action(small_arch.fold, np.random.default_rng(42))
    b, built_b = random_action(small_arch.fold, np.random.default_rng(42))
    assert a == b
    assert built_a.architecture() == built_b.architecture() == apply_action(small_arch, a)


def test_single_node_model_never_redeploys_without_new_nodes():
    arch = make_arch(
        components=[("c1", 0.0, [("op1", 0.1)]), ("c2", 0.0, [("op2", 0.1)])],
        nodes=[("n1", 1.0, 1)],
        deployment={"c1": "n1", "c2": "n1"},
        scenarios=[("s1", 1.0, 1, 0.0, [("op1", 1.0), ("op2", 1.0)])],
    )
    rng = np.random.default_rng(0)
    kinds = {random_action(arch.fold, rng, allow_new_nodes=False)[0].kind for _ in range(200)}
    assert ActionKind.REDEPLOY not in kinds
    rng = np.random.default_rng(0)
    kinds_with_new = {random_action(arch.fold, rng, allow_new_nodes=True)[0].kind for _ in range(200)}
    assert ActionKind.REDEPLOY in kinds_with_new


def test_repair_produces_applicable_sequences(small_arch):
    rng = np.random.default_rng(1)
    # corrupt a feasible sequence with nonsense genes and repair it
    seq = (
        RedeployComponent("catalog", "app1"),  # infeasible: already there
        CloneComponent("ghost", "app2"),
        MoveOperationToComponent("search_items", "catalog"),  # own component
        RedeployComponent("web", "spare"),
    )
    repaired, folded = repair(small_arch.fold, seq, rng)
    assert folded.architecture() == apply_sequence(small_arch.fold, repaired).architecture()
    assert validate(folded.architecture()) == []
    assert repaired[3] == seq[3]  # feasible gene kept


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["small", "large"]),
    seed=st.integers(0, 2**32 - 1),
    cut=st.integers(0, 4),
    resample_probability=st.sampled_from([0.0, 0.25, 1.0]),
)
def test_repair_from_a_store_matches_repair_without(name, seed, cut, resample_probability):
    # a prefix's fold is a pure function of the prefix, so a stored fold is
    # the one a probe would build, and the store changes no random draw
    arch = casestudies.load_case_study(name)
    rng = np.random.default_rng(seed)
    store = {}
    (a, _), (b, _) = random_sequence(arch.fold, 4, rng, folds=store), random_sequence(arch.fold, 4, rng, folds=store)
    # a's genes up to the cut are stored; b's after it may not apply there
    seq = a[:cut] + b[cut:]
    prefilled = dict(store)
    replay = np.random.default_rng()
    replay.bit_generator.state = rng.bit_generator.state
    got, got_folded = repair(arch.fold, seq, rng, resample_probability=resample_probability, folds=store)
    want, want_folded = repair(arch.fold, seq, replay, resample_probability=resample_probability)
    assert got == want
    assert save(got_folded.architecture()) == save(want_folded.architecture())
    assert rng.bit_generator.state == replay.bit_generator.state
    assert prefilled.keys() <= store.keys()
    assert all(got[:i] in store for i in range(1, len(got) + 1))
    for prefix, fold in store.items():
        assert save(fold.architecture()) == save(apply_sequence(arch.fold, prefix).architecture())


def test_conservation_over_random_sequences(small_arch):
    rng = np.random.default_rng(9)
    base = total_weighted_demand(small_arch)
    for _ in range(50):
        seq, built = random_sequence(small_arch.fold, 4, rng)
        folded = apply_sequence(small_arch.fold, seq).architecture()
        assert built.architecture() == folded
        after = total_weighted_demand(folded)
        np.testing.assert_allclose(after, base, rtol=1e-12)
        assert validate(folded) == []


# -- serialization -----------------------------------------------------------


@pytest.mark.parametrize(
    "action, record, text",
    [
        (CloneComponent("c1", "n2"), {"kind": "clone", "component": "c1", "target": "n2"}, "clone(c1->n2)"),
        (
            MoveOperationToNewComponent("op1", "n2"),
            {"kind": "move_to_new", "operation": "op1", "target": "n2"},
            "move_to_new(op1->n2)",
        ),
        (
            MoveOperationToComponent("op1", "c2"),
            {"kind": "move_to_component", "operation": "op1", "component": "c2"},
            "move_to_component(op1->c2)",
        ),
        (
            RedeployComponent("c1", "new-node:n2"),
            {"kind": "redeploy", "component": "c1", "target": "new-node:n2"},
            "redeploy(c1->new-node:n2)",
        ),
    ],
)
def test_action_record_and_text_are_pinned(action, record, text):
    seq = (action,)
    assert sequence_to_records(seq) == [record]
    assert list(sequence_to_records(seq)[0]) == list(record)  # key order too
    assert sequence_to_text(seq) == text
    assert sequence_from_records([record]) == seq


def test_sequence_records_round_trip(small_arch):
    rng = np.random.default_rng(4)
    seq, _ = random_sequence(small_arch.fold, 4, rng)
    assert sequence_from_records(sequence_to_records(seq)) == seq


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["small", "large"]),
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(1, 8),
    gene_prob=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_every_prefix_fold_is_valid(name, seed, length, gene_prob):
    # actions keep every invariant by construction, so the program checks
    # validity only where a model enters; this is the check it no longer runs
    arch = casestudies.load_case_study(name)
    rng = np.random.default_rng(seed)
    seq, _ = random_sequence(arch.fold, length, rng)
    if gene_prob:
        # resampled genes land on prefixes the original sequence never saw
        from archopt.moea import mutate

        seq, _ = mutate(arch.fold, seq, rng, gene_prob)
    current = arch
    for action in seq:
        current = apply_action(current, action)
        assert validate(current) == []


@functools.cache
def probe_model(name: str):
    """A bundled case study, or "x3": the spea2-large-x3 benchmark model."""
    if name != "x3":
        return casestudies.load_case_study(name)
    path = Path(__file__).resolve().parents[1] / "searchbench" / "run.py"
    spec = importlib.util.spec_from_file_location("searchbench_run", path)
    bench = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = bench  # dataclasses resolve the module by name
    spec.loader.exec_module(bench)
    return load(bench.model_document(bench.WORKLOADS["spea2-large-x3"]))


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["small", "large", "x3"]),
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(0, 4),
)
def test_probe_routing_agrees_with_full_routing(name, seed, length):
    # the probe checks only the calls next to what an action moved; full
    # routing matches link pairs on the compiled chunk: both must reject the
    # same results, with one text
    arch = probe_model(name)
    rng = np.random.default_rng(seed)
    _, prefix = random_sequence(arch.fold, length, rng)
    for _ in range(4):
        for kind in ActionKind:
            action = _sample_action(prefix, kind, rng, True)
            if action is None:
                continue
            applied, precondition = _APPLIERS[kind](prefix, action)
            result, reason = is_feasible(prefix, action)
            if applied is None:
                assert (result, reason) == (None, precondition)
                continue
            try:
                invocation_matrix(CompiledChunk([applied]))
            except RoutingError as routed:
                assert (result, reason) == (None, f"result would be unroutable: {routed}")
            else:
                assert result is not None and reason == ""
