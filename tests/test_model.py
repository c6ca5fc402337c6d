import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archopt import casestudies
from archopt.model import (
    Architecture,
    CallStep,
    CompiledChunk,
    Component,
    ModelFormatError,
    NetworkLink,
    Operation,
    ProcessorNode,
    RoutingError,
    UsageScenario,
    invocation_matrix,
    load,
    save,
    to_dict,
    unrouted_call,
    validate,
)
from archopt.refactoring import apply_sequence, random_sequence
from conftest import make_arch


def test_valid_model_has_no_violations(two_comp_arch):
    assert validate(two_comp_arch) == []


def test_mix_weights_must_sum_to_one(two_comp_arch):
    arch = make_arch(
        components=[("c1", 0.0, [("op1", 0.2)])],
        nodes=[("n1", 1.0, 1)],
        deployment={"c1": "n1"},
        scenarios=[
            ("s1", 0.5, 1, 0.0, [("op1", 1.0)]),
            ("s2", 0.4, 1, 0.0, [("op1", 1.0)]),
        ],
    )
    violations = validate(arch)
    assert len(violations) == 1
    assert "scenario mix weights must sum to 1" in violations[0]


def test_deployment_to_missing_node_is_named():
    arch = make_arch(
        components=[("c1", 0.0, [("op1", 0.2)])],
        nodes=[("n1", 1.0, 1)],
        deployment={"c1": "n9"},
        scenarios=[("s1", 1.0, 1, 0.0, [("op1", 1.0)])],
    )
    violations = validate(arch)
    assert len(violations) == 1
    assert "n9" in violations[0]


def test_unroutable_call_is_one_violation(two_comp_arch):
    arch = replace(two_comp_arch, links=())
    assert validate(arch) == [
        "routing: scenario 's1': call to 'op2' crosses nodes ('n1', 'n2') with no connecting link"
    ]
    # routing is checked only once every reference resolves
    dangling = replace(arch, deployment={"c1": "n1"})
    assert validate(dangling) == ["deployment-total: component 'c2' has no deployment target"]


@pytest.mark.parametrize(
    "mutant, fragment",
    [
        (lambda a: Component("c1", (Operation("op1", 0.2),), 1.3), "failure-probability-range"),
        (lambda a: Component("c1", (), 0.0), "component-empty"),
        (lambda a: Component("c1", (Operation("op1", -0.1),), 0.0), "cpu-demand-range"),
    ],
)
def test_component_invariants(two_comp_arch, mutant, fragment):
    broken = Architecture(
        (mutant(None), two_comp_arch.components[1]),
        two_comp_arch.nodes,
        two_comp_arch.links,
        two_comp_arch.scenarios,
        dict(two_comp_arch.deployment),
    )
    assert any(fragment in v for v in validate(broken))


@pytest.mark.parametrize(
    "mutant, violation",
    [
        (
            lambda a: replace(a, nodes=(replace(a.nodes[0], cores=True), a.nodes[1])),
            "cores-range: node 'n1' has cores True, must be an integer >= 1",
        ),
        (
            lambda a: replace(a, scenarios=(replace(a.scenarios[0], population=True),)),
            "scenario-population: scenario 's1' has population True, must be an integer >= 1",
        ),
    ],
    ids=["cores", "population"],
)
def test_bool_is_not_an_integer_count(two_comp_arch, mutant, violation):
    # isinstance(True, int) holds; from_dict already rejects a JSON true here
    assert validate(mutant(two_comp_arch)) == [violation]


@pytest.mark.parametrize(
    "mutant, violations",
    [
        (
            lambda a: replace(a, components=(replace(a.components[0], failure_probability=1.3), a.components[1])),
            ["failure-probability-range: component 'c1' has failure probability 1.3, must be in [0, 1]"],
        ),
        (
            lambda a: replace(a, components=(Component("c1", (Operation("op1", -0.1),), 0.0), a.components[1])),
            ["cpu-demand-range: operation 'op1' has cpu demand -0.1, must be finite and >= 0"],
        ),
        (
            lambda a: replace(a, nodes=(replace(a.nodes[0], speed_factor=0.0), a.nodes[1])),
            ["speed-factor-range: node 'n1' has speed factor 0.0, must be > 0"],
        ),
        (
            lambda a: replace(a, nodes=(a.nodes[0], replace(a.nodes[1], speed_factor=float("inf")))),
            ["speed-factor-range: node 'n2' has speed factor inf, must be > 0"],
        ),
        (
            lambda a: replace(a, nodes=(replace(a.nodes[0], cores=0), a.nodes[1])),
            ["cores-range: node 'n1' has cores 0, must be an integer >= 1"],
        ),
        (
            lambda a: replace(a, links=(replace(a.links[0], failure_probability=-0.5),)),
            ["failure-probability-range: link 'l12' has failure probability -0.5, must be in [0, 1]"],
        ),
        (
            lambda a: replace(a, links=(replace(a.links[0], delay=float("nan")),)),
            ["delay-range: link 'l12' has delay nan, must be finite and >= 0"],
        ),
        (
            lambda a: replace(a, scenarios=(replace(a.scenarios[0], mix_weight=1.5),)),
            [
                "scenario-mix-weight-range: scenario 's1' has mix weight 1.5, must be in [0, 1]",
                "scenario-mix-sum: scenario mix weights must sum to 1, got 1.5",
            ],
        ),
        (
            lambda a: replace(a, scenarios=(replace(a.scenarios[0], population=0),)),
            ["scenario-population: scenario 's1' has population 0, must be an integer >= 1"],
        ),
        (
            lambda a: replace(a, scenarios=(replace(a.scenarios[0], think_time=-1.0),)),
            ["scenario-think-time: scenario 's1' has think time -1.0, must be finite and >= 0"],
        ),
        (
            lambda a: replace(
                a, scenarios=(replace(a.scenarios[0], steps=(a.scenarios[0].steps[0], CallStep("op2", float("inf")))),)
            ),
            ["step-count-range: scenario 's1' step for 'op2' has count inf, must be finite and >= 0"],
        ),
    ],
    ids=[
        "component-theta", "cpu-demand", "speed-zero", "speed-inf", "cores", "link-psi", "delay",
        "mix-weight", "population", "think-time", "step-count",
    ],
)
def test_range_violation_texts(two_comp_arch, mutant, violations):
    arch = mutant(two_comp_arch)
    assert validate(arch) == violations
    with pytest.raises(ModelFormatError) as error:
        load(save(arch))
    assert str(error.value) == "invalid architecture:\n" + "\n".join(f"  - {v}" for v in violations)


def _set(*path_and_value):
    """A document mutation that sets the value at ``path`` (keys and indices)."""
    *path, key, value = path_and_value

    def mutate(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value

    return mutate


def _delete(*path_and_key):
    *path, key = path_and_key

    def mutate(doc):
        for step in path:
            doc = doc[step]
        del doc[key]

    return mutate


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_delete("components", 0, "failure_probability"), "$.components[0].failure_probability: required key is missing"),
        (_delete("nodes", 0, "id"), "$.nodes[0].id: required key is missing"),
        (_delete("deployment"), "$.deployment: required key is missing"),
        (_set("components", 0, "operations", 0, "cpu_demand", "0.2"), "$.components[0].operations[0].cpu_demand: expected a number, got str"),
        (_set("scenarios", 0, "steps", 1, "count", True), "$.scenarios[0].steps[1].count: expected a number, got bool"),
        (_set("links", 0, "delay", None), "$.links[0].delay: expected a number, got NoneType"),
        (_set("nodes", 1, "cores", 2.0), "$.nodes[1].cores: expected an integer, got float"),
        (_set("scenarios", 0, "population", False), "$.scenarios[0].population: expected an integer, got bool"),
        (_set("nodes", 1, "id", 5), "$.nodes[1].id: expected str, got int"),
        (_set("scenarios", 0, "steps", 0, "operation", ["op1"]), "$.scenarios[0].steps[0].operation: expected str, got list"),
        (_set("components", {}), "$.components: expected list, got dict"),
        (_set("scenarios", 0, "steps", "op1"), "$.scenarios[0].steps: expected list, got str"),
        (_set("links", 0, "nodes", {"a": "n1"}), "$.links[0].nodes: expected list, got dict"),
        (_set("deployment", []), "$.deployment: expected dict, got list"),
        (_set("scenarios", 0, "steps", 1, 3), "$.scenarios[0].steps[1]: expected an object"),
        (_set("nodes", 0, ["n1"]), "$.nodes[0]: expected an object"),
        (_set("links", 0, "nodes", ["n1"]), "$.links[0].nodes: expected a pair of node ids"),
        (_set("links", 0, "nodes", ["n1", "n2", "n1"]), "$.links[0].nodes: expected a pair of node ids"),
        (_set("links", 0, "nodes", ["n1", 2]), "$.links[0].nodes: expected a pair of node ids"),
        (_set("deployment", "c2", 1), "$.deployment.c2: expected a node id string"),
        (_set("nodes", 0, "cpu", 1), "$.nodes[0].cpu: unknown key"),
        # every number and integer must fit a float
        (_set("components", 0, "operations", 0, "cpu_demand", 10**400), "$.components[0].operations[0].cpu_demand: integer too large for a float"),
        (_set("nodes", 1, "cores", 10**400), "$.nodes[1].cores: integer too large for a float"),
        (_set("scenarios", 0, "population", -(10**400)), "$.scenarios[0].population: integer too large for a float"),
        # the first error in reading order wins: a nested list before its
        # owner's id, an unknown key before any value of its object
        (_delete("links", 0, "id"), "$.links[0].id: required key is missing"),
        (lambda doc: doc["links"][0].clear(), "$.links[0].nodes: required key is missing"),
        (lambda doc: doc["components"][0].update(id=1, operations=None), "$.components[0].operations: expected list, got NoneType"),
        (lambda doc: doc["scenarios"][0].update(id=1, extra=0), "$.scenarios[0].extra: unknown key"),
        (lambda doc: doc.update(nodes=None, components=None), "$.components: expected list, got NoneType"),
    ],
)
def test_parse_error_texts(two_comp_arch, mutate, message):
    doc = to_dict(two_comp_arch)
    mutate(doc)
    with pytest.raises(ModelFormatError) as error:
        load(json.dumps(doc))
    assert str(error.value) == message


def test_a_document_that_is_not_an_object_is_rejected():
    with pytest.raises(ModelFormatError) as error:
        load("[]")
    assert str(error.value) == "$: expected an object"


def test_duplicate_operation_ids_flagged(two_comp_arch):
    dup = Component("c3", (Operation("op1", 0.5),), 0.0)
    broken = Architecture(
        two_comp_arch.components + (dup,),
        two_comp_arch.nodes,
        two_comp_arch.links,
        two_comp_arch.scenarios,
        {**two_comp_arch.deployment, "c3": "n1"},
    )
    assert any("duplicate-id" in v and "op1" in v for v in validate(broken))


# -- serialization -----------------------------------------------------------


def test_round_trip_save_load(two_comp_arch):
    assert load(save(two_comp_arch)) == two_comp_arch


@pytest.mark.parametrize("name", ["small", "large"])
def test_case_study_round_trip(name, small_arch, large_arch):
    arch = {"small": small_arch, "large": large_arch}[name]
    text = save(arch)
    assert load(text) == arch
    # save(load(doc)) == doc modulo key ordering
    assert json.loads(save(load(text))) == json.loads(text)


def test_load_missing_scenarios_names_path(two_comp_arch):
    doc = to_dict(two_comp_arch)
    del doc["scenarios"]
    with pytest.raises(ModelFormatError, match=r"\$\.scenarios"):
        load(json.dumps(doc))


def test_load_rejects_out_of_range_theta(two_comp_arch):
    doc = to_dict(two_comp_arch)
    doc["components"][0]["failure_probability"] = 1.3
    with pytest.raises(ModelFormatError, match="failure-probability-range"):
        load(json.dumps(doc))


@pytest.mark.parametrize(
    "mutate, path",
    [
        (lambda doc: doc["nodes"][0].update(speed=4.0), r"$.nodes[0].speed"),
        (lambda doc: doc["links"][0].update(latency=0.1), r"$.links[0].latency"),
        (lambda doc: doc.update(comment="extra"), r"$.comment"),
        (lambda doc: doc["scenarios"][0]["steps"][0].update(calls=2.0), r"$.scenarios[0].steps[0].calls"),
        (lambda doc: doc["scenarios"][0].update(weight=1.0), r"$.scenarios[0].weight"),
        (lambda doc: doc["components"][1].update(theta=0.1), r"$.components[1].theta"),
        (lambda doc: doc["components"][0]["operations"][0].update(demand=0.1), r"$.components[0].operations[0].demand"),
    ],
    ids=["node", "link", "root", "step", "scenario", "component", "operation"],
)
def test_load_rejects_unknown_keys_naming_path(two_comp_arch, mutate, path):
    # a misspelt key would otherwise load as its default, or not at all
    doc = to_dict(two_comp_arch)
    mutate(doc)
    with pytest.raises(ModelFormatError) as error:
        load(json.dumps(doc))
    assert str(error.value) == f"{path}: unknown key"


def test_load_rejects_a_repeated_key():
    # json.loads alone keeps the last of the two, a cpu demand of 5.0
    text = casestudies.path("small").read_text()
    repeated = text.replace('"cpu_demand": 0.004}', '"cpu_demand": 0.004, "cpu_demand": 5.0}', 1)
    assert repeated != text
    with pytest.raises(ModelFormatError) as error:
        load(repeated)
    assert str(error.value) == "duplicate key 'cpu_demand'"


def test_load_reports_parse_error_position():
    with pytest.raises(ModelFormatError, match="line 1"):
        load("{not json")


def test_validate_empty_iff_load_accepts(two_comp_arch):
    # valid model: load accepts its own serialization
    assert validate(two_comp_arch) == []
    load(save(two_comp_arch))
    # invalid model: save still works, load rejects
    broken = Architecture(
        two_comp_arch.components,
        two_comp_arch.nodes,
        two_comp_arch.links,
        two_comp_arch.scenarios,
        {**two_comp_arch.deployment, "c1": "n9"},
    )
    assert validate(broken) != []
    with pytest.raises(ModelFormatError):
        load(save(broken))


# -- demand matrix -----------------------------------------------------------


def test_demand_matrix_hand_example():
    arch = make_arch(
        components=[("c1", 0.0, [("op1", 0.2)])],
        nodes=[("n1", 1.0, 1)],
        deployment={"c1": "n1"},
        scenarios=[("s1", 1.0, 1, 0.0, [("op1", 3.0)])],
    )
    np.testing.assert_allclose(CompiledChunk([arch.fold]).demands, [[0.6]])


def test_demand_matrix_speed_scaling():
    arch = make_arch(
        components=[("c1", 0.0, [("op1", 0.2)])],
        nodes=[("n1", 2.0, 1)],
        deployment={"c1": "n1"},
        scenarios=[("s1", 1.0, 1, 0.0, [("op1", 3.0)])],
    )
    np.testing.assert_allclose(CompiledChunk([arch.fold]).demands, [[0.3]])


def test_demand_matrix_zero_count_contributes_nothing():
    arch = make_arch(
        components=[("c1", 0.0, [("op1", 0.2)])],
        nodes=[("n1", 1.0, 1)],
        deployment={"c1": "n1"},
        scenarios=[("s1", 1.0, 1, 0.0, [("op1", 0.0)])],
    )
    np.testing.assert_allclose(CompiledChunk([arch.fold]).demands, [[0.0]])


def test_demand_matrix_linearity(small_arch):
    base = CompiledChunk([small_arch.fold]).demands
    halved_nodes = tuple(
        ProcessorNode(n.id, n.speed_factor / 2.0, n.cores) for n in small_arch.nodes
    )
    halved = Architecture(
        small_arch.components, halved_nodes, small_arch.links, small_arch.scenarios, dict(small_arch.deployment)
    )
    np.testing.assert_allclose(CompiledChunk([halved.fold]).demands, 2.0 * base, rtol=1e-12)


# -- invocation matrix -------------------------------------------------------


def test_invocations_colocated_no_messages():
    arch = make_arch(
        components=[("a", 0.0, [("opA", 0.1)]), ("b", 0.0, [("opB", 0.1)])],
        nodes=[("n1", 1.0, 1)],
        deployment={"a": "n1", "b": "n1"},
        scenarios=[("s1", 1.0, 1, 0.0, [("opA", 2.0), ("opB", 1.0)])],
    )
    v, m = invocation_matrix(CompiledChunk([arch.fold]))
    np.testing.assert_allclose(v, [[2.0], [1.0]])
    assert m.size == 0


def test_invocations_cross_node_messages(two_comp_arch):
    v, m = invocation_matrix(CompiledChunk([two_comp_arch.fold]))
    np.testing.assert_allclose(v, [[3.0], [1.0]])
    # only the op1 -> op2 hop crosses n1 -> n2
    np.testing.assert_allclose(m, [[1.0]])


def test_single_step_scenario_never_crosses_links():
    arch = make_arch(
        components=[("a", 0.0, [("opA", 0.1)])],
        nodes=[("n1", 1.0, 1), ("n2", 1.0, 1)],
        deployment={"a": "n1"},
        scenarios=[("s1", 1.0, 1, 0.0, [("opA", 5.0)])],
        links=[("l12", "n1", "n2", 0.1, 0.0)],
    )
    _, m = invocation_matrix(CompiledChunk([arch.fold]))
    np.testing.assert_allclose(m, [[0.0]])


def test_missing_link_raises_naming_nodes():
    arch = make_arch(
        components=[("a", 0.0, [("opA", 0.1)]), ("b", 0.0, [("opB", 0.1)])],
        nodes=[("n1", 1.0, 1), ("n2", 1.0, 1)],
        deployment={"a": "n1", "b": "n2"},
        scenarios=[("s1", 1.0, 1, 0.0, [("opA", 1.0), ("opB", 1.0)])],
    )
    with pytest.raises(RoutingError, match="'n1', 'n2'"):
        invocation_matrix(CompiledChunk([arch.fold]))


def test_all_zero_counts_give_zero_matrices(two_comp_arch):
    zeroed = make_arch(
        components=[("c1", 0.0, [("op1", 0.2)]), ("c2", 0.0, [("op2", 0.1)])],
        nodes=[("n1", 1.0, 1), ("n2", 1.0, 1)],
        deployment={"c1": "n1", "c2": "n2"},
        scenarios=[("s1", 1.0, 4, 1.0, [("op1", 0.0), ("op2", 0.0)])],
        links=[("l12", "n1", "n2", 0.0, 0.0)],
    )
    v, m = invocation_matrix(CompiledChunk([zeroed.fold]))
    assert (v >= 0).all() and not v.any()
    assert not m.any()


# -- compiled chunk against the object-graph loops it replaced ---------------


def naive_demand_matrix(arch):
    node_index = {n.id: k for k, n in enumerate(arch.nodes)}
    owners = {op.id: comp for comp in arch.components for op in comp.operations}
    ops = {op.id: op for comp in arch.components for op in comp.operations}
    demands = np.zeros((len(arch.nodes), len(arch.scenarios)))
    for j, scen in enumerate(arch.scenarios):
        for step in scen.steps:
            k = node_index[arch.deployment[owners[step.operation].id]]
            demands[k, j] += step.count * ops[step.operation].cpu_demand / arch.nodes[k].speed_factor
    return demands


def naive_invocation_matrix(arch):
    """Scans every link for every cross-node call; None if unroutable."""
    comp_index = {c.id: i for i, c in enumerate(arch.components)}
    owners = {op.id: comp for comp in arch.components for op in comp.operations}
    invocations = np.zeros((len(arch.components), len(arch.scenarios)))
    messages = np.zeros((len(arch.links), len(arch.scenarios)))
    for j, scen in enumerate(arch.scenarios):
        caller_node = None
        for step in scen.steps:
            callee = owners[step.operation]
            callee_node = arch.deployment[callee.id]
            invocations[comp_index[callee.id], j] += step.count
            if caller_node is not None and caller_node != callee_node:
                matched = False
                for l, link in enumerate(arch.links):
                    if set(link.endpoints) == {caller_node, callee_node}:
                        messages[l, j] += step.count
                        matched = True
                if not matched:
                    return None
            caller_node = callee_node
    return invocations, messages


def with_parallel_link(arch, reverse=False):
    """A second link beside the first one, with its own failure probability."""
    first = arch.links[0]
    endpoints = first.endpoints[::-1] if reverse else first.endpoints
    twin = NetworkLink(f"{first.id}_twin", endpoints, failure_probability=0.05, delay=first.delay)
    return replace(arch, links=arch.links + (twin,))


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["small", "large"]),
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(0, 6),
)
def test_compiled_matrices_equal_naive_reference(name, seed, length):
    arch = casestudies.load_case_study(name)
    folded = apply_sequence(arch.fold, random_sequence(arch.fold, length, np.random.default_rng(seed))[0]).architecture()
    invocations, messages = invocation_matrix(CompiledChunk([folded.fold]))
    naive_invocations, naive_messages = naive_invocation_matrix(folded)
    # same additions in the same order: equal to the last bit
    np.testing.assert_array_equal(invocations, naive_invocations)
    np.testing.assert_array_equal(messages, naive_messages)
    np.testing.assert_array_equal(CompiledChunk([folded.fold]).demands, naive_demand_matrix(folded))


@pytest.mark.parametrize("reverse", [False, True], ids=["same-order", "reversed"])
def test_parallel_link_is_rejected(two_comp_arch, reverse):
    arch = with_parallel_link(two_comp_arch, reverse)
    violation = "link-parallel: links 'l12' and 'l12_twin' join the same two nodes"
    assert validate(arch) == [violation]
    with pytest.raises(ModelFormatError, match=violation):
        load(save(arch))


def test_unroutable_models_fail_like_the_naive_reference():
    arch = make_arch(
        components=[("a", 0.0, [("opA", 0.1)]), ("b", 0.0, [("opB", 0.1)]), ("c", 0.0, [("opC", 0.1)])],
        nodes=[("n1", 1.0, 1), ("n2", 1.0, 1), ("n3", 1.0, 1)],
        deployment={"a": "n1", "b": "n2", "c": "n3"},
        scenarios=[("s1", 1.0, 1, 0.0, [("opA", 1.0), ("opB", 1.0), ("opC", 1.0)])],
        links=[("l12", "n1", "n2", 0.0, 0.0)],
    )
    assert naive_invocation_matrix(arch) is None
    with pytest.raises(RoutingError) as error:
        invocation_matrix(CompiledChunk([arch.fold]))
    assert "call to 'opC' crosses nodes ('n2', 'n3')" in str(error.value)
    assert str(error.value) == unrouted_call(arch.fold)
    # demand needs no routing
    np.testing.assert_array_equal(CompiledChunk([arch.fold]).demands, naive_demand_matrix(arch))


def test_compiled_matrices_are_read_only(two_comp_arch):
    invocations, messages = invocation_matrix(CompiledChunk([two_comp_arch.fold]))
    for matrix in (invocations, messages, CompiledChunk([two_comp_arch.fold]).demands):
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 99.0
    assert invocation_matrix(CompiledChunk([two_comp_arch.fold]))[0][0, 0] == 3.0
