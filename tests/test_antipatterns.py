from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archopt import casestudies
from archopt.antipatterns import Thresholds, _rules, detect
from archopt.model import CompiledChunk, invocation_matrix
from archopt.perfqn import PerformanceResult, solve_amva, to_qn
from archopt.refactoring import apply_sequence, random_sequence
from conftest import make_arch


def perf_for(arch, utilization):
    n = len(arch.scenarios)
    return PerformanceResult(
        station_ids=tuple(node.id for node in arch.nodes),
        class_ids=tuple(s.id for s in arch.scenarios),
        throughput=np.ones(n),
        response_time=np.ones(n),
        utilization=np.asarray(utilization, float),
    )


def fired(arch, perf, th=None):
    """The (kind, element) pairs that the rules' masks mark on a chunk of
    one architecture, in rule order; a concurrent-processing element is a
    node pair."""
    rules = _rules(CompiledChunk([arch.fold]), [perf], th or Thresholds())
    nodes = [node.id for node in arch.nodes]
    operations = [op.id for comp in arch.components for op in comp.operations]
    pairs = [("blob", arch.components[i].id) for i in np.flatnonzero(rules.blob)]
    pairs += [
        ("concurrent_processing", (nodes[a], nodes[b]))
        for a, b in combinations(range(len(nodes)), 2)
        if (rules.hot[a] and rules.idle[b]) or (rules.idle[a] and rules.hot[b])
    ]
    pairs += [("pipe_and_filter", operations[o]) for o in np.flatnonzero(rules.pipe_and_filter)]
    return pairs


def test_threshold_invariants():
    with pytest.raises(ValueError):
        Thresholds(util_high=0.2, util_low=0.3)
    with pytest.raises(ValueError):
        Thresholds(blob_share=0.0)
    Thresholds()  # defaults are valid


def test_idle_system_has_no_detections(two_comp_arch):
    perf = perf_for(two_comp_arch, [0.0, 0.0])
    assert fired(two_comp_arch, perf) == []
    assert detect(CompiledChunk([two_comp_arch.fold]), [perf]) == [0]


def test_concurrent_processing_pair():
    arch = make_arch(
        components=[("a", 0.0, [("opA", 0.1)]), ("b", 0.0, [("opB", 0.1)])],
        nodes=[("n1", 1.0, 1), ("n2", 1.0, 1)],
        deployment={"a": "n1", "b": "n2"},
        scenarios=[("s1", 1.0, 1, 0.0, [("opA", 1.0), ("opB", 1.0)])],
        links=[("l12", "n1", "n2", 0.0, 0.0)],
    )
    cps = [element for kind, element in fired(arch, perf_for(arch, [0.9, 0.1])) if kind == "concurrent_processing"]
    assert cps == [("n1", "n2")]


def test_one_component_model_never_raises_blob():
    arch = make_arch(
        components=[("solo", 0.0, [("op1", 0.4)])],
        nodes=[("n1", 1.0, 1)],
        deployment={"solo": "n1"},
        scenarios=[("s1", 1.0, 5, 0.0, [("op1", 10.0)])],
    )
    assert all(kind != "blob" for kind, _ in fired(arch, perf_for(arch, [0.85])))


def test_blob_fires_on_concentrated_component():
    arch = make_arch(
        components=[
            ("hub", 0.0, [("h", 0.1)]),
            ("x1", 0.0, [("a", 0.1)]),
            ("x2", 0.0, [("b", 0.1)]),
        ],
        nodes=[("n1", 1.0, 1)],
        deployment={"hub": "n1", "x1": "n1", "x2": "n1"},
        scenarios=[("s1", 1.0, 2, 0.0, [("h", 9.0), ("a", 1.0), ("b", 1.0)])],
    )
    # mean invocations = 11/3; 9 > 2 * 11/3
    blobs = [element for kind, element in fired(arch, perf_for(arch, [0.85])) if kind == "blob"]
    assert blobs == ["hub"]
    # cold node: same shape, no detection
    assert all(kind != "blob" for kind, _ in fired(arch, perf_for(arch, [0.5])))


def test_pipe_and_filter_fires_on_dominant_operation():
    arch = make_arch(
        components=[("heavy", 0.0, [("big", 0.9)]), ("light", 0.0, [("small", 0.1)])],
        nodes=[("n1", 1.0, 1)],
        deployment={"heavy": "n1", "light": "n1"},
        scenarios=[("s1", 1.0, 2, 0.0, [("big", 1.0), ("small", 1.0)])],
    )
    # "big" takes 0.9 of the scenario's demand
    paf = [element for kind, element in fired(arch, perf_for(arch, [0.9])) if kind == "pipe_and_filter"]
    assert paf == ["big"]
    # at a share threshold above 0.9 it no longer dominates
    assert ("pipe_and_filter", "big") not in fired(arch, perf_for(arch, [0.9]), Thresholds(paf_demand_share=0.95))


def test_detection_count_unit_is_kind_element():
    # component invoked heavily in BOTH scenarios still counts once
    arch = make_arch(
        components=[
            ("hub", 0.0, [("h", 0.1)]),
            ("x1", 0.0, [("a", 0.1)]),
            ("x2", 0.0, [("b", 0.1)]),
        ],
        nodes=[("n1", 1.0, 1)],
        deployment={"hub": "n1", "x1": "n1", "x2": "n1"},
        scenarios=[
            ("s1", 0.5, 2, 0.0, [("h", 9.0), ("a", 1.0), ("b", 1.0)]),
            ("s2", 0.5, 2, 0.0, [("h", 8.0), ("a", 1.0), ("b", 1.0)]),
        ],
    )
    perf = perf_for(arch, [0.9])
    assert [pair for pair in fired(arch, perf) if pair[0] == "blob"] == [("blob", "hub")]
    assert detect(CompiledChunk([arch.fold]), [perf]) == [len(fired(arch, perf))]


def test_detections_deterministic_and_order_independent(small_arch):
    perf = solve_amva(to_qn(CompiledChunk([small_arch.fold]))[0])
    first = fired(small_arch, perf)
    assert first and fired(small_arch, perf) == first
    # the same architecture scores the same at any position of a chunk
    chunk = CompiledChunk([small_arch.fold, small_arch.fold, small_arch.fold])
    assert detect(chunk, [perf, RuntimeError("failed"), perf]) == [len(first), None, len(first)]


def test_raising_util_high_never_increases_count(small_arch, large_arch):
    for arch in (small_arch, large_arch):
        perf = solve_amva(to_qn(CompiledChunk([arch.fold]))[0])
        counts = []
        for high in (0.5, 0.6, 0.7, 0.8, 0.9, 0.99):
            counts.append(detect(CompiledChunk([arch.fold]), [perf], Thresholds(util_high=high))[0])
        assert counts == sorted(counts, reverse=True)


def test_case_studies_start_with_antipatterns(small_arch, large_arch):
    for arch in (small_arch, large_arch):
        perf = solve_amva(to_qn(CompiledChunk([arch.fold]))[0])
        assert detect(CompiledChunk([arch.fold]), [perf])[0] >= 1


def naive_detect(arch, perf, th):
    """The object-graph loops the vectorized rules replaced: the
    (kind, element) pairs that fire, in rule order."""
    util = {node_id: float(u) for node_id, u in zip(perf.station_ids, perf.utilization)}
    ops = {op.id: op for comp in arch.components for op in comp.operations}
    node_of = {c.id: arch.deployment[c.id] for c in arch.components}
    detections = []
    invocations, _ = invocation_matrix(CompiledChunk([arch.fold]))
    mean_invocations = invocations.mean(axis=0)
    for i, comp in enumerate(arch.components):
        if util[node_of[comp.id]] < th.util_high:
            continue
        if any(invocations[i, j] > th.blob_share * mean_invocations[j] for j in range(len(arch.scenarios))):
            detections.append(("blob", comp.id))
    node_ids = [n.id for n in arch.nodes]
    for a in range(len(node_ids)):
        for b in range(a + 1, len(node_ids)):
            high = max(util[node_ids[a]], util[node_ids[b]])
            low = min(util[node_ids[a]], util[node_ids[b]])
            if high >= th.util_high and low <= th.util_low:
                detections.append(("concurrent_processing", (node_ids[a], node_ids[b])))
    for comp in arch.components:
        for op in comp.operations:
            if util[node_of[comp.id]] < th.util_high:
                continue
            for scen in arch.scenarios:
                total = sum(step.count * ops[step.operation].cpu_demand for step in scen.steps)
                if total <= 0.0:
                    continue
                share = sum(step.count * op.cpu_demand for step in scen.steps if step.operation == op.id) / total
                if share >= th.paf_demand_share:
                    detections.append(("pipe_and_filter", op.id))
                    break
    return detections


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["small", "large"]),
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(0, 6),
    util_high=st.sampled_from([0.5, 0.8]),
    blob_share=st.sampled_from([1.0, 2.0]),
    paf_demand_share=st.sampled_from([0.2, 0.5]),
)
def test_detect_equals_naive_reference(name, seed, length, util_high, blob_share, paf_demand_share):
    arch = casestudies.load_case_study(name)
    rng = np.random.default_rng(seed)
    folded = apply_sequence(arch.fold, random_sequence(arch.fold, length, rng)[0]).architecture()
    perf = perf_for(folded, rng.random(len(folded.nodes)))
    th = Thresholds(util_high=util_high, util_low=0.3, blob_share=blob_share, paf_demand_share=paf_demand_share)
    reference = naive_detect(folded, perf, th)
    assert fired(folded, perf, th) == reference
    assert detect(CompiledChunk([folded.fold]), [perf], th)[0] == len(reference)
