"""The chunk scorer against the per-architecture path it replaced."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from archopt.antipatterns import Thresholds, _rules, detect
from archopt.model import CompiledChunk, RoutingError, invocation_matrix, unrouted_call
from archopt.moea import EvalMetrics, score
from archopt.perfqn import perfq, solve_amva, solve_amva_many, to_qn
from archopt.refactoring import DEFAULT_BRF, distance, random_sequence
from archopt.reliability import reliability
from test_refactoring import probe_model


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def jittered(arch, rng):
    """The model with every speed, demand, count and failure probability
    scaled by a random factor, so sums and products round and a regrouped
    addition or multiplication shows in the last bits."""

    def scale(value):
        return value * float(rng.uniform(0.5, 1.5))

    return replace(
        arch,
        nodes=tuple(replace(n, speed_factor=scale(n.speed_factor)) for n in arch.nodes),
        components=tuple(
            replace(
                c,
                failure_probability=scale(c.failure_probability) / 2,
                operations=tuple(replace(op, cpu_demand=scale(op.cpu_demand)) for op in c.operations),
            )
            for c in arch.components
        ),
        links=tuple(replace(l, failure_probability=scale(l.failure_probability) / 2) for l in arch.links),
        scenarios=tuple(
            replace(s, steps=tuple(replace(st, count=scale(st.count)) for st in s.steps)) for s in arch.scenarios
        ),
    )


def random_candidates(arch, rng, size):
    """``size`` random plans of 0-4 actions with their folds; clones add
    rows and ``new-node:`` targets add nodes and links, so sizes differ."""
    return [random_sequence(arch.fold, int(rng.integers(0, 5)), rng) for _ in range(size)]


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["small", "large", "x3"]),
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 32),
    util_high=st.sampled_from([0.5, 0.8]),
    blob_share=st.sampled_from([1.0, 2.0]),
    paf_demand_share=st.sampled_from([0.2, 0.5]),
    jitter=st.booleans(),
)
def test_chunk_scores_match_per_architecture_path_bit_for_bit(
    name, seed, size, util_high, blob_share, paf_demand_share, jitter
):
    rng = np.random.default_rng(seed)
    arch = jittered(probe_model(name), rng) if jitter else probe_model(name)
    candidates = random_candidates(arch, rng, size)
    th = Thresholds(util_high=util_high, util_low=0.3, blob_share=blob_share, paf_demand_share=paf_demand_share)
    chunk = CompiledChunk([folded for _, folded in candidates])
    solved = solve_amva_many(to_qn(chunk))
    survival = reliability(chunk)
    counts = detect(chunk, solved, th)
    rules = _rules(chunk, solved, th)
    initial = solve_amva(oracle.to_qn(arch))
    outcomes = score(initial, candidates, DEFAULT_BRF, th)
    invocations, messages = invocation_matrix(chunk)
    nodes, comps, links = chunk.node_start, chunk.component_start, chunk.link_start
    for b, (seq, fold) in enumerate(candidates):
        folded = fold.architecture()
        view = oracle.View(folded)
        assert same_bits(chunk.demands[nodes[b] : nodes[b + 1]], view.demands())
        expected_invocations, expected_messages = view.routes()
        assert same_bits(invocations[comps[b] : comps[b + 1]], expected_invocations)
        assert same_bits(messages[links[b] : links[b + 1]], expected_messages)

        perf, overall, pas = oracle.score(folded, th)
        assert same_bits(solved[b].response_time, perf.response_time)
        assert same_bits(solved[b].throughput, perf.throughput)
        assert same_bits(solved[b].utilization, perf.utilization)
        assert same_bits(survival[b], overall)
        assert counts[b] == pas
        fired = oracle.rules(folded, perf, th)
        for name, start in (("blob", chunk.component_start), ("hot", chunk.node_start),
                            ("idle", chunk.node_start), ("pipe_and_filter", chunk.operation_start)):
            assert same_bits(getattr(rules, name)[start[b] : start[b + 1]], fired[name]), name
        metrics, scored = outcomes[b]
        assert metrics == EvalMetrics(perfq(initial, perf), overall, pas, distance(seq, DEFAULT_BRF))
        assert same_bits(metrics.perfq, perfq(initial, perf))
        assert same_bits(scored.response_time, perf.response_time)


def zero_demand(arch):
    """Every class with neither demand nor think time: the solver's ValueError."""
    comps = tuple(
        replace(c, operations=tuple(replace(op, cpu_demand=0.0) for op in c.operations)) for c in arch.components
    )
    return replace(arch, components=comps, scenarios=tuple(replace(s, think_time=0.0) for s in arch.scenarios))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 12),
    position=st.integers(0, 12),
)
def test_a_failing_candidate_changes_no_other_outcome(seed, size, position):
    arch = probe_model("small")
    rng = np.random.default_rng(seed)
    candidates = random_candidates(arch, rng, size)
    failing = (candidates[0][0], zero_demand(arch).fold)
    initial = solve_amva(oracle.to_qn(arch))
    th = Thresholds()
    alone = score(initial, candidates, DEFAULT_BRF, th)
    mixed = score(initial, candidates[:position] + [failing] + candidates[position:], DEFAULT_BRF, th)
    failure = mixed.pop(min(position, size))
    assert isinstance(failure, ValueError)
    for (metrics, perf), (mixed_metrics, mixed_perf) in zip(alone, mixed):
        assert metrics == mixed_metrics
        assert same_bits(perf.response_time, mixed_perf.response_time)
        assert same_bits(perf.utilization, mixed_perf.utilization)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["small", "large", "x3"]),
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 12),
    unlinked=st.lists(st.booleans(), min_size=12, max_size=12),
)
def test_a_chunk_routes_iff_every_member_routes(name, seed, size, unlinked):
    # a plan's fold without links keeps its demands, but may call across nodes
    rng = np.random.default_rng(seed)
    folds = [fold.architecture() for _, fold in random_candidates(probe_model(name), rng, size)]
    folds = [replace(folded, links=()) if drop else folded for folded, drop in zip(folds, unlinked)]
    walked = [unrouted_call(folded.fold) for folded in folds]
    assert walked == [oracle.unrouted_call(folded) for folded in folds]
    calls = [call for call in walked if call is not None]
    chunk = CompiledChunk([folded.fold for folded in folds])
    if not calls:
        invocations, messages = invocation_matrix(chunk)
        assert invocations.shape == (chunk.component_start[-1], chunk.n_scenarios)
        assert messages.shape == (chunk.link_start[-1], chunk.n_scenarios)
        return
    with pytest.raises(RoutingError) as error:
        invocation_matrix(chunk)
    assert str(error.value) == calls[0]


def test_a_chunk_needs_one_scenario_count():
    with pytest.raises(ValueError, match="one scenario count"):
        CompiledChunk([probe_model("small").fold, probe_model("large").fold])  # 2 and 3 scenarios
