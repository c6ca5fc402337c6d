"""The batch queueing solve against the per-model path it replaced."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from archopt import perfqn
from archopt.model import CompiledChunk
from archopt.perfqn import SolverError, solve_amva_many, to_qn
from archopt.refactoring import RedeployComponent, apply_sequence
from test_chunk import jittered, random_candidates, same_bits
from test_refactoring import probe_model


def quieted(arch, quiet, think_time):
    """The model with every step of the scenarios numbered in ``quiet``
    counted 0 times, so their classes have no demand, and with their think
    time set: 0 makes the solver's ValueError, more makes a pure delay."""
    return replace(
        arch,
        scenarios=tuple(
            replace(s, think_time=think_time, steps=tuple(replace(step, count=0.0) for step in s.steps))
            if j in quiet
            else s
            for j, s in enumerate(arch.scenarios)
        ),
    )


def assert_matches_oracle(chunk):
    """The batch solve of a chunk holds, fold by fold, the bits of the
    per-model path, and each failure in its fold's place with zero rows.
    Returns the per-model results."""
    solution = solve_amva_many(to_qn(chunk))
    expected = oracle.solve_amva_many(oracle.chunk_models(chunk))
    assert len(solution.failures) == len(expected) == len(chunk)
    rows = chunk.node_start
    for b, want in enumerate(expected):
        failure = solution.failures[b]
        utilization = solution.utilization[rows[b] : rows[b + 1]]
        if isinstance(want, Exception):
            assert type(failure) is type(want) and str(failure) == str(want)
            if isinstance(want, SolverError):
                assert same_bits(failure.residual, want.residual)
            for row in (solution.throughput[b], solution.response_time[b], utilization):
                assert not row.any()
            continue
        assert failure is None
        assert same_bits(solution.throughput[b], want.throughput)
        assert same_bits(solution.response_time[b], want.response_time)
        assert same_bits(utilization, want.utilization)
        assert solution.iterations[b] == want.iterations
        assert tuple(c for c, zero in zip(want.class_ids, solution.delay[b]) if zero) == want.delay_only
    return expected


@settings(deadline=None)
@given(
    name=st.sampled_from(["small", "large", "x3"]),
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 32),
    jitter=st.booleans(),
    max_iter=st.sampled_from([perfqn.AMVA_MAX_ITER, 40, 10]),
)
def test_batch_solve_matches_per_model_path_bit_for_bit(name, seed, size, jitter, max_iter):
    # a chunk mixes folds of the model and of two quieted copies of it: one
    # with a single contending class, whose plans' new nodes vary its
    # station count, and one with a random set of quiet classes
    rng = np.random.default_rng(seed)
    arch = jittered(probe_model(name), rng) if jitter else probe_model(name)
    n = len(arch.scenarios)
    one_class = quieted(arch, set(range(1, n)), float(rng.choice([0.5, 2.0])))
    some_quiet = quieted(arch, set(np.flatnonzero(rng.random(n) < 0.5).tolist()), float(rng.choice([0.0, 1.0])))
    folds = [fold for root in (arch, one_class, some_quiet) for _, fold in random_candidates(root, rng, size)]
    chunk = CompiledChunk([folds[i] for i in rng.choice(len(folds), size=size, replace=False)])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(perfqn, "AMVA_MAX_ITER", max_iter)
        assert_matches_oracle(chunk)


def test_one_chunk_holds_every_kind_of_fold(monkeypatch):
    monkeypatch.setattr(perfqn, "AMVA_MAX_ITER", 25)
    arch = probe_model("small")
    one_class = quieted(arch, {1}, 1.0)
    new_node = (RedeployComponent("storage", "new-node:app2"),)
    folds = [
        arch.fold,
        one_class.fold,
        quieted(arch, {1}, 0.0).fold,
        apply_sequence(one_class.fold, new_node),
        quieted(arch, {0, 1}, 1.0).fold,
        apply_sequence(arch.fold, new_node),
    ]
    expected = assert_matches_oracle(CompiledChunk(folds))
    kinds = [type(want).__name__ for want in expected]
    assert kinds == ["SolverError", "PerformanceResult", "ValueError", "PerformanceResult", "PerformanceResult", "PerformanceResult"]
    # one-class folds of 3 and 4 stations share the chunk, and a fold
    # with no contending class takes no iteration
    assert [len(expected[b].station_ids) for b in (1, 3)] == [3, 4]
    assert [expected[b].delay_only for b in (1, 3, 4)] == [("purchase",), ("purchase",), ("browse", "purchase")]
    assert expected[4].iterations == 0
