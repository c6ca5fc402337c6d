import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from archopt import casestudies, kernels, moea
from archopt.antipatterns import Thresholds
from archopt.cli import front_csv_text, write_front
from archopt.model import RoutingError, digest, save
from archopt.moea import (
    EvalMetrics,
    Evaluator,
    Individual,
    SearchConfig,
    _Budget,
    _distances,
    _grid_cells,
    _nsga2_step,
    _objective_rows,
    _offspring,
    _pesa2_select,
    _pesa2_step,
    _search,
    _spea2_density,
    _spea2_raw,
    _spea2_step,
    crossover,
    mutate,
    objective_vector,
    run,
)
from archopt.perfqn import SolverError
from archopt.pareto import dominates, fast_nondominated_sort
from archopt.refactoring import (
    DEFAULT_BRF,
    ActionKind,
    CloneComponent,
    RedeployComponent,
    apply_sequence,
    is_feasible,
    random_sequence,
    sequence_from_records,
)


def fake_individual(objectives, order=0, valid=True):
    metrics = EvalMetrics(perfq=0.0, reliability=1.0, pas=0, distance=0.0)
    return Individual((), f"d{order}", metrics, tuple(objectives), valid, order)


# -- config ---------------------------------------------------------------------


def test_config_requires_budget():
    with pytest.raises(ValueError, match="budget"):
        SearchConfig()


def test_config_population_must_be_even():
    with pytest.raises(ValueError, match="even"):
        SearchConfig(max_evaluations=10, population=7)


@pytest.mark.parametrize(
    "field, value",
    [
        ("sequence_length", 0),
        ("archive_size", 0),
        ("divisions", 0),
        ("crossover_prob", 2.0),
        ("mutation_prob", -1.0),
        ("budget_seconds", -1.0),
        ("max_evaluations", -5),
        ("seed", -1),
        # a table must give each action kind a positive finite factor
        ("brf", {ActionKind.CLONE: 1.0}),
        ("brf", {**DEFAULT_BRF, "bogus": 1.0}),
        ("brf", dict.fromkeys(ActionKind, -1.0)),
        ("brf", dict.fromkeys(ActionKind, 0.0)),
        ("brf", dict.fromkeys(ActionKind, float("nan"))),
        ("brf", dict.fromkeys(ActionKind, float("inf"))),
        ("brf", dict.fromkeys(ActionKind, True)),
        ("brf", dict.fromkeys(ActionKind, "1.5")),
        # a plain dict would fail only when the first chunk is scored, and
        # None would fall back to the defaults
        ("thresholds", {"util_high": 0.9}),
        ("thresholds", None),
        # a numpy integer would run the whole search, then fail to be
        # written to front.json
        ("seed", np.int64(3)),
        ("max_evaluations", np.int64(20)),
        pytest.param("seed", 10**400, id="seed-too-large-for-a-float"),
        # a threshold takes a number: a bool is none, and a string is a
        # ValueError, not a TypeError
        ("util_high", True),
        ("util_low", False),
        ("blob_share", True),
        ("util_high", "x"),
    ],
)
def test_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=field):
        if field in Thresholds.__dataclass_fields__:
            SearchConfig(max_evaluations=10, thresholds=Thresholds(**{field: value}))
        else:
            SearchConfig(**{"max_evaluations": 10, field: value})


def test_objective_vector_modes():
    metrics = EvalMetrics(perfq=0.25, reliability=0.9, pas=2, distance=5.0)
    assert objective_vector(metrics, True) == (-0.25, -0.9, 2.0, 5.0)
    assert objective_vector(metrics, False) == (-0.25, -0.9, 5.0)


# -- evaluation ------------------------------------------------------------------


def test_empty_sequence_evaluates_to_identity(small_arch):
    evaluator = Evaluator(small_arch, SearchConfig(max_evaluations=0))
    ind = evaluator.evaluate(())
    assert ind.metrics.perfq == 0.0
    assert ind.metrics.distance == 0.0
    assert ind.valid
    [member] = evaluator.reported_front()
    assert member.phenotype_digest == evaluator.initial_digest


def test_redeploying_hot_component_improves_perfq(small_arch):
    # catalog saturates app1 while spare idles; moving it must help
    evaluator = Evaluator(small_arch, SearchConfig(max_evaluations=0))
    seq = (RedeployComponent("catalog", "spare"),)
    ind = evaluator.evaluate(seq)
    assert ind.metrics.perfq > 0.0
    assert ind.objectives[0] < 0.0


def test_evaluation_cache_skips_solver(small_arch):
    evaluator = Evaluator(small_arch, SearchConfig(max_evaluations=0))
    seq = (RedeployComponent("catalog", "spare"),)
    first = evaluator.evaluate(seq)
    evaluations = len(evaluator.individuals)
    second = evaluator.evaluate((RedeployComponent("catalog", "spare"),))
    assert len(evaluator.individuals) == evaluations
    assert evaluator.cache_hits == 1
    assert first is second


def inject_solver_failures(monkeypatch, every: int) -> list[SolverError]:
    """Replace every ``every``-th solved fold's outcome by a SolverError.
    Folds are counted in submission order at both bindings of the batch
    solver, so the initial architecture's solve (through ``solve_amva``)
    is call 1.  Returns the list the injected failures are appended to."""
    from archopt import moea, perfqn

    real_many = perfqn.solve_amva_many
    calls = [0]
    injected: list[SolverError] = []

    def flaky_many(qn):
        solution = real_many(qn)
        failures = []
        for failure in solution.failures:
            calls[0] += 1
            if calls[0] % every == 0:
                failure = SolverError("did not converge", residual=1.0)
                injected.append(failure)
            failures.append(failure)
        return replace(solution, failures=failures)

    monkeypatch.setattr(perfqn, "solve_amva_many", flaky_many)
    monkeypatch.setattr(moea, "solve_amva_many", flaky_many)
    return injected


def test_solver_failure_marks_individual_invalid(small_arch, monkeypatch):
    evaluator = Evaluator(small_arch, SearchConfig(max_evaluations=0))
    inject_solver_failures(monkeypatch, every=1)
    seq = (RedeployComponent("catalog", "spare"),)
    ind = evaluator.evaluate(seq)
    assert not ind.valid
    # digested from its own fold, with the bytes of the whole document
    assert ind.phenotype_digest == oracle.digest(apply_sequence(small_arch.fold, seq).architecture())
    assert evaluator.invalid_by_type == {"SolverError": 1, "ValueError": 0}
    assert all(v == float("inf") for v in ind.objectives)
    # any valid individual dominates the sentinel
    assert dominates((0.0, -1.0, 0.0, 1.0), ind.objectives)


# -- operators -------------------------------------------------------------------


def count_probes(monkeypatch) -> list:
    """Record the action of every feasibility probe the operators make."""
    from archopt import refactoring

    probes = []
    real = refactoring.is_feasible

    def counting(arch, action):
        probes.append(action)
        return real(arch, action)

    monkeypatch.setattr(refactoring, "is_feasible", counting)
    return probes


def kept_folds(arch, rng, *parents) -> dict:
    """The store as the search keeps it for ``parents``: the folds of
    each of their prefixes, the whole plans too."""
    store = {}
    for seq in parents:
        mutate(arch.fold, seq, rng, 0.0, folds=store)
    return store


class FixedCutRng:
    """rng stub: fixed crossover cut, never mutates."""

    def __init__(self, cut):
        self.cut = cut

    def integers(self, *args):
        return self.cut

    def random(self):
        return 1.0


def test_crossover_single_point_cut(small_arch, monkeypatch):
    a = (
        RedeployComponent("web", "spare"),
        RedeployComponent("auth", "spare"),
        CloneComponent("catalog", "app2"),
        CloneComponent("web", "app2"),
    )
    b = (
        CloneComponent("storage", "app1"),
        RedeployComponent("orders", "app1"),
        RedeployComponent("storage", "spare"),
        CloneComponent("auth", "app1"),
    )
    rng = np.random.default_rng(0)
    kept = kept_folds(small_arch, rng, a, b)
    probes = count_probes(monkeypatch)
    for store, probed_genes in ((None, len(a)), (kept, len(a) - 2)):
        probes.clear()
        (child_a, folded_a), (child_b, folded_b) = crossover(small_arch.fold, a, b, FixedCutRng(2), folds=store)
        # every gene is feasible where it lands; given the parents' folds,
        # no gene before the cut is probed
        assert len(probes) == 2 * probed_genes
        assert child_a == a[:2] + b[2:]
        assert child_b == b[:2] + a[2:]
        for child, folded in ((child_a, folded_a), (child_b, folded_b)):
            assert folded.architecture() == apply_sequence(small_arch.fold, child).architecture()
    # the store gained each child's prefixes past the cut; every entry is its prefix's fold
    for prefix, fold in kept.items():
        assert fold.architecture() == apply_sequence(small_arch.fold, prefix).architecture()
    assert len(kept) == 2 * len(a) + 2 * (len(a) - 2)


def test_crossover_deterministic(small_arch):
    rng1, rng2 = np.random.default_rng(5), np.random.default_rng(5)
    a, _ = random_sequence(small_arch.fold, 4, np.random.default_rng(1))
    b, _ = random_sequence(small_arch.fold, 4, np.random.default_rng(2))
    assert crossover(small_arch.fold, a, b, rng1) == crossover(small_arch.fold, a, b, rng2)


def test_mutation_zero_probability_is_identity(small_arch):
    seq, _ = random_sequence(small_arch.fold, 4, np.random.default_rng(3))
    out, folded = mutate(small_arch.fold, seq, np.random.default_rng(0), gene_prob=0.0)
    assert out == seq
    assert folded.architecture() == apply_sequence(small_arch.fold, seq).architecture()


def test_offspring_reuse_a_parents_stored_folds(small_arch, monkeypatch):
    # no crossover and no mutation: every child is its parent
    config = SearchConfig(max_evaluations=0, population=4, crossover_prob=0.0, mutation_prob=0.0)
    seq, _ = random_sequence(small_arch.fold, 4, np.random.default_rng(3))
    store = kept_folds(small_arch, np.random.default_rng(0), seq)
    kept = dict(store)
    parent = replace(fake_individual((0.0, 0.0, 0.0, 0.0)), sequence=seq)
    evaluator = Evaluator(small_arch, config)
    folded = apply_sequence(small_arch.fold, seq).architecture()
    probes = count_probes(monkeypatch)
    children = list(_offspring(evaluator, lambda: parent, np.random.default_rng(0), store))
    # every child finds its parent's whole fold, so none probes
    assert probes == []
    assert [child for child, _ in children] == [seq] * config.population
    assert all(fold is store[seq] for _, fold in children)
    assert children[0][1].architecture() == folded
    assert store.keys() == kept.keys()
    assert all(store[prefix] is fold for prefix, fold in kept.items())


def test_children_equal_to_a_kept_plan_probe_nothing(small_arch, monkeypatch):
    from archopt import moea

    # no crossover and no mutation: every child is an initial-population
    # parent, whose every prefix the search stored when it sampled it
    config = SearchConfig(seed=2, max_evaluations=100, population=8, crossover_prob=0.0, mutation_prob=0.0)
    evaluator = Evaluator(small_arch, config)
    probes = count_probes(monkeypatch)
    bred = []
    real_mutate = moea.mutate

    def recording(initial, child, *args):
        before = len(probes)
        out = real_mutate(initial, child, *args)
        bred.append((child, probes[before:]))
        return out

    monkeypatch.setattr(moea, "mutate", recording)
    assert _search(evaluator, _Budget(config)) == (1, True)  # every child is a cache hit
    assert len(bred) == config.population
    for child, probed in bred:
        assert child in evaluator.individuals
        assert probed == []


def test_mutation_deterministic(small_arch):
    seq, _ = random_sequence(small_arch.fold, 4, np.random.default_rng(3))
    out1, folded1 = mutate(small_arch.fold, seq, np.random.default_rng(9), gene_prob=0.5)
    out2, folded2 = mutate(small_arch.fold, seq, np.random.default_rng(9), gene_prob=0.5)
    assert out1 == out2
    assert folded1.architecture() == folded2.architecture()
    assert folded1.architecture() == apply_sequence(small_arch.fold, out1).architecture()


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["small", "large"]),
    seed=st.integers(0, 2**32 - 1),
    gene_prob=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
)
def test_mutate_with_crossover_folds_matches_mutate_without(name, seed, gene_prob):
    arch = casestudies.load_case_study(name)
    rng = np.random.default_rng(seed)
    (a, _), (b, _) = random_sequence(arch.fold, 4, rng), random_sequence(arch.fold, 4, rng)
    # crossover from the prefix folds the parents keep builds the same children
    store = kept_folds(arch, rng, a, b)
    replay = np.random.default_rng()
    replay.bit_generator.state = rng.bit_generator.state
    children = crossover(arch.fold, a, b, rng, folds=store)
    rebuilt = crossover(arch.fold, a, b, replay)
    assert [(c, save(f.architecture())) for c, f in children] == [(c, save(f.architecture())) for c, f in rebuilt]
    assert rng.bit_generator.state == replay.bit_generator.state
    for child, _ in children:
        # mutate reads crossover's folds of the child from the store
        with_rng, without_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        got, got_folded = mutate(arch.fold, child, with_rng, gene_prob, folds=store)
        want, want_folded = mutate(arch.fold, child, without_rng, gene_prob)
        assert got == want
        assert save(got_folded.architecture()) == save(want_folded.architecture())
        assert with_rng.bit_generator.state == without_rng.bit_generator.state


# -- SPEA2 internals --------------------------------------------------------------


def spea2_fitness(points):
    return _spea2_raw(kernels.dominance_matrix(points)) + _spea2_density(points, np.arange(len(points)))


def test_spea2_nondominated_pair_enters_archive():
    union = [fake_individual((0.0, 1.0), 0), fake_individual((1.0, 0.0), 1)]
    fitness = spea2_fitness(_objective_rows(union))
    assert (fitness < 1.0).all()
    config = SearchConfig(max_evaluations=0, archive_size=2)
    archive, _ = _spea2_step([], union, np.random.default_rng(0), config, lambda: False)
    assert len(archive) == 2


def test_spea2_dominated_point_raw_strength():
    union = [fake_individual((0.0, 0.0), 0), fake_individual((1.0, 1.0), 1)]
    fitness = spea2_fitness(_objective_rows(union))
    # dominator strength S=1, so dominated point's raw fitness is 1 (+density)
    assert fitness[0] < 1.0
    assert 1.0 <= fitness[1] < 2.0


@settings(deadline=None)
@given(
    n=st.integers(1, 40),
    d=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    grid=st.booleans(),
    sentinels=st.integers(0, 3),
)
def test_spea2_fitness_and_dominance_match_the_pairwise_formulas(n, d, seed, grid, sentinels):
    # accumulated one objective at a time, they match the (n, n, d) formulas
    # bit for bit, with ties (grid values) and invalid rows (1e30)
    rng = np.random.default_rng(seed)
    points = rng.integers(0, 4, (n, d)).astype(float) if grid else rng.normal(size=(n, d))
    points[: min(sentinels, n)] = 1e30
    points = rng.permutation(points)
    fitness = spea2_fitness(points)
    want_fitness, want_dists = oracle.spea2_fitness(points)
    assert fitness.tobytes() == want_fitness.tobytes()
    assert _distances(points, np.arange(n)).tobytes() == want_dists.tobytes()
    rows = rng.permutation(n)[: int(rng.integers(1, n + 1))]
    assert _distances(points, rows).tobytes() == want_dists[rows].tobytes()
    assert np.array_equal(kernels.dominance_matrix(points), oracle.dominance_matrix(points))


def test_spea2_truncation_is_deterministic():
    union = [fake_individual((0.0, 1.0), 0), fake_individual((1.0, 0.0), 1)]
    config = SearchConfig(max_evaluations=0, archive_size=1)
    archive, _ = _spea2_step([], union, np.random.default_rng(0), config, lambda: False)
    assert len(archive) == 1
    assert archive[0].order == 0  # tie broken by index


def test_spea2_fills_with_best_dominated():
    union = [
        fake_individual((0.0, 0.0), 0),
        fake_individual((1.0, 1.0), 1),
        fake_individual((2.0, 2.0), 2),
    ]
    config = SearchConfig(max_evaluations=0, archive_size=2)
    archive, _ = _spea2_step([], union, np.random.default_rng(0), config, lambda: False)
    assert [ind.order for ind in archive] == [0, 1]


def test_spea2_step_builds_one_dominance_matrix(monkeypatch):
    # the archive's tournament fitness reads the union's matrix
    calls = []
    build = kernels.dominance_matrix
    monkeypatch.setattr(moea.kernels, "dominance_matrix", lambda *args: calls.append(args) or build(*args))
    union = [fake_individual((i, 4 - i), i) for i in range(5)] + [fake_individual((4, 4), 5)]
    config = SearchConfig(max_evaluations=0, archive_size=3)
    archive, _ = _spea2_step([], union, np.random.default_rng(0), config, lambda: False)
    assert len(archive) == 3
    assert len(calls) == 1


# -- PESA-II internals -------------------------------------------------------------


def test_pesa2_single_member_always_selected():
    archive = [fake_individual((0.5, 0.5), 0)]
    cells = _grid_cells(_objective_rows(archive), divisions=8)
    rng = np.random.default_rng(0)
    for _ in range(10):
        assert _pesa2_select(archive, cells, sorted(cells), rng) is archive[0]


def pesa2_archive(archive, evaluated, capacity, divisions, dim=3):
    """The archive that ``_pesa2_step`` keeps after inserting ``evaluated``."""
    config = SearchConfig(max_evaluations=0, archive_size=capacity, divisions=divisions, use_pas_objective=dim == 4)
    kept, select = _pesa2_step(archive, evaluated, np.random.default_rng(0), config, lambda: False)
    # the selection's grid is over the kept members' rows
    assert sorted(i for members in select.args[1].values() for i in members) == list(range(len(kept)))
    return kept


def test_pesa2_step_rejects_dominated_and_evicts_crowded():
    # a constant third objective leaves the grid of the first two
    a = fake_individual((0.1, 0.9, 0.0), 0)
    b = fake_individual((0.15, 0.85, 0.0), 1)  # same cell as a
    c = fake_individual((0.9, 0.1, 0.0), 2)
    archive = pesa2_archive([a], [b, c], capacity=2, divisions=2)
    assert len(archive) == 2
    # a and b share a cell; the oldest of that cell was evicted
    assert c in archive
    assert a not in archive and b in archive


def test_pesa2_step_drops_newly_dominated_members():
    archive = [fake_individual((0.5, 0.5, 0.0), 0)]
    better = fake_individual((0.1, 0.1, 0.0), 1)
    archive = pesa2_archive(archive, [better], capacity=4, divisions=4)
    assert archive == [better]
    # dominated candidates never enter
    worse = fake_individual((0.2, 0.2, 0.0), 2)
    assert pesa2_archive(archive, [worse], capacity=4, divisions=4) == [better]


@pytest.mark.parametrize("seed", range(6))
def test_pesa2_step_replays_block_by_block(monkeypatch, seed):
    # blocks of 5 candidates, so the archive carries over between blocks
    from test_step import draw_individuals

    monkeypatch.setattr(moea, "BLOCK_ROWS", 5)
    rng = np.random.default_rng(seed)
    pool = draw_individuals(rng, 40, 3, 3, 6)
    config = SearchConfig(max_evaluations=0, archive_size=8, divisions=2, use_pas_objective=False)
    archive, points = [], np.empty((0, 3))
    for ind in pool[:10]:
        archive, points = oracle.pesa2_insert(archive, points, ind, config.archive_size, config.divisions)
    want, want_select = oracle.pesa2_step(archive, pool[10:], np.random.default_rng(seed), config, lambda: False)
    got, select = _pesa2_step(archive, pool[10:], np.random.default_rng(seed), config, lambda: False)
    assert [id(ind) for ind in got] == [id(ind) for ind in want]
    assert [id(want_select()) for _ in range(8)] == [id(select()) for _ in range(8)]


# -- run() contract ----------------------------------------------------------------


@pytest.mark.parametrize("algorithm", ["nsga2", "spea2", "pesa2"])
def test_run_front_is_nondominated(small_arch, algorithm):
    config = SearchConfig(algorithm=algorithm, seed=1, max_evaluations=120, population=16, archive_size=16)
    front = run(small_arch, config)
    points = [ind.objectives for ind in front.individuals]
    for i in range(len(points)):
        assert not any(dominates(points[j], points[i]) for j in range(len(points)) if j != i)
    assert front.metadata["evaluations_used"] <= 120


def test_run_is_deterministic(small_arch):
    config = SearchConfig(seed=6, max_evaluations=100, population=8)
    one = run(small_arch, config)
    two = run(small_arch, config)
    assert [i.sequence for i in one.individuals] == [i.sequence for i in two.individuals]
    assert [i.objectives for i in one.individuals] == [i.objectives for i in two.individuals]


def test_run_zero_budget_front_of_initial_population(small_arch):
    config = SearchConfig(seed=2, max_evaluations=0, population=8)
    front = run(small_arch, config)
    # the cap stops the initial population too; its first candidate always runs
    assert front.metadata["evaluations_used"] == 1
    assert front.metadata["budget_truncated"]
    assert front.metadata["generations"] == 0
    assert len(front.individuals) >= 1


def test_a_long_plan_keeps_to_the_time_budget(small_arch):
    # sampling one plan of 512 actions takes seconds, so the time budget is
    # checked before each action, not only between plans: criterion 08's +10%
    started = time.monotonic()
    front = run(small_arch, SearchConfig(seed=1, budget_seconds=1.0, sequence_length=512))
    assert time.monotonic() - started <= 1.1
    assert front.metadata["budget_truncated"]


def test_a_spent_budget_stops_sampling_and_breeding_before_a_gene(small_arch):
    fold, rng = small_arch.fold, np.random.default_rng(0)
    seq, _ = random_sequence(fold, 4, rng)
    for breed in (
        lambda spent: random_sequence(fold, 4, rng, spent=spent),
        lambda spent: mutate(fold, seq, rng, 0.5, spent=spent),
        lambda spent: crossover(fold, seq, seq, rng, spent=spent),
    ):
        with pytest.raises(kernels.BudgetSpent):
            breed(lambda: True)

    # the candidates drawn before sampling gave up are still scored
    def candidates():
        yield random_sequence(fold, 2, rng)
        yield random_sequence(fold, 3, rng)
        raise kernels.BudgetSpent

    evaluator = Evaluator(small_arch, SearchConfig(max_evaluations=100))
    evaluated = evaluator.evaluate_many(candidates(), _Budget(evaluator.config))
    assert [len(ind.sequence) for ind in evaluated] == [2, 3]
    assert len(evaluator.individuals) == 2


# few distinct one-action plans: offspring soon are all cache hits
STALL_CONFIG = {"population": 4, "sequence_length": 1, "max_evaluations": 500}


@pytest.mark.parametrize("algorithm", ["nsga2", "spea2", "pesa2"])
def test_run_stops_when_a_generation_adds_no_evaluation(small_arch, algorithm):
    # an empty plan is a single genotype, so its search could never finish
    with pytest.raises(ValueError, match="sequence_length"):
        SearchConfig(algorithm=algorithm, sequence_length=0, max_evaluations=40)
    front = run(small_arch, SearchConfig(algorithm=algorithm, **STALL_CONFIG))
    assert front.metadata["stalled"]
    assert front.metadata["evaluations_used"] < 500


# The loop's control flow: (evaluations_used, cache_hits, generations,
# stalled, budget_truncated) of the pinned searches and of the stalling ones.
PINNED_CONFIG = {"seed": 1, "population": 16, "archive_size": 16, "max_evaluations": 200}
RUN_METADATA = {
    ("pinned", "nsga2"): (200, 17, 13, False, False),
    ("pinned", "spea2"): (200, 20, 13, False, False),
    ("pinned", "pesa2"): (200, 29, 14, False, False),
    ("stall", "nsga2"): (55, 17, 17, True, False),
    ("stall", "spea2"): (55, 17, 17, True, False),
    ("stall", "pesa2"): (75, 41, 28, True, False),
}


@pytest.mark.parametrize("name, algorithm", sorted(RUN_METADATA))
def test_run_metadata_matches_recorded(small_arch, name, algorithm):
    config = PINNED_CONFIG if name == "pinned" else STALL_CONFIG
    meta = run(small_arch, SearchConfig(algorithm=algorithm, **config)).metadata
    keys = ("evaluations_used", "cache_hits", "generations", "stalled", "budget_truncated")
    assert tuple(meta[key] for key in keys) == RUN_METADATA[name, algorithm]


def test_run_initial_population_respects_max_evaluations(small_arch):
    front = run(small_arch, SearchConfig(seed=2, max_evaluations=10, population=32))
    assert front.metadata["evaluations_used"] == 10
    assert front.metadata["generations"] == 0


@pytest.mark.parametrize("algorithm", ["nsga2", "spea2", "pesa2"])
def test_survival_runs_only_while_the_budget_lasts(small_arch, algorithm, monkeypatch):
    step = moea._ALGORITHMS[algorithm]
    calls = []

    def counted(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setitem(moea._ALGORITHMS, algorithm, counted)
    meta = run(small_arch, SearchConfig(algorithm=algorithm, **PINNED_CONFIG)).metadata
    # one step before each generation's breeding, none after the last
    assert len(calls) == meta["generations"] > 0


def test_nsga2_sorts_once_per_generation_and_offers_once_per_chunk(small_arch, monkeypatch):
    # the step ranks the tournament from survival's sort of the union, and
    # the evaluator offers each scored chunk to the front at once
    sorts, chunks, offers = [], [], []

    def counting(log, real):
        def wrapper(*args):
            log.append(args)
            return real(*args)

        return wrapper

    monkeypatch.setattr(moea, "fast_nondominated_sort", counting(sorts, moea.fast_nondominated_sort))
    monkeypatch.setattr(moea, "score", counting(chunks, moea.score))
    monkeypatch.setattr(moea, "_offer", counting(offers, moea._offer))
    meta = run(small_arch, SearchConfig(algorithm="nsga2", **PINNED_CONFIG)).metadata
    assert len(sorts) == meta["generations"] == RUN_METADATA["pinned", "nsga2"][2]
    scored = [len(candidates) for _, candidates, *_ in chunks if candidates]
    assert [len(candidates) for *_, candidates in offers] == scored
    assert sum(scored) == meta["evaluations_used"]


def spent_after(k: int):
    """A budget check that turns true at its (k + 1)-th call, and counts them."""
    calls = []

    def spent() -> bool:
        calls.append(None)
        return len(calls) > k

    spent.calls = calls
    return spent


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(300, 700))
def test_nsga2_survival_and_parents_give_up_once_spent(seed, n):
    # a union of several row blocks and fronts: the step sorts it once,
    # checking the budget between blocks of its dominance matrix and between
    # fronts; it raises BudgetSpent from the first check that finds it
    # spent, draws no random number before, and is unchanged otherwise
    rng = np.random.default_rng(seed)
    union = [fake_individual(tuple(row), i) for i, row in enumerate(rng.integers(0, 6, (n, 4)).astype(float))]
    config = SearchConfig(max_evaluations=0, population=64)
    survivors, _ = _nsga2_step([], union, np.random.default_rng(0), config, lambda: False)
    never = spent_after(10**9)
    assert _nsga2_step([], union, np.random.default_rng(0), config, never)[0] == survivors
    checks = len(never.calls)
    assert checks == -(-n // kernels.BLOCK_ROWS) + len(fast_nondominated_sort(_objective_rows(union)))
    for k in range(checks):
        step_rng = np.random.default_rng(0)
        with pytest.raises(kernels.BudgetSpent):
            _nsga2_step([], union, step_rng, config, spent_after(k))
        assert step_rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


@pytest.mark.parametrize("algorithm", ["nsga2", "spea2"])
def test_search_stops_when_a_step_finds_the_budget_spent(small_arch, monkeypatch, algorithm):
    # the first generation runs; in the second, the step finds the budget
    # spent at its first check and the search ends without breeding again
    config = SearchConfig(algorithm=algorithm, seed=1, population=8, archive_size=8, max_evaluations=1000)
    real, results = moea._ALGORITHMS[algorithm], []

    def giving_up(*args):
        *rest, spent = args
        try:
            results.append(real(*rest, spent_after(0) if results else spent))
        except kernels.BudgetSpent:
            results.append(None)
            raise
        return results[-1]

    monkeypatch.setitem(moea._ALGORITHMS, algorithm, giving_up)
    evaluator = Evaluator(small_arch, config)
    assert _search(evaluator, _Budget(config)) == (1, False)
    assert len(results) == 2 and results[0] is not None and results[1] is None
    assert len(evaluator.individuals) <= 2 * config.population


# Population 4000 on the large case study: the initial population alone
# outlasts a 2 s budget, so no survival may run.
SPEA2_CHILD = """
import json, resource, time
from archopt import casestudies
from archopt.moea import SearchConfig, run
arch = casestudies.load_case_study("large")
config = SearchConfig(algorithm="spea2", population=4000, archive_size=200, budget_seconds=2.0)
start = time.perf_counter()
run(arch, config)
wall = time.perf_counter() - start
print(json.dumps({"wall": wall, "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def test_spea2_large_population_stays_inside_budget_and_memory():
    # a child process, so that its peak RSS is the search's own
    src = str(Path(moea.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", SPEA2_CHILD], env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.splitlines()[-1])
    assert result["wall"] <= 2.2, result  # criterion 08's +10%
    assert result["maxrss_mb"] < 200, result


def test_run_elitism_best_objectives_present(small_arch):
    config = SearchConfig(seed=8, max_evaluations=200, population=16)
    front = run(small_arch, config)
    best_perfq = max(i.metrics.perfq for i in front.individuals)
    best_rel = max(i.metrics.reliability for i in front.individuals)
    best_pas = min(i.metrics.pas for i in front.individuals)
    best_dist = min(i.metrics.distance for i in front.individuals)
    # the front must contain the best value seen in each single objective;
    # re-running with the same seed rebuilds the full evaluated set
    evaluator = Evaluator(small_arch, config)
    _search(evaluator, _Budget(config))
    all_inds = [i for i in evaluator.individuals.values() if i.valid]
    assert best_perfq == max(i.metrics.perfq for i in all_inds)
    assert best_rel == max(i.metrics.reliability for i in all_inds)
    assert best_pas == min(i.metrics.pas for i in all_inds)
    assert best_dist == min(i.metrics.distance for i in all_inds)


def test_run_three_objective_mode(small_arch):
    config = SearchConfig(seed=3, max_evaluations=60, population=8, use_pas_objective=False)
    front = run(small_arch, config)
    assert all(len(ind.objectives) == 3 for ind in front.individuals)


def test_cumulative_front_with_only_invalid_individuals(small_arch):
    evaluator = Evaluator(small_arch, SearchConfig(max_evaluations=0))
    evaluator._record([((), small_arch.fold)], [SolverError("solver blew up", residual=1.0)])
    front = evaluator.reported_front()
    assert [ind.order for ind in front] == [0]
    assert not front[0].valid


def test_front_admission_keeps_equal_invalid_rows(small_arch):
    # both admission paths compare raw sentinel rows, and equal rows do not
    # dominate each other
    evaluator = Evaluator(small_arch, SearchConfig(max_evaluations=0))
    failure = SolverError("solver blew up", residual=1.0)
    sequences = [(), (RedeployComponent("catalog", "spare"),)]
    for seq in sequences:
        evaluator._record([(seq, small_arch.fold)], [failure])
    first, second = (evaluator.individuals[seq] for seq in sequences)
    assert [ind.order for ind in evaluator.reported_front()] == [first.order, second.order]
    assert pesa2_archive([], [first, second], capacity=4, divisions=8, dim=4) == [first, second]


def test_incremental_front_matches_batch_recompute(small_arch):
    from archopt.pareto import nondominated_indices

    config = SearchConfig(seed=12, max_evaluations=120, population=8)
    evaluator = Evaluator(small_arch, config)
    _search(evaluator, _Budget(config))
    individuals = list(evaluator.individuals.values())
    points = [ind.objectives for ind in individuals]
    expected = {individuals[i].order for i in nondominated_indices(points)}
    assert {ind.order for ind in evaluator.reported_front()} == expected


def run_keeping_evaluator(monkeypatch, arch, config):
    """``run``'s front and the evaluator it searched with."""
    evaluators = []

    class Kept(Evaluator):
        def __init__(self, *args):
            super().__init__(*args)
            evaluators.append(self)

    monkeypatch.setattr(moea, "Evaluator", Kept)
    front = run(arch, config)
    [evaluator] = evaluators
    return front, evaluator


@pytest.mark.parametrize("algorithm", ["nsga2", "spea2", "pesa2"])
def test_evaluations_used_is_the_number_of_individuals(small_arch, monkeypatch, algorithm):
    config = SearchConfig(algorithm=algorithm, seed=4, max_evaluations=90, population=8, archive_size=8)
    front, evaluator = run_keeping_evaluator(monkeypatch, small_arch, config)
    assert front.metadata["evaluations_used"] == len(evaluator.individuals) == config.max_evaluations
    assert [ind.order for ind in evaluator.individuals.values()] == list(range(config.max_evaluations))


def test_a_plan_read_back_from_front_json_is_a_cache_hit(small_arch, monkeypatch, tmp_path):
    config = SearchConfig(seed=5, max_evaluations=60, population=8)
    front, evaluator = run_keeping_evaluator(monkeypatch, small_arch, config)
    _, json_path = write_front(front, tmp_path)
    solutions = json.loads(json_path.read_text())["solutions"]
    assert len(solutions) == len(front.individuals) > 0
    for solution, ind in zip(solutions, front.individuals):
        plan = sequence_from_records(solution["actions"])
        assert plan == ind.sequence
        hits = evaluator.cache_hits
        assert evaluator.evaluate(plan) is evaluator.individuals[ind.sequence]
        assert evaluator.cache_hits == hits + 1
    assert len(evaluator.individuals) == config.max_evaluations


def test_digest_only_for_the_reported_front(small_arch):
    config = SearchConfig(seed=4, max_evaluations=150, population=8)
    front = run(small_arch, config)
    for ind in front.individuals:
        assert ind.phenotype_digest == digest(apply_sequence(small_arch.fold, ind.sequence).architecture())
    # the search itself digests no valid individual
    evaluator = Evaluator(small_arch, config)
    _search(evaluator, _Budget(config))
    valid = [ind for ind in evaluator.individuals.values() if ind.valid]
    assert len(valid) > len(front.individuals)
    assert all(ind.phenotype_digest is None for ind in valid)


@pytest.mark.parametrize("algorithm", ["nsga2", "spea2", "pesa2"])
def test_only_scored_architectures_compile(algorithm, monkeypatch):
    from archopt import model, moea

    built = []
    compile_chunk = model.CompiledChunk.__init__
    scored = []
    real_score = moea.score

    def counting(self, architectures):
        built.append(tuple(architectures))
        compile_chunk(self, architectures)

    def counting_score(initial_perf, candidates, brf, thresholds):
        scored.append(len(candidates))
        return real_score(initial_perf, candidates, brf, thresholds)

    monkeypatch.setattr(model.CompiledChunk, "__init__", counting)
    monkeypatch.setattr(moea, "score", counting_score)
    arch = casestudies.load_case_study("small")
    config = SearchConfig(algorithm=algorithm, seed=1, max_evaluations=120, population=16, archive_size=16)
    front = run(arch, config)
    # the initial model, then one compile per scored chunk; probes build none
    assert built[0] == (arch.fold,)
    assert [len(chunk) for chunk in built[1:]] == [n for n in scored if n]
    assert sum(scored) == front.metadata["evaluations_used"]
    assert 1 < max(scored) <= moea.CHUNK_SIZE
    probed, _ = is_feasible(arch.fold, RedeployComponent("storage", "new-node:app2"))
    assert probed is not None and len(built) == 1 + len([n for n in scored if n])


@pytest.mark.parametrize("algorithm", ["nsga2", "spea2", "pesa2"])
def test_a_search_builds_no_architecture(algorithm, monkeypatch):
    # probes, folds, scoring and digests work on folds; an Architecture is
    # only the I/O form, even for invalid individuals and the front
    from archopt import model

    built = []
    init = model.Architecture.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    arch = casestudies.load_case_study("small")
    monkeypatch.setattr(model.Architecture, "__init__", counting)
    inject_solver_failures(monkeypatch, every=9)
    front = run(arch, SearchConfig(algorithm=algorithm, **PINNED_CONFIG))
    assert sum(front.metadata["invalid_by_type"].values()) > 0
    assert any(ind.valid for ind in front.individuals)
    assert built == []


def test_a_pesa2_generation_is_scored_as_one_chunk(small_arch, monkeypatch):
    # a population of 48 is one chunk per generation, plus the initial one
    chunks = []
    real_score = moea.score

    def counting(initial_perf, candidates, brf, thresholds):
        chunks.append(len(candidates))
        return real_score(initial_perf, candidates, brf, thresholds)

    monkeypatch.setattr(moea, "score", counting)
    config = SearchConfig(algorithm="pesa2", seed=1, population=48, archive_size=48, max_evaluations=400)
    meta = run(small_arch, config).metadata
    scored = [n for n in chunks if n]
    assert meta["generations"] > 2
    assert len(scored) <= meta["generations"] + 1
    assert sum(scored) == meta["evaluations_used"] and max(scored) <= config.population


def test_reported_front_folds_nothing(small_arch, monkeypatch):
    # the front keeps each member's fold, so reporting it probes no action
    from archopt import refactoring

    config = SearchConfig(seed=4, max_evaluations=150, population=8)
    evaluator = Evaluator(small_arch, config)
    _search(evaluator, _Budget(config))
    probes = []
    real = refactoring.is_feasible
    monkeypatch.setattr(refactoring, "is_feasible", lambda *args: probes.append(args) or real(*args))
    front = evaluator.reported_front()
    assert probes == []
    monkeypatch.undo()
    assert len(front) > 1
    for ind in front:
        assert ind.phenotype_digest == oracle.digest(apply_sequence(small_arch.fold, ind.sequence).architecture())


def test_a_search_builds_one_performance_result(large_arch, monkeypatch):
    # the search scores each chunk from its batch solution; the initial
    # model's one-model view is the only PerformanceResult it builds
    from archopt import perfqn

    built = []
    init = perfqn.PerformanceResult.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(perfqn.PerformanceResult, "__init__", counting)
    front = run(large_arch, SearchConfig(**PINNED_CONFIG))
    assert front.metadata["evaluations_used"] == 200
    assert len(built) == 1


def test_run_counts_invalid_individuals_by_type(small_arch, monkeypatch):
    from archopt import moea

    raised = {"SolverError": 0, "ValueError": 0}
    solver_failures = inject_solver_failures(monkeypatch, every=7)
    flaky_many = moea.solve_amva_many
    solved = [0]

    def flakier_many(qn):
        # a ValueError replaces only a solve that succeeded, so each
        # candidate fails once, with the failure that is counted
        solution = flaky_many(qn)
        failures = list(solution.failures)
        for b, failure in enumerate(failures):
            if failure is not None:
                continue
            solved[0] += 1
            if solved[0] % 5 == 0:
                # not a class of its own: counted as the ValueError it is
                raised["ValueError"] += 1
                failures[b] = RoutingError("no link")
            elif solved[0] % 11 == 0:
                raised["ValueError"] += 1
                failures[b] = ValueError("bad value")
        return replace(solution, failures=failures)

    # the scorer's binding only: the initial model's solve stays as it was
    monkeypatch.setattr(moea, "solve_amva_many", flakier_many)
    front = run(small_arch, SearchConfig(seed=3, max_evaluations=80, population=8))
    raised["SolverError"] = len(solver_failures)
    assert all(raised.values())
    assert front.metadata["invalid_by_type"] == raised


# front.csv sha256 of short fixed-seed searches.  A speedup must keep these
# bytes; a change that alters them changes the search's behaviour.
FRONT_CSV_SHA256 = {
    "nsga2": "e4b859ccd26e2cf648db7b4bb319c664a98b66b064b4f26dc072cc9a3f8ec333",
    "spea2": "2b15b39a7c9c60cbb5903702642bf52a6e9966504ff49130fc92304cf06ba531",
    "pesa2": "ac94955b9a7b082008d187a43562c8ef82ae6083bbe4384945e6205aa8964f0b",
}


@pytest.mark.parametrize("algorithm", sorted(FRONT_CSV_SHA256))
def test_front_csv_bytes_match_recorded(small_arch, algorithm):
    config = SearchConfig(algorithm=algorithm, seed=1, population=16, archive_size=16, max_evaluations=200)
    text = front_csv_text(run(small_arch, config))
    assert hashlib.sha256(text.encode()).hexdigest() == FRONT_CSV_SHA256[algorithm]


# The same searches with every 4th solved model failing (the initial
# architecture's solve is call 1), so the selection and archive code sees
# invalid rows.
INVALID_FRONT_CSV_SHA256 = {
    "nsga2": "1503e6005925708bf03c1e445c772b2201ed9e4024c91c9f686fb8c7078620e3",
    "spea2": "88f7d652d053f8d5457fc2b4cce1f83ae819bf569f00dedb941c2a669d7a71d8",
    "pesa2": "794bb8ed4658796aea98b701165c48576a8611f5a11b1d86531b623b0e2a1b02",
}


@pytest.mark.parametrize("algorithm", sorted(INVALID_FRONT_CSV_SHA256))
def test_front_csv_bytes_with_invalid_individuals_match_recorded(small_arch, algorithm, monkeypatch):
    inject_solver_failures(monkeypatch, every=4)
    config = SearchConfig(algorithm=algorithm, seed=1, population=16, archive_size=16, max_evaluations=200)
    front = run(small_arch, config)
    assert front.metadata["invalid_by_type"]["SolverError"] == 50
    text = front_csv_text(front)
    assert hashlib.sha256(text.encode()).hexdigest() == INVALID_FRONT_CSV_SHA256[algorithm]


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["small", "large"]),
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(0, 8),
)
def test_evaluate_bounds_on_random_feasible_sequences(name, seed, length):
    arch = casestudies.load_case_study(name)
    seq, _ = random_sequence(arch.fold, length, np.random.default_rng(seed))
    ind = Evaluator(arch, SearchConfig(max_evaluations=0)).evaluate(seq)  # must not raise
    if ind.valid:
        assert -1.0 <= ind.metrics.perfq <= 1.0
        assert 0.0 <= ind.metrics.reliability <= 1.0
    else:
        assert all(v == float("inf") for v in ind.objectives)
