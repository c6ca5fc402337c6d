import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archopt import casestudies
from archopt.cli import front_csv_text
from archopt.model import RoutingError, digest, save
from archopt.moea import (
    EvalMetrics,
    Evaluator,
    Individual,
    SearchConfig,
    _Budget,
    _grid_cells,
    _offspring,
    _pesa2_insert,
    _pesa2_select,
    _search,
    _spea2_fitness,
    _spea2_survival,
    crossover,
    mutate,
    objective_vector,
    run,
)
from archopt.perfqn import SolverError
from archopt.pareto import dominates
from archopt.refactoring import (
    CloneComponent,
    RedeployComponent,
    RefactoringSequence,
    apply_sequence,
    is_feasible,
    random_sequence,
)


def fake_individual(objectives, order=0, valid=True):
    metrics = EvalMetrics(perfq=0.0, reliability=1.0, pas=0, distance=0.0)
    return Individual(RefactoringSequence(()), f"d{order}", metrics, tuple(objectives), valid, order)


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
    ],
)
def test_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=field):
        SearchConfig(**{"max_evaluations": 10, field: value})


def test_objective_vector_modes():
    metrics = EvalMetrics(perfq=0.25, reliability=0.9, pas=2, distance=5.0)
    assert objective_vector(metrics, True) == (-0.25, -0.9, 2.0, 5.0)
    assert objective_vector(metrics, False) == (-0.25, -0.9, 5.0)


# -- evaluation ------------------------------------------------------------------


def test_empty_sequence_evaluates_to_identity(small_arch):
    evaluator = Evaluator(small_arch, SearchConfig(max_evaluations=0))
    ind = evaluator.evaluate(RefactoringSequence(()))
    assert ind.metrics.perfq == 0.0
    assert ind.metrics.distance == 0.0
    assert ind.valid
    [member] = evaluator.reported_front()
    assert member.phenotype_digest == evaluator.initial_digest


def test_redeploying_hot_component_improves_perfq(small_arch):
    # catalog saturates app1 while spare idles; moving it must help
    evaluator = Evaluator(small_arch, SearchConfig(max_evaluations=0))
    seq = RefactoringSequence((RedeployComponent("catalog", "spare"),))
    ind = evaluator.evaluate(seq)
    assert ind.metrics.perfq > 0.0
    assert ind.objectives[0] < 0.0


def test_evaluation_cache_skips_solver(small_arch):
    evaluator = Evaluator(small_arch, SearchConfig(max_evaluations=0))
    seq = RefactoringSequence((RedeployComponent("catalog", "spare"),))
    first = evaluator.evaluate(seq)
    solver_calls = evaluator.solver_evaluations
    second = evaluator.evaluate(RefactoringSequence((RedeployComponent("catalog", "spare"),)))
    assert evaluator.solver_evaluations == solver_calls
    assert evaluator.cache_hits == 1
    assert first is second


def inject_solver_failures(monkeypatch, every: int) -> list[SolverError]:
    """Replace every ``every``-th solved model's result by a SolverError.
    Models are counted in submission order at both bindings of the batch
    solver, so the initial architecture's solve (through ``solve_amva``)
    is call 1.  Returns the list the injected failures are appended to."""
    from archopt import moea, perfqn

    real_many = perfqn.solve_amva_many
    calls = [0]
    injected: list[SolverError] = []

    def flaky_many(qns):
        results = []
        for result in real_many(qns):
            calls[0] += 1
            if calls[0] % every == 0:
                result = SolverError("did not converge", residual=1.0)
                injected.append(result)
            results.append(result)
        return results

    monkeypatch.setattr(perfqn, "solve_amva_many", flaky_many)
    monkeypatch.setattr(moea, "solve_amva_many", flaky_many)
    return injected


def test_solver_failure_marks_individual_invalid(small_arch, monkeypatch):
    evaluator = Evaluator(small_arch, SearchConfig(max_evaluations=0))
    inject_solver_failures(monkeypatch, every=1)
    seq = RefactoringSequence((RedeployComponent("catalog", "spare"),))
    ind = evaluator.evaluate(seq)
    assert not ind.valid
    assert ind.phenotype_digest == digest(apply_sequence(small_arch, seq))
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


class FixedCutRng:
    """rng stub: fixed crossover cut, never mutates."""

    def __init__(self, cut):
        self.cut = cut

    def integers(self, *args):
        return self.cut

    def random(self):
        return 1.0


def test_crossover_single_point_cut(small_arch, monkeypatch):
    a = RefactoringSequence(
        (
            RedeployComponent("web", "spare"),
            RedeployComponent("auth", "spare"),
            CloneComponent("catalog", "app2"),
            CloneComponent("web", "app2"),
        )
    )
    b = RefactoringSequence(
        (
            CloneComponent("storage", "app1"),
            RedeployComponent("orders", "app1"),
            RedeployComponent("storage", "spare"),
            CloneComponent("auth", "app1"),
        )
    )
    rng = np.random.default_rng(0)
    # the prefix folds a bred parent keeps: all but its last
    kept = {f"folds_{name}": mutate(small_arch, seq, rng, 0.0)[1][:-1] for name, seq in (("a", a), ("b", b))}
    probes = count_probes(monkeypatch)
    for parent_folds, probed_genes in (({}, len(a)), (kept, len(a) - 2)):
        probes.clear()
        (child_a, folds_a), (child_b, folds_b) = crossover(small_arch, a, b, FixedCutRng(2), **parent_folds)
        # every gene is feasible where it lands; given the parents' folds,
        # no gene before the cut is probed
        assert len(probes) == 2 * probed_genes
        assert child_a.actions == a.actions[:2] + b.actions[2:]
        assert child_b.actions == b.actions[:2] + a.actions[2:]
        for child, folds in ((child_a, folds_a), (child_b, folds_b)):
            assert len(folds) == len(child)
            for i, fold in enumerate(folds):
                assert fold == apply_sequence(small_arch, RefactoringSequence(child.actions[: i + 1]))


def test_crossover_deterministic(small_arch):
    rng1, rng2 = np.random.default_rng(5), np.random.default_rng(5)
    a, _ = random_sequence(small_arch, 4, np.random.default_rng(1))
    b, _ = random_sequence(small_arch, 4, np.random.default_rng(2))
    assert crossover(small_arch, a, b, rng1) == crossover(small_arch, a, b, rng2)


def test_mutation_zero_probability_is_identity(small_arch):
    seq, _ = random_sequence(small_arch, 4, np.random.default_rng(3))
    out, folds = mutate(small_arch, seq, np.random.default_rng(0), gene_prob=0.0)
    assert out == seq
    assert len(folds) == len(seq)
    assert folds[-1] == apply_sequence(small_arch, seq)


def test_offspring_reuse_a_parents_stored_folds(small_arch, monkeypatch):
    # no crossover and no mutation: every child is its parent
    config = SearchConfig(max_evaluations=0, population=4, crossover_prob=0.0, mutation_prob=0.0)
    seq, _ = random_sequence(small_arch, 4, np.random.default_rng(3))
    _, folds = mutate(small_arch, seq, np.random.default_rng(0), gene_prob=0.0)
    parent = replace(fake_individual((0.0, 0.0, 0.0, 0.0)), sequence=seq)
    folds_of = {seq: folds[:-1]}  # what the search keeps of a bred parent
    evaluator = Evaluator(small_arch, config)
    probes = count_probes(monkeypatch)
    children = list(_offspring(evaluator, lambda: parent, np.random.default_rng(0), folds_of))
    # one probe per child, of the last gene only
    assert probes == [seq.actions[-1]] * config.population
    assert children == [(seq, folds[-1])] * config.population
    assert folds_of == {seq: folds[:-1]}


def test_mutation_deterministic(small_arch):
    seq, _ = random_sequence(small_arch, 4, np.random.default_rng(3))
    out1, folds1 = mutate(small_arch, seq, np.random.default_rng(9), gene_prob=0.5)
    out2, folds2 = mutate(small_arch, seq, np.random.default_rng(9), gene_prob=0.5)
    assert out1 == out2
    assert folds1 == folds2
    assert folds1[-1] == apply_sequence(small_arch, out1)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["small", "large"]),
    seed=st.integers(0, 2**32 - 1),
    gene_prob=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
)
def test_mutate_with_crossover_folds_matches_mutate_without(name, seed, gene_prob):
    arch = casestudies.load_case_study(name)
    rng = np.random.default_rng(seed)
    (a, _), (b, _) = random_sequence(arch, 4, rng), random_sequence(arch, 4, rng)
    # crossover from the prefix folds the parents keep builds the same children
    kept_a, kept_b = (mutate(arch, seq, rng, 0.0)[1][:-1] for seq in (a, b))
    replay = np.random.default_rng()
    replay.bit_generator.state = rng.bit_generator.state
    children = crossover(arch, a, b, rng, folds_a=kept_a, folds_b=kept_b)
    rebuilt = crossover(arch, a, b, replay)
    assert [(c, [save(f) for f in fs]) for c, fs in children] == [(c, [save(f) for f in fs]) for c, fs in rebuilt]
    assert rng.bit_generator.state == replay.bit_generator.state
    for child, folds in children:
        with_rng, without_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        got, got_folds = mutate(arch, child, with_rng, gene_prob, folds=folds)
        want, want_folds = mutate(arch, child, without_rng, gene_prob)
        assert got == want
        assert [save(fold) for fold in got_folds] == [save(fold) for fold in want_folds]
        assert with_rng.bit_generator.state == without_rng.bit_generator.state


# -- SPEA2 internals --------------------------------------------------------------


def test_spea2_nondominated_pair_enters_archive():
    union = [fake_individual((0.0, 1.0), 0), fake_individual((1.0, 0.0), 1)]
    fitness, _ = _spea2_fitness(union)
    assert (fitness < 1.0).all()
    archive = _spea2_survival([], union, SearchConfig(max_evaluations=0, archive_size=2))
    assert len(archive) == 2


def test_spea2_dominated_point_raw_strength():
    union = [fake_individual((0.0, 0.0), 0), fake_individual((1.0, 1.0), 1)]
    fitness, _ = _spea2_fitness(union)
    # dominator strength S=1, so dominated point's raw fitness is 1 (+density)
    assert fitness[0] < 1.0
    assert 1.0 <= fitness[1] < 2.0


def test_spea2_truncation_is_deterministic():
    union = [fake_individual((0.0, 1.0), 0), fake_individual((1.0, 0.0), 1)]
    archive = _spea2_survival([], union, SearchConfig(max_evaluations=0, archive_size=1))
    assert len(archive) == 1
    assert archive[0].order == 0  # tie broken by index


def test_spea2_fills_with_best_dominated():
    union = [
        fake_individual((0.0, 0.0), 0),
        fake_individual((1.0, 1.0), 1),
        fake_individual((2.0, 2.0), 2),
    ]
    archive = _spea2_survival([], union, SearchConfig(max_evaluations=0, archive_size=2))
    assert [ind.order for ind in archive] == [0, 1]


# -- PESA-II internals -------------------------------------------------------------


def test_pesa2_single_member_always_selected():
    archive = [fake_individual((0.5, 0.5), 0)]
    cells = _grid_cells(archive, divisions=8)
    rng = np.random.default_rng(0)
    for _ in range(10):
        assert _pesa2_select(archive, cells, rng) is archive[0]


def test_pesa2_insert_rejects_dominated_and_evicts_crowded():
    a = fake_individual((0.1, 0.9), 0)
    b = fake_individual((0.15, 0.85), 1)  # same cell as a
    c = fake_individual((0.9, 0.1), 2)
    archive = [a]
    archive = _pesa2_insert(archive, b, capacity=2, divisions=2)
    archive = _pesa2_insert(archive, c, capacity=2, divisions=2)
    assert len(archive) == 2
    # a and b share a cell; the oldest of that cell was evicted
    assert c in archive
    assert a not in archive and b in archive


def test_pesa2_insert_drops_newly_dominated_members():
    archive = [fake_individual((0.5, 0.5), 0)]
    better = fake_individual((0.1, 0.1), 1)
    archive = _pesa2_insert(archive, better, capacity=4, divisions=4)
    assert archive == [better]
    # dominated candidates never enter
    worse = fake_individual((0.2, 0.2), 2)
    assert _pesa2_insert(archive, worse, capacity=4, divisions=4) == [better]


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
    evaluator._record(RefactoringSequence(()), SolverError("solver blew up", residual=1.0), small_arch)
    front = evaluator.reported_front()
    assert [ind.order for ind in front] == [0]
    assert not front[0].valid


def test_front_admission_keeps_equal_invalid_rows(small_arch):
    # both admission paths compare raw sentinel rows, and equal rows do not
    # dominate each other
    evaluator = Evaluator(small_arch, SearchConfig(max_evaluations=0))
    failure = SolverError("solver blew up", residual=1.0)
    first = evaluator._record(RefactoringSequence(()), failure, small_arch)
    second = evaluator._record(RefactoringSequence((RedeployComponent("catalog", "spare"),)), failure, small_arch)
    assert [ind.order for ind in evaluator.reported_front()] == [first.order, second.order]
    assert _pesa2_insert(_pesa2_insert([], first, 4, 8), second, 4, 8) == [first, second]


def test_incremental_front_matches_batch_recompute(small_arch):
    from archopt.pareto import nondominated_indices

    config = SearchConfig(seed=12, max_evaluations=120, population=8)
    evaluator = Evaluator(small_arch, config)
    _search(evaluator, _Budget(config))
    individuals = list(evaluator.individuals.values())
    points = [ind.objectives for ind in individuals]
    expected = {individuals[i].order for i in nondominated_indices(points)}
    assert {ind.order for ind in evaluator.reported_front()} == expected


def test_digest_only_for_the_reported_front(small_arch):
    config = SearchConfig(seed=4, max_evaluations=150, population=8)
    front = run(small_arch, config)
    for ind in front.individuals:
        assert ind.phenotype_digest == digest(apply_sequence(small_arch, ind.sequence))
    # the search itself digests no valid individual
    evaluator = Evaluator(small_arch, config)
    _search(evaluator, _Budget(config))
    valid = [ind for ind in evaluator.individuals.values() if ind.valid]
    assert len(valid) > len(front.individuals)
    assert all(ind.phenotype_digest is None for ind in valid)


@pytest.mark.parametrize("algorithm", ["nsga2", "spea2", "pesa2"])
def test_only_scored_architectures_compile(algorithm, monkeypatch):
    from archopt import model

    built = []
    compile_view = model.CompiledArchitecture.__init__

    def counting(self, arch):
        built.append(arch)
        compile_view(self, arch)

    monkeypatch.setattr(model.CompiledArchitecture, "__init__", counting)
    arch = casestudies.load_case_study("small")  # fresh, so its view is built here
    config = SearchConfig(algorithm=algorithm, seed=1, max_evaluations=120, population=16, archive_size=16)
    front = run(arch, config)
    # the initial model plus one view per scored candidate; probes build none
    assert len(built) == front.metadata["evaluations_used"] + 1
    assert built[0] is arch
    probed, _ = is_feasible(arch, RedeployComponent("storage", "new-node:app2"))
    assert probed is not None and "compiled" not in vars(probed)


def test_run_counts_invalid_individuals_by_type(small_arch, monkeypatch):
    from archopt import moea

    raised = {"SolverError": 0, "ValueError": 0}
    calls = {"reliability": 0}
    real_reliability = moea.compute_reliability
    solver_failures = inject_solver_failures(monkeypatch, every=7)

    def flaky_reliability(arch):
        calls["reliability"] += 1
        if calls["reliability"] % 5 == 0:
            # not a class of its own: counted as the ValueError it is
            raised["ValueError"] += 1
            raise RoutingError("no link")
        if calls["reliability"] % 11 == 0:
            raised["ValueError"] += 1
            raise ValueError("bad value")
        return real_reliability(arch)

    monkeypatch.setattr(moea, "compute_reliability", flaky_reliability)
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
    seq, _ = random_sequence(arch, length, np.random.default_rng(seed))
    ind = Evaluator(arch, SearchConfig(max_evaluations=0)).evaluate(seq)  # must not raise
    if ind.valid:
        assert -1.0 <= ind.metrics.perfq <= 1.0
        assert 0.0 <= ind.metrics.reliability <= 1.0
    else:
        assert all(v == float("inf") for v in ind.objectives)
