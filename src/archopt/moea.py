"""Evolutionary search over refactoring sequences.

Genotype: fixed-length action sequence.  Objectives, all minimized:
(-perfQ, -reliability, antipattern count, distance); the antipattern
objective can be dropped to run a 3-objective search.  Three algorithms
share the evaluation machinery: NSGA-II, SPEA2 and PESA-II.  The returned
front is the non-dominated subset of every individual evaluated during
the run, not just the final population.
"""

from __future__ import annotations

import logging
import numbers
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from . import kernels
from .antipatterns import Thresholds, detect
from .model import Architecture, RoutingError, digest, validate
from .pareto import admit, crowding_distance, fast_nondominated_sort
from .perfqn import PerformanceResult, SolverError, perfq, solve_amva, solve_amva_many, to_qn
from .refactoring import (
    DEFAULT_BRF,
    ActionKind,
    RefactoringSequence,
    apply_sequence,
    distance,
    random_sequence,
    repair,
    sequence_to_records,
)
from .reliability import reliability as compute_reliability

log = logging.getLogger("archopt.moea")

ALGORITHMS = ("nsga2", "spea2", "pesa2")
INVALID_SENTINEL = float("inf")
# What scoring a folded architecture may raise; each failure makes an
# invalid individual, counted under the first of these classes it is.
EVALUATION_FAILURES = (SolverError, RoutingError, ValueError)
# New candidates scored together: one to_qn each and one stacked AMVA
# solve.  Bounds the folded architectures held at once, and how far the
# time budget can overrun.
CHUNK_SIZE = 32

# A candidate of the search: its genotype and the architecture it folds to.
Candidate = tuple[RefactoringSequence, Architecture]
# A bred child: its genotype and its prefix folds (``folds[i]`` is the
# architecture after the first i + 1 genes).
Lineage = tuple[RefactoringSequence, tuple[Architecture, ...]]


# Type checks of the dataclass fields annotated with these types (the
# annotations are strings).
_TYPE_CHECKS = {
    "int": lambda value: isinstance(value, numbers.Integral) and not isinstance(value, bool),
    "float": lambda value: isinstance(value, numbers.Real) and not isinstance(value, bool),
    "bool": lambda value: isinstance(value, bool),
    "str": lambda value: isinstance(value, str),
    "list": lambda value: isinstance(value, list),
    "dict": lambda value: isinstance(value, dict),
}


def check_field_types(instance) -> None:
    """Raise ValueError naming the first field of the dataclass ``instance``
    whose value does not have its annotated type.  ``T | None`` also takes
    None, and ``list[T]`` checks each item against T too."""
    for f in fields(instance):
        kind, _, optional = f.type.partition(" | ")
        base, _, item = kind.rstrip("]").partition("[")
        value = getattr(instance, f.name)
        if base not in _TYPE_CHECKS or (optional and value is None):
            continue
        if not _TYPE_CHECKS[base](value) or (item in _TYPE_CHECKS and not all(map(_TYPE_CHECKS[item], value))):
            raise ValueError(f"{f.name} must be of type {kind}, got {value!r}")


@dataclass(frozen=True)
class SearchConfig:
    algorithm: str = "nsga2"
    seed: int = 0
    population: int = 32
    archive_size: int = 32
    sequence_length: int = 4
    crossover_prob: float = 0.8
    mutation_prob: float | None = None  # default 1 / sequence_length
    divisions: int = 8  # PESA-II hypergrid cells per objective
    budget_seconds: float | None = None
    max_evaluations: int | None = None
    use_pas_objective: bool = True
    allow_new_nodes: bool = True
    brf: dict[ActionKind, float] = field(default_factory=lambda: dict(DEFAULT_BRF))
    thresholds: Thresholds = field(default_factory=Thresholds)

    def __post_init__(self):
        check_field_types(self)
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm '{self.algorithm}', expected one of {ALGORITHMS}")
        if self.budget_seconds is None and self.max_evaluations is None:
            raise ValueError("at least one of budget_seconds / max_evaluations must be set")
        if self.population < 4 or self.population % 2:
            raise ValueError(f"population must be >= 4 and even, got {self.population}")
        for name in ("sequence_length", "archive_size", "divisions"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("crossover_prob", "mutation_prob"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for name in ("seed", "budget_seconds", "max_evaluations"):
            value = getattr(self, name)
            if value is not None and not value >= 0:
                raise ValueError(f"{name} must be >= 0, got {value}")

    @property
    def gene_mutation_prob(self) -> float:
        if self.mutation_prob is not None:
            return self.mutation_prob
        return 1.0 / max(1, self.sequence_length)


@dataclass(frozen=True)
class EvalMetrics:
    perfq: float
    reliability: float
    pas: int
    distance: float


@dataclass(frozen=True)
class Individual:
    sequence: RefactoringSequence
    phenotype_digest: str | None  # set for front entrants and invalid individuals
    metrics: EvalMetrics
    objectives: tuple[float, ...]  # active objective vector, minimized
    valid: bool
    order: int  # evaluation order, used for deterministic tie-breaks


@dataclass(frozen=True)
class ParetoFront:
    individuals: tuple[Individual, ...]
    metadata: dict


def objective_vector(metrics: EvalMetrics, use_pas: bool) -> tuple[float, ...]:
    if use_pas:
        return (-metrics.perfq, -metrics.reliability, float(metrics.pas), metrics.distance)
    return (-metrics.perfq, -metrics.reliability, metrics.distance)


def score(
    initial_perf: PerformanceResult,
    candidates: list[Candidate],
    brf: dict[ActionKind, float],
    thresholds: Thresholds,
) -> list[tuple[EvalMetrics | None, Exception | None, PerformanceResult | None]]:
    """Scores each candidate's folded architecture: ``to_qn`` of each, one
    ``solve_amva_many`` of all, then reliability and antipatterns of each.
    Returns per candidate, in order, (metrics, None, its performance), or
    (None, the failure, None) when it cannot be scored."""
    outcomes: list[PerformanceResult | Exception | None] = []
    models = []
    for _, folded in candidates:
        try:
            models.append(to_qn(folded))
            outcomes.append(None)
        except EVALUATION_FAILURES as exc:
            outcomes.append(exc)
    solved = iter(solve_amva_many(models))
    scores = []
    for (seq, folded), outcome in zip(candidates, outcomes):
        perf = next(solved) if outcome is None else outcome
        if isinstance(perf, Exception):
            scores.append((None, perf, None))
            continue
        try:
            rel = compute_reliability(folded)
        except EVALUATION_FAILURES as exc:
            scores.append((None, exc, None))
            continue
        metrics = EvalMetrics(
            perfq=perfq(initial_perf, perf),
            reliability=rel.overall,
            pas=len(detect(folded, perf, thresholds)),
            distance=distance(seq, brf),
        )
        scores.append((metrics, None, perf))
    return scores


class _Budget:
    """The search's time budget and evaluation cap; the one reader of the clock."""

    def __init__(self, config: SearchConfig):
        self.seconds = config.budget_seconds
        self.max_evaluations = config.max_evaluations
        self.started = time.monotonic()
        self.stalled = False
        self._last_evaluations: int | None = None

    def spent(self, evaluations: int) -> bool:
        """Whether the time budget or the evaluation cap is used up."""
        if self.seconds is not None and self.elapsed() >= self.seconds:
            return True
        return self.max_evaluations is not None and evaluations >= self.max_evaluations

    def exhausted(self, evaluations: int) -> bool:
        """Whether the search must stop.  The loops ask once per generation,
        so an unchanged count means the last generation was all cache hits:
        the search has stalled, and an evaluation cap would never be met."""
        self.stalled = evaluations == self._last_evaluations
        self._last_evaluations = evaluations
        return self.stalled or self.spent(evaluations)

    def elapsed(self) -> float:
        return time.monotonic() - self.started


class Evaluator:
    """Scores each genotype once.  ``individuals`` maps each evaluated genotype
    to its individual, in evaluation order: the cache and the run's log."""

    def __init__(self, initial: Architecture, config: SearchConfig):
        violations = validate(initial)
        if violations:
            raise ValueError("initial architecture is invalid:\n" + "\n".join(violations))
        self.initial = initial
        self.config = config
        self.initial_digest = digest(initial)
        self.initial_perf = solve_amva(to_qn(initial))
        self.individuals: dict[RefactoringSequence, Individual] = {}
        # running non-dominated archive over everything evaluated; kept
        # incrementally so the final front costs nothing extra
        self._front: list[Individual] = []
        self._front_points = np.empty((0, 4 if config.use_pas_objective else 3))
        self.solver_evaluations = 0
        self.cache_hits = 0
        self.invalid_by_type = dict.fromkeys((cls.__name__ for cls in EVALUATION_FAILURES), 0)

    def _record(
        self,
        seq: RefactoringSequence,
        metrics: EvalMetrics | None,
        failure: Exception | None,
        folded: Architecture,
    ) -> Individual:
        """Store a scored candidate.  Its phenotype is digested only when
        it is invalid (for the warning) or enters the cumulative front."""
        self.solver_evaluations += 1
        order = len(self.individuals)
        if metrics is None:
            phenotype = digest(folded)
            kind = next(cls for cls in EVALUATION_FAILURES if isinstance(failure, cls))
            self.invalid_by_type[kind.__name__] += 1
            log.warning("invalid individual (%s): %s", phenotype[:12], failure)
            sentinel = float("nan")
            metrics = EvalMetrics(sentinel, sentinel, 0, sentinel)
            dim = 4 if self.config.use_pas_objective else 3
            individual = Individual(seq, phenotype, metrics, (INVALID_SENTINEL,) * dim, False, order)
        else:
            objectives = objective_vector(metrics, self.config.use_pas_objective)
            individual = Individual(seq, None, metrics, objectives, True, order)
        candidate = np.array(individual.objectives)
        keep = admit(self._front_points, candidate)
        if keep is not None:
            if individual.phenotype_digest is None:
                individual = replace(individual, phenotype_digest=digest(folded))
            self._front = [ind for ind, k in zip(self._front, keep) if k] + [individual]
            self._front_points = np.vstack([self._front_points[keep], candidate[None, :]])
        self.individuals[seq] = individual
        return individual

    @property
    def front(self) -> list[Individual]:
        """Non-dominated subset of every individual evaluated so far."""
        return list(self._front)

    def _score_chunk(self, chunk: list[Candidate]) -> None:
        """Score new candidates together and record them in submission order."""
        scores = score(self.initial_perf, chunk, self.config.brf, self.config.thresholds)
        for (seq, folded), (metrics, failure, _) in zip(chunk, scores):
            self._record(seq, metrics, failure, folded)

    def evaluate(self, seq: RefactoringSequence, folded: Architecture | None = None) -> Individual:
        """Score a sequence; ``folded``, when given, must be the architecture
        ``seq`` folds to from the initial one, and saves folding it again."""
        cached = self.individuals.get(seq)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self._score_chunk([(seq, apply_sequence(self.initial, seq) if folded is None else folded)])
        return self.individuals[seq]

    def evaluate_many(self, candidates: Iterable[Candidate], budget: _Budget) -> list[Individual]:
        """Evaluate in submission order.  Candidates are drawn one at a time;
        a genotype already scored or pending is a cache hit, and new ones
        are scored in chunks of ``CHUNK_SIZE``.  Once ``budget`` is spent,
        counting the pending ones as evaluated, no further candidate is
        drawn; the pending ones are still scored."""
        drawn: list[RefactoringSequence] = []
        pending: dict[RefactoringSequence, Architecture] = {}
        for seq, folded in candidates:
            drawn.append(seq)
            if seq in self.individuals or seq in pending:
                self.cache_hits += 1
            else:
                pending[seq] = folded
                if len(pending) == CHUNK_SIZE:
                    self._score_chunk(list(pending.items()))
                    pending.clear()
            if budget.spent(self.solver_evaluations + len(pending)):
                break
        self._score_chunk(list(pending.items()))
        return [self.individuals[seq] for seq in drawn]


def _tournament(rng: np.random.Generator, size: int) -> tuple[int, int]:
    return int(rng.integers(size)), int(rng.integers(size))


def crossover(
    initial: Architecture,
    a: RefactoringSequence,
    b: RefactoringSequence,
    rng: np.random.Generator,
    allow_new_nodes: bool = True,
) -> tuple[Lineage, Lineage]:
    """Single-point crossover at a uniform cut in [1, L-1], then repair;
    returns each child with its prefix folds."""
    if len(a) != len(b):
        raise ValueError(f"parent lengths differ: {len(a)} vs {len(b)}")
    length = len(a)
    child_a, child_b = a, b
    if length >= 2:
        cut = int(rng.integers(1, length))
        child_a = RefactoringSequence(a.actions[:cut] + b.actions[cut:])
        child_b = RefactoringSequence(b.actions[:cut] + a.actions[cut:])
    return (
        repair(initial, child_a, rng, allow_new_nodes),
        repair(initial, child_b, rng, allow_new_nodes),
    )


def mutate(
    initial: Architecture,
    seq: RefactoringSequence,
    rng: np.random.Generator,
    gene_prob: float,
    allow_new_nodes: bool = True,
    folds: tuple[Architecture, ...] = (),
) -> Candidate:
    """Replace each gene with probability ``gene_prob`` by a random feasible
    action at its prefix position; infeasible survivors are repaired.
    ``folds``, when given, are the prefix folds of ``seq`` (as ``crossover``
    returns them); the genes before the first replaced one reuse them.
    Returns the child with its folded architecture."""
    child, built = repair(initial, seq, rng, allow_new_nodes, gene_prob, folds)
    return child, built[-1] if built else initial


def _offspring(evaluator: Evaluator, select: Callable[[], Individual], rng: np.random.Generator) -> Iterator[Candidate]:
    """One generation of children, bred two at a time from parents drawn by
    ``select``.  Lazy, so only one pair's folds are held at a time; scoring
    draws no random numbers, so the children are the same as if all were
    bred first.  Mutation reuses crossover's prefix folds, so each gene of
    a child folds once."""
    config = evaluator.config
    for _ in range(config.population // 2):
        a, b = select().sequence, select().sequence
        pair: tuple[Lineage, Lineage] = ((a, ()), (b, ()))
        if rng.random() < config.crossover_prob:
            pair = crossover(evaluator.initial, a, b, rng, config.allow_new_nodes)
        for child, folds in pair:
            yield mutate(evaluator.initial, child, rng, config.gene_mutation_prob, config.allow_new_nodes, folds)


# ---------------------------------------------------------------------------
# NSGA-II
# ---------------------------------------------------------------------------


def _objective_rows(individuals: list[Individual]) -> np.ndarray:
    """Objective rows with the invalid sentinel (inf) as 1e30, so distances
    stay finite; ranks and crowding do not change, since no front mixes
    valid and sentinel rows.  Front admission compares raw rows instead."""
    points = np.array([ind.objectives for ind in individuals])
    return np.where(np.isfinite(points), points, 1e30)


def _rank_and_crowding(population: list[Individual]) -> tuple[np.ndarray, np.ndarray]:
    points = _objective_rows(population)
    fronts = fast_nondominated_sort(points)
    rank = np.zeros(len(population), dtype=int)
    crowding = np.zeros(len(population))
    for level, front in enumerate(fronts):
        rank[front] = level
        crowding[front] = crowding_distance(points[front])
    return rank, crowding


def _nsga2_select_parent(population, rank, crowding, rng) -> Individual:
    i, j = _tournament(rng, len(population))
    if rank[i] != rank[j]:
        return population[i] if rank[i] < rank[j] else population[j]
    if crowding[i] != crowding[j]:
        return population[i] if crowding[i] > crowding[j] else population[j]
    return population[min(i, j)]


def _nsga2_survival(population: list[Individual], mu: int) -> list[Individual]:
    points = _objective_rows(population)
    fronts = fast_nondominated_sort(points)
    survivors: list[Individual] = []
    for front in fronts:
        if len(survivors) + len(front) <= mu:
            survivors.extend(population[i] for i in front)
        else:
            crowd = crowding_distance(points[front])
            # fill by descending crowding, ties by evaluation order
            order = sorted(range(len(front)), key=lambda i: (-crowd[i], population[front[i]].order))
            survivors.extend(population[front[i]] for i in order[: mu - len(survivors)])
            break
    return survivors


def _run_nsga2(evaluator: Evaluator, rng: np.random.Generator, budget: _Budget) -> int:
    config = evaluator.config
    population = _initial_population(evaluator, rng, budget)
    generations = 0
    while not budget.exhausted(evaluator.solver_evaluations) and population:
        rank, crowding = _rank_and_crowding(population)
        select = partial(_nsga2_select_parent, population, rank, crowding, rng)
        evaluated = evaluator.evaluate_many(_offspring(evaluator, select, rng), budget)
        population = _nsga2_survival(population + evaluated, config.population)
        generations += 1
    return generations


# ---------------------------------------------------------------------------
# SPEA2
# ---------------------------------------------------------------------------


def _spea2_fitness(union: list[Individual]) -> tuple[np.ndarray, np.ndarray]:
    points = _objective_rows(union)
    dom = kernels.dominance_matrix(points)
    strength = dom.sum(axis=1).astype(float)  # S(i): count i dominates
    raw = np.array([strength[dom[:, i]].sum() for i in range(len(union))])
    dists = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    np.fill_diagonal(dists, np.inf)
    k = int(np.floor(np.sqrt(len(union))))
    k = max(1, min(k, len(union) - 1)) if len(union) > 1 else 1
    sigma = np.sort(dists, axis=1)[:, k - 1] if len(union) > 1 else np.zeros(len(union))
    density = 1.0 / (sigma + 2.0)
    return raw + density, dists


def _spea2_truncate(archive_idx: list[int], dists: np.ndarray, target: int) -> list[int]:
    # iteratively drop the member with lexicographically smallest sorted
    # nearest-neighbor distances; on full ties the highest index goes,
    # so earlier individuals win as everywhere else
    keep = list(archive_idx)
    while len(keep) > target:
        sub = dists[np.ix_(keep, keep)]
        ranked = sorted(range(len(keep)), key=lambda i: (tuple(np.sort(sub[i])), -keep[i]))
        keep.pop(ranked[0])
    return keep


def _spea2_environmental(union: list[Individual], fitness: np.ndarray, dists: np.ndarray, size: int) -> list[Individual]:
    nondom = [i for i in range(len(union)) if fitness[i] < 1.0]
    if len(nondom) > size:
        nondom = _spea2_truncate(nondom, dists, size)
    elif len(nondom) < size:
        dominated = sorted(
            (i for i in range(len(union)) if fitness[i] >= 1.0),
            key=lambda i: (fitness[i], union[i].order),
        )
        nondom = nondom + dominated[: size - len(nondom)]
    return [union[i] for i in nondom]


def _spea2_select_parent(archive: list[Individual], fitness: np.ndarray, rng: np.random.Generator) -> Individual:
    i, j = _tournament(rng, len(archive))
    return archive[i] if (fitness[i], i) <= (fitness[j], j) else archive[j]


def _run_spea2(evaluator: Evaluator, rng: np.random.Generator, budget: _Budget) -> int:
    config = evaluator.config
    population = _initial_population(evaluator, rng, budget)
    archive: list[Individual] = []
    generations = 0
    while population:
        union = population + archive
        fitness, dists = _spea2_fitness(union)
        archive = _spea2_environmental(union, fitness, dists, config.archive_size)
        if budget.exhausted(evaluator.solver_evaluations):
            break
        arch_fitness, _ = _spea2_fitness(archive)
        select = partial(_spea2_select_parent, archive, arch_fitness, rng)
        population = evaluator.evaluate_many(_offspring(evaluator, select, rng), budget)
        generations += 1
    return generations


# ---------------------------------------------------------------------------
# PESA-II
# ---------------------------------------------------------------------------


def _grid_cells(archive: list[Individual], divisions: int) -> dict[tuple, list[int]]:
    """Archive indices by cell of an adaptive hypergrid over the archive's
    objective bounding box, ``divisions`` cells per objective."""
    points = _objective_rows(archive)
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    width = np.where(hi > lo, (hi - lo) / divisions, 1.0)
    cells: dict[tuple, list[int]] = {}
    for i, p in enumerate(points):
        idx = np.clip(((p - lo) / width).astype(int), 0, divisions - 1)
        cells.setdefault(tuple(int(v) for v in idx), []).append(i)
    return cells


def _pesa2_insert(archive: list[Individual], candidate: Individual, capacity: int, divisions: int) -> list[Individual]:
    point = np.array(candidate.objectives)
    keep = admit(np.array([ind.objectives for ind in archive]).reshape(-1, point.size), point)
    if keep is None:
        return archive
    archive = [ind for ind, k in zip(archive, keep) if k] + [candidate]
    if len(archive) > capacity:
        cells = _grid_cells(archive, divisions)
        crowded_key = max(sorted(cells), key=lambda key: len(cells[key]))  # ties -> lowest cell
        evict = cells[crowded_key][0]  # oldest member of the most crowded cell
        archive = archive[:evict] + archive[evict + 1 :]
    return archive


def _pesa2_select(archive: list[Individual], cells: dict[tuple, list[int]], rng: np.random.Generator) -> Individual:
    keys = sorted(cells)
    first = keys[int(rng.integers(len(keys)))]
    second = keys[int(rng.integers(len(keys)))]
    if len(cells[first]) != len(cells[second]):
        chosen = first if len(cells[first]) < len(cells[second]) else second
    else:
        chosen = first if rng.random() < 0.5 else second
    members = cells[chosen]
    return archive[members[int(rng.integers(len(members)))]]


def _run_pesa2(evaluator: Evaluator, rng: np.random.Generator, budget: _Budget) -> int:
    config = evaluator.config
    population = _initial_population(evaluator, rng, budget)
    archive: list[Individual] = []
    for ind in population:
        archive = _pesa2_insert(archive, ind, config.archive_size, config.divisions)
    generations = 0
    while archive and not budget.exhausted(evaluator.solver_evaluations):
        select = partial(_pesa2_select, archive, _grid_cells(archive, config.divisions), rng)
        evaluated = evaluator.evaluate_many(_offspring(evaluator, select, rng), budget)
        for ind in evaluated:
            archive = _pesa2_insert(archive, ind, config.archive_size, config.divisions)
        generations += 1
    return generations


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _initial_population(evaluator: Evaluator, rng: np.random.Generator, budget: _Budget) -> list[Individual]:
    config = evaluator.config
    candidates = (
        random_sequence(evaluator.initial, config.sequence_length, rng, config.allow_new_nodes)
        for _ in range(config.population)
    )
    return evaluator.evaluate_many(candidates, budget)


_RUNNERS = {"nsga2": _run_nsga2, "spea2": _run_spea2, "pesa2": _run_pesa2}


def run(initial: Architecture, config: SearchConfig) -> ParetoFront:
    """Run one optimization and return the cumulative Pareto front."""
    rng = np.random.default_rng(config.seed)
    evaluator = Evaluator(initial, config)  # also warms the solver path
    budget = _Budget(config)
    generations = _RUNNERS[config.algorithm](evaluator, rng, budget)
    wall = budget.elapsed()

    front = evaluator.front
    front.sort(key=lambda ind: (ind.objectives, ind.order))
    metadata = {
        "algorithm": config.algorithm,
        "seed": config.seed,
        "population": config.population,
        "archive_size": config.archive_size,
        "sequence_length": config.sequence_length,
        "budget_seconds": config.budget_seconds,
        "max_evaluations": config.max_evaluations,
        "use_pas_objective": config.use_pas_objective,
        "evaluations_used": evaluator.solver_evaluations,
        "cache_hits": evaluator.cache_hits,
        "invalid_by_type": dict(evaluator.invalid_by_type),
        "generations": generations,
        "budget_truncated": generations == 0,
        "stalled": budget.stalled,
        "wall_time_seconds": wall,
        "initial_digest": evaluator.initial_digest,
    }
    log.info(
        "%s seed=%s: %d evaluations, %d generations, front size %d, %.2fs",
        config.algorithm, config.seed, evaluator.solver_evaluations, generations, len(front), wall,
    )
    return ParetoFront(individuals=tuple(front), metadata=metadata)


def front_to_json_dict(front: ParetoFront) -> dict:
    return {
        "metadata": front.metadata,
        "solutions": [
            {
                "solution_id": f"s{idx:04d}",
                "actions": sequence_to_records(ind.sequence),
                "perfq": ind.metrics.perfq,
                "reliability": ind.metrics.reliability,
                "pas": ind.metrics.pas,
                "distance": ind.metrics.distance,
                "objectives": list(ind.objectives),
                "phenotype_digest": ind.phenotype_digest,
                "valid": ind.valid,
            }
            for idx, ind in enumerate(front.individuals)
        ],
    }
