"""Evolutionary search over refactoring sequences.

Genotype: fixed-length action sequence.  Objectives, all minimized:
(-perfQ, -reliability, antipattern count, distance); the antipattern
objective can be dropped to run a 3-objective search.  NSGA-II, SPEA2
and PESA-II run in one generational loop and differ only in how they
pick parents from what they keep and what they keep after each
generation.  The returned front is the non-dominated subset of every
individual evaluated during the run, not just what was kept.
"""

from __future__ import annotations

import logging
import math
import numbers
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from . import kernels
from .antipatterns import Thresholds, detect
from .kernels import BLOCK_ROWS
from .model import Architecture, CompiledChunk, Fold, digest, validate
from .pareto import admit, crowding_distance, fast_nondominated_sort
from .perfqn import PerformanceResult, SolverError, perfq, solve_amva, solve_amva_many, to_qn
from .refactoring import (
    DEFAULT_BRF,
    ActionKind,
    Candidate,
    Folds,
    RefactoringSequence,
    apply_sequence,
    distance,
    random_sequence,
    repair,
    sequence_to_records,
)
from .reliability import reliability as compute_reliability

log = logging.getLogger("archopt.moea")

INVALID_SENTINEL = float("inf")
# What solving a folded architecture may fail with; each failure makes an
# invalid individual, counted under the first of these classes it is.  No
# other scoring step fails: every scored architecture passed ``validate`` or
# an ``is_feasible`` probe, so its calls are routable.
EVALUATION_FAILURES = (SolverError, ValueError)
# New candidates scored together as one chunk compiled from their folds,
# with one stacked AMVA solve.  Bounds the pending folds held at once, and
# how far the time budget can overrun.
CHUNK_SIZE = 32


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
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(f"unknown algorithm '{self.algorithm}', expected one of {tuple(_ALGORITHMS)}")
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
        if self.budget_seconds is not None and not math.isfinite(self.budget_seconds):
            raise ValueError(f"budget_seconds must be finite, got {self.budget_seconds}")

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
    phenotype_digest: str | None  # set for invalid individuals and, by ``run``, for final-front members
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


# What scoring one candidate gives: its metrics with its performance, or
# the failure that makes it an invalid individual.
Outcome = tuple[EvalMetrics, PerformanceResult] | Exception


def score(
    initial_perf: PerformanceResult,
    candidates: list[Candidate],
    brf: dict[ActionKind, float],
    thresholds: Thresholds,
) -> list[Outcome]:
    """Scores the candidates' folds as one chunk: one compile, one
    ``to_qn``, one ``solve_amva_many``, one reliability and one
    antipattern count of all.  Returns one outcome per candidate, in
    order; a candidate whose solve fails makes only itself invalid."""
    if not candidates:
        return []
    chunk = CompiledChunk([folded for _, folded in candidates])
    solved = solve_amva_many(to_qn(chunk))
    survival = compute_reliability(chunk)
    counts = detect(chunk, solved, thresholds)
    outcomes: list[Outcome] = []
    for (seq, _), perf, rel, pas in zip(candidates, solved, survival, counts):
        if isinstance(perf, Exception):
            outcomes.append(perf)
        else:
            metrics = EvalMetrics(perfq(initial_perf, perf), rel, pas, distance(seq, brf))
            outcomes.append((metrics, perf))
    return outcomes


def _offer(members: list[Individual], points: np.ndarray, candidate: Individual) -> tuple[list[Individual], np.ndarray]:
    """The non-dominated set ``members`` and their raw objective rows
    ``points`` after offering ``candidate``: unchanged when a member
    dominates it, else without the members it dominates and with it last."""
    point = np.array(candidate.objectives)
    keep = admit(points, point)
    if keep is None:
        return members, points
    return [ind for ind, k in zip(members, keep) if k] + [candidate], np.vstack([points[keep], point[None, :]])


class _Budget:
    """The search's time budget and evaluation cap; the one reader of the clock."""

    def __init__(self, config: SearchConfig):
        self.seconds = config.budget_seconds
        self.max_evaluations = config.max_evaluations
        self.started = time.monotonic()

    def spent(self, evaluations: int) -> bool:
        """Whether the time budget or the evaluation cap is used up."""
        if self.seconds is not None and self.elapsed() >= self.seconds:
            return True
        return self.max_evaluations is not None and evaluations >= self.max_evaluations

    def elapsed(self) -> float:
        return time.monotonic() - self.started


class Evaluator:
    """Scores each genotype once.  ``individuals`` maps each evaluated genotype
    to its individual, in evaluation order: the cache and the run's log."""

    def __init__(self, initial: Architecture, config: SearchConfig):
        violations = validate(initial)
        if violations:
            raise ValueError("initial architecture is invalid:\n" + "\n".join(violations))
        # the root of every fold of the search
        self.fold = initial.fold
        self.config = config
        self.initial_digest = digest(initial)
        [initial_qn] = to_qn(CompiledChunk([self.fold]))
        self.initial_perf = solve_amva(initial_qn)
        self.individuals: dict[RefactoringSequence, Individual] = {}
        # running non-dominated archive over everything evaluated; kept
        # incrementally so the final front costs nothing extra
        self._front: list[Individual] = []
        self._front_points = np.empty((0, 4 if config.use_pas_objective else 3))
        self.solver_evaluations = 0
        self.cache_hits = 0
        self.invalid_by_type = dict.fromkeys((cls.__name__ for cls in EVALUATION_FAILURES), 0)

    def _record(self, seq: RefactoringSequence, outcome: Outcome, folded: Fold) -> Individual:
        """Store a scored candidate.  Its phenotype is digested only when
        it is invalid, for the warning; ``run`` digests the final front."""
        self.solver_evaluations += 1
        order = len(self.individuals)
        if isinstance(outcome, Exception):
            phenotype = digest(folded.architecture())
            kind = next(cls for cls in EVALUATION_FAILURES if isinstance(outcome, cls))
            self.invalid_by_type[kind.__name__] += 1
            log.warning("invalid individual (%s): %s", phenotype[:12], outcome)
            sentinel = float("nan")
            metrics = EvalMetrics(sentinel, sentinel, 0, sentinel)
            dim = 4 if self.config.use_pas_objective else 3
            individual = Individual(seq, phenotype, metrics, (INVALID_SENTINEL,) * dim, False, order)
        else:
            metrics, _ = outcome
            objectives = objective_vector(metrics, self.config.use_pas_objective)
            individual = Individual(seq, None, metrics, objectives, True, order)
        self._front, self._front_points = _offer(self._front, self._front_points, individual)
        self.individuals[seq] = individual
        return individual

    def reported_front(self) -> list[Individual]:
        """The front as ``run`` reports it: sorted by objectives, then
        evaluation order, with each member's phenotype digested from its
        sequence folded again (an invalid member already has its digest)."""
        front = sorted(self._front, key=lambda ind: (ind.objectives, ind.order))
        return [
            replace(ind, phenotype_digest=digest(apply_sequence(self.fold, ind.sequence).architecture())) if ind.valid else ind
            for ind in front
        ]

    def _score_chunk(self, chunk: list[Candidate]) -> None:
        """Score new candidates together and record them in submission order."""
        outcomes = score(self.initial_perf, chunk, self.config.brf, self.config.thresholds)
        for (seq, folded), outcome in zip(chunk, outcomes):
            self._record(seq, outcome, folded)

    def evaluate(self, seq: RefactoringSequence) -> Individual:
        """Score a sequence, folded from the initial architecture."""
        cached = self.individuals.get(seq)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self._score_chunk([(seq, apply_sequence(self.fold, seq))])
        return self.individuals[seq]

    def evaluate_many(self, candidates: Iterable[Candidate], budget: _Budget) -> list[Individual]:
        """Evaluate in submission order.  Candidates are drawn one at a time;
        a genotype already scored or pending is a cache hit, and new ones
        are scored in chunks of ``CHUNK_SIZE``.  Once ``budget`` is spent,
        counting the pending ones as evaluated, no further candidate is
        drawn; the pending ones are still scored."""
        drawn: list[RefactoringSequence] = []
        pending: dict[RefactoringSequence, Fold] = {}
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
    initial: Fold,
    a: RefactoringSequence,
    b: RefactoringSequence,
    rng: np.random.Generator,
    allow_new_nodes: bool = True,
    folds: Folds | None = None,
) -> tuple[Candidate, Candidate]:
    """Single-point crossover at a uniform cut in [1, L-1], then repair of
    each child, reading and recording prefix folds in ``folds``."""
    if len(a) != len(b):
        raise ValueError(f"parent lengths differ: {len(a)} vs {len(b)}")
    length = len(a)
    cut = int(rng.integers(1, length)) if length >= 2 else length
    child_a = RefactoringSequence(a.actions[:cut] + b.actions[cut:])
    child_b = RefactoringSequence(b.actions[:cut] + a.actions[cut:])
    return (
        repair(initial, child_a, rng, allow_new_nodes, folds=folds),
        repair(initial, child_b, rng, allow_new_nodes, folds=folds),
    )


def mutate(
    initial: Fold,
    seq: RefactoringSequence,
    rng: np.random.Generator,
    gene_prob: float,
    allow_new_nodes: bool = True,
    folds: Folds | None = None,
) -> Candidate:
    """Replace each gene with probability ``gene_prob`` by a random feasible
    action at its prefix position; infeasible survivors are repaired.
    Returns the child with its fold."""
    return repair(initial, seq, rng, allow_new_nodes, gene_prob, folds)


def _offspring(
    evaluator: Evaluator,
    select: Callable[[], Individual],
    rng: np.random.Generator,
    folds: Folds,
) -> Iterator[Candidate]:
    """One generation of children, bred two at a time from parents drawn by
    ``select``, folded through the store ``folds``.  Lazy, and scoring
    draws no random numbers, so the children are the same as if all were
    bred first."""
    config = evaluator.config
    for _ in range(config.population // 2):
        a, b = select().sequence, select().sequence
        if rng.random() < config.crossover_prob:
            (a, _), (b, _) = crossover(evaluator.fold, a, b, rng, config.allow_new_nodes, folds)
        for child in (a, b):
            yield mutate(evaluator.fold, child, rng, config.gene_mutation_prob, config.allow_new_nodes, folds)


# ---------------------------------------------------------------------------
# NSGA-II
# ---------------------------------------------------------------------------


def _objective_rows(individuals: list[Individual]) -> np.ndarray:
    """The individuals' objective rows, through ``_finite_rows``."""
    return _finite_rows(np.array([ind.objectives for ind in individuals]))


def _finite_rows(points: np.ndarray) -> np.ndarray:
    """Objective rows with the invalid sentinel (inf) as 1e30, so distances
    stay finite; ranks and crowding do not change, since no front mixes
    valid and sentinel rows.  Front admission compares raw rows instead."""
    return np.where(np.isfinite(points), points, 1e30)


def _nsga2_parents(
    population: list[Individual], rng: np.random.Generator, config: SearchConfig, spent: Callable[[], bool]
) -> Callable[[], Individual] | None:
    points = _objective_rows(population)
    fronts = fast_nondominated_sort(points, spent)
    if fronts is None:
        return None
    rank = np.zeros(len(population), dtype=int)
    crowding = np.zeros(len(population))
    for level, front in enumerate(fronts):
        rank[front] = level
        crowding[front] = crowding_distance(points[front])
    return partial(_nsga2_select_parent, population, rank, crowding, rng)


def _nsga2_select_parent(population, rank, crowding, rng) -> Individual:
    i, j = _tournament(rng, len(population))
    if rank[i] != rank[j]:
        return population[i] if rank[i] < rank[j] else population[j]
    if crowding[i] != crowding[j]:
        return population[i] if crowding[i] > crowding[j] else population[j]
    return population[min(i, j)]


def _nsga2_survival(
    population: list[Individual], evaluated: list[Individual], config: SearchConfig, spent: Callable[[], bool]
) -> list[Individual] | None:
    union = population + evaluated
    # A union that fits is kept in evaluation order, which the tournament
    # indexes.  Only the initial population fits (a short one means the
    # budget is spent, so it never gets here), and sorting it would keep
    # the same members, so no front moves.
    if len(union) <= config.population:
        return union
    points = _objective_rows(union)
    fronts = fast_nondominated_sort(points, spent)
    if fronts is None:
        return None
    survivors: list[Individual] = []
    for front in fronts:
        if len(survivors) + len(front) <= config.population:
            survivors.extend(union[i] for i in front)
        else:
            crowd = crowding_distance(points[front])
            # fill by descending crowding, ties by evaluation order
            order = sorted(range(len(front)), key=lambda i: (-crowd[i], union[front[i]].order))
            survivors.extend(union[front[i]] for i in order[: config.population - len(survivors)])
            break
    return survivors


# ---------------------------------------------------------------------------
# SPEA2
# ---------------------------------------------------------------------------


def _distances(points: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Euclidean distances from each of ``rows`` to every point, inf to
    itself; the squares are summed one objective at a time, in order."""
    squared = np.zeros((len(rows), len(points)))
    for column in points.T:
        diff = column[rows, None] - column[None, :]
        squared += diff * diff
    dists = np.sqrt(squared, out=squared)
    dists[np.arange(len(rows)), rows] = np.inf
    return dists


def _spea2_raw(points: np.ndarray, spent: Callable[[], bool] | None) -> np.ndarray | None:
    """R(i): the summed strength S(j), the count j dominates, of each of
    i's dominators (integer counts, so exact in any summation order); None
    once ``spent()`` is true between row blocks."""
    dom = kernels.dominance_matrix(points, spent)
    if dom is None:
        return None
    strength = dom.sum(axis=1).astype(float)
    raw = np.zeros(len(points))
    for start in range(0, len(points), BLOCK_ROWS):
        raw += strength[start : start + BLOCK_ROWS] @ dom[start : start + BLOCK_ROWS]
    return raw


def _spea2_density(points: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """D(i) = 1 / (sigma_k(i) + 2) of each of ``rows``: sigma_k is the
    distance to the k-th nearest other point, k = floor(sqrt(n))."""
    n = len(points)
    if n == 1:
        return np.full(len(rows), 0.5)
    k = max(1, min(int(np.floor(np.sqrt(n))), n - 1))
    sigma = np.zeros(len(rows))
    for start in range(0, len(rows), BLOCK_ROWS):
        block = _distances(points, rows[start : start + BLOCK_ROWS])
        sigma[start : start + BLOCK_ROWS] = np.partition(block, k - 1, axis=1)[:, k - 1]
    return 1.0 / (sigma + 2.0)


def _spea2_fitness(union: list[Individual], spent: Callable[[], bool] | None = None) -> np.ndarray | None:
    """F(i) = R(i) + D(i) of every member; None once ``spent()`` is true
    between row blocks of R."""
    points = _objective_rows(union)
    raw = _spea2_raw(points, spent)
    return None if raw is None else raw + _spea2_density(points, np.arange(len(union)))


def _spea2_truncate(archive_idx: list[int], dists: np.ndarray, target: int, spent: Callable[[], bool]) -> list[int] | None:
    # iteratively drop the member with lexicographically smallest sorted
    # nearest-neighbor distances; on full ties the highest index goes,
    # so earlier individuals win as everywhere else
    keep = list(archive_idx)
    while len(keep) > target:
        if spent():
            return None
        sub = dists[np.ix_(keep, keep)]
        ranked = sorted(range(len(keep)), key=lambda i: (tuple(np.sort(sub[i])), -keep[i]))
        keep.pop(ranked[0])
    return keep


def _spea2_survival(
    archive: list[Individual], evaluated: list[Individual], config: SearchConfig, spent: Callable[[], bool]
) -> list[Individual] | None:
    union = evaluated + archive
    points = _objective_rows(union)
    raw = _spea2_raw(points, spent)
    if raw is None:
        return None
    # D(i) is in (0, 1/2], so F(i) < 1 exactly for the non-dominated (R = 0)
    nondom = np.flatnonzero(raw == 0)
    if len(nondom) > config.archive_size:
        local = np.arange(len(nondom))
        kept = _spea2_truncate(local.tolist(), _distances(points[nondom], local), config.archive_size, spent)
        return None if kept is None else [union[nondom[i]] for i in kept]
    chosen = nondom.tolist()
    need, dominated = config.archive_size - len(chosen), np.flatnonzero(raw > 0)
    if need > 0 and dominated.size:
        # every member with a larger R than the need-th smallest ranks after
        # the need best (F < R + 1), so only these need their density
        nth = min(need, dominated.size) - 1
        candidates = dominated[raw[dominated] <= np.partition(raw[dominated], nth)[nth]]
        fitness = raw[candidates] + _spea2_density(points, candidates)
        ranked = sorted(range(len(candidates)), key=lambda c: (fitness[c], union[candidates[c]].order))
        chosen += [int(candidates[c]) for c in ranked[:need]]
    return [union[i] for i in chosen]


def _spea2_parents(
    archive: list[Individual], rng: np.random.Generator, config: SearchConfig, spent: Callable[[], bool]
) -> Callable[[], Individual] | None:
    fitness = _spea2_fitness(archive, spent)
    return None if fitness is None else partial(_spea2_select_parent, archive, fitness, rng)


def _spea2_select_parent(archive: list[Individual], fitness: np.ndarray, rng: np.random.Generator) -> Individual:
    i, j = _tournament(rng, len(archive))
    return archive[i] if (fitness[i], i) <= (fitness[j], j) else archive[j]


# ---------------------------------------------------------------------------
# PESA-II
# ---------------------------------------------------------------------------


def _grid_cells(rows: np.ndarray, divisions: int) -> dict[tuple, list[int]]:
    """Row indices by cell of an adaptive hypergrid over the bounding box
    of objective ``rows`` (as ``_objective_rows`` gives them),
    ``divisions`` cells per objective."""
    lo = rows.min(axis=0)
    hi = rows.max(axis=0)
    width = np.where(hi > lo, (hi - lo) / divisions, 1.0)
    cells: dict[tuple, list[int]] = {}
    index = np.clip(((rows - lo) / width).astype(int), 0, divisions - 1)
    for i, row in enumerate(index.tolist()):
        cells.setdefault(tuple(row), []).append(i)
    return cells


def _pesa2_insert(
    archive: list[Individual], points: np.ndarray, candidate: Individual, capacity: int, divisions: int
) -> tuple[list[Individual], np.ndarray]:
    """The archive and its raw objective rows ``points`` after offering
    ``candidate``, evicting one member when it overflows ``capacity``."""
    archive, points = _offer(archive, points, candidate)
    if len(archive) > capacity:
        cells = _grid_cells(_finite_rows(points), divisions)
        crowded_key = max(sorted(cells), key=lambda key: len(cells[key]))  # ties -> lowest cell
        evict = cells[crowded_key][0]  # oldest member of the most crowded cell
        archive = archive[:evict] + archive[evict + 1 :]
        points = np.delete(points, evict, axis=0)
    return archive, points


def _pesa2_survival(
    archive: list[Individual], evaluated: list[Individual], config: SearchConfig, spent: Callable[[], bool]
) -> list[Individual]:
    # kept beside the archive, so no insert rebuilds them
    points = np.array([ind.objectives for ind in archive]).reshape(-1, 4 if config.use_pas_objective else 3)
    for ind in evaluated:
        archive, points = _pesa2_insert(archive, points, ind, config.archive_size, config.divisions)
    return archive


def _pesa2_parents(
    archive: list[Individual], rng: np.random.Generator, config: SearchConfig, spent: Callable[[], bool]
) -> Callable[[], Individual]:
    return partial(_pesa2_select, archive, _grid_cells(_objective_rows(archive), config.divisions), rng)


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


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

# The valid ``algorithm`` values and their steps of the loop: parents(kept,
# rng, config, spent) picks one generation's parents from what the
# algorithm keeps, and survive(kept, evaluated, config, spent) is what it
# keeps after it.  Nothing reads what either builds once the budget is
# spent, so either may give up, returning None, once ``spent()`` is true
# (NSGA-II's and SPEA2's, whose work grows as the square of what they
# keep, do).
_ALGORITHMS = {
    "nsga2": (_nsga2_parents, _nsga2_survival),
    "spea2": (_spea2_parents, _spea2_survival),
    "pesa2": (_pesa2_parents, _pesa2_survival),
}


def _search(evaluator: Evaluator, budget: _Budget) -> tuple[int, bool]:
    """The generational loop of every algorithm.  Returns the number of
    generations and whether the search stalled: its last generation added
    no evaluation (every child was a cache hit), so an evaluation cap
    would never be met."""
    config = evaluator.config
    rng = np.random.default_rng(config.seed)
    parents, survive = _ALGORITHMS[config.algorithm]
    # the fold of each action prefix built from the initial architecture
    folds: Folds = {}
    initial = (
        random_sequence(evaluator.fold, config.sequence_length, rng, config.allow_new_nodes, folds)
        for _ in range(config.population)
    )

    # Survival and parent choice run only while the budget lasts: nothing
    # reads what they build for a spent search, and neither draws random
    # numbers before it returns.
    def spent() -> bool:
        return budget.spent(evaluator.solver_evaluations)

    kept, evaluated = [], evaluator.evaluate_many(initial, budget)
    generations = 0
    while not spent():
        kept = survive(kept, evaluated, config, spent)
        select = None if kept is None else parents(kept, rng, config, spent)
        if select is None:
            break
        evaluations = evaluator.solver_evaluations
        # Every kept individual was sampled or bred through the store.
        # Breeding reuses only their proper prefixes, so a whole plan's
        # fold is let go once scored.
        prefixes = {ind.sequence.actions[:i] for ind in kept for i in range(1, len(ind.sequence))}
        folds = {prefix: folds[prefix] for prefix in prefixes}
        offspring = _offspring(evaluator, select, rng, folds)
        evaluated = evaluator.evaluate_many(offspring, budget)
        generations += 1
        if evaluator.solver_evaluations == evaluations:
            return generations, True
    return generations, False


def run(initial: Architecture, config: SearchConfig) -> ParetoFront:
    """Run one optimization and return the cumulative Pareto front."""
    evaluator = Evaluator(initial, config)  # also warms the solver path
    budget = _Budget(config)
    generations, stalled = _search(evaluator, budget)
    front = evaluator.reported_front()
    wall = budget.elapsed()

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
        "stalled": stalled,
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
