"""Evolutionary search over refactoring sequences.

Genotype: fixed-length action sequence.  Objectives, all minimized:
(-perfQ, -reliability, antipattern count, distance); the antipattern
objective can be dropped to run a 3-objective search.  NSGA-II, SPEA2
and PESA-II run in one generational loop and differ only in its step:
what they keep after each generation and how they pick the next
generation's parents from it.  The returned front is the non-dominated
subset of every individual evaluated during the run, not just what was
kept.
"""

from __future__ import annotations

import logging
import math
import time
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from . import kernels
from .antipatterns import Thresholds, detect
from .kernels import BLOCK_ROWS, BudgetSpent, dominates
from .model import Architecture, CompiledChunk, Fold, _is_integer, _is_number, digest, validate
from .pareto import crowding_distance, fast_nondominated_sort
from .perfqn import PerformanceResult, SolverError, perfq, solve_amva, solve_amva_many, to_qn
from .refactoring import (
    DEFAULT_BRF,
    ActionKind,
    Candidate,
    Folds,
    Plan,
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
# with one stacked AMVA solve: a generation of up to this many children is
# scored at once.  Bounds the pending folds held at once, and how far the
# time budget can overrun.
CHUNK_SIZE = 128


# Type checks of the dataclass fields annotated with these types (the
# annotations are strings).
_TYPE_CHECKS = {
    "int": _is_integer,
    "float": _is_number,
    "bool": lambda value: isinstance(value, bool),
    "str": lambda value: isinstance(value, str),
    "list": lambda value: isinstance(value, list),
    "dict": lambda value: isinstance(value, dict),
    "Thresholds": lambda value: isinstance(value, Thresholds),
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
        if set(self.brf) != set(ActionKind):
            raise ValueError(f"brf must have a factor for each of {[kind.value for kind in ActionKind]}, got {self.brf!r}")
        for kind, factor in self.brf.items():
            if not (_TYPE_CHECKS["float"](factor) and 0 < factor < math.inf):
                raise ValueError(f"brf.{ActionKind(kind).value}: factor must be a positive finite number, got {factor!r}")

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
    sequence: Plan
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


# What scoring one candidate gives: its metrics, or the failure that makes
# it an invalid individual.
Outcome = EvalMetrics | Exception


def score(
    initial_perf: PerformanceResult,
    candidates: list[Candidate],
    brf: dict[ActionKind, float],
    thresholds: Thresholds,
) -> list[Outcome]:
    """Scores the candidates' folds as one chunk: one compile, one
    ``to_qn``, one ``solve_amva_many``, one perfQ, one reliability and one
    antipattern count of all.  Returns one outcome per candidate, in
    order; a candidate whose solve fails makes only itself invalid."""
    if not candidates:
        return []
    chunk = CompiledChunk([folded for _, folded in candidates])
    solution = solve_amva_many(to_qn(chunk))
    changes = perfq(initial_perf.response_time, solution.response_time).tolist()
    survival = compute_reliability(chunk)
    counts = detect(chunk, solution, thresholds)
    return [
        EvalMetrics(change, rel, pas, distance(seq, brf)) if failure is None else failure
        for (seq, _), failure, change, rel, pas in zip(candidates, solution.failures, changes, survival, counts)
    ]


def _offer(members: list[Individual], points: np.ndarray, candidates: list[Individual]) -> tuple[list[Individual], np.ndarray]:
    """The non-dominated set ``members`` and their raw objective rows
    ``points`` after offering ``candidates``: the members and candidates,
    in that order, that no other of them dominates.  Dominance is
    transitive, so that is the set, in the order, that offering the
    candidates one at a time leaves."""
    new = np.array([ind.objectives for ind in candidates], dtype=float)
    fresh = ~dominates(points[:, None], new[None]).any(0)
    if not fresh.any():
        return members, points
    # The members are mutually non-dominated, so a candidate that one of
    # them dominates dominates no member, nor any candidate that no member
    # dominates: only the fresh candidates need testing against the rest.
    both = np.vstack([points, new])
    keep = ~dominates(new[fresh][:, None], both[None]).any(0)
    keep[len(points) :] &= fresh
    return [ind for ind, k in zip(members + candidates, keep.tolist()) if k], both[keep]


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
    to its individual, in evaluation order: the cache, the run's log and its
    evaluation count."""

    def __init__(self, initial: Architecture, config: SearchConfig):
        violations = validate(initial)
        if violations:
            raise ValueError("initial architecture is invalid:\n" + "\n".join(violations))
        # the root of every fold of the search
        self.fold = initial.fold
        self.config = config
        self.initial_digest = digest(initial)
        self.initial_perf = solve_amva(to_qn(CompiledChunk([self.fold])))
        self.individuals: dict[Plan, Individual] = {}
        # running non-dominated archive over everything evaluated; kept
        # incrementally so the final front costs nothing extra
        self._front: list[Individual] = []
        self._front_points = np.empty((0, 4 if config.use_pas_objective else 3))
        # the fold of each front member, by order, so the front is digested without folding again
        self._front_folds: dict[int, Fold] = {}
        self.cache_hits = 0
        self.invalid_by_type = dict.fromkeys((cls.__name__ for cls in EVALUATION_FAILURES), 0)

    def _record(self, chunk: list[Candidate], outcomes: list[Outcome]) -> None:
        """Store scored candidates in submission order, then offer them to
        the front at once.  A phenotype is digested only when it is
        invalid, for the warning; ``run`` digests the final front."""
        recorded = []
        for (seq, folded), outcome in zip(chunk, outcomes):
            order = len(self.individuals)
            if isinstance(outcome, Exception):
                phenotype = folded.digest()
                kind = next(cls for cls in EVALUATION_FAILURES if isinstance(outcome, cls))
                self.invalid_by_type[kind.__name__] += 1
                log.warning("invalid individual (%s): %s", phenotype[:12], outcome)
                sentinel = float("nan")
                metrics = EvalMetrics(sentinel, sentinel, 0, sentinel)
                dim = 4 if self.config.use_pas_objective else 3
                individual = Individual(seq, phenotype, metrics, (INVALID_SENTINEL,) * dim, False, order)
            else:
                objectives = objective_vector(outcome, self.config.use_pas_objective)
                individual = Individual(seq, None, outcome, objectives, True, order)
            self.individuals[seq] = individual
            recorded.append(individual)
        if recorded:
            front, self._front_points = _offer(self._front, self._front_points, recorded)
            if front is not self._front:  # some candidate entered
                folds = {**self._front_folds, **{ind.order: folded for ind, (_, folded) in zip(recorded, chunk)}}
                self._front, self._front_folds = front, {ind.order: folds[ind.order] for ind in front}

    def reported_front(self) -> list[Individual]:
        """The front as ``run`` reports it: sorted by objectives, then
        evaluation order, with each member's phenotype digested from its
        kept fold (an invalid member already has its digest)."""
        front = sorted(self._front, key=lambda ind: (ind.objectives, ind.order))
        return [replace(ind, phenotype_digest=self._front_folds[ind.order].digest()) if ind.valid else ind for ind in front]

    def _score_chunk(self, chunk: list[Candidate]) -> None:
        """Score new candidates together and record them in submission order."""
        self._record(chunk, score(self.initial_perf, chunk, self.config.brf, self.config.thresholds))

    def evaluate(self, seq: Plan) -> Individual:
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
        drawn: list[Plan] = []
        pending: dict[Plan, Fold] = {}
        for seq, folded in candidates:
            drawn.append(seq)
            if seq in self.individuals or seq in pending:
                self.cache_hits += 1
            else:
                pending[seq] = folded
                if len(pending) == CHUNK_SIZE:
                    self._score_chunk(list(pending.items()))
                    pending.clear()
            if budget.spent(len(self.individuals) + len(pending)):
                break
        self._score_chunk(list(pending.items()))
        return [self.individuals[seq] for seq in drawn]


def _tournament(members: list[Individual], keys, rng: np.random.Generator) -> Individual:
    """Binary tournament: of two members drawn by index, the one with the
    smaller key, ties to the lower index."""
    i, j = int(rng.integers(len(members))), int(rng.integers(len(members)))
    return members[i] if (keys[i], i) <= (keys[j], j) else members[j]


def crossover(
    initial: Fold,
    a: Plan,
    b: Plan,
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
    return (
        repair(initial, a[:cut] + b[cut:], rng, allow_new_nodes, folds=folds),
        repair(initial, b[:cut] + a[cut:], rng, allow_new_nodes, folds=folds),
    )


def mutate(
    initial: Fold,
    seq: Plan,
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


def _nsga2_step(
    population: list[Individual],
    evaluated: list[Individual],
    rng: np.random.Generator,
    config: SearchConfig,
    spent: Callable[[], bool],
) -> tuple[list[Individual], Callable[[], Individual]]:
    """Survivors of the union by rank, the last front that does not fit
    filled by descending crowding, and a tournament on the same sort: every
    dominator of a survivor survives, so the survivors keep their union
    ranks, and each rank's crowding is over its survivors, in their order."""
    union = population + evaluated
    points = _objective_rows(union)
    kept: list[int] = []
    rank = np.zeros(len(union), dtype=int)
    crowding = np.zeros(len(union))
    for level, front in enumerate(fast_nondominated_sort(points, spent)):
        room = config.population - len(kept)
        if not room:
            break
        if len(front) > room:
            crowd = crowding_distance(points[front])
            # fill by descending crowding, ties by evaluation order
            order = sorted(range(len(front)), key=lambda i: (-crowd[i], union[front[i]].order))
            front = [front[i] for i in order[:room]]
        kept += front
        rank[front] = level
        crowding[front] = crowding_distance(points[front])
    # A union that fits is kept in evaluation order, which the tournament
    # indexes.  Only the initial population fits (a short one means the
    # budget is spent, so it never gets here).
    if len(union) <= config.population:
        kept = list(range(len(union)))
    survivors = [union[i] for i in kept]
    # the lower rank wins, then the larger crowding
    keys = list(zip(rank[kept].tolist(), (-crowding[kept]).tolist()))
    return survivors, partial(_tournament, survivors, keys, rng)


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


def _spea2_raw(dom: np.ndarray) -> np.ndarray:
    """R(i) of each point of the dominance matrix ``dom``: the summed
    strength S(j), the count j dominates, of each of i's dominators
    (integer counts, so exact in any summation order)."""
    strength = dom.sum(axis=1).astype(float)
    raw = np.zeros(len(dom))
    for start in range(0, len(dom), BLOCK_ROWS):
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


def _spea2_truncate(dists: np.ndarray, target: int, spent: Callable[[], bool]) -> list[int]:
    """The ``target`` rows of the square distance matrix ``dists`` left
    after dropping, one at a time, the row whose sorted distances to the
    rest are lexicographically smallest; on a full tie the highest index
    goes, so earlier individuals win as everywhere else."""
    keep = np.arange(len(dists))
    while len(keep) > target:
        if spent():
            raise BudgetSpent
        nearest = np.sort(dists[np.ix_(keep, keep)], axis=1)
        # narrow the tied rows column by column: nearest distance, next, ...
        rows = np.arange(len(keep))
        for column in nearest.T:
            values = column[rows]
            rows = rows[values == values.min()]
            if len(rows) == 1:
                break
        keep = np.delete(keep, rows[-1])
    return keep.tolist()


def _spea2_step(
    archive: list[Individual],
    evaluated: list[Individual],
    rng: np.random.Generator,
    config: SearchConfig,
    spent: Callable[[], bool],
) -> tuple[list[Individual], Callable[[], Individual]]:
    """The archive after environmental selection from the union, and a
    tournament on its fitness, whose R reads the union's dominance matrix."""
    union = evaluated + archive
    points = _objective_rows(union)
    dom = kernels.dominance_matrix(points, spent)
    raw = _spea2_raw(dom)
    # D(i) is in (0, 1/2], so F(i) < 1 exactly for the non-dominated (R = 0)
    chosen = np.flatnonzero(raw == 0).tolist()
    need, dominated = config.archive_size - len(chosen), np.flatnonzero(raw > 0)
    if need < 0:
        kept = _spea2_truncate(_distances(points[chosen], np.arange(len(chosen))), config.archive_size, spent)
        chosen = [chosen[i] for i in kept]
    elif need and dominated.size:
        # every member with a larger R than the need-th smallest ranks after
        # the need best (F < R + 1), so only these need their density
        nth = min(need, dominated.size) - 1
        candidates = dominated[raw[dominated] <= np.partition(raw[dominated], nth)[nth]]
        fitness = raw[candidates] + _spea2_density(points, candidates)
        ranked = sorted(range(len(candidates)), key=lambda c: (fitness[c], union[candidates[c]].order))
        chosen += [int(candidates[c]) for c in ranked[:need]]
    archive = [union[i] for i in chosen]
    fitness = _spea2_raw(dom[np.ix_(chosen, chosen)]) + _spea2_density(points[chosen], np.arange(len(chosen)))
    return archive, partial(_tournament, archive, fitness, rng)


# ---------------------------------------------------------------------------
# PESA-II
# ---------------------------------------------------------------------------


def _grid_keys(rows: np.ndarray, divisions: int) -> list[tuple]:
    """The cell of each of objective ``rows`` (as ``_objective_rows``
    gives them) in an adaptive hypergrid over their bounding box,
    ``divisions`` cells per objective."""
    lo = rows.min(axis=0)
    hi = rows.max(axis=0)
    width = np.where(hi > lo, (hi - lo) / divisions, 1.0)
    return list(map(tuple, np.clip(((rows - lo) / width).astype(int), 0, divisions - 1).tolist()))


def _grid_cells(rows: np.ndarray, divisions: int) -> dict[tuple, list[int]]:
    """Row indices by cell of ``_grid_keys``."""
    cells: dict[tuple, list[int]] = {}
    for i, key in enumerate(_grid_keys(rows, divisions)):
        cells.setdefault(key, []).append(i)
    return cells


def _pesa2_step(
    archive: list[Individual],
    evaluated: list[Individual],
    rng: np.random.Generator,
    config: SearchConfig,
    spent: Callable[[], bool],
) -> tuple[list[Individual], Callable[[], Individual]]:
    """The archive after inserting each of ``evaluated`` in turn, and a
    selection over its hypergrid.  A candidate enters when no member
    dominates it, and drops the members it dominates; an overflow evicts the
    oldest member of the most crowded cell.  The inserts are replayed on
    one dominance matrix per block of candidates, over the archive and the
    block: a row is a member while ``alive``, in the order of the rows."""
    points = np.array([ind.objectives for ind in archive]).reshape(-1, 4 if config.use_pas_objective else 3)
    for start in range(0, len(evaluated), BLOCK_ROWS):
        block = evaluated[start : start + BLOCK_ROWS]
        union, points = archive + block, np.vstack([points, [ind.objectives for ind in block]])
        dom, finite = kernels.dominance_matrix(points), _finite_rows(points)
        alive = np.arange(len(union)) < len(archive)
        for c in range(len(archive), len(union)):
            if dom[alive, c].any():
                continue
            alive &= ~dom[c]
            alive[c] = True
            if alive.sum() > config.archive_size:
                rows = np.flatnonzero(alive)
                keys = _grid_keys(finite[rows], config.divisions)
                counts = Counter(keys)
                top = max(counts.values())
                # the oldest member of the lowest of the most crowded cells
                alive[rows[keys.index(min(key for key, n in counts.items() if n == top))]] = False
        archive, points = [ind for ind, a in zip(union, alive.tolist()) if a], points[alive]
    cells = _grid_cells(_finite_rows(points), config.divisions)
    return archive, partial(_pesa2_select, archive, cells, sorted(cells), rng)


def _pesa2_select(archive: list[Individual], cells: dict[tuple, list[int]], keys: list, rng: np.random.Generator) -> Individual:
    """A member of the less crowded of two cells drawn from ``keys``, the sorted ``cells``."""
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

# The valid ``algorithm`` values and their step of the loop: step(kept,
# evaluated, rng, config, spent) returns what the algorithm keeps after a
# generation and the parent selector of the next.  Nothing reads what it
# builds once the budget is spent, so it may give up by raising
# ``BudgetSpent`` once ``spent()`` is true (NSGA-II's and SPEA2's, whose
# work grows as the square of what they keep, do).
_ALGORITHMS = {
    "nsga2": _nsga2_step,
    "spea2": _spea2_step,
    "pesa2": _pesa2_step,
}


def _search(evaluator: Evaluator, budget: _Budget) -> tuple[int, bool]:
    """The generational loop of every algorithm.  Returns the number of
    generations and whether the search stalled: its last generation added
    no evaluation (every child was a cache hit), so an evaluation cap
    would never be met."""
    config = evaluator.config
    rng = np.random.default_rng(config.seed)
    step = _ALGORITHMS[config.algorithm]
    # the fold of each action prefix built from the initial architecture
    folds: Folds = {}
    initial = (
        random_sequence(evaluator.fold, config.sequence_length, rng, config.allow_new_nodes, folds)
        for _ in range(config.population)
    )

    # The step runs only while the budget lasts: nothing reads what it
    # builds for a spent search, and it draws no random numbers before it
    # returns.
    def spent() -> bool:
        return budget.spent(len(evaluator.individuals))

    kept, evaluated = [], evaluator.evaluate_many(initial, budget)
    generations = 0
    while not spent():
        try:
            kept, select = step(kept, evaluated, rng, config, spent)
        except BudgetSpent:
            break
        evaluations = len(evaluator.individuals)
        # Every kept individual was sampled or bred through the store, so
        # each of its prefixes, the whole plan too, has its fold there; a
        # child equal to a kept plan then probes nothing.
        prefixes = {ind.sequence[:i] for ind in kept for i in range(1, len(ind.sequence) + 1)}
        folds = {prefix: folds[prefix] for prefix in prefixes}
        offspring = _offspring(evaluator, select, rng, folds)
        evaluated = evaluator.evaluate_many(offspring, budget)
        generations += 1
        if len(evaluator.individuals) == evaluations:
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
        "evaluations_used": len(evaluator.individuals),
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
        config.algorithm, config.seed, len(evaluator.individuals), generations, len(front), wall,
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
