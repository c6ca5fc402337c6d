"""The object-graph paths that the program replaced, kept as references.

The scoring functions read one architecture through its own index arrays,
as the program did before it compiled and scored candidates a chunk at a
time; the chunk scorer must give the same bits (``test_chunk.py``).  The
queueing functions solve one model per architecture and build one result
each, as the program did before it solved a chunk as one batch; the batch
solve must give the same bits (``test_qn_batch.py``).  The
refactoring functions apply actions to ``Architecture`` values, as the
program did before it folded them onto a root and an overlay; folds must
give the same outcomes, reasons, random draws and ``save()`` bytes
(``test_fold.py``).  Its routing check walks every call of every
scenario, as the program did before a probe checked only the calls next
to what its action moved; the reasons must be the same
(``test_root_tables.py``).  ``chunk_arrays`` numbers a chunk's operations
in component order, as the program did before it numbered them
root-first; ``chunk_operation_rows`` maps one numbering onto the other
(``test_fold.py``, ``test_chunk.py``).  NSGA-II's survival and parent choice sort the union
and then its survivors, as the program did before one step sorted each
generation once, and the cumulative front admits candidates one at a time,
as it did before a scored chunk was offered at once; the step and the
offer must give the same bits (``test_step.py``).  SPEA2's survival builds
a second dominance matrix for its archive's fitness and truncates by
sorting each row's tuple of distances, and PESA-II sorts the cell keys on
every parent draw and on every eviction, as the program did before each
step built its selection state once; the steps must keep the same
archives and make the same draws (``test_step.py``).  NSGA-II and SPEA2
each pick parents with a tournament of their own, as the program did
before both shared one tournament by key; the shared one must make the
same draws (``test_step.py``).  PESA-II offers each candidate to its
archive on its own, as the program did before one step replayed a
generation's inserts on one dominance matrix (``test_step.py``).  A
phenotype digest encodes the whole document at once, as the program did
before a fold joined its root's encoded fragments; the digests must be
the same (``test_fold.py``).  The document format is parsed, serialized
and range-checked field by field by hand, as the program did before one
field table drove all three; the table must give the same error texts,
violations, ``save()`` text and digests (``test_model_format.py``).
"""

import hashlib
import json
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from archopt import kernels, model, perfqn
from archopt.antipatterns import Thresholds
from archopt.kernels import BLOCK_ROWS, BudgetSpent, dominates
from archopt.model import (
    MIX_WEIGHT_TOL,
    Architecture,
    CallStep,
    CompiledChunk,
    Component,
    ModelFormatError,
    NetworkLink,
    Operation,
    ProcessorNode,
    UsageScenario,
    _is_integer,
    _is_number,
)
from archopt.moea import (
    Individual,
    SearchConfig,
    _distances,
    _finite_rows,
    _grid_cells,
    _objective_rows,
    _offer,
    _spea2_density,
)
from archopt.pareto import crowding_distance, fast_nondominated_sort
from archopt.perfqn import SolverError
from archopt.refactoring import (
    _MAX_TRIES,
    NEW_NODE_PREFIX,
    ActionKind,
    CloneComponent,
    MoveOperationToComponent,
    MoveOperationToNewComponent,
    RedeployComponent,
)


# ---------------------------------------------------------------------------
# One queueing model and one result per architecture
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class QnModel:
    station_ids: tuple[str, ...]
    class_ids: tuple[str, ...]
    demands: np.ndarray  # (stations, classes) seconds, rate-scaled by cores
    populations: np.ndarray  # (classes,) integer >= 1
    think_times: np.ndarray  # (classes,) seconds >= 0


@dataclass(frozen=True, eq=False)
class PerformanceResult:
    station_ids: tuple[str, ...]
    class_ids: tuple[str, ...]
    throughput: np.ndarray  # X_j, 1/s
    response_time: np.ndarray  # R_j, s
    utilization: np.ndarray  # U_k in [0, 1 + eps]
    delay_only: tuple[str, ...] = ()  # classes with zero total demand
    iterations: int = 0


def chunk_models(chunk: CompiledChunk) -> list[QnModel]:
    """Map each fold of a chunk onto the closed queueing model; a model's
    matrices are row slices of the chunk's."""
    demands = chunk.demands / chunk.node_cores[:, None]
    rows = chunk.node_start
    return [
        QnModel(
            station_ids=chunk.station_ids[b],
            class_ids=fold.root.scenario_ids,
            demands=demands[rows[b] : rows[b + 1]],
            populations=chunk.populations[b],
            think_times=chunk.think_times[b],
        )
        for b, fold in enumerate(chunk.folds)
    ]


def split_delay_classes(qn: QnModel) -> tuple[np.ndarray, np.ndarray]:
    """Indices of contending vs pure-delay (zero total demand) classes."""
    totals = qn.demands.sum(axis=0)
    delay = np.where(totals == 0.0)[0]
    busy = np.where(totals > 0.0)[0]
    for j in delay:
        if qn.think_times[j] <= 0.0:
            raise ValueError(
                f"class '{qn.class_ids[j]}' has zero demand and zero think time; throughput is unbounded"
            )
    return busy, delay


def solve_amva_many(qns: Sequence[QnModel]) -> list[PerformanceResult | SolverError | ValueError]:
    """Bard-Schweitzer approximate MVA of many models, for any number of
    classes.  Returns, per model in order, its result, a SolverError when
    the iteration does not converge, or a ValueError when a class has
    neither demand nor think time.  Models with the same number of
    contending classes are solved in one stacked kernel call (one-class
    models only with the same station count, see ``kernels.amva``)."""
    splits: list[tuple[np.ndarray, np.ndarray] | ValueError] = []
    groups: dict[tuple[int, int], list[int]] = {}  # model indices per stack
    for i, qn in enumerate(qns):
        try:
            busy, delay = split_delay_classes(qn)
        except ValueError as exc:
            splits.append(exc)
            continue
        splits.append((busy, delay))
        if len(busy):
            groups.setdefault((len(busy), len(qn.station_ids) if len(busy) == 1 else 0), []).append(i)

    solutions: dict[int, tuple] = {}
    for (n_busy, _), members in groups.items():
        busy = [splits[i][0] for i in members]
        n_stations = np.array([len(qns[i].station_ids) for i in members])
        demands = np.zeros((len(members), n_stations.max(), n_busy))
        for b, (i, cols) in enumerate(zip(members, busy)):
            demands[b, : n_stations[b]] = qns[i].demands[:, cols]
        populations = np.array([qns[i].populations[cols] for i, cols in zip(members, busy)])
        think_times = np.array([qns[i].think_times[cols] for i, cols in zip(members, busy)])
        x, r_class, iterations, residual, converged = kernels.amva(
            demands, populations, think_times, n_stations, perfqn.AMVA_TOL, perfqn.AMVA_MAX_ITER
        )
        for b, i in enumerate(members):
            solutions[i] = (x[b], r_class[b], iterations[b], residual[b], converged[b])

    return [
        split if isinstance(split, ValueError) else amva_result(qn, *split, solutions.get(i))
        for i, (qn, split) in enumerate(zip(qns, splits))
    ]


def amva_result(qn: QnModel, busy: np.ndarray, delay: np.ndarray, solution: tuple | None) -> PerformanceResult | SolverError:
    """One model's result from its kernel solution (None: no contending class)."""
    n_classes = len(qn.class_ids)
    throughput = np.zeros(n_classes)
    response = np.zeros(n_classes)
    iterations = 0

    if solution is not None:
        x, r_class, iterations, residual, converged = solution
        if not converged:
            return SolverError(
                f"AMVA did not converge within {perfqn.AMVA_MAX_ITER} iterations (residual {residual:.3e})",
                residual=float(residual),
            )
        throughput[busy] = x
        response[busy] = r_class
    for j in delay:
        throughput[j] = qn.populations[j] / qn.think_times[j]

    utilization = qn.demands @ throughput
    return PerformanceResult(
        station_ids=qn.station_ids,
        class_ids=qn.class_ids,
        throughput=throughput,
        response_time=response,
        utilization=utilization,
        delay_only=tuple(qn.class_ids[j] for j in delay),
        iterations=int(iterations),
    )


def solve_amva(qn: QnModel) -> PerformanceResult:
    """Bard-Schweitzer approximate MVA of one model: ``solve_amva_many`` of
    a batch of one, raising the model's SolverError or ValueError."""
    (result,) = solve_amva_many([qn])
    if isinstance(result, Exception):
        raise result
    return result


def perfq(initial: PerformanceResult, refactored: PerformanceResult) -> float:
    """Mean relative response-time change, sign-adjusted so improvement is
    positive; each scenario contributes equally and a term is 0 when both
    response times are 0."""
    if initial.class_ids != refactored.class_ids:
        raise ValueError(
            f"scenario sets differ: {initial.class_ids} vs {refactored.class_ids}"
        )
    terms = []
    for before, after in zip(initial.response_time, refactored.response_time):
        denom = after + before
        terms.append(0.0 if denom == 0.0 else (before - after) / denom)
    return sum(terms) / len(terms)


# ---------------------------------------------------------------------------
# Scoring one architecture
# ---------------------------------------------------------------------------


class View:
    """Index arrays of one architecture (operations in component order,
    steps in scenario order)."""

    def __init__(self, arch: Architecture):
        self.arch = arch
        node_index = {n.id: k for k, n in enumerate(arch.nodes)}
        op_index, op_component = {}, []
        for i, comp in enumerate(arch.components):
            for op in comp.operations:
                op_index[op.id] = len(op_index)
                op_component.append(i)
        self.operations = [op for comp in arch.components for op in comp.operations]
        self.operation_component = np.array(op_component, np.intp)
        self.operation_demand = np.array([op.cpu_demand for op in self.operations], float)
        self.component_node = np.array([node_index[arch.deployment[c.id]] for c in arch.components], np.intp)
        self.step_scenario = np.array([j for j, s in enumerate(arch.scenarios) for _ in s.steps], np.intp)
        self.step_operation = np.array([op_index[st.operation] for s in arch.scenarios for st in s.steps], np.intp)
        self.step_count = np.array([st.count for s in arch.scenarios for st in s.steps], float)
        self.step_node = self.component_node[self.operation_component[self.step_operation]]
        ends = np.array([node_index[e] for link in arch.links for e in link.endpoints], np.intp).reshape(-1, 2)
        self.link_between = np.full((len(arch.nodes), len(arch.nodes)), -1, np.intp)
        self.link_between[ends[:, 0], ends[:, 1]] = self.link_between[ends[:, 1], ends[:, 0]] = np.arange(len(ends))

    def per_scenario(self, rows, n_rows, weights, steps=slice(None)):
        n_scen = len(self.arch.scenarios)
        flat = np.bincount(rows * n_scen + self.step_scenario[steps], weights=weights[steps], minlength=n_rows * n_scen)
        return flat.reshape(n_rows, n_scen)

    def routes(self):
        """(invocations, messages), or None when a call has no link."""
        node, scen = self.step_node, self.step_scenario
        cross = np.flatnonzero((node[1:] != node[:-1]) & (scen[1:] == scen[:-1])) + 1
        links = self.link_between[node[cross - 1], node[cross]]
        if (links < 0).any():
            return None
        invocations = self.per_scenario(
            self.operation_component[self.step_operation], len(self.arch.components), self.step_count
        )
        return invocations, self.per_scenario(links, len(self.arch.links), self.step_count, cross)

    def demands(self):
        speed = np.array([n.speed_factor for n in self.arch.nodes])
        weights = self.step_count * self.operation_demand[self.step_operation] / speed[self.step_node]
        return self.per_scenario(self.step_node, len(self.arch.nodes), weights)


def to_qn(arch: Architecture) -> QnModel:
    cores = np.array([n.cores for n in arch.nodes], dtype=float)
    return QnModel(
        station_ids=tuple(n.id for n in arch.nodes),
        class_ids=tuple(s.id for s in arch.scenarios),
        demands=View(arch).demands() / cores[:, None],
        populations=np.array([s.population for s in arch.scenarios], dtype=float),
        think_times=np.array([s.think_time for s in arch.scenarios], dtype=float),
    )


def reliability(arch: Architecture) -> float | None:
    """The mix-weighted reliability, or None when a call has no link."""
    routes = View(arch).routes()
    if routes is None:
        return None
    invocations, messages = routes
    thetas = np.array([c.failure_probability for c in arch.components])
    psis = np.array([l.failure_probability for l in arch.links])
    survival = np.power(1.0 - thetas[:, None], invocations).prod(axis=0)
    survival = survival * np.power(1.0 - psis[:, None], messages).prod(axis=0)
    weights = np.array([s.mix_weight for s in arch.scenarios])
    return float(weights @ survival)


def rules(arch: Architecture, perf, th: Thresholds) -> dict[str, np.ndarray]:
    """The antipattern rules' masks of one architecture."""
    view = View(arch)
    util = {node_id: float(u) for node_id, u in zip(perf.station_ids, perf.utilization)}
    node_util = np.array([util[node.id] for node in arch.nodes])
    comp_util = node_util[view.component_node]
    op_util = comp_util[view.operation_component]
    invocations = view.per_scenario(view.operation_component[view.step_operation], len(arch.components), view.step_count)
    mean_invocations = invocations.mean(axis=0)
    heavy = invocations > th.blob_share * mean_invocations
    step_demand = view.step_count * view.operation_demand[view.step_operation]
    total = view.per_scenario(np.zeros_like(view.step_operation), 1, step_demand)[0]
    own = view.per_scenario(view.step_operation, len(view.operations), step_demand)
    share = np.divide(own, total, out=np.zeros_like(own), where=total > 0.0)
    dominant = (total > 0.0) & (share >= th.paf_demand_share)
    return {
        "blob": (comp_util >= th.util_high) & heavy.any(axis=1),
        "hot": node_util >= th.util_high,
        "idle": node_util <= th.util_low,
        "pipe_and_filter": (op_util >= th.util_high) & dominant.any(axis=1),
    }


def detect(arch: Architecture, perf, th: Thresholds) -> int:
    fired = rules(arch, perf, th)
    pairs = int(np.count_nonzero(fired["hot"])) * int(np.count_nonzero(fired["idle"]))
    return int(np.count_nonzero(fired["blob"])) + pairs + int(np.count_nonzero(fired["pipe_and_filter"]))


def score(arch: Architecture, th: Thresholds):
    """(performance, reliability, antipattern count) of one architecture, or
    the solver's failure."""
    try:
        perf = solve_amva(to_qn(arch))
    except (SolverError, ValueError) as exc:  # no convergence, or a class with no demand and no think time
        return exc
    return perf, reliability(arch), detect(arch, perf, th)


# ---------------------------------------------------------------------------
# Dominance and SPEA2 fitness over (n, n, d) arrays
# ---------------------------------------------------------------------------


def dominance_matrix(points):
    """dom[i, j] is True iff point i dominates point j."""
    return dominates(points[:, None, :], points[None, :, :])


def spea2_fitness(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SPEA2 fitness of finite objective rows, and their distance matrix
    (inf on the diagonal)."""
    dom = dominance_matrix(points)
    strength = dom.sum(axis=1).astype(float)
    raw = strength @ dom
    dists = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    np.fill_diagonal(dists, np.inf)
    n = len(points)
    k = int(np.floor(np.sqrt(n)))
    k = max(1, min(k, n - 1)) if n > 1 else 1
    sigma = np.sort(dists, axis=1)[:, k - 1] if n > 1 else np.zeros(n)
    return raw + 1.0 / (sigma + 2.0), dists


# ---------------------------------------------------------------------------
# NSGA-II survival and parent choice, one sort each; admission to the
# non-dominated set one candidate at a time
# ---------------------------------------------------------------------------


def nsga2_parents(
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
    return partial(nsga2_select_parent, population, rank, crowding, rng)


def tournament(rng: np.random.Generator, size: int) -> tuple[int, int]:
    return int(rng.integers(size)), int(rng.integers(size))


def nsga2_select_parent(population, rank, crowding, rng) -> Individual:
    i, j = tournament(rng, len(population))
    if rank[i] != rank[j]:
        return population[i] if rank[i] < rank[j] else population[j]
    if crowding[i] != crowding[j]:
        return population[i] if crowding[i] > crowding[j] else population[j]
    return population[min(i, j)]


def nsga2_survival(
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


def admit(points: np.ndarray, candidate: np.ndarray) -> np.ndarray | None:
    """Admission of ``candidate`` into the non-dominated set ``points``:
    None when a member dominates it, else the mask of members it does not
    dominate (the ones to keep)."""
    if dominates(points, candidate).any():
        return None
    return ~dominates(candidate, points)


def offer(members: list[Individual], points: np.ndarray, candidate: Individual) -> tuple[list[Individual], np.ndarray]:
    """The non-dominated set ``members`` and their raw objective rows
    ``points`` after offering ``candidate``: unchanged when a member
    dominates it, else without the members it dominates and with it last."""
    point = np.array(candidate.objectives)
    keep = admit(points, point)
    if keep is None:
        return members, points
    return [ind for ind, k in zip(members, keep) if k] + [candidate], np.vstack([points[keep], point[None, :]])


# ---------------------------------------------------------------------------
# SPEA2 survival with a second dominance matrix for the archive and a tuple
# sort per truncation; PESA-II with the cell keys sorted on every use
# ---------------------------------------------------------------------------


def spea2_raw(points: np.ndarray, spent: Callable[[], bool] | None) -> np.ndarray:
    dom = kernels.dominance_matrix(points, spent)
    strength = dom.sum(axis=1).astype(float)
    raw = np.zeros(len(points))
    for start in range(0, len(points), BLOCK_ROWS):
        raw += strength[start : start + BLOCK_ROWS] @ dom[start : start + BLOCK_ROWS]
    return raw


def spea2_archive_fitness(points: np.ndarray, spent: Callable[[], bool] | None = None) -> np.ndarray:
    return spea2_raw(points, spent) + _spea2_density(points, np.arange(len(points)))


def spea2_truncate(archive_idx: list[int], dists: np.ndarray, target: int, spent: Callable[[], bool]) -> list[int]:
    # iteratively drop the member with lexicographically smallest sorted
    # nearest-neighbor distances; on full ties the highest index goes
    keep = list(archive_idx)
    while len(keep) > target:
        if spent():
            raise BudgetSpent
        sub = dists[np.ix_(keep, keep)]
        ranked = sorted(range(len(keep)), key=lambda i: (tuple(np.sort(sub[i])), -keep[i]))
        keep.pop(ranked[0])
    return keep


def spea2_step(
    archive: list[Individual],
    evaluated: list[Individual],
    rng: np.random.Generator,
    config: SearchConfig,
    spent: Callable[[], bool],
) -> tuple[list[Individual], Callable[[], Individual]]:
    union = evaluated + archive
    points = _objective_rows(union)
    raw = spea2_raw(points, spent)
    chosen = np.flatnonzero(raw == 0).tolist()
    need, dominated = config.archive_size - len(chosen), np.flatnonzero(raw > 0)
    if need < 0:
        local = np.arange(len(chosen))
        kept = spea2_truncate(local.tolist(), _distances(points[chosen], local), config.archive_size, spent)
        chosen = [chosen[i] for i in kept]
    elif need and dominated.size:
        nth = min(need, dominated.size) - 1
        candidates = dominated[raw[dominated] <= np.partition(raw[dominated], nth)[nth]]
        fitness = raw[candidates] + _spea2_density(points, candidates)
        ranked = sorted(range(len(candidates)), key=lambda c: (fitness[c], union[candidates[c]].order))
        chosen += [int(candidates[c]) for c in ranked[:need]]
    archive = [union[i] for i in chosen]
    return archive, partial(spea2_select_parent, archive, spea2_archive_fitness(points[chosen], spent), rng)


def spea2_select_parent(archive: list[Individual], fitness: np.ndarray, rng: np.random.Generator) -> Individual:
    i, j = tournament(rng, len(archive))
    return archive[i] if (fitness[i], i) <= (fitness[j], j) else archive[j]


def pesa2_insert(
    archive: list[Individual], points: np.ndarray, candidate: Individual, capacity: int, divisions: int
) -> tuple[list[Individual], np.ndarray]:
    archive, points = _offer(archive, points, [candidate])
    if len(archive) > capacity:
        cells = _grid_cells(_finite_rows(points), divisions)
        crowded_key = max(sorted(cells), key=lambda key: len(cells[key]))  # ties -> lowest cell
        evict = cells[crowded_key][0]  # oldest member of the most crowded cell
        archive = archive[:evict] + archive[evict + 1 :]
        points = np.delete(points, evict, axis=0)
    return archive, points


def pesa2_step(
    archive: list[Individual],
    evaluated: list[Individual],
    rng: np.random.Generator,
    config: SearchConfig,
    spent: Callable[[], bool],
) -> tuple[list[Individual], Callable[[], Individual]]:
    points = np.array([ind.objectives for ind in archive]).reshape(-1, 4 if config.use_pas_objective else 3)
    for ind in evaluated:
        archive, points = pesa2_insert(archive, points, ind, config.archive_size, config.divisions)
    return archive, partial(pesa2_select, archive, _grid_cells(_finite_rows(points), config.divisions), rng)


def pesa2_select(archive: list[Individual], cells: dict[tuple, list[int]], rng: np.random.Generator) -> Individual:
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
# Compiling a chunk from object graphs
# ---------------------------------------------------------------------------


def chunk_arrays(archs) -> dict[str, list]:
    """The rows ``CompiledChunk`` concatenates, built from each architecture's
    object graph, by the name of the chunk attribute each becomes."""
    speed, cores, theta, comp_node, demand, op_comp = [], [], [], [], [], []
    step_op, step_count, ends, psi, mix, population, think = [], [], [], [], [], [], []
    node_start, component_start, operation_start, link_start, station_ids = [0], [0], [0], [0], []
    for arch in archs:
        node_index = {node.id: k for k, node in enumerate(arch.nodes, len(speed))}
        speed += [node.speed_factor for node in arch.nodes]
        cores += [node.cores for node in arch.nodes]
        comp_node += [node_index[arch.deployment[comp.id]] for comp in arch.components]
        owned = [(i, op) for i, comp in enumerate(arch.components, len(theta)) for op in comp.operations]
        theta += [comp.failure_probability for comp in arch.components]
        op_index = {op.id: k for k, (_, op) in enumerate(owned, len(demand))}
        demand += [op.cpu_demand for _, op in owned]
        op_comp += [i for i, _ in owned]
        mix += [scen.mix_weight for scen in arch.scenarios]
        population += [scen.population for scen in arch.scenarios]
        think += [scen.think_time for scen in arch.scenarios]
        steps = [step for scen in arch.scenarios for step in scen.steps]
        step_op += [op_index[step.operation] for step in steps]
        step_count += [step.count for step in steps]
        ends += [node_index[end] for link in arch.links for end in link.endpoints]
        psi += [link.failure_probability for link in arch.links]
        station_ids.append(tuple(node_index))
        node_start.append(len(speed))
        component_start.append(len(theta))
        operation_start.append(len(demand))
        link_start.append(len(psi))
    return {
        "node_speed": speed,
        "node_cores": cores,
        "component_theta": theta,
        "component_node": comp_node,
        "operation_demand": demand,
        "operation_component": op_comp,
        "step_operation": step_op,
        "step_count": step_count,
        "link_ends": ends,
        "link_psi": psi,
        "mix_weights": mix,
        "populations": population,
        "think_times": think,
        "node_start": node_start,
        "component_start": component_start,
        "operation_start": operation_start,
        "link_start": link_start,
        "station_ids": station_ids,
    }


def chunk_operation_rows(root: Architecture, arch: Architecture, added) -> list[int]:
    """For each operation row that ``CompiledChunk`` gives a fold of
    ``root``, the row ``chunk_arrays`` gives it, local to the fold: the
    chunk numbers the root's operations first, in the root's component
    order, then each twin in the order the plan added it (``added``, the
    fold's generated ids in order); ``chunk_arrays`` numbers them in
    ``arch``'s component order."""
    row = {op.id: k for k, op in enumerate(op for comp in arch.components for op in comp.operations)}
    root_ids = [op.id for comp in root.components for op in comp.operations]
    return [row[op] for op in root_ids] + [row[op] for op in added if op in row and op not in root_ids]


# ---------------------------------------------------------------------------
# Refactoring on object graphs
# ---------------------------------------------------------------------------


def owner_map(arch: Architecture) -> dict[str, Component]:
    return {op.id: comp for comp in arch.components for op in comp.operations}


def unrouted_call(arch: Architecture) -> str | None:
    """The first cross-node call that no link joins, walking every scenario."""
    linked = {link.endpoints for link in arch.links}
    node_of = {op.id: arch.deployment[comp.id] for comp in arch.components for op in comp.operations}
    for scen in arch.scenarios:
        caller = None
        for step in scen.steps:
            callee = node_of[step.operation]
            if caller is not None and caller != callee and (caller, callee) not in linked and (callee, caller) not in linked:
                return (
                    f"scenario '{scen.id}': call to '{step.operation}' crosses nodes "
                    f"('{caller}', '{callee}') with no connecting link"
                )
            caller = callee
    return None


def fresh_suffix(taken: set[str], bases) -> int:
    """Smallest k >= 1 such that every f"{base}{k}" is unused."""
    k = 1
    bases = list(bases)
    while any(f"{base}{k}" in taken for base in bases):
        k += 1
    return k


def all_ids(arch: Architecture) -> set[str]:
    ids = {c.id for c in arch.components}
    ids.update(op.id for c in arch.components for op in c.operations)
    ids.update(n.id for n in arch.nodes)
    ids.update(l.id for l in arch.links)
    ids.update(s.id for s in arch.scenarios)
    return ids


def instantiate_node(arch: Architecture, template_id: str) -> tuple[Architecture, str]:
    template = next(n for n in arch.nodes if n.id == template_id)
    suffix = fresh_suffix(
        all_ids(arch), [f"{template_id}_copy", f"{template_id}_uplink"] + [f"{l.id}_copy" for l in arch.links]
    )
    new_id = f"{template_id}_copy{suffix}"
    new_node = ProcessorNode(id=new_id, speed_factor=template.speed_factor, cores=template.cores)
    new_links = list(arch.links)
    template_links = [l for l in arch.links if template_id in l.endpoints]
    for link in template_links:
        other = link.endpoints[0] if link.endpoints[1] == template_id else link.endpoints[1]
        new_links.append(
            NetworkLink(
                id=f"{link.id}_copy{suffix}",
                endpoints=(other, new_id),
                failure_probability=link.failure_probability,
                delay=link.delay,
            )
        )
    new_links.append(
        NetworkLink(
            id=f"{template_id}_uplink{suffix}",
            endpoints=(template_id, new_id),
            failure_probability=min((l.failure_probability for l in template_links), default=0.0),
            delay=min((l.delay for l in template_links), default=0.0),
        )
    )
    return (
        Architecture(arch.components, arch.nodes + (new_node,), tuple(new_links), arch.scenarios, dict(arch.deployment)),
        new_id,
    )


def resolve_target_node(arch: Architecture, target: str):
    if target.startswith(NEW_NODE_PREFIX):
        template_id = target[len(NEW_NODE_PREFIX) :]
        if not any(n.id == template_id for n in arch.nodes):
            return f"template node '{template_id}' does not exist"
        return instantiate_node(arch, template_id)
    if not any(n.id == target for n in arch.nodes):
        return f"target node '{target}' does not exist"
    return arch, target


def apply_clone(arch: Architecture, action: CloneComponent):
    source = next((c for c in arch.components if c.id == action.component), None)
    if source is None:
        return None, f"component '{action.component}' does not exist"
    resolved = resolve_target_node(arch, action.target)
    if isinstance(resolved, str):
        return None, resolved
    arch, target_node = resolved
    suffix = fresh_suffix(all_ids(arch), [f"{source.id}_clone"] + [f"{op.id}_clone" for op in source.operations])
    replica_id = f"{source.id}_clone{suffix}"
    op_twin = {op.id: f"{op.id}_clone{suffix}" for op in source.operations}
    replica = Component(
        id=replica_id,
        operations=tuple(Operation(id=op_twin[op.id], cpu_demand=op.cpu_demand) for op in source.operations),
        failure_probability=source.failure_probability,
    )
    scenarios = []
    for scen in arch.scenarios:
        steps = []
        for step in scen.steps:
            if step.operation in op_twin:
                half = step.count / 2.0
                steps.append(CallStep(operation=step.operation, count=half))
                steps.append(CallStep(operation=op_twin[step.operation], count=half))
            else:
                steps.append(step)
        scenarios.append(UsageScenario(scen.id, scen.mix_weight, scen.population, scen.think_time, tuple(steps)))
    deployment = dict(arch.deployment)
    deployment[replica_id] = target_node
    return Architecture(arch.components + (replica,), arch.nodes, arch.links, tuple(scenarios), deployment), ""


def detach_operation(arch: Architecture, source: Component, op_id: str):
    moved = next(op for op in source.operations if op.id == op_id)
    remaining = tuple(op for op in source.operations if op.id != op_id)
    deployment = dict(arch.deployment)
    components = []
    for comp in arch.components:
        if comp.id != source.id:
            components.append(comp)
        elif remaining:
            components.append(Component(comp.id, remaining, comp.failure_probability))
    if not remaining:
        del deployment[source.id]
    return components, deployment, moved


def apply_move_to_component(arch: Architecture, action: MoveOperationToComponent):
    owners = owner_map(arch)
    if action.operation not in owners:
        return None, f"operation '{action.operation}' does not exist"
    source = owners[action.operation]
    if not any(c.id == action.target_component for c in arch.components):
        return None, f"target component '{action.target_component}' does not exist"
    if source.id == action.target_component:
        return None, f"operation '{action.operation}' is already owned by '{source.id}'"
    components, deployment, moved = detach_operation(arch, source, action.operation)
    components = [
        Component(c.id, c.operations + (moved,), c.failure_probability) if c.id == action.target_component else c
        for c in components
    ]
    return Architecture(tuple(components), arch.nodes, arch.links, arch.scenarios, deployment), ""


def apply_move_to_new(arch: Architecture, action: MoveOperationToNewComponent):
    owners = owner_map(arch)
    if action.operation not in owners:
        return None, f"operation '{action.operation}' does not exist"
    if not any(n.id == action.target_node for n in arch.nodes):
        return None, f"target node '{action.target_node}' does not exist"
    source = owners[action.operation]
    suffix = fresh_suffix(all_ids(arch), [f"{action.operation}_host"])
    host_id = f"{action.operation}_host{suffix}"
    components, deployment, moved = detach_operation(arch, source, action.operation)
    components.append(Component(id=host_id, operations=(moved,), failure_probability=source.failure_probability))
    deployment[host_id] = action.target_node
    return Architecture(tuple(components), arch.nodes, arch.links, arch.scenarios, deployment), ""


def apply_redeploy(arch: Architecture, action: RedeployComponent):
    if not any(c.id == action.component for c in arch.components):
        return None, f"component '{action.component}' does not exist"
    current = arch.deployment[action.component]
    if not action.target.startswith(NEW_NODE_PREFIX) and action.target == current:
        return None, f"target equals current node '{current}'"
    resolved = resolve_target_node(arch, action.target)
    if isinstance(resolved, str):
        return None, resolved
    arch, target_node = resolved
    deployment = dict(arch.deployment)
    deployment[action.component] = target_node
    return Architecture(arch.components, arch.nodes, arch.links, arch.scenarios, deployment), ""


APPLIERS = {
    ActionKind.CLONE: apply_clone,
    ActionKind.MOVE_TO_COMPONENT: apply_move_to_component,
    ActionKind.MOVE_TO_NEW: apply_move_to_new,
    ActionKind.REDEPLOY: apply_redeploy,
}


def is_feasible(arch: Architecture, action):
    """(the new architecture, "") or (None, the reason), walking every scenario."""
    result, reason = APPLIERS[action.kind](arch, action)
    if result is None:
        return None, reason
    call = unrouted_call(result)
    if call is not None:
        return None, f"result would be unroutable: {call}"
    return result, ""


def pick(rng, items):
    return items[int(rng.integers(len(items)))]


def sample_action(arch: Architecture, kind: ActionKind, rng, allow_new_nodes: bool):
    """The parameters of an action of ``kind``, drawn from lists of ids."""
    node_ids = [n.id for n in arch.nodes]
    new_node_targets = [NEW_NODE_PREFIX + n for n in node_ids] if allow_new_nodes else []
    if kind == ActionKind.CLONE:
        comp = pick(rng, list(arch.components))
        return CloneComponent(comp.id, pick(rng, node_ids + new_node_targets))
    owners = owner_map(arch)
    if kind == ActionKind.MOVE_TO_COMPONENT:
        op_id = pick(rng, list(owners))
        others = [c.id for c in arch.components if c.id != owners[op_id].id]
        if not others:
            return None
        return MoveOperationToComponent(op_id, pick(rng, others))
    if kind == ActionKind.MOVE_TO_NEW:
        op_id = pick(rng, list(owners))
        return MoveOperationToNewComponent(op_id, pick(rng, node_ids))
    comp = pick(rng, list(arch.components))
    current = arch.deployment[comp.id]
    targets = [n for n in node_ids if n != current] + new_node_targets
    if not targets:
        return None
    return RedeployComponent(comp.id, pick(rng, targets))


def random_action(arch: Architecture, rng, allow_new_nodes: bool = True):
    """A feasible action drawn as ``refactoring.random_action`` draws it."""
    remaining = list(ActionKind)
    while remaining:
        kind = pick(rng, remaining)
        for _ in range(_MAX_TRIES):
            action = sample_action(arch, kind, rng, allow_new_nodes)
            if action is None:
                break
            result, _ = is_feasible(arch, action)
            if result is not None:
                return action, result
        remaining.remove(kind)
    raise RuntimeError("no feasible action")


# ---------------------------------------------------------------------------
# A phenotype digest of the whole document, encoded at once
# ---------------------------------------------------------------------------


def digest(arch: Architecture) -> str:
    """The sha256 of the architecture's whole document as canonical JSON
    (sorted keys, no spaces), built and encoded in one pass."""
    document = {
        "components": [
            {
                "id": c.id,
                "failure_probability": c.failure_probability,
                "operations": [{"id": o.id, "cpu_demand": o.cpu_demand} for o in c.operations],
            }
            for c in arch.components
        ],
        "nodes": [{"id": n.id, "speed_factor": n.speed_factor, "cores": n.cores} for n in arch.nodes],
        "links": [
            {"id": l.id, "nodes": list(l.endpoints), "failure_probability": l.failure_probability, "delay": l.delay}
            for l in arch.links
        ],
        "scenarios": [
            {
                "id": s.id,
                "mix_weight": s.mix_weight,
                "population": s.population,
                "think_time": s.think_time,
                "steps": [{"operation": st.operation, "count": st.count} for st in s.steps],
            }
            for s in arch.scenarios
        ],
        "deployment": dict(arch.deployment),
    }
    return hashlib.sha256(json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# The document format, field by field
# ---------------------------------------------------------------------------


def validate(arch: Architecture) -> list[str]:
    """Check every invariant and return one description per violation.

    An empty list means the architecture is well formed.  Each entry names
    the violated rule and the offending element.
    """
    violations: list[str] = []
    node_ids = [n.id for n in arch.nodes]
    comp_ids = [c.id for c in arch.components]
    op_ids = [op.id for c in arch.components for op in c.operations]
    link_ids = [l.id for l in arch.links]
    scen_ids = [s.id for s in arch.scenarios]

    for category, ids in (
        ("component", comp_ids),
        ("operation", op_ids),
        ("node", node_ids),
        ("link", link_ids),
        ("scenario", scen_ids),
    ):
        seen = set()
        for elem_id in ids:
            if elem_id in seen:
                violations.append(f"duplicate-id: {category} id '{elem_id}' is not unique")
            seen.add(elem_id)

    for comp in arch.components:
        if not 0.0 <= comp.failure_probability <= 1.0:
            violations.append(
                f"failure-probability-range: component '{comp.id}' has "
                f"failure probability {comp.failure_probability}, must be in [0, 1]"
            )
        if not comp.operations:
            violations.append(f"component-empty: component '{comp.id}' owns no operations")
        for op in comp.operations:
            if not (math.isfinite(op.cpu_demand) and op.cpu_demand >= 0.0):
                violations.append(
                    f"cpu-demand-range: operation '{op.id}' has cpu demand "
                    f"{op.cpu_demand}, must be finite and >= 0"
                )

    for node in arch.nodes:
        if not (math.isfinite(node.speed_factor) and node.speed_factor > 0.0):
            violations.append(
                f"speed-factor-range: node '{node.id}' has speed factor "
                f"{node.speed_factor}, must be > 0"
            )
        if not _is_integer(node.cores) or node.cores < 1:
            violations.append(f"cores-range: node '{node.id}' has cores {node.cores}, must be an integer >= 1")

    node_id_set = set(node_ids)
    pair_link: dict[frozenset[str], NetworkLink] = {}
    for link in arch.links:
        a, b = link.endpoints
        if a == b:
            violations.append(f"link-endpoints: link '{link.id}' endpoints must differ")
        first = pair_link.setdefault(frozenset(link.endpoints), link)
        if first is not link:
            violations.append(f"link-parallel: links '{first.id}' and '{link.id}' join the same two nodes")
        for endpoint in link.endpoints:
            if endpoint not in node_id_set:
                violations.append(f"link-endpoints: link '{link.id}' references missing node '{endpoint}'")
        if not 0.0 <= link.failure_probability <= 1.0:
            violations.append(
                f"failure-probability-range: link '{link.id}' has failure "
                f"probability {link.failure_probability}, must be in [0, 1]"
            )
        if not (math.isfinite(link.delay) and link.delay >= 0.0):
            violations.append(f"delay-range: link '{link.id}' has delay {link.delay}, must be finite and >= 0")

    comp_id_set = set(comp_ids)
    for comp_id in arch.deployment:
        if comp_id not in comp_id_set:
            violations.append(f"deployment-unknown-component: deployment entry for missing component '{comp_id}'")
    for comp_id in comp_ids:
        target = arch.deployment.get(comp_id)
        if target is None:
            violations.append(f"deployment-total: component '{comp_id}' has no deployment target")
        elif target not in node_id_set:
            violations.append(f"deployment-target: component '{comp_id}' is deployed to missing node '{target}'")

    op_id_set = set(op_ids)
    for scen in arch.scenarios:
        if not 0.0 <= scen.mix_weight <= 1.0:
            violations.append(
                f"scenario-mix-weight-range: scenario '{scen.id}' has mix weight "
                f"{scen.mix_weight}, must be in [0, 1]"
            )
        if not _is_integer(scen.population) or scen.population < 1:
            violations.append(
                f"scenario-population: scenario '{scen.id}' has population "
                f"{scen.population}, must be an integer >= 1"
            )
        if not (math.isfinite(scen.think_time) and scen.think_time >= 0.0):
            violations.append(
                f"scenario-think-time: scenario '{scen.id}' has think time "
                f"{scen.think_time}, must be finite and >= 0"
            )
        if not scen.steps:
            violations.append(f"scenario-steps-empty: scenario '{scen.id}' has no steps")
        for step in scen.steps:
            if step.operation not in op_id_set:
                violations.append(
                    f"step-unknown-operation: scenario '{scen.id}' references missing operation '{step.operation}'"
                )
            if not (math.isfinite(step.count) and step.count >= 0.0):
                violations.append(
                    f"step-count-range: scenario '{scen.id}' step for '{step.operation}' "
                    f"has count {step.count}, must be finite and >= 0"
                )

    if arch.scenarios:
        total_weight = math.fsum(s.mix_weight for s in arch.scenarios)
        if abs(total_weight - 1.0) > MIX_WEIGHT_TOL:
            violations.append(f"scenario-mix-sum: scenario mix weights must sum to 1, got {total_weight!r}")
    else:
        violations.append("scenario-missing: architecture defines no usage scenarios")

    # the walk needs every reference resolved, which the checks above vouch for
    if not violations:
        call = model.unrouted_call(arch.fold)
        if call is not None:
            violations.append(f"routing: {call}")

    return violations


def _component_dict(c: Component) -> dict:
    operations = [{"id": o.id, "cpu_demand": o.cpu_demand} for o in c.operations]
    return {"id": c.id, "failure_probability": c.failure_probability, "operations": operations}


def _node_dict(n: ProcessorNode) -> dict:
    return {"id": n.id, "speed_factor": n.speed_factor, "cores": n.cores}


def _link_dict(l: NetworkLink) -> dict:
    return {"id": l.id, "nodes": list(l.endpoints), "failure_probability": l.failure_probability, "delay": l.delay}


def _scenario_dict(s: UsageScenario) -> dict:
    steps = [{"operation": st.operation, "count": st.count} for st in s.steps]
    return {"id": s.id, "mix_weight": s.mix_weight, "population": s.population, "think_time": s.think_time, "steps": steps}


_ELEMENT_DICTS = {"components": _component_dict, "nodes": _node_dict, "links": _link_dict, "scenarios": _scenario_dict}


def to_dict(arch: Architecture) -> dict:
    document = {kind: [as_dict(e) for e in getattr(arch, kind)] for kind, as_dict in _ELEMENT_DICTS.items()}
    return {**document, "deployment": dict(arch.deployment)}


def save(arch: Architecture) -> str:
    return json.dumps(to_dict(arch), indent=2, sort_keys=True) + "\n"


def _expect(obj, key: str, kind, path: str, optional_default=None):
    if key not in obj:
        if optional_default is not None:
            return optional_default
        raise ModelFormatError(f"{path}.{key}: required key is missing")
    value = obj[key]
    if kind is float:
        if not _is_number(value):
            raise ModelFormatError(f"{path}.{key}: expected a number, got {type(value).__name__}")
        return float(value)
    if kind is int:
        if not _is_integer(value):
            raise ModelFormatError(f"{path}.{key}: expected an integer, got {type(value).__name__}")
        return value
    if not isinstance(value, kind):
        raise ModelFormatError(f"{path}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _object(raw, path: str, keys: tuple[str, ...]) -> None:
    """Check that ``raw`` is an object of the document whose every key is one of ``keys``."""
    if not isinstance(raw, dict):
        raise ModelFormatError(f"{path}: expected an object")
    for key in raw:
        if key not in keys:
            raise ModelFormatError(f"{path}.{key}: unknown key")


def from_dict(doc: dict) -> Architecture:
    """Build an Architecture from a parsed document without validating it.
    A key the format does not define is rejected, not ignored."""
    _object(doc, "$", ("components", "nodes", "links", "scenarios", "deployment"))

    components = []
    for i, raw in enumerate(_expect(doc, "components", list, "$")):
        path = f"$.components[{i}]"
        _object(raw, path, ("id", "operations", "failure_probability"))
        operations = []
        for k, raw_op in enumerate(_expect(raw, "operations", list, path)):
            op_path = f"{path}.operations[{k}]"
            _object(raw_op, op_path, ("id", "cpu_demand"))
            operations.append(
                Operation(id=_expect(raw_op, "id", str, op_path), cpu_demand=_expect(raw_op, "cpu_demand", float, op_path))
            )
        components.append(
            Component(
                id=_expect(raw, "id", str, path),
                operations=tuple(operations),
                failure_probability=_expect(raw, "failure_probability", float, path),
            )
        )

    nodes = []
    for i, raw in enumerate(_expect(doc, "nodes", list, "$")):
        path = f"$.nodes[{i}]"
        _object(raw, path, ("id", "speed_factor", "cores"))
        nodes.append(
            ProcessorNode(
                id=_expect(raw, "id", str, path),
                speed_factor=_expect(raw, "speed_factor", float, path, optional_default=1.0),
                cores=_expect(raw, "cores", int, path, optional_default=1),
            )
        )

    links = []
    for i, raw in enumerate(_expect(doc, "links", list, "$") if "links" in doc else []):
        path = f"$.links[{i}]"
        _object(raw, path, ("id", "nodes", "failure_probability", "delay"))
        endpoints = _expect(raw, "nodes", list, path)
        if len(endpoints) != 2 or not all(isinstance(e, str) for e in endpoints):
            raise ModelFormatError(f"{path}.nodes: expected a pair of node ids")
        links.append(
            NetworkLink(
                id=_expect(raw, "id", str, path),
                endpoints=(endpoints[0], endpoints[1]),
                failure_probability=_expect(raw, "failure_probability", float, path, optional_default=0.0),
                delay=_expect(raw, "delay", float, path, optional_default=0.0),
            )
        )

    scenarios = []
    for i, raw in enumerate(_expect(doc, "scenarios", list, "$")):
        path = f"$.scenarios[{i}]"
        _object(raw, path, ("id", "mix_weight", "population", "think_time", "steps"))
        steps = []
        for k, raw_step in enumerate(_expect(raw, "steps", list, path)):
            step_path = f"{path}.steps[{k}]"
            _object(raw_step, step_path, ("operation", "count"))
            steps.append(
                CallStep(
                    operation=_expect(raw_step, "operation", str, step_path),
                    count=_expect(raw_step, "count", float, step_path),
                )
            )
        scenarios.append(
            UsageScenario(
                id=_expect(raw, "id", str, path),
                mix_weight=_expect(raw, "mix_weight", float, path),
                population=_expect(raw, "population", int, path),
                think_time=_expect(raw, "think_time", float, path),
                steps=tuple(steps),
            )
        )

    deployment = _expect(doc, "deployment", dict, "$")
    for comp_id, node_id in deployment.items():
        if not isinstance(node_id, str):
            raise ModelFormatError(f"$.deployment.{comp_id}: expected a node id string")

    return Architecture(
        components=tuple(components),
        nodes=tuple(nodes),
        links=tuple(links),
        scenarios=tuple(scenarios),
        deployment=dict(deployment),
    )
