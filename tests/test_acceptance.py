"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line; the
search-effectiveness and budget-compliance criteria run real timed
optimizations and take a couple of minutes in total.
"""

import csv
import json
import time
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import conftest

from archopt import casestudies
from archopt.cli import main
from archopt.model import CompiledChunk, load, validate
from archopt.moea import SearchConfig, run
from archopt.pareto import fast_nondominated_sort, hypervolume
from archopt.perfqn import QnModel, solve_amva, solve_exact_mva, to_qn
from archopt.refactoring import apply_sequence, random_sequence
from archopt.reliability import reliability


def check(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[criterion {num:02d}] {status} {name}{suffix}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {num} failed: {name}{suffix}"


def batch_of_one(demands, populations, think_times):
    demands = np.asarray(demands, float)
    return QnModel(
        [tuple(f"k{i}" for i in range(demands.shape[0]))],
        tuple(f"c{j}" for j in range(demands.shape[1])),
        demands,
        np.array([0, demands.shape[0]]),
        np.asarray(populations, float).reshape(1, -1),
        np.asarray(think_times, float).reshape(1, -1),
    )


def single_class_qn(demands, population, think):
    return batch_of_one(np.asarray(demands, float).reshape(-1, 1), [population], [think])


def random_solver_corpus(seed=0, count=100):
    """Batch (zero think time) closed models: <= 4 stations, N <= 20."""
    rng = np.random.default_rng(seed)
    models = []
    for _ in range(count):
        stations = int(rng.integers(1, 5))
        population = int(rng.integers(1, 21))
        demands = rng.uniform(0.05, 1.0, size=stations)
        models.append(single_class_qn(demands, population, 0.0))
    return models


def test_c01_solver_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    exact_at_one = True
    for model in random_solver_corpus(seed=0, count=100):
        exact = solve_exact_mva(model)
        approx = solve_amva(model)
        rel_x = abs(approx.throughput[0] - exact.throughput[0]) / exact.throughput[0]
        rel_r = abs(approx.response_time[0] - exact.response_time[0]) / exact.response_time[0]
        worst = max(worst, rel_x, rel_r)
        if model.populations[0, 0] == 1:
            if abs(approx.throughput[0] - exact.throughput[0]) > 1e-9:
                exact_at_one = False
            if abs(approx.response_time[0] - exact.response_time[0]) > 1e-9:
                exact_at_one = False
    # exactness at N=1 must also hold with think time
    rng = np.random.default_rng(1)
    for _ in range(20):
        model = single_class_qn(rng.uniform(0.05, 1.0, size=3), 1, float(rng.uniform(0.0, 2.0)))
        exact, approx = solve_exact_mva(model), solve_amva(model)
        if abs(approx.throughput[0] - exact.throughput[0]) > 1e-9:
            exact_at_one = False
    elapsed = time.perf_counter() - start
    check(
        1,
        "AMVA vs exact MVA on 100 random single-class models",
        worst <= 0.05 and exact_at_one and elapsed < 5.0,
        f"worst rel err {worst:.4f}, N=1 exact: {exact_at_one}, {elapsed:.2f}s",
    )


def test_c02_littles_law_and_bounds():
    rng = np.random.default_rng(2)
    ok = True
    worst_rel = 0.0
    # single-class corpus incl. think times: both solvers, law + bounds
    for _ in range(100):
        stations = int(rng.integers(1, 5))
        population = int(rng.integers(1, 21))
        think = float(rng.uniform(0.0, 2.0))
        demands = rng.uniform(0.05, 1.0, size=stations)
        model = single_class_qn(demands, population, think)
        for result in (solve_exact_mva(model), solve_amva(model)):
            lhs = result.throughput[0] * (result.response_time[0] + think)
            rel = abs(lhs - population) / population
            worst_rel = max(worst_rel, rel)
            bound = min(population / (think + demands.sum()), 1.0 / demands.max())
            ok = ok and rel <= 1e-6 and result.throughput[0] <= bound + 1e-9
    # multiclass corpus and the case studies: law per class
    cases = [to_qn(CompiledChunk([casestudies.load_case_study(n).fold])) for n in ("small", "large")]
    for _ in range(30):
        stations, classes = int(rng.integers(1, 5)), int(rng.integers(2, 4))
        cases.append(
            batch_of_one(
                rng.uniform(0.0, 0.4, size=(stations, classes)),
                rng.integers(1, 25, size=classes).astype(float),
                rng.uniform(0.1, 2.0, size=classes),
            )
        )
    for model in cases:
        result = solve_amva(model)
        for j in range(len(model.class_ids)):
            lhs = result.throughput[j] * (result.response_time[j] + model.think_times[0, j])
            rel = abs(lhs - model.populations[0, j]) / model.populations[0, j]
            worst_rel = max(worst_rel, rel)
            ok = ok and rel <= 1e-6
        ok = ok and (result.utilization <= 1.0 + 1e-6).all()
    check(2, "Little's law and throughput bounds on the solver corpus", ok, f"worst law error {worst_rel:.2e}")


def _monte_carlo(arch, samples, rng):
    from archopt.model import invocation_matrix

    invocations, messages = invocation_matrix(CompiledChunk([arch.fold]))
    estimate, variance = 0.0, 0.0
    for j, scen in enumerate(arch.scenarios):
        failures = np.zeros(samples)
        for i, comp in enumerate(arch.components):
            count = int(round(invocations[i, j]))
            if count and comp.failure_probability > 0:
                failures += rng.binomial(count, comp.failure_probability, size=samples)
        for l, link in enumerate(arch.links):
            count = int(round(messages[l, j]))
            if count and link.failure_probability > 0:
                failures += rng.binomial(count, link.failure_probability, size=samples)
        success = (failures == 0).mean()
        estimate += scen.mix_weight * success
        variance += scen.mix_weight**2 * success * (1 - success) / samples
    return estimate, np.sqrt(variance)


def test_c03_reliability_vs_monte_carlo():
    from conftest import make_arch

    start = time.perf_counter()
    rng = np.random.default_rng(3)
    worst_sigma = 0.0
    ok = True
    for _ in range(20):
        n_comps = int(rng.integers(2, 7))
        n_nodes = int(rng.integers(1, 4))
        comps = [(f"c{i}", float(rng.uniform(0.0, 0.15)), [(f"o{i}", 0.01)]) for i in range(n_comps)]
        nodes = [(f"n{k}", 1.0, 1) for k in range(n_nodes)]
        links = [
            (f"l{a}_{b}", f"n{a}", f"n{b}", float(rng.uniform(0.0, 0.08)), 0.0)
            for a in range(n_nodes)
            for b in range(a + 1, n_nodes)
        ]
        deployment = {f"c{i}": f"n{int(rng.integers(n_nodes))}" for i in range(n_comps)}
        weights = rng.dirichlet(np.ones(int(rng.integers(1, 4))))
        scenarios = []
        for j, w in enumerate(weights):
            steps = [(f"o{int(rng.integers(n_comps))}", float(rng.integers(1, 5))) for _ in range(int(rng.integers(1, 6)))]
            scenarios.append((f"s{j}", float(w), 1, 0.0, steps))
        # make the mix sum exactly 1
        scenarios[-1] = (scenarios[-1][0], 1.0 - float(np.sum(weights[:-1])), 1, 0.0, scenarios[-1][4])
        arch = make_arch(comps, nodes, deployment, scenarios, links)
        closed = reliability(CompiledChunk([arch.fold]))[0]
        estimate, stderr = _monte_carlo(arch, 100_000, rng)
        sigma = abs(closed - estimate) / stderr if stderr > 0 else 0.0
        worst_sigma = max(worst_sigma, sigma)
        ok = ok and abs(closed - estimate) <= 3.0 * stderr + 1e-12
    elapsed = time.perf_counter() - start
    check(3, "closed-form reliability within 3 SE of Monte Carlo", ok and elapsed < 30.0,
          f"worst deviation {worst_sigma:.2f} SE, {elapsed:.1f}s")


def _brute_force_fronts(points):
    points = np.asarray(points, float)
    n = len(points)
    remaining = list(range(n))
    fronts = []
    while remaining:
        sub = points[remaining]
        front = []
        for pos, i in enumerate(remaining):
            p = points[i]
            dominated = ((sub <= p).all(axis=1) & (sub < p).any(axis=1)).any()
            if not dominated:
                front.append(i)
        fronts.append(front)
        remaining = [i for i in remaining if i not in set(front)]
    return fronts


def test_c04_dominance_machinery():
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 201))
        points = rng.integers(0, 8, size=(n, 4)).astype(float)
        if fast_nondominated_sort(points) != _brute_force_fronts(points):
            ok = False
            break
    # fronts from real runs contain zero dominated members
    arch = casestudies.load_case_study("small")
    for algorithm in ("nsga2", "spea2", "pesa2"):
        front = run(arch, SearchConfig(algorithm=algorithm, seed=10, max_evaluations=150, population=16, archive_size=16))
        points = np.array([ind.objectives for ind in front.individuals])
        dominated = 0
        for i in range(len(points)):
            others = np.delete(points, i, axis=0)
            if ((others <= points[i]).all(axis=1) & (others < points[i]).any(axis=1)).any():
                dominated += 1
        ok = ok and dominated == 0
    check(4, "non-dominated sort matches brute force; run fronts clean", ok)


def test_c05_hypervolume_oracle():
    rng = np.random.default_rng(5)
    worst = 0.0
    ok = True
    for _ in range(60):
        n = int(rng.integers(1, 9))
        points = rng.uniform(0.0, 1.0, size=(n, 2))
        ref = np.array([1.1, 1.1])
        oracle = 0.0
        for r in range(1, n + 1):
            for subset in combinations(range(n), r):
                corner = points[list(subset)].max(axis=0)
                oracle += (-1) ** (r + 1) * np.prod(np.maximum(ref - corner, 0.0))
        err = abs(hypervolume(points, ref) - oracle)
        worst = max(worst, err)
        ok = ok and err <= 1e-9
    # monotone under adding non-dominated points
    for _ in range(30):
        points = rng.uniform(0.0, 1.0, size=(5, 3))
        ref = np.full(3, 1.5)
        base = hypervolume(points, ref)
        extra = rng.uniform(0.0, 1.0, size=3)
        ok = ok and hypervolume(np.vstack([points, extra]), ref) >= base - 1e-12
    check(5, "hypervolume matches inclusion-exclusion and is monotone", ok, f"worst abs err {worst:.2e}")


def test_c06_refactoring_functional_equivalence():
    import math

    ok = True
    worst = 0.0
    for name in ("small", "large"):
        arch = casestudies.load_case_study(name)
        ops = {op.id: op for comp in arch.components for op in comp.operations}
        base = [
            math.fsum(step.count * ops[step.operation].cpu_demand for step in scen.steps)
            for scen in arch.scenarios
        ]
        rng = np.random.default_rng(6)
        for _ in range(1000):
            seq, _ = random_sequence(arch.fold, 4, rng)
            folded = apply_sequence(arch.fold, seq).architecture()
            folded_ops = {op.id: op for comp in folded.components for op in comp.operations}
            for j, scen in enumerate(folded.scenarios):
                total = math.fsum(step.count * folded_ops[step.operation].cpu_demand for step in scen.steps)
                worst = max(worst, abs(total - base[j]))
                ok = ok and abs(total - base[j]) <= 1e-9
            ok = ok and validate(folded) == []
    check(6, "1000 random sequences per case study conserve demand and validity", ok, f"worst drift {worst:.2e}")


def test_c07_end_to_end_determinism(tmp_path):
    config = {
        "model": str(casestudies.path("small")),
        "algorithm": "nsga2",
        "seed": 17,
        "population": 16,
        "max_evaluations": 150,
    }
    outputs = []
    for tag in ("a", "b"):
        config["output_dir"] = str(tmp_path / tag)
        path = tmp_path / f"config-{tag}.json"
        path.write_text(json.dumps(config))
        assert main(["optimize", "--config", str(path)]) == 0
        outputs.append((tmp_path / tag / "front.csv").read_bytes())
    check(7, "fixed seed, single worker: byte-identical front.csv", outputs[0] == outputs[1])


def test_c08_budget_compliance():
    arch = casestudies.load_case_study("small")
    solve_amva(to_qn(CompiledChunk([arch.fold])))  # warm solver path outside the timed region
    ok = True
    details = []
    for budget in (5.0, 10.0, 20.0):
        start = time.perf_counter()
        run(arch, SearchConfig(seed=20, population=32, budget_seconds=budget))
        elapsed = time.perf_counter() - start
        details.append(f"{budget:g}s->{elapsed:.2f}s")
        ok = ok and elapsed <= budget * 1.10
    check(8, "wall-clock budgets 5/10/20s terminate within +10%", ok, ", ".join(details))


def test_c09_search_effectiveness():
    arch = casestudies.load_case_study("small")
    best_per_seed = []
    for seed in range(1, 6):
        front = run(arch, SearchConfig(algorithm="nsga2", seed=seed, population=32, budget_seconds=20.0))
        best_per_seed.append(float(max(ind.metrics.perfq for ind in front.individuals if ind.valid)))
    median = float(np.median(best_per_seed))
    check(9, "NSGA-II 20s x 5 seeds: median best perfQ > 0", median > 0.0,
          f"median {median:.4f}, per-seed {[round(b, 3) for b in best_per_seed]}")


def test_c10_antipattern_objective_harness(tmp_path):
    config = {
        "model": str(casestudies.path("small")),
        "algorithms": ["nsga2"],
        "budgets_evaluations": [80],
        "seeds": [1, 2, 3, 4, 5],
        "population": 8,
        "output_dir": str(tmp_path / "cmp"),
    }
    path = tmp_path / "compare.json"
    path.write_text(json.dumps(config))
    assert main(["compare", "--config", str(path)]) == 0
    rows = list(csv.DictReader((tmp_path / "cmp" / "compare.csv").read_text().splitlines()))
    with_rows = [r for r in rows if r["pas_objective"] == "with"]
    without_rows = [r for r in rows if r["pas_objective"] == "without"]
    ok = len(with_rows) == 5 and len(without_rows) == 5
    hv_with = float(np.median([float(r["hypervolume"]) for r in with_rows]))
    hv_without = float(np.median([float(r["hypervolume"]) for r in without_rows]))
    direction = "with >= without" if hv_with >= hv_without else "with < without"
    # the direction is reported, not asserted
    check(10, "compare harness reports the with/without-#PAs table", ok,
          f"median HV with={hv_with:.4f} without={hv_without:.4f} ({direction})")
