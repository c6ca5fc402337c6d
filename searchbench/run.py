#!/usr/bin/env python3
"""Search benchmark: evaluations per second of fixed-evaluation archopt searches.

    python3 searchbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  The benchmark writes the workload's model into a
scratch directory, then starts one fresh single-worker search process
(``child.py``) after another until S seconds have passed.  Each search has
the workload's pinned ``max_evaluations``; the searches cycle through the
search seeds N, N+1000, ..., N+5000, and searches of one seed must write
the same ``front.csv``.

With ``--trace 0`` it reports the medians of ``evals_per_s`` (distinct
evaluations over the wall time of ``moea.run``), ``setup_s`` (process start
to model loaded and validated) and ``peak_rss_mb``.  With ``--trace 1`` it
alternates untraced and traced searches and reports the medians of the
per-layer metrics of ``layers.py`` plus ``trace.overhead_frac``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (evaluations attempted), ``failed`` (invalid
individuals plus failed output checks) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CASESTUDIES = ROOT / "src" / "archopt" / "casestudies"
BASELINE = HERE / "baseline.json"
CHILD_TIMEOUT_S = 120
# Searches of one invocation cycle through SUBSEEDS search seeds, so the
# medians average over several trajectories and each seed still repeats.
SUBSEEDS = 6
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    model: str  # bundled case study the input is made from
    copies: int  # id-suffixed copies of it joined by a backbone
    algorithm: str
    population: int
    archive_size: int
    max_evaluations: int
    # hypervolume reference: (-perfQ, -reliability, #PAs, distance) bounds
    # every valid objective vector of the workload can reach
    reference_point: tuple[float, float, float, float]
    sequence_length: int = 4


WORKLOADS = {
    # the ROADMAP baseline and CLI default: routing, AMVA, validate and
    # operators all take a visible share
    "nsga2-large": Workload("large", 1, "nsga2", 32, 32, 1000, (1.0, 0.0, 30.0, 8.0)),
    # 3 links make routing cheap, so AMVA, the PESA-II archive and grid and
    # the operators take their largest shares; a routing change shows least
    "pesa2-small-p96": Workload("small", 1, "pesa2", 96, 96, 1600, (1.0, 0.0, 20.0, 8.0)),
    # model size scales every per-evaluation layer; routing dominates and
    # cross-copy redeploys make feasibility probes frequent
    "spea2-large-x3": Workload("large", 3, "spea2", 32, 32, 300, (1.0, 0.0, 90.0, 8.0)),
}

# links that join node i of copy k to node i of copy k+1
BACKBONE_FAILURE_PROBABILITY = 0.0005
BACKBONE_DELAY = 0.001


def replicate(doc: dict, copies: int) -> dict:
    """``copies`` copies of a model document with ids suffixed ``-x<k>``.

    Links inside a copy are kept; backbone links join same-index nodes of
    adjacent copies.  Mix weights are divided by ``copies`` so they still
    sum to 1.
    """
    if copies == 1:
        return doc

    def tag(name: str, k: int) -> str:
        return f"{name}-x{k}"

    out: dict = {"components": [], "nodes": [], "links": [], "scenarios": [], "deployment": {}}
    for k in range(copies):
        for comp in doc["components"]:
            ops = [{**op, "id": tag(op["id"], k)} for op in comp["operations"]]
            out["components"].append({**comp, "id": tag(comp["id"], k), "operations": ops})
        out["nodes"] += [{**node, "id": tag(node["id"], k)} for node in doc["nodes"]]
        for link in doc["links"]:
            out["links"].append({**link, "id": tag(link["id"], k), "nodes": [tag(n, k) for n in link["nodes"]]})
        for scen in doc["scenarios"]:
            steps = [{**step, "operation": tag(step["operation"], k)} for step in scen["steps"]]
            out["scenarios"].append(
                {**scen, "id": tag(scen["id"], k), "mix_weight": scen["mix_weight"] / copies, "steps": steps}
            )
        out["deployment"].update({tag(c, k): tag(n, k) for c, n in doc["deployment"].items()})
    for k in range(copies - 1):
        for node in doc["nodes"]:
            out["links"].append(
                {
                    "id": f"backbone-{node['id']}-x{k}-x{k + 1}",
                    "nodes": [tag(node["id"], k), tag(node["id"], k + 1)],
                    "failure_probability": BACKBONE_FAILURE_PROBABILITY,
                    "delay": BACKBONE_DELAY,
                }
            )
    return out


def model_document(workload: Workload) -> str:
    doc = json.loads((CASESTUDIES / f"casestudy-{workload.model}.json").read_text())
    return json.dumps(replicate(doc, workload.copies), indent=2, sort_keys=True) + "\n"


def search_seeds(seed: int) -> list[int]:
    """Search seeds of one invocation; searches cycle through them."""
    return [seed + SEED_STRIDE * j for j in range(SUBSEEDS)]


def write_spec(work: Path, workload: Workload) -> Path:
    """Write the workload's model and search spec; returns the spec path."""
    model_path = work / "model.json"
    model_path.write_text(model_document(workload))
    spec = asdict(workload)
    spec.update(model_path=str(model_path), out_dir=str(work / "out"))
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    return spec_path


def run_child(spec_path: Path, seed: int, traced: bool) -> dict | None:
    """One search in a fresh process; None if it crashed or timed out."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec_path), str(seed), repr(started), str(int(traced))],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"search timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def recorded_identity(name: str) -> dict:
    """Recorded front.csv sha256 and hypervolume by search seed."""
    if not BASELINE.is_file():
        return {}
    return json.loads(BASELINE.read_text())["workloads"].get(name, {}).get("identity", {})


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    seeds = search_seeds(seed)
    runs: list[tuple[int, bool, dict | None]] = []
    with tempfile.TemporaryDirectory(prefix=".searchbench-", dir=ROOT) as tmp:
        spec_path = write_spec(Path(tmp), workload)
        deadline = time.monotonic() + seconds
        while True:
            i = len(runs)
            # a traced invocation pairs an untraced and a traced search of one seed
            traced = trace and i % 2 == 1
            search_seed = seeds[(i // 2 if trace else i) % SUBSEEDS]
            runs.append((search_seed, traced, run_child(spec_path, search_seed, traced)))
            if time.monotonic() >= deadline and (not trace or traced):
                break

    done = [(traced, r) for _, traced, r in runs if r is not None]
    attempted = workload.max_evaluations * len(runs)
    failed = workload.max_evaluations * (len(runs) - len(done))
    problems = [f"{len(runs) - len(done)} search(es) crashed"] if len(done) < len(runs) else []
    for _, r in done:
        failed += r["invalid"] + len(r["failures"])
        problems += r["failures"]
    missing = sorted({fn for _, r in done for fn in r["trace_missing"]})
    identity = recorded_identity(name)
    fronts: dict[int, set[tuple[str, float]]] = {}
    for _, r in done:
        fronts.setdefault(r["seed"], set()).add((r["front_sha256"], r["hypervolume"]))
    for search_seed, outputs in sorted(fronts.items()):
        if len(outputs) > 1:
            failed += 1
            problems.append(f"seed {search_seed}: front.csv differs between searches")
        recorded = identity.get(str(search_seed))
        if recorded is not None and {o[0] for o in outputs} != {recorded["front_sha256"]}:
            failed += 1
            problems.append(f"seed {search_seed}: front.csv differs from the identity in {BASELINE.name}")

    plain = [r for traced, r in done if not traced]
    traced_runs = [r for traced, r in done if traced]
    if not plain or (trace and not traced_runs):
        raise SystemExit(f"no search of {name} completed")
    evals = [r["evals_per_s"] for r in plain]
    if trace:
        metrics = {
            key: statistics.median(r["layers"][key] for r in traced_runs) for key in traced_runs[0]["layers"]
        }
        traced_evals = statistics.median(r["evals_per_s"] for r in traced_runs)
        metrics["trace.overhead_frac"] = (statistics.median(evals) - traced_evals) / statistics.median(evals)
    else:
        metrics = {
            "evals_per_s": statistics.median(evals),
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }

    print(
        f"{name} seed={seed}: {len(plain)} untraced and {len(traced_runs)} traced searches; "
        f"evals_per_s median [q1, q3] {quartiles(evals)}; invalid_frac {failed / attempted:.6g}"
    )
    for search_seed, outputs in sorted(fronts.items()):
        for sha, hv in sorted(outputs, key=str):
            recorded = identity.get(str(search_seed))
            status = "not recorded" if recorded is None else ("matches" if recorded["front_sha256"] == sha else "differs")
            print(f"  search seed {search_seed}: front.csv sha256 {sha} hypervolume {hv!r} ({status})")
    if missing:
        print(f"  not traced, no such function in the program: {', '.join(missing)}")
    for problem in problems:
        print(f"check failed: {problem}")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "archopt" / "__init__.py").is_file():
        print(f"no archopt sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    units = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"] for m in units["end_to_end"] + units["per_layer"]}
    result["metrics"] = {key: {"value": value, "unit": unit_of[key]} for key, value in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
