"""One benchmark search in a fresh process.

Usage: python3 child.py SPEC SEED STARTED TRACE

SPEC is the path of the search spec written by run.py, SEED the search
seed, STARTED the parent's ``time.monotonic()`` just before it started
this process, and TRACE is 1 to install the per-layer trace.  The process
loads and validates the model, runs one single-worker ``moea.run``, writes
the front with ``cli.write_front`` and checks it.  It prints one JSON
object on stdout.
"""

import hashlib
import json
import logging
import resource
import sys
import time
from pathlib import Path

import numpy as np

from archopt import cli, moea, pareto
from archopt.model import load

from layers import Tracer


class _InvalidCount(logging.Handler):
    """Counts the evaluator's invalid-individual warnings."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if "invalid" in record.getMessage():
            self.count += 1


def check_front(spec: dict, arch, config, front) -> tuple[list[str], float | None]:
    """Output checks; returns one message per failed check and the hypervolume."""
    failures = []
    used = front.metadata["evaluations_used"]
    if used != spec["max_evaluations"]:
        failures.append(f"evaluations_used {used} != max_evaluations {spec['max_evaluations']}")
    points = np.array([ind.objectives for ind in front.individuals])
    if len(points) == 0:
        return failures + ["empty front"], None
    if len(pareto.nondominated_indices(points)) != len(points):
        failures.append("front members dominate each other")
    rescorer = moea.Evaluator(arch, config)
    for ind in front.individuals:
        again = rescorer.evaluate(ind.sequence)
        if again.objectives != ind.objectives:
            failures.append(f"re-scored objectives differ: {again.objectives} != {ind.objectives}")
            break
    try:
        return failures, pareto.hypervolume(points, spec["reference_point"])
    except ValueError as exc:
        return failures + [f"hypervolume: {exc}"], None


def main() -> int:
    spec_path, seed, started, traced = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4] == "1"
    spec = json.loads(Path(spec_path).read_text())
    arch = load(Path(spec["model_path"]).read_text())  # validates
    setup_s = time.monotonic() - started

    invalid = _InvalidCount()
    logging.getLogger("archopt.moea").addHandler(invalid)
    config = moea.SearchConfig(
        algorithm=spec["algorithm"],
        seed=seed,
        population=spec["population"],
        archive_size=spec["archive_size"],
        sequence_length=spec["sequence_length"],
        max_evaluations=spec["max_evaluations"],
    )
    tracer = Tracer()
    if traced:
        tracer.install()

    start = time.perf_counter()
    front = moea.run(arch, config)
    search_s = time.perf_counter() - start
    csv_path, _ = cli.write_front(front, Path(spec["out_dir"]) / str(seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    meta = front.metadata
    layers = tracer.metrics(meta, len(front.individuals)) if traced else {}

    failures, hv = check_front(spec, arch, config, front)
    result = {
        "seed": seed,
        "evaluations": meta["evaluations_used"],
        "search_s": search_s,
        "evals_per_s": meta["evaluations_used"] / search_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "invalid": invalid.count,
        "failures": failures,
        "front_sha256": hashlib.sha256(csv_path.read_bytes()).hexdigest(),
        "hypervolume": hv,
        "layers": layers,
        "trace_missing": tracer.missing,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
