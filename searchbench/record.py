#!/usr/bin/env python3
"""Re-measure the recorded parts of searchbench/baseline.json.

    python3 searchbench/record.py

For every workload it records the front.csv sha256 and hypervolume of each
search seed of the pinned and the held-out invocation seed (the output
identity a speedup must keep), the untraced end-to-end medians and the
traced per-layer medians of the pinned seed, and each layer's share of the
traced ``moea.run`` time.  The hand-written parts of the file (workload
reasons, metric directions and which end-to-end number each layer metric
should move) are kept as they are.  Takes about five minutes.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
from pathlib import Path

import run
from layers import LAYER_SECONDS

RUN_SECONDS = 30


def identity(name: str, seeds: list[int]) -> dict:
    out = {}
    with tempfile.TemporaryDirectory(prefix=".searchbench-", dir=run.ROOT) as tmp:
        spec_path = run.write_spec(Path(tmp), run.WORKLOADS[name])
        for seed in seeds:
            for search_seed in run.search_seeds(seed):
                r = run.run_child(spec_path, search_seed, traced=False)
                if r is None or r["failures"]:
                    raise SystemExit(f"{name} seed {search_seed} failed: {r and r['failures']}")
                out[str(search_seed)] = {"front_sha256": r["front_sha256"], "hypervolume": r["hypervolume"]}
    return out


def main() -> None:
    baseline = json.loads(run.BASELINE.read_text())
    pinned, held_out = baseline["pinned_seed"], baseline["held_out_seed"]
    baseline["hardware"] = f"{platform.machine()}, {os.cpu_count()} cores, Python {platform.python_version()}"
    for name in run.WORKLOADS:
        entry = baseline["workloads"][name]
        entry["identity"] = identity(name, [pinned, held_out])
        run.BASELINE.write_text(json.dumps(baseline, indent=2) + "\n")  # measure() checks against it
        end_to_end = run.measure(name, pinned, RUN_SECONDS, trace=False)
        per_layer = run.measure(name, pinned, RUN_SECONDS, trace=True)
        if not (end_to_end["correct"] and per_layer["correct"]):
            raise SystemExit(f"{name}: output checks failed")
        layers = per_layer["metrics"]
        spans = sum(layers[key] for key in LAYER_SECONDS if key != "cli.write_s")
        entry["end_to_end"] = end_to_end["metrics"]
        entry["per_layer"] = layers
        entry["layer_share"] = {
            key: round(layers[key] / spans, 4) for key in LAYER_SECONDS if key != "cli.write_s"
        }
        run.BASELINE.write_text(json.dumps(baseline, indent=2) + "\n")


if __name__ == "__main__":
    main()
