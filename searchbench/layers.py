"""Per-layer trace of one archopt search, installed from outside the program.

Python resolves a module-level name in the namespace of the module that
calls it, so a function imported with ``from .model import validate`` has
one binding per importing module.  ``install`` wraps a traced function at
every binding it has in the loaded ``archopt`` modules, taking each module
from ``sys.modules`` (``archopt.reliability`` on the package is the
re-exported function, not the module).  Only public names are wrapped; the
time of a private helper lands in the self time of its public caller.

A span's self time is its duration minus the durations of the traced spans
it encloses.  Spans are folded into per-function sums as they close, so the
trace holds a few counters, not a span list.  The wrappers draw no random
numbers, so a traced search writes the same front as an untraced one.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# Layer metric -> traced functions ("module.name" or "module.Class.method")
# whose self times it sums.
LAYER_SECONDS = {
    "model.route_s": ("model.invocation_matrix",),
    "model.validate_s": ("model.validate",),
    "model.digest_s": ("model.digest",),
    "refactoring.operators_s": ("moea.crossover", "moea.mutate", "refactoring.random_sequence"),
    "refactoring.fold_s": ("refactoring.apply_sequence",),
    "perfqn.to_qn_s": ("perfqn.to_qn",),
    "perfqn.solve_s": ("perfqn.solve_amva",),
    "kernels.amva_s": ("kernels.amva",),
    "kernels.dominance_s": ("kernels.dominance_matrix",),
    "reliability.eval_s": ("reliability.reliability",),
    "antipatterns.detect_s": ("antipatterns.detect",),
    "pareto.sort_s": ("pareto.fast_nondominated_sort", "pareto.crowding_distance"),
    "moea.loop_self_s": ("moea.run",),
    "moea.evaluator_self_s": ("moea.Evaluator.evaluate_many",),
    "cli.write_s": ("cli.write_front",),
}

# Counted but not timed: its time stays in the caller's self time.
PROBE = "refactoring.is_feasible"


class Tracer:
    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.probe_accepts = 0
        self.amva_iterations = 0
        self.missing: list[str] = []
        # enclosed-span time of each open span; the bottom entry is the root
        self._open: list[list[float]] = [[0.0]]

    def _span(self, name: str, fn):
        open_spans = self._open
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enclosed = [0.0]
            open_spans.append(enclosed)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                open_spans.pop()
                open_spans[-1][0] += elapsed
                self_s[name] += elapsed - enclosed[0]
                calls[name] += 1
            if name == "perfqn.solve_amva":
                self.amva_iterations += result.iterations
            return result

        return wrapper

    def _probe(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.calls[PROBE] += 1
            self.probe_accepts += bool(result[0])
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function at each of its bindings."""
        modules = [m for key, m in sorted(sys.modules.items()) if key == "archopt" or key.startswith("archopt.")]
        names = [fn for fns in LAYER_SECONDS.values() for fn in fns]
        for name in names + [PROBE]:
            module_name, *path = name.split(".")
            owner = sys.modules.get(f"archopt.{module_name}")
            for attr in path[:-1]:
                owner = getattr(owner, attr, None)
            original = getattr(owner, path[-1], None)
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self._probe(original) if name == PROBE else self._span(name, original)
            if len(path) == 2:  # a method: the class is its one binding
                setattr(owner, path[-1], wrapped)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original and not attr.startswith("_"):
                        setattr(module, attr, wrapped)

    def metrics(self, meta: dict, front_size: int) -> dict[str, float]:
        """Per-layer metrics of the search traced so far."""
        out = {metric: sum(self.self_s[fn] for fn in fns) for metric, fns in LAYER_SECONDS.items()}
        out["model.route_calls"] = self.calls["model.invocation_matrix"]
        out["model.validate_calls"] = self.calls["model.validate"]
        out["refactoring.probe_calls"] = self.calls[PROBE]
        out["refactoring.probe_accept_ratio"] = self.probe_accepts / max(1, self.calls[PROBE])
        out["kernels.amva_iters_mean"] = self.amva_iterations / max(1, self.calls["perfqn.solve_amva"])
        looked_up = meta["evaluations_used"] + meta["cache_hits"]
        out["moea.cache_hit_ratio"] = meta["cache_hits"] / max(1, looked_up)
        out["moea.front_size"] = front_size
        out["moea.generations"] = meta["generations"]
        return out
