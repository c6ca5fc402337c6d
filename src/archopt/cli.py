"""Command-line front end: validate / eval / optimize / compare.

Exit codes: 0 ok, 1 domain error (invalid model, infeasible sequence,
no feasible action to sample, solver failure), 2 usage error (bad
arguments, missing or unreadable files).
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import logging
import os
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .antipatterns import Thresholds
from .model import Architecture, CompiledChunk, ModelFormatError, _is_number, load, validate
from .moea import ParetoFront, SearchConfig, check_field_types, front_to_json_dict, objective_vector, run, score
from .pareto import hypervolume
from .perfqn import SolverError, solve_amva, to_qn
from .refactoring import (
    DEFAULT_BRF,
    ActionKind,
    InfeasibleActionError,
    NoFeasibleActionError,
    Plan,
    apply_sequence,
    sequence_from_records,
    sequence_to_text,
)

log = logging.getLogger("archopt.cli")

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

SEED_ENV_VAR = "ARCHOPT_SEED"


class ConfigError(ValueError):
    pass


# compare grid key -> the SearchConfig field its values set
_GRIDS = {"algorithms": "algorithm", "budgets_seconds": "budget_seconds",
          "budgets_evaluations": "max_evaluations", "seeds": "seed"}


@dataclass
class RunConfig:
    model: str
    output_dir: str = "archopt-out"
    # SearchConfig keyword arguments from the config keys that name its
    # fields; every default lives on SearchConfig
    search: dict = field(default_factory=dict)
    # compare-only grids; absent means the single value in ``search``
    algorithms: list[str] | None = None
    budgets_seconds: list[float] | None = None
    budgets_evaluations: list[int] | None = None
    seeds: list[int] | None = None

    def __post_init__(self):
        check_field_types(self)
        for key in _GRIDS:
            if getattr(self, key) == []:
                raise ConfigError(f"{key} must be a non-empty list")

    def search_config(self, **overrides) -> SearchConfig:
        return SearchConfig(**{**self.search, **overrides})


def _parse_brf(raw) -> dict[ActionKind, float]:
    if not isinstance(raw, dict):
        raise ConfigError(f"brf: must be an object of action kind -> factor, got {raw!r}")
    table = dict(DEFAULT_BRF)
    for key, value in raw.items():
        try:
            table[ActionKind(key)] = value
        except ValueError as exc:
            raise ConfigError(f"brf: unknown action kind '{key}'") from exc
    return table


def _parse_thresholds(raw) -> Thresholds:
    if not isinstance(raw, dict) or not all(map(_is_number, raw.values())):
        raise ConfigError(f"thresholds: must be an object of name -> number, got {raw!r}")
    try:
        return Thresholds(**raw)
    except (TypeError, ValueError) as exc:  # an unknown name, or out of range
        raise ConfigError(f"thresholds: {exc}") from exc


def load_config(path: str) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: parse error at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config root must be an object")
    if "model" not in raw:
        raise ConfigError(f"{path}: required key 'model' is missing")

    search_keys = set(SearchConfig.__dataclass_fields__)
    run_keys = set(RunConfig.__dataclass_fields__) - {"search"}
    unknown = set(raw) - search_keys - run_keys
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")

    search = {key: value for key, value in raw.items() if key in search_keys}
    if "brf" in search:
        search["brf"] = _parse_brf(search["brf"])
    if "thresholds" in search:
        search["thresholds"] = _parse_thresholds(search["thresholds"])
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            search["seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}") from exc
    return RunConfig(search=search, **{key: value for key, value in raw.items() if key in run_keys})


def _resolve_model_path(path: str) -> Path:
    """Accepts a file path or ``casestudy:small`` / ``casestudy:large``."""
    if path.startswith("casestudy:"):
        from . import casestudies

        return casestudies.path(path.split(":", 1)[1])
    return Path(path)


def _load_model(path: str) -> Architecture:
    return load(_resolve_model_path(path).read_text())


def _load_sequence(path: str) -> Plan:
    records = json.loads(Path(path).read_text())
    if not isinstance(records, list):
        raise ConfigError(f"{path}: sequence file must be a JSON array of action records")
    return sequence_from_records(records)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    text = _resolve_model_path(args.model).read_text()
    try:
        arch = load(text, check=False)
    except ModelFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    violations = validate(arch)
    for violation in violations:
        print(violation)
    if violations:
        return EXIT_DOMAIN
    print(f"ok: {args.model} is a valid architecture")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _performance_report(perf) -> dict:
    return {
        "scenarios": {
            cid: {
                "throughput": float(perf.throughput[j]),
                "response_time": float(perf.response_time[j]),
            }
            for j, cid in enumerate(perf.class_ids)
        },
        "utilization": {sid: float(perf.utilization[k]) for k, sid in enumerate(perf.station_ids)},
        "delay_only": list(perf.delay_only),
    }


def cmd_eval(args) -> int:
    arch = _load_model(args.model)
    config = load_config(args.config) if args.config else RunConfig(model=args.model)
    search = config.search_config(max_evaluations=0)  # for its brf table and thresholds
    seq = _load_sequence(args.sequence) if args.sequence else ()
    folded = apply_sequence(arch.fold, seq)
    [metrics] = score(solve_amva(to_qn(CompiledChunk([arch.fold]))), [(seq, folded)], search.brf, search.thresholds)
    if isinstance(metrics, Exception):
        print(f"error: candidate architecture could not be evaluated: {metrics}", file=sys.stderr)
        return EXIT_DOMAIN
    perf = solve_amva(to_qn(CompiledChunk([folded])))  # its one-model view, for the report

    report = {
        "model": args.model,
        "sequence": sequence_to_text(seq),
        "perfQ": metrics.perfq,
        "reliability": metrics.reliability,
        "pas": metrics.pas,
        "distance": metrics.distance,
        "performance": _performance_report(perf),
    }
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"model:       {args.model}")
        print(f"sequence:    {report['sequence'] or '(none)'}")
        print(f"perfQ:       {report['perfQ']:.6f}")
        print(f"reliability: {report['reliability']:.6f}")
        print(f"antipatterns: {report['pas']}")
        print(f"distance:    {report['distance']:.6f}")
        print("per-scenario performance:")
        for cid, row in report["performance"]["scenarios"].items():
            print(f"  {cid}: X={row['throughput']:.6f}/s R={row['response_time']:.6f}s")
        print("node utilization:")
        for sid, util in report["performance"]["utilization"].items():
            print(f"  {sid}: {util:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------

FRONT_CSV_COLUMNS = [
    "run_id", "algorithm", "seed", "solution_id", "perfQ", "reliability", "pas", "distance", "actions",
]


def front_csv_text(front: ParetoFront) -> str:
    run_id = _run_id_from_meta(front.metadata)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(FRONT_CSV_COLUMNS)
    for idx, ind in enumerate(front.individuals):
        writer.writerow(
            [
                run_id,
                front.metadata["algorithm"],
                front.metadata["seed"],
                f"s{idx:04d}",
                repr(float(ind.metrics.perfq)),
                repr(float(ind.metrics.reliability)),
                ind.metrics.pas,
                repr(float(ind.metrics.distance)),
                sequence_to_text(ind.sequence),
            ]
        )
    return buffer.getvalue()


def _run_id_from_meta(meta: dict) -> str:
    mode = "4obj" if meta.get("use_pas_objective", True) else "3obj"
    return f"{meta['algorithm']}-{_budget_label(meta)}-{mode}-seed{meta['seed']}"


def _budget_label(values: dict) -> str:
    """Budget of a run's metadata or of a config's search values."""
    parts = []
    if values.get("budget_seconds") is not None:
        parts.append(f"{values['budget_seconds']:g}s")
    if values.get("max_evaluations") is not None:
        parts.append(f"{values['max_evaluations']}ev")
    return "-".join(parts) or "none"


def write_front(front: ParetoFront, out_dir: Path) -> tuple[Path, Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "front.csv"
    json_path = out_dir / "front.json"
    csv_path.write_text(front_csv_text(front))
    json_path.write_text(json.dumps(front_to_json_dict(front), indent=2, sort_keys=True) + "\n")
    return csv_path, json_path


def cmd_optimize(args) -> int:
    config = load_config(args.config)
    arch = _load_model(config.model)
    front = run(arch, config.search_config())
    csv_path, json_path = write_front(front, Path(config.output_dir))
    meta = front.metadata
    print(
        f"{meta['algorithm']} seed={meta['seed']}: front size {len(front.individuals)}, "
        f"{meta['evaluations_used']} evaluations, {meta['generations']} generations, "
        f"{meta['wall_time_seconds']:.2f}s"
    )
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

COMPARE_COLUMNS = [
    "algorithm", "budget", "pas_objective", "seed",
    "hypervolume", "front_size", "best_perfQ", "best_reliability", "evaluations",
]


def _grid(config: RunConfig, *keys: str) -> list[dict]:
    """SearchConfig overrides, one per value of the named compare grids, or [{}]."""
    return [{_GRIDS[key]: value} for key in keys for value in getattr(config, key) or ()] or [{}]


def _compare_runs(config: RunConfig) -> list[SearchConfig]:
    """SearchConfig of every run of the compare grid, in run order.  All are
    built before the first run, so a bad value fails fast."""
    budgets = _grid(config, "budgets_seconds", "budgets_evaluations")
    cells = itertools.product(_grid(config, "algorithms"), budgets, (True, False), _grid(config, "seeds"))
    return [config.search_config(**algo, **budget, **seed, use_pas_objective=pas) for algo, budget, pas, seed in cells]


def _front_points(front: ParetoFront) -> np.ndarray:
    rows = [objective_vector(ind.metrics, True) for ind in front.individuals if ind.valid]
    return np.array(rows) if rows else np.empty((0, 4))


def _reference_point(fronts: list[ParetoFront]) -> np.ndarray:
    nonempty = [p for p in (_front_points(f) for f in fronts) if p.size]
    if not nonempty:
        raise ConfigError("no run produced a valid individual; cannot build a reference point")
    stacked = np.vstack(nonempty)
    worst = stacked.max(axis=0)
    best = stacked.min(axis=0)
    span = worst - best
    margin = np.where(span > 0, 0.1 * span, 0.1 * np.maximum(1.0, np.abs(worst)))
    return worst + margin


def cmd_compare(args) -> int:
    config = load_config(args.config)
    grid = _compare_runs(config)
    arch = _load_model(config.model)
    out_dir = Path(config.output_dir)

    runs: list[tuple[dict, ParetoFront]] = []
    for search in grid:
        front = run(arch, search)
        meta = front.metadata
        write_front(front, out_dir / "runs" / _run_id_from_meta(meta))
        key = {
            "algorithm": meta["algorithm"],
            "budget": _budget_label(vars(search)),
            "pas_objective": "with" if search.use_pas_objective else "without",
            "seed": meta["seed"],
        }
        runs.append((key, front))

    fronts = [front for _, front in runs]
    reference = _reference_point(fronts)
    rows = []
    for key, front in runs:
        points = _front_points(front)
        best_perfq = max((ind.metrics.perfq for ind in front.individuals if ind.valid), default=float("nan"))
        best_rel = max((ind.metrics.reliability for ind in front.individuals if ind.valid), default=float("nan"))
        rows.append(
            {
                **key,
                "hypervolume": hypervolume(points, reference) if points.size else 0.0,
                "front_size": len(front.individuals),
                "best_perfQ": best_perfq,
                "best_reliability": best_rel,
                "evaluations": front.metadata["evaluations_used"],
            }
        )

    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "compare.csv", "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=COMPARE_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)

    summary = _summarize(rows)
    with open(out_dir / "summary.csv", "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(summary[0].keys()), lineterminator="\n")
        writer.writeheader()
        writer.writerows(summary)

    print(f"reference point: {[round(float(v), 6) for v in reference]}")
    header = f"{'algorithm':<10} {'budget':<8} {'pas':<8} {'median HV':>12} {'median evals':>13} {'best perfQ':>11}"
    print(header)
    print("-" * len(header))
    for row in summary:
        print(
            f"{row['algorithm']:<10} {row['budget']:<8} {row['pas_objective']:<8} "
            f"{row['median_hypervolume']:>12.6f} {row['median_evaluations']:>13.1f} {row['median_best_perfQ']:>11.6f}"
        )
    print(f"wrote {out_dir / 'compare.csv'} and {out_dir / 'summary.csv'}")
    return EXIT_OK


def _summarize(rows: list[dict]) -> list[dict]:
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["algorithm"], row["budget"], row["pas_objective"]), []).append(row)
    summary = []
    for (algorithm, budget, pas_objective), members in groups.items():
        # the median of each per-run measure, in compare.csv's column order
        medians = {f"median_{col}": statistics.median(m[col] for m in members) for col in COMPARE_COLUMNS[4:]}
        summary.append(
            {"algorithm": algorithm, "budget": budget, "pas_objective": pas_objective, **medians, "seeds": len(members)}
        )
    return summary


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="archopt",
        description="Search refactoring plans that trade off performance, reliability, antipatterns and change size.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="enable info logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check an architecture document")
    p_validate.add_argument("model", help="architecture JSON file")

    p_eval = sub.add_parser("eval", help="evaluate one architecture (optionally after a refactoring sequence)")
    p_eval.add_argument("model", help="architecture JSON file")
    p_eval.add_argument("sequence", nargs="?", help="refactoring sequence JSON file")
    p_eval.add_argument("--config", help="run config JSON (for brf table / thresholds)")
    p_eval.add_argument("--json", action="store_true", help="machine-readable output")

    p_opt = sub.add_parser("optimize", help="run one optimization and write front.csv / front.json")
    p_opt.add_argument("--config", required=True, help="run config JSON file")

    p_cmp = sub.add_parser("compare", help="algorithm x budget x seed grid, with and without the antipattern objective")
    p_cmp.add_argument("--config", required=True, help="run config JSON file with algorithms/budgets/seeds lists")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    handlers = {"validate": cmd_validate, "eval": cmd_eval, "optimize": cmd_optimize, "compare": cmd_compare}
    try:
        return handlers[args.command](args)
    except OSError as exc:  # a missing or unreadable file
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, ModelFormatError, InfeasibleActionError, NoFeasibleActionError, SolverError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
