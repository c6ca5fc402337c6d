import csv
import json
from pathlib import Path

import numpy as np
import pytest

from archopt import casestudies
from archopt.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, main
from archopt.model import load, save, to_dict
from archopt.moea import Evaluator, SearchConfig
from archopt.refactoring import RedeployComponent, sequence_from_records, sequence_to_text


SMALL = str(casestudies.path("small"))


def write_config(tmp_path, **overrides):
    config = {
        "model": SMALL,
        "algorithm": "nsga2",
        "seed": 5,
        "population": 8,
        "max_evaluations": 60,
        "output_dir": str(tmp_path / "out"),
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


# -- validate -----------------------------------------------------------------


def test_validate_ok():
    assert main(["validate", SMALL]) == EXIT_OK


def test_validate_reports_violations(tmp_path, capsys):
    doc = to_dict(load(Path(SMALL).read_text()))
    doc["deployment"]["web"] = "n9"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == EXIT_DOMAIN
    out = capsys.readouterr().out
    assert "n9" in out


@pytest.mark.parametrize("command", ["validate", "eval"])
@pytest.mark.parametrize(
    "where, key",
    [("nodes", "speed"), ("links", "latency"), (None, "comment")],
    ids=["node", "link", "root"],
)
def test_unknown_model_key_is_a_domain_error(tmp_path, capsys, command, where, key):
    doc = to_dict(load(Path(SMALL).read_text()))
    (doc if where is None else doc[where][0])[key] = 4.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main([command, str(bad)]) == EXIT_DOMAIN
    path = "$" if where is None else f"$.{where}[0]"
    assert capsys.readouterr().err == f"error: {path}.{key}: unknown key\n"


@pytest.mark.parametrize(
    "where, key, path",
    [
        (("components", 0, "operations", 0), "cpu_demand", "$.components[0].operations[0].cpu_demand"),
        (("nodes", 0), "cores", "$.nodes[0].cores"),
        (("scenarios", 0), "population", "$.scenarios[0].population"),
    ],
    ids=["number", "cores", "population"],
)
def test_an_integer_too_large_for_a_float_is_a_domain_error(tmp_path, capsys, where, key, path):
    # json reads 1 followed by 400 zeros as an int that no float can hold
    doc = to_dict(load(Path(SMALL).read_text()))
    element = doc
    for step in where:
        element = element[step]
    element[key] = 10**400
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == EXIT_DOMAIN
    assert capsys.readouterr().err == f"error: {path}: integer too large for a float\n"


@pytest.mark.parametrize("command", ["validate", "eval", "optimize"])
def test_unknown_case_study_is_a_usage_error(tmp_path, capsys, command):
    model = "casestudy:medium"
    config = ["--config", str(write_config(tmp_path, model=model))]
    assert main([command] + (config if command == "optimize" else [model])) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: casestudy:medium: unknown case study, expected one of casestudy:small, casestudy:large\n"
    )


def test_validate_missing_file_distinct_exit(tmp_path, capsys):
    assert main(["validate", "/nonexistent/model.json"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: /nonexistent/model.json: No such file or directory\n"
    # a path that cannot be read is a usage error too, not a traceback
    assert main(["validate", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"


# -- eval ---------------------------------------------------------------------


def test_eval_without_sequence(capsys):
    assert main(["eval", SMALL]) == EXIT_OK
    out = capsys.readouterr().out
    assert "perfQ:       0.000000" in out
    assert "distance:    0.000000" in out


def test_eval_with_sequence_json(tmp_path, capsys):
    seq_path = tmp_path / "seq.json"
    seq_path.write_text(json.dumps([{"kind": "redeploy", "component": "catalog", "target": "spare"}]))
    assert main(["eval", SMALL, str(seq_path), "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["perfQ"] > 0.0
    # same code path as the evaluator
    evaluator = Evaluator(load(Path(SMALL).read_text()), SearchConfig(max_evaluations=0))
    ind = evaluator.evaluate((RedeployComponent("catalog", "spare"),))
    assert report["perfQ"] == ind.metrics.perfq
    assert report["reliability"] == ind.metrics.reliability


def test_eval_bundled_sample_sequence(capsys):
    seq_path = str(casestudies.sample_sequence_path())
    assert main(["eval", "casestudy:small", seq_path, "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["perfQ"] > 0.0
    assert report["distance"] > 0.0
    evaluator = Evaluator(load(Path(SMALL).read_text()), SearchConfig(max_evaluations=0))
    ind = evaluator.evaluate(sequence_from_records(json.loads(Path(seq_path).read_text())))
    assert report["perfQ"] == ind.metrics.perfq
    assert report["reliability"] == ind.metrics.reliability
    assert report["pas"] == ind.metrics.pas
    assert report["distance"] == ind.metrics.distance


def test_eval_infeasible_sequence_reports_index(tmp_path, capsys):
    seq_path = tmp_path / "seq.json"
    seq_path.write_text(
        json.dumps(
            [
                {"kind": "redeploy", "component": "catalog", "target": "spare"},
                {"kind": "redeploy", "component": "catalog", "target": "spare"},
            ]
        )
    )
    assert main(["eval", SMALL, str(seq_path)]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert "action 1" in err


@pytest.mark.parametrize(
    "records, message",
    [
        ([{"kind": "redeploy", "component": "catalog"}], "missing key 'target'"),
        (["redeploy"], "must be a JSON object"),
        ([{"kind": "redeploy", "component": "catalog", "target": 5}], "'target' must be a string"),
        ([{"kind": "redeploy", "component": "catalog", "target": "spare", "node": "app1"}], "unknown key 'node'"),
        (
            [{"kind": "bogus", "component": "catalog", "target": "spare"}],
            "action record {'kind': 'bogus', 'component': 'catalog', 'target': 'spare'} has unknown kind, "
            "expected one of clone, move_to_new, move_to_component, redeploy",
        ),
    ],
)
def test_eval_malformed_action_record_is_an_error_line(tmp_path, capsys, records, message):
    seq_path = tmp_path / "seq.json"
    seq_path.write_text(json.dumps(records))
    assert main(["eval", SMALL, str(seq_path)]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err


@pytest.mark.parametrize("command", ["optimize", "eval"])
def test_repeated_key_is_a_domain_error(tmp_path, capsys, command):
    # json.loads alone keeps the last of the two
    if command == "optimize":
        config = write_config(tmp_path)
        config.write_text(config.read_text()[:-1] + ', "seed": 6}')
        argv, key = ["optimize", "--config", str(config)], "seed"
    else:
        seq_path = tmp_path / "seq.json"
        seq_path.write_text('[{"kind": "redeploy", "component": "catalog", "target": "spare", "target": "app1"}]')
        argv, key = ["eval", SMALL, str(seq_path)], "target"
    assert main(argv) == EXIT_DOMAIN
    assert capsys.readouterr().err == f"error: duplicate key '{key}'\n"


# -- optimize -----------------------------------------------------------------


def test_optimize_writes_front_files(tmp_path):
    config = write_config(tmp_path)
    assert main(["optimize", "--config", str(config)]) == EXIT_OK
    out_dir = tmp_path / "out"
    front_csv = (out_dir / "front.csv").read_text()
    rows = list(csv.DictReader(front_csv.splitlines()))
    assert rows
    front_json = json.loads((out_dir / "front.json").read_text())
    assert front_json["metadata"]["seed"] == 5
    assert front_json["metadata"]["invalid_by_type"] == {"SolverError": 0, "ValueError": 0}
    assert len(front_json["solutions"]) == len(rows)


def test_optimize_deterministic_csv(tmp_path):
    config_a = write_config(tmp_path, output_dir=str(tmp_path / "a"))
    main(["optimize", "--config", str(config_a)])
    config_b = write_config(tmp_path, output_dir=str(tmp_path / "b"))
    main(["optimize", "--config", str(config_b)])
    assert (tmp_path / "a" / "front.csv").read_bytes() == (tmp_path / "b" / "front.csv").read_bytes()


def test_front_csv_rows_reevaluate_to_stored_objectives(tmp_path):
    config = write_config(tmp_path)
    main(["optimize", "--config", str(config)])
    rows = list(csv.DictReader((tmp_path / "out" / "front.csv").read_text().splitlines()))
    solutions = {s["solution_id"]: s for s in json.loads((tmp_path / "out" / "front.json").read_text())["solutions"]}
    assert sorted(solutions) == sorted(row["solution_id"] for row in rows)
    arch = load(Path(SMALL).read_text())
    evaluator = Evaluator(arch, SearchConfig(max_evaluations=0))
    for row in rows:
        seq = sequence_from_records(solutions[row["solution_id"]]["actions"])
        assert row["actions"] == sequence_to_text(seq)
        ind = evaluator.evaluate(seq)
        assert abs(ind.metrics.perfq - float(row["perfQ"])) <= 1e-9
        assert abs(ind.metrics.reliability - float(row["reliability"])) <= 1e-9
        assert ind.metrics.pas == int(row["pas"])
        assert abs(ind.metrics.distance - float(row["distance"])) <= 1e-9


def test_optimize_seed_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("ARCHOPT_SEED", "99")
    config = write_config(tmp_path)
    main(["optimize", "--config", str(config)])
    meta = json.loads((tmp_path / "out" / "front.json").read_text())["metadata"]
    assert meta["seed"] == 99


def test_optimize_rejects_bad_config(tmp_path, capsys):
    bad = [
        {"max_evaluations": None},
        {"workers": 2},
        {"sequence_length": 0},
        {"archive_size": 0},
        {"divisions": 0},
        {"crossover_prob": 2.0},
        {"mutation_prob": -1},
        {"budget_seconds": -1},
        # a search with no evaluation cap needs a finite time budget
        {"budget_seconds": float("inf"), "max_evaluations": None},
        {"thresholds": 5},
        {"thresholds": {"bogus": 1}},
        {"thresholds": {"util_high": "x"}},
        {"brf": [1, 2]},
        # json writes and reads these as NaN and Infinity
        {"brf": {"clone": float("nan")}},
        {"brf": {"redeploy": float("inf")}},
        {"thresholds": {"blob_share": float("nan")}},
        {"thresholds": {"paf_demand_share": float("inf")}},
        {"population": "32"},
        {"population": 32.0},
        {"sequence_length": 2.0},
        {"seed": "1"},
        {"crossover_prob": "0.5"},
        {"use_pas_objective": "no"},
        {"max_evaluations": 10.5},
        {"seeds": 5},
        {"model": 5},
        {"output_dir": 5},
        {"algorithms": "nsga2"},
        {"seeds": []},
        {"budgets_evaluations": []},
    ]
    for overrides in bad:
        config = write_config(tmp_path, **overrides)
        assert main(["optimize", "--config", str(config)]) == EXIT_DOMAIN, overrides
        assert next(iter(overrides)) in capsys.readouterr().err


def test_seed_env_var_must_be_an_integer(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ARCHOPT_SEED", "x")
    assert main(["optimize", "--config", str(write_config(tmp_path))]) == EXIT_DOMAIN
    assert "ARCHOPT_SEED" in capsys.readouterr().err


def test_compare_rejects_bad_grid_values_before_any_run(tmp_path, capsys):
    # the last two fail only in a later cell, after a valid first one
    bad = [
        ({"budgets_evaluations": [10.5]}, "budgets_evaluations"),
        ({"budgets_evaluations": ["12"]}, "budgets_evaluations"),
        ({"budgets_seconds": ["1"]}, "budgets_seconds"),
        ({"seeds": [1, "2"]}, "seeds"),
        ({"seeds": [1, -1]}, "seed must be >= 0"),
        ({"algorithms": ["nsga2", "bogus"]}, "unknown algorithm 'bogus'"),
    ]
    for overrides, message in bad:
        config = write_config(tmp_path, **overrides)
        assert main(["compare", "--config", str(config)]) == EXIT_DOMAIN, overrides
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["optimize", "compare"])
def test_model_with_no_feasible_action_is_an_error_line(tmp_path, capsys, command):
    # every action's result would keep the unroutable call, so no action is
    # feasible; validation rejects the model first and names the call
    doc = json.loads(Path(SMALL).read_text())
    doc["links"] = []
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    config = write_config(tmp_path, model=str(model), max_evaluations=50)
    assert main([command, "--config", str(config)]) == EXIT_DOMAIN
    assert capsys.readouterr().err == (
        "error: invalid architecture:\n"
        "  - routing: scenario 'browse': call to 'read_record' crosses nodes ('app1', 'app2') "
        "with no connecting link\n"
    )


def test_optimize_missing_config_usage_error(tmp_path, capsys):
    assert main(["optimize", "--config", "/nonexistent/config.json"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: /nonexistent/config.json: No such file or directory\n"
    assert main(["optimize", "--config", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"


# -- compare ------------------------------------------------------------------


def test_compare_grid(tmp_path, capsys):
    config = write_config(
        tmp_path,
        algorithms=["nsga2", "pesa2"],
        budgets_evaluations=[20, 40],
        seeds=[1, 2],
        population=8,
        max_evaluations=None,
    )
    assert main(["compare", "--config", str(config)]) == EXIT_OK
    rows = list(csv.DictReader((tmp_path / "out" / "compare.csv").read_text().splitlines()))
    # 2 algorithms x 2 budgets x 2 seeds x {with, without}
    assert len(rows) == 16
    assert {r["pas_objective"] for r in rows} == {"with", "without"}
    for row in rows:
        assert float(row["hypervolume"]) >= 0.0
    summary = list(csv.DictReader((tmp_path / "out" / "summary.csv").read_text().splitlines()))
    assert len(summary) == 8
    # longer budget never decreases median evaluations
    by_cell = {(r["algorithm"], r["pas_objective"], r["budget"]): float(r["median_evaluations"]) for r in summary}
    for alg in ("nsga2", "pesa2"):
        for mode in ("with", "without"):
            assert by_cell[(alg, mode, "40ev")] >= by_cell[(alg, mode, "20ev")]


def test_compare_labels_runs_with_their_whole_budget(tmp_path, capsys):
    # a time budget from the config joins the evaluation grid's cap
    config = write_config(tmp_path, budget_seconds=60, budgets_evaluations=[20], max_evaluations=None)
    assert main(["compare", "--config", str(config)]) == EXIT_OK
    out = tmp_path / "out"
    for name in ("compare.csv", "summary.csv"):
        rows = list(csv.DictReader((out / name).read_text().splitlines()))
        assert rows and {row["budget"] for row in rows} == {"60s-20ev"}, name
    assert sorted(p.name for p in (out / "runs").iterdir()) == ["nsga2-60s-20ev-3obj-seed5", "nsga2-60s-20ev-4obj-seed5"]
