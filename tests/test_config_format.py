"""The field tables of the run config, its ``thresholds`` and ``brf``
objects and the action records against the key-by-key checks they replaced
(``oracle``).  Every mutant of a config document, of a plan file's records
and of a library call's arguments gets the same decision from both, builds
the same configs or actions, and gets the same error text but for the
changes that ``reworded`` lists, one rule per change.

Two decisions changed on purpose.  A config key that another source
overrides (a compare grid, ``use_pas_objective`` in compare, or
``ARCHOPT_SEED`` for ``seed``) is checked all the same, where the old code
never read it; and ``Thresholds`` rejects ``true`` and ``false``, which it
read as 1 and 0.  An integer too large for a float is rejected too; its own
tests hold that, so the mutants here draw none.
"""

import copy
import json
import math
import os
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from archopt import casestudies, cli
from archopt.antipatterns import Thresholds
from archopt.model import _FIELDS, _is_number
from archopt.moea import SearchConfig
from archopt.refactoring import DEFAULT_BRF, ActionKind, sequence_from_records

BASES = {
    "optimize": {
        "model": "casestudy:small",
        "algorithm": "spea2",
        "seed": 5,
        "population": 8,
        "archive_size": 6,
        "sequence_length": 3,
        "crossover_prob": 0.7,
        "mutation_prob": None,
        "divisions": 4,
        "budget_seconds": 10,
        "max_evaluations": 60,
        "use_pas_objective": False,
        "allow_new_nodes": True,
        "brf": {"clone": 1.5},
        "thresholds": {"util_high": 0.9, "blob_share": 2.5},
        "output_dir": "out",
    },
    "compare": {
        "model": "casestudy:small",
        "algorithms": ["nsga2", "pesa2"],
        "budgets_seconds": [5, 10.5],
        "budgets_evaluations": [20],
        "seeds": [1, 2],
        "seed": 3,
        "budget_seconds": 4,
        "population": 8,
        "use_pas_objective": True,
        "output_dir": "cmp",
    },
}
RECORDS = json.loads(casestudies.path("small").with_name("sample-sequence-small.json").read_text())

NUMBERS = [0, 1, 2, 3, 7, -1, -3, 0.5, -0.5, 1.5, 2.0, math.inf, -math.inf, math.nan]
KEYS = sorted({key for table in (cli.RunConfig, SearchConfig, Thresholds) for key in _FIELDS[table]} | {k.value for k in ActionKind})
TEXT = st.sampled_from(["x", "nsga2", "pesa2", "clone", "redeploy", "catalog", "spare", *KEYS])
VALUES = st.one_of(
    st.sampled_from([None, True, False, *NUMBERS]),
    TEXT,
    st.lists(st.one_of(st.sampled_from([None, True, 1, 0.5, -1]), TEXT), max_size=2),
    st.dictionaries(TEXT, st.one_of(st.sampled_from([1, 0.5, math.nan, True]), TEXT), max_size=2),
)


def locations(value, path=()):
    """The path of every value of a JSON document, the document's own first."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from locations(item, path + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutate(doc, data) -> None:
    """Change a number to another, set any value to any, delete a key or list
    item, or add a key to an object, somewhere below the root of ``doc``."""
    action = data.draw(st.sampled_from(["renumber", "set", "delete", "add"]), label="action")
    if action == "add":
        objects = [path for path in locations(doc) if isinstance(at(doc, path), dict)]
        path = data.draw(st.sampled_from(objects), label="object") + (data.draw(st.sampled_from(["extra", *KEYS])),)
    else:
        paths = list(locations(doc))[1:]
        numbers = [path for path in paths if type(at(doc, path)) in (int, float)]
        path = data.draw(st.sampled_from(numbers if action == "renumber" and numbers else paths), label="path")
    container, key = at(doc, path[:-1]), path[-1]
    if action == "delete":
        del container[key]
    else:
        container[key] = data.draw(st.sampled_from(NUMBERS) if action == "renumber" else VALUES, label="value")


# -- the changed error texts ------------------------------------------------------

EXPECTED = {"int": "an integer", "float": "a number", "bool": "bool", "str": "str", "list": "list"}


def type_name(value) -> str:
    return type(value).__name__


def first_wrong_item(values, item_kind: str) -> int:
    fits = {"int": lambda v: isinstance(v, int) and not isinstance(v, bool), "float": _is_number, "str": lambda v: isinstance(v, str)}
    return next(i for i, v in enumerate(values) if not fits[item_kind](v))


def reworded(old: str, doc: dict, prefix: str = "$") -> str:
    """The error text a field table gives where the key-by-key checks gave
    ``old`` on the config document (or library arguments) ``doc``: a value's
    path in place of its name, the table's bound texts, and one text for a
    key no table lists, a missing key and a value of the wrong type."""
    rules = [
        # load_config: the document
        (r".*: required key 'model' is missing", lambda m: "$.model: required key is missing"),
        (r".*: unknown config keys \['(\w+)'\]", lambda m: f"$.{m[1]}: unknown key"),
        (r"brf: must be an object of action kind -> factor, got .*", lambda m: "$.brf: expected an object"),
        (r"brf: unknown action kind '(.*)'", lambda m: f"$.brf.{m[1]}: unknown key"),
        (r"thresholds: must be an object of name -> number, got .*", lambda m: thresholds_text(doc["thresholds"])),
        (r"thresholds: Thresholds.__init__\(\) got an unexpected keyword argument '(\w+)'", lambda m: f"$.thresholds.{m[1]}: unknown key"),
        (r"thresholds: need 0 <= util_low < util_high <= 1, got .*", lambda m: utils_text(doc["thresholds"], "$.thresholds")),
        (r"thresholds: (\w+) must be a positive finite number, got .*", lambda m: f"$.thresholds.{m[1]} must be > 0, got {doc['thresholds'][m[1]]!r}"),
        (r"(\w+) must be a non-empty list", lambda m: f"$.{m[1]} must be a non-empty list, got []"),
        (r"(algorithms|seeds|budgets_\w+) must be of type list\[(\w+)\], got .*", lambda m: grid_text(m[1], m[2], doc[m[1]])),
        # SearchConfig and Thresholds: each argument
        (r"(\w+) must be of type (int|float|bool|str)( \| None)?, got .*", lambda m: f"{prefix}.{m[1]}: expected {EXPECTED[m[2]]}, got {type_name(doc[m[1]])}"),
        (r"(sequence_length|archive_size|divisions) must be >= 1, got (.*)", lambda m: f"{prefix}.{m[1]} must be an integer >= 1, got {m[2]}"),
        (r"(crossover_prob|mutation_prob) must be in \[0, 1\], got (.*)", lambda m: f"{prefix}.{m[1]} must be in [0, 1], got {m[2]}"),
        (r"(seed|max_evaluations) must be >= 0, got (.*)", lambda m: f"{prefix}.{m[1]} must be >= 0, got {m[2]}"),
        (r"budget_seconds must be (?:>= 0|finite), got (.*)", lambda m: f"{prefix}.budget_seconds must be finite and >= 0, got {budget(m[1], doc)}"),
        (r"brf must be of type dict\[ActionKind, float\], got (.*)", lambda m: f"brf must have a factor for each of {[k.value for k in ActionKind]}, got {m[1]}"),
        (r"brf\.(\w+): factor must be a positive finite number, got .*", lambda m: factor_text(doc["brf"])),
        (r"thresholds must be of type Thresholds, got .*", lambda m: f"$.thresholds: expected Thresholds, got {type_name(doc['thresholds'])}"),
        (r"need 0 <= util_low < util_high <= 1, got .*", lambda m: utils_text(doc, prefix)),
        (r"(blob_share|paf_demand_share) must be a positive finite number, got .*", lambda m: f"{prefix}.{m[1]} must be > 0, got {doc[m[1]]!r}"),
    ]
    for pattern, new in rules:
        match = re.fullmatch(pattern, old)
        if match:
            return new(match)
    return old  # unchanged


def thresholds_text(raw) -> str:
    if not isinstance(raw, dict):
        return "$.thresholds: expected an object"
    unknown = [key for key in raw if key not in _FIELDS[Thresholds]]
    if unknown:
        return f"$.thresholds.{unknown[0]}: unknown key"
    key = next(key for key in _FIELDS[Thresholds] if key in raw and not _is_number(raw[key]))
    return f"$.thresholds.{key}: expected a number, got {type_name(raw[key])}"


def utils_text(raw: dict, prefix: str) -> str:
    """A config's thresholds are read as floats; a library caller's are kept as given."""
    values = {key: raw.get(key, getattr(Thresholds(), key)) for key in ("util_high", "util_low")}
    for key, value in values.items():
        if not 0.0 <= value <= 1.0:
            return f"{prefix}.{key} must be in [0, 1], got {value!r}"
    low, high = (values[key] if prefix == "$" else float(values[key]) for key in ("util_low", "util_high"))
    return f"util_low must be below util_high, got {low!r} and {high!r}"


def grid_text(grid: str, item_kind: str, values) -> str:
    if not isinstance(values, list):
        return f"$.{grid}: expected list, got {type_name(values)}"
    i = first_wrong_item(values, item_kind)
    return f"$.{grid}[{i}]: expected {EXPECTED[item_kind]}, got {type_name(values[i])}"


def factor_text(brf: dict) -> str:
    """The first factor out of its bound, in action kind order (the old code took the table's order)."""
    for kind in ActionKind:
        factor = brf.get(kind.value, brf.get(kind, DEFAULT_BRF[kind]))
        if not _is_number(factor):
            return f"$.brf.{kind.value}: expected a number, got {type_name(factor)}"
        if not 0 < factor < math.inf:
            return f"$.brf.{kind.value} must be > 0, got {factor!r}"
    raise AssertionError("no factor is out of its bound")


def budget(value: str, doc: dict) -> str:
    """A budget as the old text printed it: the config key's as given, a compare grid's read as a float."""
    return value if str(doc.get("budget_seconds")) == value else repr(float(value))


# -- outcomes -------------------------------------------------------------------------


def plain(config) -> dict:
    """A search config, the program's or the oracle's, as comparable plain values."""
    values = {f.name: getattr(config, f.name) for f in fields(config)}
    values["thresholds"] = {f.name: getattr(values["thresholds"], f.name) for f in fields(values["thresholds"])}
    values["brf"] = {ActionKind(kind).value: factor for kind, factor in values["brf"].items()}
    return values


def run_plain(config) -> dict:
    return {key: list(value) if isinstance(value, tuple) else value for key, value in vars(config).items() if key != "search"}


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("config-format") / "config.json"


def config_outcome(path, doc: dict, env_seed, load, mode: str):
    """The run part and search configs that ``load`` builds from ``doc``, written to ``path``, or
    its error text."""
    path.write_text(json.dumps(doc))
    saved = os.environ.pop("ARCHOPT_SEED", None)
    if env_seed is not None:
        os.environ["ARCHOPT_SEED"] = env_seed
    try:
        config = load(str(path))
        searches = [config.search_config()] if mode == "optimize" else cli._compare_runs(config)
        return run_plain(config), [plain(search) for search in searches]
    except ValueError as error:
        return str(error)
    finally:
        os.environ.pop("ARCHOPT_SEED", None)
        if saved is not None:
            os.environ["ARCHOPT_SEED"] = saved


def overridden(doc: dict, env_seed, mode: str) -> list[str]:
    """The config keys whose values another source replaces."""
    keys = [cli._GRIDS[grid] for grid in cli._GRIDS if grid in doc and doc[grid] is not None] if mode == "compare" else []
    keys += ["use_pas_objective"] * (mode == "compare") + ["seed"] * (env_seed is not None)
    return [key for key in keys if key in doc]


@settings(deadline=None)
@given(mode=st.sampled_from(sorted(BASES)), env_seed=st.sampled_from([None, "7"]), data=st.data())
def test_config_tables_match_the_key_by_key_checks(path, mode, env_seed, data):
    doc = copy.deepcopy(BASES[mode])
    mutate(doc, data)
    new = config_outcome(path, doc, env_seed, cli.load_config, mode)
    old = config_outcome(path, doc, env_seed, oracle.load_config, mode)
    if isinstance(old, str) or not isinstance(new, str):
        assert new == (reworded(old, doc) if isinstance(old, str) else old)
        return
    # a value that another source overrides is checked all the same: the error
    # is the one its key gets where nothing overrides it
    alone = {key: value for key, value in doc.items() if key not in cli._GRIDS}
    alone.setdefault("max_evaluations", 1)  # the budget rule precedes the range checks
    old_alone = config_outcome(path, alone, None, oracle.load_config, "optimize")
    assert overridden(doc, env_seed, mode) and isinstance(old_alone, str)
    assert new == reworded(old_alone, alone)


def records_outcome(records, parse):
    try:
        return parse(records)
    except ValueError as error:
        return str(error)


@settings(deadline=None)
@given(data=st.data())
def test_action_record_table_matches_the_key_by_key_checks(data):
    records = copy.deepcopy(RECORDS)
    if data.draw(st.booleans(), label="replace a record"):
        records[data.draw(st.integers(0, len(records) - 1))] = data.draw(VALUES)
    else:
        mutate(records, data)
    expected = records_outcome(records, lambda rs: tuple(oracle.action_from_dict(r) for r in rs))
    assert records_outcome(records, sequence_from_records) == expected  # no record text changed


LIBRARY_VALUES = st.one_of(
    VALUES,
    st.sampled_from([np.int64(3), np.float64(0.5), 10**20]),
    st.dictionaries(st.sampled_from(list(ActionKind)), st.sampled_from([1.5, 0.0, -1.0, math.nan, math.inf, True, "1.5"]), max_size=4),
    st.just(dict(DEFAULT_BRF)).map(lambda brf: {**brf, "bogus": 1.0}),
)


def library_outcome(build, kwargs):
    try:
        return plain(build(**kwargs)) if build in (SearchConfig, oracle.SearchConfigByHand) else vars(build(**kwargs))
    except (TypeError, ValueError) as error:
        return f"{type(error).__name__}: {error}"


@settings(deadline=None)
@given(key=st.sampled_from([key for key in _FIELDS[SearchConfig] if key != "thresholds"]), value=LIBRARY_VALUES)
def test_search_config_arguments_match_the_key_by_key_checks(key, value):
    kwargs = {"max_evaluations": 10, key: value}
    old = library_outcome(oracle.SearchConfigByHand, kwargs)
    expected = f"ValueError: {reworded(old.removeprefix('ValueError: '), kwargs)}" if isinstance(old, str) else old
    assert library_outcome(SearchConfig, kwargs) == expected


@settings(deadline=None)
@given(key=st.sampled_from(list(_FIELDS[Thresholds])), value=LIBRARY_VALUES)
def test_thresholds_arguments_match_the_key_by_key_checks(key, value):
    kwargs = {key: value}
    old = library_outcome(oracle.ThresholdsByHand, kwargs)
    if not _is_number(value):
        # a bool was read as 1 or 0, and a string failed a comparison with a TypeError
        assert library_outcome(Thresholds, kwargs) == f"ValueError: $.{key}: expected a number, got {type_name(value)}"
    else:
        expected = f"ValueError: {reworded(old.removeprefix('ValueError: '), kwargs)}" if isinstance(old, str) else old
        assert library_outcome(Thresholds, kwargs) == expected


@pytest.mark.parametrize("mode", sorted(BASES))
def test_bases_are_accepted(path, mode):
    # the mutants start from documents both accept
    for load in (cli.load_config, oracle.load_config):
        assert not isinstance(config_outcome(path, BASES[mode], None, load, mode), str)
