"""The README's library examples run as written, and its model-format and run-config tables are the program's."""

import json
import re
from dataclasses import MISSING
from pathlib import Path
from types import GenericAlias, UnionType

from archopt.antipatterns import Thresholds
from archopt.cli import RunConfig
from archopt.model import _FIELDS, Architecture, CallStep, Component, NetworkLink, Operation, ProcessorNode, UsageScenario
from archopt.moea import SearchConfig
from archopt.refactoring import brf_table

README = Path(__file__).resolve().parent.parent / "README.md"

MODEL = (Architecture, Component, Operation, ProcessorNode, NetworkLink, UsageScenario, CallStep)
CONFIG = (RunConfig, SearchConfig, Thresholds, brf_table)


def test_library_examples_run_in_order():
    # each python block builds on the names of the ones before it
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 3
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def type_text(kind) -> str:
    names = {float: "number", int: "integer", bool: "boolean", str: "string", tuple: "pair of node ids", dict: "object: component id → node id"}
    if type(kind) is UnionType:
        return type_text(kind.__args__[0]) + ", or null"
    if type(kind) is GenericAlias:
        item = kind.__args__[0]
        return f"list of `{item.__name__}`" if item in _FIELDS else f"list of {type_text(item)}"
    return f"object: `{kind.__name__}`" if kind in _FIELDS else names[kind]


def default_text(element, key: str, field) -> str:
    """The JSON value an absent key reads as: the table's default, else the class's, where an
    element built by a default factory reads as its empty object."""
    if field.default is not None:
        return f"`{json.dumps(field.default)}`"
    own = element.__dataclass_fields__[field.attr or key]
    if own.default is not MISSING:
        return f"`{json.dumps(own.default)}`"
    return "required" if own.default_factory is MISSING else "`{}`"


def format_row(element, key: str, field) -> str:
    """The README row of one field of ``_FIELDS``."""
    rule = f"`{field.rule}`: {field.bound}" if field.rule else field.bound
    return f"| `{element.__name__}` | `{key}` | {type_text(field.type)} | {default_text(element, key, field)} | {rule} |"


def table_rows(heading: str) -> list[str]:
    section = README.read_text().split(f"\n{heading}\n", 1)[1].split("\n#", 1)[0]
    return [line for line in section.splitlines() if line.startswith("| `")]


def test_model_format_table_is_the_field_table():
    assert table_rows("## Model format") == [format_row(e, key, field) for e in MODEL for key, field in _FIELDS[e].items()]


def test_run_config_table_is_the_field_table():
    assert table_rows("### optimize") == [format_row(e, key, field) for e in CONFIG for key, field in _FIELDS[e].items()]
