"""The README's library examples run as written, and its model-format table is the program's."""

import json
import re
from pathlib import Path

from archopt.model import _FIELDS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_examples_run_in_order():
    # each python block builds on the names of the ones before it
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 3
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def format_row(element: type, key: str, field) -> str:
    """The README row of one field of ``model._FIELDS``."""
    names = {float: "number", int: "integer", str: "string", tuple: "pair of node ids", dict: "object: component id → node id"}
    kind = f"list of `{field.type.__name__}`" if field.type in _FIELDS else names[field.type]
    default = "required" if field.default is None else f"`{json.dumps(field.default)}`"
    rule = f"`{field.rule}`: {field.bound}" if field.rule else ""
    return f"| `{element.__name__}` | `{key}` | {kind} | {default} | {rule} |"


def test_model_format_table_is_the_field_table():
    section = README.read_text().split("\n## Model format\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    assert rows == [format_row(element, key, field) for element, fields in _FIELDS.items() for key, field in fields.items()]
