"""The field table of ``model`` against the field-by-field format code it
replaced (``oracle``): every mutant of a case-study document gets the same
error text from both, or the same violations, ``save()`` text and digest."""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from archopt import casestudies
from archopt.model import ModelFormatError, digest, load, save, validate

# sorted keys, as save() writes every document
BASES = {name: json.loads(save(casestudies.load_case_study(name))) for name in casestudies.NAMES}


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


KEYS = sorted({path[-1] for doc in BASES.values() for path in locations(doc) if path and isinstance(path[-1], str)})
STRINGS = sorted({at(doc, path) for doc in BASES.values() for path in locations(doc) if isinstance(at(doc, path), str)})
TEXT = st.sampled_from(["x", *STRINGS])
NUMBERS = [0, 1, 3, -1, 0.5, -0.5, 1.5, math.inf, -math.inf, math.nan]
VALUES = st.one_of(
    st.sampled_from([None, True, False, *NUMBERS]),
    TEXT,
    st.lists(st.sampled_from([None, 1, 0.5]), max_size=2),
    st.lists(TEXT, min_size=1, max_size=2),  # a one- or two-item pair
    st.dictionaries(TEXT, TEXT, max_size=1),
)


def mutate(doc, data) -> None:
    """Change a number to another, set any value to any, delete a key or list
    item, or add a key to an object, somewhere in ``doc``."""
    action = data.draw(st.sampled_from(["renumber", "set", "delete", "add"]), label="action")
    if action == "add":
        objects = [path for path in locations(doc) if isinstance(at(doc, path), dict)]
        path = data.draw(st.sampled_from(objects), label="object") + (data.draw(st.sampled_from(["extra", *KEYS])),)
    else:
        # below the root; a number is where every range rule and most type errors are
        paths = list(locations(doc))[1:]
        numbers = [path for path in paths if type(at(doc, path)) in (int, float)]
        path = data.draw(st.sampled_from(numbers if action == "renumber" and numbers else paths), label="path")
    container, key = at(doc, path[:-1]), path[-1]
    if action == "delete":
        del container[key]
    else:
        container[key] = data.draw(st.sampled_from(NUMBERS) if action == "renumber" else VALUES, label="value")


def outcome(text: str, parse, validate, save, digest):
    try:
        arch = parse(text)
    except ModelFormatError as error:
        return str(error)
    return validate(arch), save(arch), digest(arch)


@settings(deadline=None)
@given(name=st.sampled_from(sorted(BASES)), mutations=st.integers(1, 3), data=st.data())
def test_field_table_matches_the_field_by_field_format(name, mutations, data):
    doc = json.loads(json.dumps(BASES[name]))
    for _ in range(mutations):
        mutate(doc, data)
    text = json.dumps(doc)
    expected = outcome(text, lambda t: oracle.from_dict(json.loads(t)), oracle.validate, oracle.save, oracle.digest)
    assert outcome(text, lambda t: load(t, check=False), validate, save, digest) == expected
