"""Bundled synthetic case-study models: a small web shop and a larger
service landscape, both built so the initial deployment saturates one
node (at least one antipattern fires) while idle capacity leaves room
for improving refactorings."""

from __future__ import annotations

import errno
from importlib import resources
from pathlib import Path

from ..model import Architecture, load

NAMES = ("small", "large")


def path(name: str) -> Path:
    """The bundled model file of case study ``name``; an unknown name has
    none, so raises ``FileNotFoundError`` like any missing model file."""
    if name not in NAMES:
        known = ", ".join(f"casestudy:{known}" for known in NAMES)
        raise FileNotFoundError(errno.ENOENT, f"unknown case study, expected one of {known}", f"casestudy:{name}")
    return Path(str(resources.files(__package__) / f"casestudy-{name}.json"))


def load_case_study(name: str) -> Architecture:
    return load(path(name).read_text())


def sample_sequence_path() -> Path:
    """A hand-written feasible refactoring plan for the small case study."""
    return Path(str(resources.files(__package__) / "sample-sequence-small.json"))
