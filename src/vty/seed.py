"""Curated starting registry: ten algorithm classes, four axioms, two theorems.

The registry is data: the packaged manifest ``data/seed_registry.vty``,
read here and nowhere else. Its statuses are editable by a curator, not
derivations. Citations point at the standard literature; the register
machine and finite automaton rows carry executable evidence instead,
wired to the named witnesses in this package. The file is looked up once,
at import; every call reads and parses it afresh, so no two calls share
an object (the axiom declarations and a profile's statuses are dicts).
"""

from __future__ import annotations

from importlib import resources
from typing import Mapping

from .manifest import Manifest, parse_manifest
from .projection import AxiomDeclaration, ClassProfile, TheoremRecord

SEED_MANIFEST_LABEL = "seed_registry.vty"
# the packaged file, looked up once; its text is read on every call
_SEED_FILE = resources.files("vty").joinpath("data/seed_registry.vty")


def seed_manifest(bounds: Mapping[str, int] | None = None) -> Manifest:
    """The packaged registry, read afresh; `bounds` entries stand in for its bounds line."""
    text = _SEED_FILE.read_text("utf-8")
    return parse_manifest(text, source=SEED_MANIFEST_LABEL, bounds=bounds)


def seed_registry() -> tuple[ClassProfile, ...]:
    """The ten classes in declaration order; an absent status means UNKNOWN."""
    return seed_manifest().registry()[0]


def seed_theorems() -> tuple[TheoremRecord, ...]:
    return seed_manifest().registry()[1]


def seed_axiom_declarations() -> dict[str, AxiomDeclaration]:
    return seed_manifest().registry()[2]
