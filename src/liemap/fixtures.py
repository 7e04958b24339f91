"""Bundled fixtures: named sl(2) identities and the dominancy witness
matrices, shipped digit-for-digit so tests exercise the transcription."""

from __future__ import annotations

from importlib import resources

from .freelie import LiePoly, parse
from .matrixrep import triples_from_json

POLY_FIXTURES = ("filippov", "razmyslov", "razmyslov_bracket", "example48")
WITNESS_FIXTURES = {"paper-a2": "paper_a2.json", "paper-b2": "paper_b2.json"}


def fixture_text(filename: str) -> str:
    return resources.files("liemap").joinpath("fixtures", filename).read_text()


def load_poly(name: str) -> LiePoly:
    base = name[:-4] if name.endswith(".lie") else name
    if base not in POLY_FIXTURES:
        raise KeyError("unknown polynomial fixture %r (have: %s)"
                       % (name, ", ".join(POLY_FIXTURES)))
    return parse(fixture_text(base + ".lie").strip())


def load_witness_triples(key: str, field):
    """(realization, triple1, triple2) for 'paper-a2' or 'paper-b2'."""
    import json
    if key not in WITNESS_FIXTURES:
        raise KeyError("unknown witness fixture %r (have: %s)"
                       % (key, ", ".join(sorted(WITNESS_FIXTURES))))
    return triples_from_json(json.loads(fixture_text(WITNESS_FIXTURES[key])), field)
