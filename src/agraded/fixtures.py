"""Named reference data: matrices, ideals and expected results.

The JSON documents under ``data/`` hold the catalogue of known-answer
examples; this module loads them and builds the associated objects.
"""

import json
from functools import lru_cache
from importlib import resources

from .binomials import canonical_pair
from .errors import UnknownName
from .grading import validate_grading
from .monomials import minimalize


@lru_cache(maxsize=None)
def _load(name):
    ref = resources.files("agraded").joinpath("data", f"{name}.json")
    return json.loads(ref.read_text(encoding="utf-8"))


@lru_cache(maxsize=None)
def named_matrix(name):
    rows = _load("matrices").get(name)
    if rows is None:
        raise UnknownName(f"unknown matrix {name!r}")
    return validate_grading(rows)


@lru_cache(maxsize=None)
def named_ideal(name):
    """(matrix, ideal) for a named ideal fixture."""
    rec = _load("ideals").get(name)
    if rec is None:
        raise UnknownName(f"unknown ideal {name!r}")
    matrix = named_matrix(rec["matrix"])
    ideal = minimalize(tuple(map(tuple, rec["generators"])))
    return matrix, ideal


def expected(name):
    rec = _load("expected").get(name)
    if rec is None:
        raise UnknownName(f"unknown expectation {name!r}")
    return rec


def as_pairs(records):
    """JSON [[u, v], ...] into canonical exponent pairs."""
    return {canonical_pair(u, v) for u, v in records}
