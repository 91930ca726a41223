"""Basis expansions of random polynomials against frozen answers.

tests/data/expand_reference.json was written by
tests/data/make_expand_reference.py with the Gröbner-basis normal form and
peel that expanded every flag ring before Horner's rule over the generator
classes replaced them.  Every entry must still come out the same.
"""
import json
from pathlib import Path

import pytest

from qschubert import FlagShape, PartialRing, Polynomial, QuantumRing

DATA = json.loads(
    (Path(__file__).parent / "data" / "expand_reference.json").read_text("utf-8")
)


def as_terms(cls):
    return [[list(d), ",".join(map(str, w)), c] for (d, w), c in cls.items()]


@pytest.mark.parametrize("block", DATA["rings"], ids=lambda b: b["ring"])
def test_expansions_match_reference(block):
    text = block["ring"]
    ring = (PartialRing(FlagShape.from_string(text)) if ":" in text
            else QuantumRing(int(text)))
    kill = {("q", l): 0 for l in range(1, ring.q_count + 1)}
    for e in block["entries"]:
        p = Polynomial.from_json_obj(e["poly"])
        assert as_terms(ring.expand_in_quantum_basis(p)) == e["quantum"], p
        assert as_terms(ring.expand_classical(p.substitute(kill))) == \
            e["classical"], p


def test_reference_covers_six_rings_with_quantum_terms():
    assert [b["ring"] for b in DATA["rings"]] == [
        "3", "4", "2:4", "1:3:4", "2:5", "2:6"]
    for block in DATA["rings"]:
        assert len(block["entries"]) == 20
        assert any(any(t[0]) for e in block["entries"] for t in e["quantum"])
