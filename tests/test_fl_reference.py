"""Products of Fl_3, Fl_4 and a seeded Fl_5 sample against frozen answers.

tests/data/fl_reference.json was written by tests/data/make_fl_reference.py
with the echelon-slice engine that expanded QH*(Fl_n) before the staircase
normal form replaced it; every entry must still come out the same.
"""
import json
from pathlib import Path

import pytest

from qschubert import QuantumRing, length

DATA = json.loads(
    (Path(__file__).parent / "data" / "fl_reference.json").read_text("utf-8")
)


def perm(text):
    return tuple(int(a) for a in text.split(","))


def as_terms(cls):
    return [[list(d), ",".join(map(str, w)), c] for (d, w), c in cls.items()]


@pytest.mark.parametrize("table", DATA["tables"], ids=lambda t: f"Fl{t['n']}")
def test_products_match_reference(table):
    ring = QuantumRing(table["n"])
    for e in table["entries"]:
        u, v = perm(e["u"]), perm(e["v"])
        assert as_terms(ring.quantum_product(u, v)) == e["quantum"], (u, v)
        assert as_terms(ring.classical_product(u, v)) == e["classical"], (u, v)


def test_reference_covers_full_tables_and_fl5_degrees_to_16():
    sizes = {t["n"]: len(t["entries"]) for t in DATA["tables"]}
    assert sizes == {3: 21, 4: 300, 5: 40}
    fl5 = next(t for t in DATA["tables"] if t["n"] == 5)
    degrees = {length(perm(e["u"])) + length(perm(e["v"])) for e in fl5["entries"]}
    assert degrees == set(range(17))
