"""Products of flag manifolds against frozen answers.

tests/data/fl_reference.json was written by tests/data/make_fl_reference.py.
Its Fl_3, Fl_4 and Fl_5 tables come from the echelon-slice engine that
expanded QH*(Fl_n) before the staircase normal form replaced it; its tables
of partial flag shapes come from the echelon-slice engine that expanded
QH*(Fl(N)) before the Gröbner-basis normal form replaced it.  Every entry
must still come out the same.
"""
import json
from pathlib import Path

import pytest

from qschubert import FlagShape, PartialRing, QuantumRing, length

DATA = json.loads(
    (Path(__file__).parent / "data" / "fl_reference.json").read_text("utf-8")
)


def perm(text):
    return tuple(int(a) for a in text.split(","))


def as_terms(cls):
    return [[list(d), ",".join(map(str, w)), c] for (d, w), c in cls.items()]


def table_id(table):
    return f"Fl{table['n']}" if "n" in table else table["shape"]


@pytest.mark.parametrize("table", DATA["tables"], ids=table_id)
def test_products_match_reference(table):
    if "n" in table:
        ring = QuantumRing(table["n"])
    else:
        ring = PartialRing(FlagShape.from_string(table["shape"]))
    for e in table["entries"]:
        u, v = perm(e["u"]), perm(e["v"])
        assert as_terms(ring.quantum_product(u, v)) == e["quantum"], (u, v)
        assert as_terms(ring.classical_product(u, v)) == e["classical"], (u, v)


def degrees(table):
    return {length(perm(e["u"])) + length(perm(e["v"])) for e in table["entries"]}


def test_reference_covers_full_tables_and_fl5_degrees_to_16():
    sizes = {table_id(t): len(t["entries"]) for t in DATA["tables"]}
    assert sizes == {
        "Fl3": 21, "Fl4": 300, "Fl5": 40,
        "2:4": 21, "2:5": 55, "1:3:4": 78, "2:6": 120, "1:2:3:4": 300,
        "3:6": 40, "1:3:5": 40,
    }
    tables = {table_id(t): t for t in DATA["tables"]}
    assert degrees(tables["Fl5"]) == set(range(17))
    for text in ("3:6", "1:3:5"):
        dim = FlagShape.from_string(text).dimension
        assert degrees(tables[text]) == set(range(2 * dim + 1)), text
