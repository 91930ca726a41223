"""E-decompositions against frozen answers.

tests/data/e_reference.json was written by tests/data/make_e_reference.py
with the basis change on classical products of the transition engine, before
the Pieri rule replaced them.  Every a_K of S_3 to S_6 must still come out
the same, in the same order.
"""
import json
from pathlib import Path

import pytest

from qschubert import all_permutations, e_decomposition

DATA = json.loads(
    (Path(__file__).parent / "data" / "e_reference.json").read_text("utf-8")
)


def perm(text):
    return tuple(int(a) for a in text.split(","))


@pytest.mark.parametrize("group", DATA["groups"], ids=lambda g: f"S{g['n']}")
def test_e_decompositions_match_reference(group):
    n, entries = group["n"], group["entries"]
    assert sorted(map(perm, entries)) == sorted(all_permutations(n))
    for text, want in entries.items():
        got = [[list(seq), a] for seq, a in e_decomposition(perm(text)).coeffs.items()]
        assert got == want, text
