"""E-decompositions against frozen answers.

tests/data/e_reference.json was written by tests/data/make_e_reference.py
with the basis change on classical products of the transition engine, before
the Pieri rule replaced them.  Every a_K of S_3 to S_6 must still come out
the same, in the same order.  All of S_7 is pinned by the sha256 of the same
lists in one JSON array, in the order of `all_permutations`.
"""
import hashlib
import json
from pathlib import Path

import pytest

from qschubert import all_permutations, e_decomposition

DATA = json.loads(
    (Path(__file__).parent / "data" / "e_reference.json").read_text("utf-8")
)
S7_DIGEST = "7ae9cd98b590a176a39f671f486a8d03af5c2732e63c95e8bb516afd0293cc80"


def perm(text):
    return tuple(int(a) for a in text.split(","))


@pytest.mark.parametrize("group", DATA["groups"], ids=lambda g: f"S{g['n']}")
def test_e_decompositions_match_reference(group):
    n, entries = group["n"], group["entries"]
    assert sorted(map(perm, entries)) == sorted(all_permutations(n))
    for text, want in entries.items():
        got = [[list(seq), a] for seq, a in e_decomposition(perm(text)).coeffs.items()]
        assert got == want, text


def test_s7_decompositions_match_digest(fresh_engines):
    got = [[list(w), [[list(seq), a]
                      for seq, a in e_decomposition(w).coeffs.items()]]
           for w in all_permutations(7)]
    assert hashlib.sha256(json.dumps(got).encode()).hexdigest() == S7_DIGEST
