"""Write e_reference.json: the e-decompositions of S_3 to S_6.

    PYTHONPATH=src python3 tests/data/make_e_reference.py [OUT]

For each n in NS the file holds, for every w ∈ S_n, the coefficients a_K of
𝔖_w = Σ a_K·e_{k_1}(1)⋯e_{k_{n−1}}(n−1) as [[k_1, …, k_{n−1}], a_K] pairs,
K in lexicographic order.  tests/test_e_reference.py checks the package
against every entry.  The permutations are decomposed and written in
lexicographic order.
"""
from __future__ import annotations

import argparse
import json
from pathlib import Path

from qschubert import all_permutations, e_decomposition

NS = (3, 4, 5, 6)


def perm_text(w):
    return ",".join(map(str, w))


def entries(n):
    """perm_text(w) → the [[k_1, …, k_{n−1}], a_K] pairs of w, for w ∈ S_n
    in lexicographic order."""
    return {perm_text(w): [[list(seq), a]
                           for seq, a in e_decomposition(w).coeffs.items()]
            for w in all_permutations(n)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", nargs="?",
                    default=str(Path(__file__).with_name("e_reference.json")))
    args = ap.parse_args(argv)
    groups = [{"n": n, "entries": entries(n)} for n in NS]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"groups": groups}, fh, indent=None, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
