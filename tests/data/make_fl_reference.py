"""Write fl_reference.json: quantum and classical products of Fl_n.

    PYTHONPATH=src python3 tests/data/make_fl_reference.py [--seed 2001] [OUT]

The file holds the full Fl_3 and Fl_4 product tables (one entry per
unordered pair) and a seeded sample of Fl_5 pairs, taken round-robin over
the degrees ℓ(u) + ℓ(v) from 0 to FL5_MAX_DEGREE.
tests/test_fl_reference.py checks the package against every entry.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from qschubert import all_permutations, length, quantum_ring

FL5_SAMPLE = 40
# the echelon-slice engine that wrote the file needs about 8 minutes up to
# degree 16; with degrees 17 to 20 it had not finished after 55 CPU minutes
FL5_MAX_DEGREE = 16


def perm_text(w):
    return ",".join(map(str, w))


def terms(cls):
    return [[list(d), perm_text(w), c] for (d, w), c in cls.items()]


def entry(ring, u, v):
    return {
        "u": perm_text(u),
        "v": perm_text(v),
        "quantum": terms(ring.quantum_product(u, v)),
        "classical": terms(ring.classical_product(u, v)),
    }


def all_pairs(n):
    basis = all_permutations(n)
    return [(u, v) for i, u in enumerate(basis) for v in basis[i:]]


def sampled_pairs(n, count, seed):
    """`count` unordered pairs, one per degree in turn, seeded within a degree."""
    rng = random.Random(seed)
    by_degree = {}
    for u, v in all_pairs(n):
        if length(u) + length(v) <= FL5_MAX_DEGREE:
            by_degree.setdefault(length(u) + length(v), []).append((u, v))
    for bucket in by_degree.values():
        rng.shuffle(bucket)
    out = []
    while len(out) < count:
        for degree in sorted(by_degree):
            if by_degree[degree] and len(out) < count:
                out.append(by_degree[degree].pop())
    return sorted(out, key=lambda uv: (length(uv[0]) + length(uv[1]), uv))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=2001)
    ap.add_argument("out", nargs="?",
                    default=str(Path(__file__).with_name("fl_reference.json")))
    args = ap.parse_args(argv)
    tables = []
    for n, pairs in ((3, all_pairs(3)), (4, all_pairs(4)),
                     (5, sampled_pairs(5, FL5_SAMPLE, args.seed))):
        ring = quantum_ring(n)
        tables.append({"n": n, "entries": [entry(ring, u, v) for u, v in pairs]})
        print(f"Fl_{n}: {len(pairs)} pairs", file=sys.stderr, flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"seed": args.seed, "tables": tables}, fh, indent=None,
                  separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
