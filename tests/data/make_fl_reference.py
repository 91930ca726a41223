"""Write fl_reference.json: quantum and classical products of flag manifolds.

    PYTHONPATH=src python3 tests/data/make_fl_reference.py [--seed 2001] [OUT]

The file holds one table per ring, with one entry per unordered pair:
  - the full Fl_3 and Fl_4 product tables and a seeded sample of Fl_5 pairs,
    taken round-robin over the degrees ℓ(u) + ℓ(v) from 0 to FL5_MAX_DEGREE;
  - the full tables of the flag shapes in FULL_SHAPES and a seeded sample of
    PARTIAL_SAMPLE pairs of each shape in SAMPLED_SHAPES, round-robin over
    all their degrees.
tests/test_fl_reference.py checks the package against every entry.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from qschubert import (
    FlagShape,
    all_permutations,
    length,
    partial_ring,
    quantum_ring,
    sn_elements,
)

FL5_SAMPLE = 40
# the echelon-slice engine that wrote the file needs about 8 minutes up to
# degree 16; with degrees 17 to 20 it had not finished after 55 CPU minutes
FL5_MAX_DEGREE = 16
FULL_SHAPES = ("2:4", "2:5", "1:3:4", "2:6", "1:2:3:4")
SAMPLED_SHAPES = ("3:6", "1:3:5")
PARTIAL_SAMPLE = 40


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


def all_pairs(basis):
    return [(u, v) for i, u in enumerate(basis) for v in basis[i:]]


def sampled_pairs(basis, count, seed, max_degree):
    """`count` unordered pairs, one per degree in turn, seeded within a degree."""
    rng = random.Random(seed)
    by_degree = {}
    for u, v in all_pairs(basis):
        if length(u) + length(v) <= max_degree:
            by_degree.setdefault(length(u) + length(v), []).append((u, v))
    for bucket in by_degree.values():
        rng.shuffle(bucket)
    out = []
    while len(out) < count:
        for degree in sorted(by_degree):
            if by_degree[degree] and len(out) < count:
                out.append(by_degree[degree].pop())
    return sorted(out, key=lambda uv: (length(uv[0]) + length(uv[1]), uv))


def inputs(seed):
    """(table key, ring, pairs) for every table, in file order."""
    for n in (3, 4):
        yield {"n": n}, quantum_ring(n), all_pairs(all_permutations(n))
    yield ({"n": 5}, quantum_ring(5),
           sampled_pairs(all_permutations(5), FL5_SAMPLE, seed, FL5_MAX_DEGREE))
    for text in FULL_SHAPES + SAMPLED_SHAPES:
        shape = FlagShape.from_string(text)
        basis = sn_elements(shape)
        pairs = (all_pairs(basis) if text in FULL_SHAPES else
                 sampled_pairs(basis, PARTIAL_SAMPLE, seed, 2 * shape.dimension))
        yield {"shape": text}, partial_ring(shape), pairs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=2001)
    ap.add_argument("out", nargs="?",
                    default=str(Path(__file__).with_name("fl_reference.json")))
    args = ap.parse_args(argv)
    tables = []
    for key, ring, pairs in inputs(args.seed):
        tables.append({**key, "entries": [entry(ring, u, v) for u, v in pairs]})
        print(f"{key}: {len(pairs)} pairs", file=sys.stderr, flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"seed": args.seed, "tables": tables}, fh, indent=None,
                  separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
