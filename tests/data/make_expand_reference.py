"""Write expand_reference.json: basis expansions of random polynomials.

    PYTHONPATH=src python3 tests/data/make_expand_reference.py [--seed 3001] [OUT]

For each ring in RINGS the file holds PER_RING seeded random polynomials in
the ring's alphabet (x_1..x_n for Fl_n, the block classes σ_i^l for a partial
shape) and the q_l, each of grade at most its ring's dimension plus TOP_EXTRA,
with
  - "quantum": expand_in_quantum_basis(p);
  - "classical": expand_classical of p with every q_l set to 0.
tests/test_expand_reference.py checks the package against every entry.
"""
from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

from qschubert import FlagShape, Polynomial, partial_ring, quantum_ring, x_var

RINGS = ("3", "4", "2:4", "1:3:4", "2:5", "2:6")
PER_RING = 20
TOP_EXTRA = 2


def ring_of(text):
    if ":" in text:
        return partial_ring(FlagShape.from_string(text))
    return quantum_ring(int(text))


def alphabet(ring):
    """(variable, grade) pairs: the ring's generators, then the q_l."""
    if ring.shape is None:
        gens = [(x_var(i), 1) for i in range(1, ring.n + 1)]
        q_grades = [2] * ring.q_count
    else:
        gens = [(Polynomial.variable(v), v[1]) for v in ring.sigma_vars]
        q_grades = list(ring.shape.q_grades)
    qs = [(Polynomial.variable(("q", l)), g)
          for l, g in enumerate(q_grades, start=1)]
    return gens + qs


def dimension(ring):
    return ring.shape.dimension if ring.shape else ring.n * (ring.n - 1) // 2


def random_poly(rng, letters, top):
    """1 to 4 terms, each a product of letters up to a seeded grade ≤ top."""
    p = Polynomial.zero()
    for _ in range(rng.randint(1, 4)):
        grade = rng.randint(0, top)
        term = Polynomial.constant(rng.choice((-3, -2, -1, 1, 2, 3)))
        have = 0
        for _ in range(4 * top):
            var, g = rng.choice(letters)
            if have + g <= grade:
                term = term * var
                have += g
        p = p + term
    return p


def terms(cls):
    return [[list(d), ",".join(map(str, w)), c] for (d, w), c in cls.items()]


def entries(ring, rng):
    letters = alphabet(ring)
    kill = {("q", l): 0 for l in range(1, ring.q_count + 1)}
    out = []
    for _ in range(PER_RING):
        p = random_poly(rng, letters, dimension(ring) + TOP_EXTRA)
        out.append({
            "poly": p.to_json_obj(),
            "quantum": terms(ring.expand_in_quantum_basis(p)),
            "classical": terms(ring.expand_classical(p.substitute(kill))),
        })
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=3001)
    ap.add_argument("out", nargs="?",
                    default=str(Path(__file__).with_name("expand_reference.json")))
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)
    rings = [{"ring": text, "entries": entries(ring_of(text), rng)}
             for text in RINGS]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"seed": args.seed, "rings": rings}, fh, indent=None,
                  separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
