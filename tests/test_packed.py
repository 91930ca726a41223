"""The packed class keys (`schubert._Codec`) against plain tuple-key folds.

Every structure constant is an int key inside the package; these tests fold
the public `items()` of the pair products on (d, w) tuples instead, so a key
bug that every order of a fold shares (which the `associativity` suite
cannot see) shows here."""
import copy
import itertools
import math
import pickle
import random
from math import comb
from operator import add

import pytest

from qschubert import (
    FlagShape,
    PartialRing,
    Polynomial,
    QuantumClass,
    QuantumRing,
    quantum_ring,
    schubert,
)
from qschubert.perm import dual, length
from qschubert.schubert import FIELD_BITS, _codec

W0_3 = (3, 2, 1)


def _ring(text):
    shape = FlagShape.from_string(text)
    return quantum_ring(shape.n) if shape.is_complete() else PartialRing(shape)


def _dual(ring, w):
    return dual(w) if ring.shape is None else ring.shape.dual(w)


def _plain_fold(ring, ws):
    """σ_{w_1} ∗ ⋯ ∗ σ_{w_N} as {(d, w): c}, folded over the public terms
    of the pair products."""
    acc = {((0,) * ring.q_count, ws[0]): 1}
    for w in ws[1:]:
        out = {}
        for (d, v), c in acc.items():
            for (d2, y), c2 in ring.quantum_product(v, w).items():
                key = (tuple(map(add, d, d2)), y)
                out[key] = out.get(key, 0) + c * c2
        acc = {key: c for key, c in out.items() if c}
    return acc


@pytest.mark.parametrize("k", range(2, 8))
def test_fold_past_the_engine_field_bound(k):
    ring = quantum_ring(3)
    got = ring.quantum_product_multi([W0_3] * k)
    want = _plain_fold(ring, [W0_3] * k)
    assert dict(got.items()) == want
    # from five factors on, some q-degree exceeds C(3, 2), the most that a
    # term of one product can carry
    top = max(max(d) for d, _ in want)
    assert (top > comb(3, 2)) == (k >= 5), top


def test_the_grade_check_refuses_what_could_carry():
    codec = _codec(3, 2)
    codec.check(2 ** (FIELD_BITS + 1) - 1)
    with pytest.raises(ValueError, match="could carry"):
        codec.check(2 ** (FIELD_BITS + 1))
    ring = quantum_ring(3)
    # 43 691 factors of length 3: total grade 131 073 ≥ 2^17
    many = [W0_3] * (2 ** (FIELD_BITS + 1) // 3 + 1)
    with pytest.raises(ValueError, match="could carry"):
        ring.quantum_product_multi(many)
    # a degree whose field would overflow passes the dimension gate only
    # with a grade that the check refuses, so it never reads a wrong key
    d = (2 ** FIELD_BITS, 0)
    assert ring._shape.moduli_dimension(d) == 3 * len(many) + length((3, 1, 2))
    with pytest.raises(ValueError, match="could carry"):
        ring.gromov_witten(many, (3, 1, 2), d)
    top_q = Polynomial({((("q", 1), 2 ** FIELD_BITS),): 1})
    with pytest.raises(ValueError, match="could carry"):
        ring.expand_in_quantum_basis(top_q)


@pytest.mark.parametrize("d", [(2 ** FIELD_BITS, 0), (0, -1), (0,)])
def test_classes_refuse_degrees_outside_the_fields(d):
    with pytest.raises(ValueError):
        QuantumClass(3, {(d, W0_3): 1})
    obj = {"n": 3, "terms": [{"d": list(d), "w": "3,2,1", "coeff": 1}]}
    with pytest.raises(ValueError):
        QuantumClass.from_json_obj(obj)
    assert QuantumClass.unit(W0_3).coefficient(d, W0_3) == 0


def test_the_widest_degree_round_trips():
    d = (2 ** FIELD_BITS - 1, 0)
    cls = QuantumClass(3, {(d, W0_3): 2, ((0, 0), (1, 2, 3)): -1})
    assert cls.items() == [(((0, 0), (1, 2, 3)), -1), ((d, W0_3), 2)]
    assert cls.coefficient(d, W0_3) == 2
    assert QuantumClass.from_json_obj(cls.to_json_obj()) == cls


def test_pickled_and_copied_classes_share_the_codec():
    cls = quantum_ring(3).quantum_product((2, 1, 3), (2, 1, 3))
    partial = PartialRing(FlagShape.from_string("2:4")).quantum_product(
        (1, 3, 2, 4), (1, 3, 2, 4))
    for c in (cls, partial):
        for back in (pickle.loads(pickle.dumps(c)), copy.deepcopy(c)):
            assert back == c and back._codec is c._codec
            assert back.to_text() == c.to_text()


def test_every_rank_unranks_to_its_permutation():
    ranks = {}
    perms = schubert._Unranked(4, ranks)
    codec = _codec(4, 3)
    for i, w in enumerate(sorted(itertools.permutations(range(1, 5)))):
        assert perms[i] == w and ranks[w] == i == codec.index(w)
    with pytest.raises(KeyError):
        perms[24]


def test_unranked_place_values_are_one_running_product(monkeypatch):
    # (n − 1)!, …, 0!, without computing n factorials: at n = 8000 those
    # took seconds
    want = {n: tuple(math.factorial(i) for i in range(n - 1, -1, -1))
            for n in (0, 1, 2, 3, 5, 8, 13, 40)}

    def no_factorial(k):
        raise AssertionError(f"{k}! computed on its own")

    monkeypatch.setattr(math, "factorial", no_factorial)
    for n, places in want.items():
        assert schubert._Unranked(n, {}).places == places, n


def test_a_second_codec_of_one_layout_reads_and_compares_the_same():
    # two threads that miss `_codec` at once may each keep a codec of their
    # own, with rank maps of its own; classes and folds must not tell them
    # apart
    ring = quantum_ring(4)
    ws = [(2, 1, 4, 3), (3, 1, 4, 2), (1, 4, 3, 2)]
    want = ring.quantum_product_multi(ws)
    twin = schubert._Codec(4, 3)
    assert twin is not want._codec and not twin._perms
    same = QuantumClass._wrap(4, None, twin, dict(want._terms))
    assert same == want and hash(same) == hash(want)
    assert same.to_text() == want.to_text()
    other = QuantumRing(4)
    other._codec = twin
    assert other.quantum_product_multi(ws) == want
    assert other.gromov_witten(ws[:2], (1, 2, 3, 4), (1, 0, 0)) == \
        ring.gromov_witten(ws[:2], (1, 2, 3, 4), (1, 0, 0))


# read back, in a fresh interpreter, classes pickled in this one: no rank in
# their keys has been met there yet
_UNPICKLE = """
import pickle, sys
import qschubert as qs
for c in pickle.load(open(sys.argv[1], "rb")):
    ring = qs.quantum_ring(c.n) if c.shape is None else qs.PartialRing(c.shape)
    print(repr(c.to_text()), c.items(), c.to_json_obj(),
          ring.class_to_poly(c), c.coefficient(*c.items()[-1][0]))
"""


def test_classes_pickled_here_read_in_a_fresh_interpreter(tmp_path, run_fresh):
    classes = [
        quantum_ring(3).quantum_product((2, 1, 3), (2, 1, 3)),
        quantum_ring(4).quantum_product_multi([(2, 1, 4, 3)] * 3),
        PartialRing(FlagShape.from_string("2:4")).quantum_product(
            (1, 3, 2, 4), (1, 3, 2, 4)),
    ]
    path = tmp_path / "classes.pickle"
    path.write_bytes(pickle.dumps(classes))
    ring = {None: quantum_ring, "2:4": lambda n: PartialRing(
        FlagShape.from_string("2:4"))}
    want = [" ".join(map(str, (
        repr(c.to_text()), c.items(), c.to_json_obj(),
        ring[c.shape and c.shape.to_string()](c.n).class_to_poly(c),
        c.coefficient(*c.items()[-1][0])))) for c in classes]
    assert run_fresh(_UNPICKLE, str(path)).splitlines() == want


@pytest.mark.parametrize("text, samples, seed", [
    ("1:2:3", 30, 41),
    ("1:2:3:4", 60, 42),
    ("1:2:3:4:5", 20, 43),
    ("1:3:4", 60, 44),
    ("2:4:6", 30, 45),
])
def test_gromov_witten_matches_the_plain_fold(text, samples, seed):
    ring = _ring(text)
    rng = random.Random(seed)
    basis = list(ring.basis)
    by_length = {}
    for w in basis:
        by_length.setdefault(length(w), []).append(w)
    nonzero = 0
    for _ in range(samples):
        ws = [rng.choice(basis) for _ in range(rng.randint(2, 5))]
        want = _plain_fold(ring, ws)
        assert dict(ring.quantum_product_multi(ws).items()) == want, ws
        total = sum(map(length, ws))
        for d in {d for d, _ in want}:
            # every σ_w that passes the dimension gate at d, the nonzero
            # invariants among them
            room = ring._shape.moduli_dimension(d) - total
            for w in by_length.get(room, ()):
                got = ring.gromov_witten(ws, w, d)
                assert got == want.get((d, _dual(ring, w)), 0), (ws, w, d)
                nonzero += got != 0
    assert nonzero


# one insertion folds no factor: σ_id, rank 0, which the codec reads before
# any permutation has been ranked
_ONE_INSERTION = """
import qschubert as qs
print(qs.gromov_witten([(3, 2, 1)], (1, 2, 3), (0, 0)),
      qs.partial_gw([(3, 1, 2)], (1, 2, 3), (0,), qs.FlagShape((1,), 3)),
      qs.gromov_witten([(2, 1, 3)], (1, 2, 3), (0, 0)))
"""


def test_one_insertion_in_a_fresh_interpreter(run_fresh):
    assert run_fresh(_ONE_INSERTION).split() == ["1", "1", "0"]
