"""Quantum cohomology ring of the complete flag manifold."""

import hashlib
import json
import os
import random
import subprocess
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qschubert import (
    EchelonSystem,
    FlagShape,
    PartialRing,
    Polynomial,
    QuantumClass,
    QuantumRing,
    all_permutations,
    classical_product,
    compose,
    dual,
    elementary_poly,
    expand_in_quantum_basis,
    g_var,
    gromov_witten,
    hyperquot_dim,
    length,
    longest_element,
    quantum_e,
    quantum_product,
    quantum_product_multi,
    quantum_ring,
    quantum_schubert,
    relations,
    sigma_var,
    transposition,
    q_var,
    x_var,
)
from qschubert import cli, partial, perm, qring
from qschubert.qring import _GradedQuotientRing
from qschubert.schubert import FIELD_BITS, _Transition

ID3 = (1, 2, 3)
S1 = (2, 1, 3)
STEP134 = FlagShape.from_string("1:3:4")


def as_map(cls):
    return dict(cls.items())


def test_relations_n2():
    rel = relations(2)
    assert rel[0] == x_var(1) + x_var(2)
    assert rel[1] == x_var(1) * x_var(2) + q_var(1)


def test_relations_n3():
    rel = relations(3)
    assert rel[0] == x_var(1) + x_var(2) + x_var(3)
    assert rel[2] == (x_var(1) * x_var(2) * x_var(3)
                      + q_var(1) * x_var(3) + x_var(1) * q_var(2))
    assert rel == [quantum_e(k, 3) for k in range(1, 4)]


def test_relations_classical_limit_is_elementary():
    for n in range(2, 5):
        kill = {("q", i): Polynomial.zero() for i in range(1, n)}
        for k, rel in enumerate(relations(n), start=1):
            assert rel.substitute(kill) == elementary_poly(k, n)


def test_relations_expand_to_zero():
    for n in (2, 3):
        for rel in relations(n):
            assert expand_in_quantum_basis(rel, n).is_zero()


def test_basis_self_expansion():
    for w in all_permutations(3):
        cls = expand_in_quantum_basis(quantum_schubert(w), 3)
        assert cls == QuantumClass.unit(w)


def test_expansion_example_n2():
    cls = expand_in_quantum_basis(x_var(1) * x_var(1), 2)
    assert as_map(cls) == {((1,), (1, 2)): 1}


def test_expansion_splits_heterogeneous_input():
    p = x_var(1) + x_var(1) * x_var(1)
    cls = expand_in_quantum_basis(p, 2)
    assert as_map(cls) == {((0,), (2, 1)): 1, ((1,), (1, 2)): 1}


def test_quantum_product_identity_element():
    for v in all_permutations(3):
        assert quantum_product(ID3, v) == QuantumClass.unit(v)


def test_quantum_product_examples():
    assert as_map(quantum_product((2, 1), (2, 1))) == {((1,), (1, 2)): 1}
    assert as_map(quantum_product(S1, S1)) == {
        ((0, 0), (3, 1, 2)): 1,
        ((1, 0), (1, 2, 3)): 1,
    }


def test_quantum_product_grading():
    for n in (3, 4):
        perms = all_permutations(n)
        rng = random.Random(5)
        pairs = [(u, v) for u in perms for v in perms]
        if n == 4:
            pairs = rng.sample(pairs, 60)
        for u, v in pairs:
            cls = quantum_product(u, v)
            for (d, w), coeff in cls.items():
                assert coeff > 0
                assert length(w) == length(u) + length(v) - 2 * sum(d)


def quantum_monk(r, w, n):
    """Simple-class quantum product by transposition enumeration.

    Multiplying by the codimension-one class indexed by s_r adds classical
    terms w·t_{ab} (a ≤ r < b) that raise length by one, and quantum terms
    q_c·q_{c+1}…q_{d-1}·(w·t_{cd}) (c ≤ r < d) that lower it by 2(d−c)−1.
    """
    expected = {}
    zero_d = (0,) * (n - 1)
    for a in range(1, r + 1):
        for b in range(r + 1, n + 1):
            t = list(range(1, n + 1))
            t[a - 1], t[b - 1] = b, a
            wt = compose(w, tuple(t))
            if length(wt) == length(w) + 1:
                expected[(zero_d, wt)] = 1
            hops = b - a
            if length(wt) == length(w) + 1 - 2 * hops:
                d = tuple(1 if a <= i < b else 0 for i in range(1, n))
                expected[(d, wt)] = 1
    return expected


def test_quantum_monk_oracle_exhaustive_s3_s4():
    for n in (3, 4):
        for w in all_permutations(n):
            for r in range(1, n):
                got = quantum_product(transposition(n, r), w)
                assert as_map(got) == quantum_monk(r, w, n)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_monk_edge_table_matches_the_length_oracle(n):
    # x_r = σ_{s_r} − σ_{s_{r−1}}, with σ_{s_0} = σ_{s_n} = 0, so the decoded
    # x_r ∗ σ_z of a fresh engine is the difference of the two oracle sums
    engine = _Transition(n)
    for z in all_permutations(n):
        zi = engine.codec.index(z)
        for r in range(1, n + 1):
            want = Counter(quantum_monk(r, z, n) if r < n else {})
            if r > 1:
                want.subtract(quantum_monk(r - 1, z, n))
            got = {engine.codec.decode(zi + delta): sign
                   for delta, sign in engine._x_terms(r, zi)}
            assert got == {t: c for t, c in want.items() if c}, (z, r)


def test_quantum_product_commutative_sample_s4():
    rng = random.Random(11)
    perms = all_permutations(4)
    for _ in range(25):
        u, v = rng.choice(perms), rng.choice(perms)
        assert quantum_product(u, v) == quantum_product(v, u)


def test_quantum_product_multi_single_and_identity():
    for w in all_permutations(3):
        assert quantum_product_multi([w]) == QuantumClass.unit(w)
        assert quantum_product_multi([w, ID3]) == quantum_product_multi([w])


def test_quantum_product_multi_association_orders():
    triple = [S1, S1, S1]
    left = quantum_product_multi(triple)
    prod_pair = quantum_product(S1, S1)
    # fold the pair result against the remaining factor by hand
    acc = {}
    for (d, w), coeff in prod_pair.items():
        for (d2, w2), c2 in quantum_product(w, S1).items():
            key = (tuple(a + b for a, b in zip(d, d2)), w2)
            acc[key] = acc.get(key, 0) + coeff * c2
    acc = {k: c for k, c in acc.items() if c != 0}
    assert as_map(left) == acc


def _round_trip(ring, ws):
    """The N-point product by polynomials: lift the running class, multiply
    by the next factor's lift and expand again, at every step."""
    acc = ring.expand_in_quantum_basis(ring.basis_polynomial(ws[0]))
    for w in ws[1:]:
        acc = ring.expand_in_quantum_basis(
            ring.class_to_poly(acc) * ring.basis_polynomial(w)
        )
    return acc


@pytest.mark.parametrize("shape, count, seed", [
    ("1:2:3:4", 60, 1),
    ("1:2:3:4:5", 4, 2),
    ("1:3:4", 60, 3),
    ("2:5", 40, 4),
])
def test_fold_matches_the_polynomial_round_trip(shape, count, seed):
    shape = FlagShape.from_string(shape)
    ring = quantum_ring(shape.n) if shape.is_complete() else PartialRing(shape)
    rng = random.Random(seed)
    for _ in range(count):
        ws = [rng.choice(ring.basis) for _ in range(rng.randint(3, 5))]
        assert ring.quantum_product_multi(ws) == _round_trip(ring, ws), ws


def test_gromov_witten_on_a_warm_ring_expands_nothing(monkeypatch):
    calls = []
    for name in ("expand_in_quantum_basis", "class_to_poly"):
        def counted(self, arg, _orig=getattr(_GradedQuotientRing, name),
                    _name=name):
            calls.append(_name)
            return _orig(self, arg)

        monkeypatch.setattr(_GradedQuotientRing, name, counted)
    cases = [
        (QuantumRing(3), [S1, (1, 3, 2), S1, (1, 3, 2), (2, 3, 1)],
         S1, (1, 1), 2),
        (PartialRing(FlagShape.from_string("2:4")), [(1, 3, 2, 4)] * 5,
         (2, 4, 1, 3), (1,), 4),
    ]
    for ring, ws, w, d, want in cases:
        for u, v in combinations_with_replacement(ring.basis, 2):
            ring.quantum_product(u, v)
        calls.clear()
        assert ring.gromov_witten(ws, w, d) == want
        assert calls == []


def test_repeated_gromov_witten_counts_no_inversions_again(monkeypatch):
    counted = []

    def count(w):
        counted.append(w)
        return length(w)

    monkeypatch.setattr(qring, "_length", lru_cache(maxsize=None)(count))
    ring = QuantumRing(3)
    w0 = longest_element(3)
    # one invariant past the dimension gate and one stopped by it
    cases = [([S1, S1], w0, (1, 0)), ([w0, w0], w0, (0, 0))]
    assert [ring.gromov_witten(*case) for case in cases] == [1, 0]
    assert counted
    before = len(counted)
    assert [ring.gromov_witten(*case) for case in cases] == [1, 0]
    assert len(counted) == before


def test_gromov_witten_examples():
    w0 = longest_element(3)
    assert gromov_witten([S1, S1], w0, (1, 0)) == 1
    for u in all_permutations(3):
        assert gromov_witten([u], dual(u), (0, 0)) == 1


def test_gromov_witten_two_point_vanishing_exhaustive_n3():
    degrees = [(d1, d2) for d1 in range(3) for d2 in range(3) if (d1, d2) != (0, 0)]
    for u in all_permutations(3):
        for v in all_permutations(3):
            for d in degrees:
                assert gromov_witten([u], v, d) == 0


def test_gromov_witten_dimension_gate():
    w0 = longest_element(3)
    assert gromov_witten([w0, w0], w0, (0, 0)) == 0
    assert gromov_witten([S1], S1, (1, 1)) == 0


def test_gromov_witten_rejects_bad_degree():
    with pytest.raises(ValueError):
        gromov_witten([S1], S1, (1,))
    with pytest.raises(ValueError):
        gromov_witten([S1], S1, (-1, 0))
    with pytest.raises(ValueError):
        gromov_witten([], S1, (0, 0))


STEP24 = FlagShape((2,), 4)


@pytest.mark.parametrize("entry", [1.7, 1.0, "1", True])
@pytest.mark.parametrize("invariant", [
    lambda d: gromov_witten([S1, S1], (3, 2, 1), d + (0,)),
    lambda d: partial.partial_gw([(1, 3, 2, 4), (3, 4, 1, 2)], (2, 4, 1, 3),
                                 d, STEP24),
], ids=["Fl3", "2:4"])
def test_gromov_witten_reads_degrees_as_indices(invariant, entry):
    # a bool is its int, as everywhere else; nothing else is truncated
    assert invariant((1,)) == 1
    if entry is True:
        assert invariant((entry,)) == 1
    else:
        with pytest.raises(TypeError):
            invariant((entry,))


# each route takes the poisoned factor first, in a fresh process; then the
# int call, then the poisoned one again on warm memos
_POISON_PROBE = """
import ast
import sys
from qschubert import (FlagShape, QuantumClass, QuantumRing,
                       partial_quantum_product, quantum_product,
                       quantum_schubert)

route, bad = sys.argv[1], ast.literal_eval(sys.argv[2])
good = tuple(map(int, bad))
shape = FlagShape((2,), 4)
calls = {
    "quantum_product": lambda w: quantum_product((1, 2, 3), w),
    "QuantumRing": lambda w: QuantumRing(3).quantum_product((1, 2, 3), w),
    "quantum_schubert": quantum_schubert,
    "2:4": lambda w: partial_quantum_product(w, (1, 3, 2, 4), shape),
}
call = calls[route]


def ints(got):
    if isinstance(got, QuantumClass):
        assert all(type(a) is int for (d, w), _ in got.items() for a in d + w)
    return got


first = ints(call(bad))
want = ints(call(good))
assert first == want, (first, want)
assert ints(call(bad)) == want
assert quantum_product((1, 2, 3), (3, 1, 2)).to_text() == "σ[3,1,2]"
obj = quantum_product((2, 1, 3), (3, 1, 2)).to_json_obj()
assert obj["terms"] == [{"coeff": 1, "d": [1, 0], "w": "1,3,2"}], obj
"""


@pytest.mark.parametrize("bad", ["(3.0, 1, 2)", "(3, True, 2)"])
@pytest.mark.parametrize("route", [
    "quantum_product", "QuantumRing", "quantum_schubert", "2:4"])
def test_equal_valued_entries_are_read_as_ints(route, bad):
    if route == "2:4":
        bad = {"(3.0, 1, 2)": "(3.0, 4, 1, 2)",
               "(3, True, 2)": "(True, 4, 2, 3)"}[bad]
    src = str(Path(qring.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", _POISON_PROBE, route, bad],
        capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr


def test_classical_product_examples():
    assert as_map(classical_product(S1, S1)) == {((0, 0), (3, 1, 2)): 1}
    for v in all_permutations(3):
        assert classical_product(ID3, v) == QuantumClass.unit(v)


def test_classical_product_is_q0_slice_exhaustive_s3():
    zero_d = (0, 0)
    for u in all_permutations(3):
        for v in all_permutations(3):
            classical = as_map(classical_product(u, v))
            slice_q0 = {key: c for key, c in quantum_product(u, v).items()
                        if key[0] == zero_d}
            assert classical == slice_q0


def test_poincare_duality_pairing_matrix():
    for n in (3, 4):
        top = longest_element(n)
        zero_d = (0,) * (n - 1)
        for u in all_permutations(n):
            for v in all_permutations(n):
                if length(u) + length(v) != n * (n - 1) // 2:
                    continue
                coeff = classical_product(u, v).coefficient(zero_d, top)
                assert coeff == (1 if v == dual(u) else 0)


def test_quantum_class_membership_and_support():
    cls = quantum_product(S1, S1)
    assert cls.coefficient((0, 0), (3, 1, 2)) == 1
    assert cls.coefficient((1, 0), ID3) == 1
    assert cls.coefficient((0, 1), ID3) == 0
    assert [key for key, _ in cls.items()] == [((0, 0), (3, 1, 2)), ((1, 0), ID3)]
    assert not cls.is_zero()
    assert QuantumClass(3).is_zero()


def test_quantum_class_text_rendering():
    assert quantum_product(S1, S1).to_text() == "σ[3,1,2] + q1·σ[1,2,3]"
    assert QuantumClass(3).to_text() == "0"
    doubled = QuantumClass(2, {((2,), (1, 2)): 3, ((0,), (2, 1)): -1})
    assert doubled.to_text() == "−σ[2,1] + 3·q1^2·σ[1,2]"


def test_quantum_class_sums_refuse_mixed_shapes():
    w = (1, 3, 2, 4)
    grass = FlagShape.from_string("2:4")
    with pytest.raises(TypeError):
        QuantumClass.unit(w, shape=grass) + QuantumClass.unit(w)
    with pytest.raises(TypeError):
        QuantumClass.unit(w) - QuantumClass.unit(w, shape=grass)
    # σ[2,1,3,4] of 1:4 is not a class of 2:4
    with pytest.raises(TypeError):
        (QuantumClass.unit(w, shape=grass)
         + QuantumClass.unit((2, 1, 3, 4), shape=FlagShape.from_string("1:4")))
    # nor are they equal where they share n, q count and keys
    one = (1, 2, 3, 4)
    a = QuantumClass.unit(one, shape=grass)
    b = QuantumClass.unit(one, shape=FlagShape.from_string("1:4"))
    assert a._terms == b._terms and a != b and len({a, b}) == 2
    assert (0 * a) != (0 * b)
    # shape None and the complete shape are one shape
    full = QuantumClass.unit(one, shape=FlagShape.complete(4))
    assert QuantumClass.unit(one) == full
    assert hash(QuantumClass.unit(one)) == hash(full)


def test_quantum_class_sums_over_one_shape_are_unchanged():
    w, y = (1, 3, 2, 4), (2, 1, 3, 4)
    grass = FlagShape.from_string("2:4")
    total = QuantumClass.unit(w, shape=grass) + QuantumClass.unit(w, shape=grass)
    assert total.shape == grass
    assert total.to_text() == "2·σ[1,3,2,4]"
    assert (total - QuantumClass.unit(w, shape=grass)).to_text() == "σ[1,3,2,4]"
    # shape None and the complete shape are one shape
    full = QuantumClass.unit(w) + QuantumClass.unit(y, shape=FlagShape.complete(4))
    assert full.shape is None
    assert full.to_text() == "σ[1,3,2,4] + σ[2,1,3,4]"
    back = QuantumClass.unit(y, shape=FlagShape.complete(4)) - QuantumClass.unit(w)
    assert back.to_text() == "−σ[1,3,2,4] + σ[2,1,3,4]"
    assert (quantum_product(S1, S1) - quantum_product(S1, S1)).is_zero()


@pytest.mark.parametrize("scalar", [Fraction(1, 2), Fraction(2), 0.5, 2.0])
def test_quantum_class_refuses_non_integer_scalars(scalar):
    with pytest.raises(TypeError):
        scalar * QuantumClass.unit(S1)


def test_integer_scalars_are_unchanged():
    c = quantum_product(S1, S1)
    assert (2 * c).to_text() == "2·σ[3,1,2] + 2·q1·σ[1,2,3]"
    assert (2 * c).shape is None
    zero = 0 * c
    assert zero.is_zero() and zero.n == 3
    assert zero == c - c


def test_quantum_class_json_round_trip():
    cls = quantum_product(S1, (3, 1, 2))
    obj = cls.to_json_obj()
    assert obj["n"] == 3
    back = QuantumClass.from_json_obj(obj)
    assert back == cls
    for term in obj["terms"]:
        assert isinstance(term["coeff"], int)
        assert isinstance(term["w"], str)


@pytest.mark.parametrize("obj", [
    {"n": 3, "terms": [{"d": [0, 0], "w": "1,1,1", "coeff": 1}]},
    {"n": 3, "terms": [{"d": [0, 0], "w": "3,1,2,4", "coeff": 1}]},
    {"n": 3, "terms": [{"d": [0, 0], "w": "2,1", "coeff": 1}]},
    {"n": 3, "terms": [{"d": [0, 0, 5], "w": "3,1,2", "coeff": 1}]},
    {"n": 3, "terms": [{"d": [0], "w": "3,1,2", "coeff": 1}]},
    {"n": 3, "terms": [{"d": [0, -1], "w": "3,1,2", "coeff": 1}]},
    {"n": 4, "shape": "2:4", "terms": [{"d": [0, 0], "w": "1,3,2,4", "coeff": 1}]},
    {"n": 3, "shape": "1:3", "terms": [{"d": [0], "w": "1,3,2", "coeff": 1}]},
    {"n": 4, "shape": "1:3", "terms": [{"d": [0], "w": "2,1,3,4", "coeff": 1}]},
], ids=["not-a-permutation", "longer", "shorter", "long-degree",
        "short-degree", "negative-degree", "partial-long-degree",
        "partial-not-a-coset-representative", "partial-other-n"])
def test_quantum_class_json_refuses_terms_outside_the_ring(obj):
    with pytest.raises(ValueError):
        QuantumClass.from_json_obj(obj)


def _class_json(n, terms, shape=None):
    """The JSON of QuantumClass(n, terms, shape), written term by term."""
    obj = {"n": n, "terms": [
        {"d": list(d), "w": ",".join(map(str, w)), "coeff": c}
        for (d, w), c in terms.items()]}
    if shape is not None:
        obj["shape"] = shape.to_string()
    return obj


@st.composite
def _class_inputs(draw):
    """(n, terms, shape): a shape of n ≤ 5 or None, and terms whose w may
    lie outside the ring and whose d and c may be no ints."""
    ambient = draw(st.integers(2, 5))
    steps = draw(st.sets(st.integers(1, ambient - 1), min_size=1))
    shape = draw(st.sampled_from(
        [None, FlagShape(sorted(steps), ambient), FlagShape.complete(ambient)]))
    n = draw(st.sampled_from([ambient, ambient, ambient, max(2, ambient - 1)]))
    m = n - 1 if shape is None else shape.m
    entry = st.integers(0, 2 ** FIELD_BITS - 1) | st.sampled_from(
        [-1, 2 ** FIELD_BITS, True, 1.0])
    degree = st.lists(entry, min_size=m, max_size=m) | st.lists(entry, max_size=5)
    coeff = st.integers(-10 ** 20, 10 ** 20) | st.sampled_from([0, True, 1.5, "x"])
    terms = draw(st.dictionaries(
        st.tuples(degree.map(tuple),
                  st.sampled_from(all_permutations(draw(st.sampled_from(
                      [n, n, n, ambient]))))),
        coeff, max_size=4))
    return n, terms, shape


@settings(max_examples=300)
@given(_class_inputs())
def test_the_reader_reads_every_class_the_constructor_builds(args):
    n, terms, shape = args
    try:
        cls = QuantumClass(n, terms, shape)
    except (TypeError, ValueError) as refused:
        # the reader refuses the same terms the same way
        with pytest.raises(type(refused)):
            QuantumClass.from_json_obj(_class_json(n, terms, shape))
        return
    assert QuantumClass.from_json_obj(cls.to_json_obj()) == cls
    assert QuantumClass.from_json_obj(_class_json(n, terms, shape)) == cls
    for (d, w), c in terms.items():
        assert cls.coefficient(d, w) == c


GR24 = FlagShape((2,), 4)


@pytest.mark.parametrize("build", [
    lambda: QuantumClass(4, {((0,), (1, 2, 4, 3)): 1}, shape=GR24),
    lambda: QuantumClass.unit((2, 1, 3, 4), shape=GR24),
    lambda: QuantumClass.from_json_obj(
        _class_json(4, {((0,), (1, 2, 4, 3)): 1}, GR24)),
    lambda: QuantumClass.from_json_obj(
        _class_json(4, {((0,), (2, 1, 3, 4)): 1}, GR24)),
], ids=["constructor", "unit", "reader", "reader-unit"])
def test_a_permutation_outside_the_shape_is_no_class(build):
    with pytest.raises(ValueError, match="minimal coset representative"):
        build()


@pytest.mark.parametrize("build", [
    lambda: QuantumClass(3, {((0,), (1, 2, 3)): 1}, shape=GR24),
    lambda: QuantumClass.unit((1, 2, 3), shape=GR24),
    lambda: QuantumClass.from_json_obj(
        _class_json(3, {((0,), (1, 2, 3)): 1}, GR24)),
], ids=["constructor", "unit", "reader"])
def test_a_shape_of_another_n_is_refused(build):
    with pytest.raises(ValueError, match="shape 2:4 is not a shape of n = 3"):
        build()


@pytest.mark.parametrize("c", [True, 1.5, "x"])
def test_a_coefficient_must_be_an_int(c):
    terms = {((0, 0), ID3): c}
    with pytest.raises(TypeError):
        QuantumClass(3, terms)
    with pytest.raises(TypeError):
        QuantumClass.from_json_obj(_class_json(3, terms))


@pytest.mark.parametrize("d", [(True, 0), (1, False)])
def test_a_degree_entry_must_be_an_int(d):
    with pytest.raises(TypeError):
        QuantumClass(3, {(d, ID3): 1})
    with pytest.raises(TypeError):
        QuantumClass.from_json_obj(_class_json(3, {(d, ID3): 1}))
    # the coefficient of a term that no class has is 0
    cls = quantum_product(S1, S1)
    assert cls.coefficient((1, 0), ID3) == 1
    assert cls.coefficient(d, ID3) == 0


def test_the_reader_adds_repeated_terms():
    term = {"d": [1, 0], "w": "1,2,3"}
    obj = {"n": 3, "terms": [{**term, "coeff": 1}, {**term, "coeff": 2}]}
    cls = QuantumClass.from_json_obj(obj)
    assert cls == QuantumClass(3, {((1, 0), ID3): 3})
    assert cls.items() == [(((1, 0), ID3), 3)]
    obj["terms"][1]["coeff"] = -1
    assert QuantumClass.from_json_obj(obj).is_zero()


def test_ring_object_reuse_returns_same_instance():
    assert quantum_ring(3) is quantum_ring(3)
    assert quantum_ring(3).relations()[0] == relations(3)[0]


def _full_table(ring, order=None):
    basis = list(ring.basis)
    pairs = [(u, v) for i, u in enumerate(basis) for v in basis[i:]]
    if order is not None:
        random.Random(order).shuffle(pairs)
    return {
        (u, v): (ring.quantum_product(u, v), ring.classical_product(u, v))
        for u, v in pairs
    }


def _slow_products(ring_class):
    """A subclass that multiplies on its own, empty Fl_n engine and gives up
    the interpreter lock at each first-touch product, so that other threads
    run while the product memos fill."""

    class Slow(ring_class):
        def __init__(self, arg):
            super().__init__(arg)
            self._fl = _Transition(self.n)

        def _pair_product(self, a, b):
            time.sleep(0.0002)
            return super()._pair_product(a, b)

    return Slow


def test_concurrent_table_matches_serial():
    # 1:3:5 has three blocks and several q-degrees, so threads meet each
    # comparison plan from different keys
    for ring_class, arg in ((QuantumRing, 4), (PartialRing, STEP134),
                            (PartialRing, FlagShape.from_string("2:6")),
                            (PartialRing, FlagShape.from_string("1:3:5"))):
        serial = _full_table(ring_class(arg))
        ring = _slow_products(ring_class)(arg)
        workers = 4
        start = threading.Barrier(workers)
        results = [None] * workers
        errors = []

        def work(slot):
            try:
                start.wait(timeout=60)
                # each thread walks the pairs in its own order, so the threads
                # meet missing memo entries at different times
                results[slot] = _full_table(ring, order=slot)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert all(got == serial for got in results), arg


def _gw_queries(ring, seed, count=40):
    """A seeded list of N-point invariants, N = 1…5, that pass the dimension
    gate, each as (ws, w, d), with degrees up to 1 in each q."""
    rng = random.Random(seed)
    by_length = {}
    for w in ring.basis:
        by_length.setdefault(length(w), []).append(w)
    queries = []
    while len(queries) < count:
        ws = tuple(rng.choice(ring.basis)
                   for _ in range(1 + len(queries) % 5))
        d = tuple(rng.randint(0, 1) for _ in range(ring.q_count))
        left = ring._shape.moduli_dimension(d) - sum(map(length, ws))
        if left in by_length:
            queries.append((ws, rng.choice(by_length[left]), d))
    return queries


def _answers(ring, queries, order=None):
    if order is not None:
        queries = list(queries)
        random.Random(order).shuffle(queries)
    return {(ws, w, d): (ring.gromov_witten(ws, w, d),
                         ring.quantum_product_multi([*ws, w]))
            for ws, w, d in queries}


def test_concurrent_gromov_witten_matches_serial():
    cases = [(ring_class, arg, _gw_queries(ring_class(arg), seed))
             for ring_class, arg, seed in ((QuantumRing, 4, 41),
                                           (PartialRing, STEP134, 134))]
    serial = [_answers(ring_class(arg), queries)
              for ring_class, arg, queries in cases]
    rings = [_slow_products(ring_class)(arg) for ring_class, arg, _ in cases]
    workers = 4
    start = threading.Barrier(workers)
    results = [None] * workers
    errors = []

    def work(slot):
        try:
            start.wait(timeout=60)
            # each thread asks the queries in its own order, so the threads
            # meet missing pair products at different times
            results[slot] = [_answers(ring, queries, order=slot)
                             for ring, (_, _, queries) in zip(rings, cases)]
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert all(got == serial for got in results)
    assert any(gw for table in serial for gw, _ in table.values())


def test_pair_memo_is_rank_keyed_and_read_by_one_call(monkeypatch):
    rings = [(QuantumRing(4), 4), (PartialRing(STEP134), 134)]
    for ring, seed in rings:
        queries = _gw_queries(ring, seed)
        _answers(ring, queries)
        for u, v in combinations_with_replacement(ring.basis, 2):
            ring.quantum_product(u, v)
        # one int key per order of a pair, both orders one class
        assert ring._products
        assert all(type(key) is int for key in ring._products)
        rank, base = ring._codec.index, ring._codec.base
        for u, v in combinations_with_replacement(ring.basis, 2):
            got = ring.quantum_product(u, v)
            assert ring.quantum_product(v, u) is got, (u, v)
            assert ring._products[(rank(u) << base) + rank(v)] is got
    calls = []
    orig = _GradedQuotientRing.quantum_product

    def counted(self, u, v):
        calls.append((u, v))
        return orig(self, u, v)

    monkeypatch.setattr(_GradedQuotientRing, "quantum_product", counted)
    for ring, seed in rings:
        for ws, w, d in _gw_queries(ring, seed):
            calls.clear()
            ring.gromov_witten(ws, w, d)
            # a warm fold makes one traced product, σ_{w_1} ∗ σ_{w_2}
            assert calls == ([ws[:2]] if len(ws) >= 2 else []), ws


@pytest.mark.parametrize("shape", ["2:6", "1:3:4", "2:4:6"])
def test_comparison_memo_holds_each_key_compared_alone(shape):
    shape = FlagShape.from_string(shape)
    ring = PartialRing(shape)
    table = _full_table(ring)
    assert ring._compared
    base = ring._fl.codec.base
    assert {key >> base for key in ring._compared} == set(ring._plans)
    # each key compared alone, on a ring that has compared nothing yet; the
    # first key of each degree part builds its plan from that key alone
    fresh = PartialRing(shape)
    for key, k in ring._compared.items():
        assert key not in fresh._compared
        plans = dict(fresh._plans)
        assert fresh._compare({key: 3}) == ({k: 3} if k >= 0 else {}), key
        plans.setdefault(key >> base, ring._plans[key >> base])
        assert fresh._plans == plans, key
    # the pairs walked backwards fill an equal memo and give equal tables
    backward = PartialRing(shape)
    basis = list(backward.basis)
    pairs = [(u, v) for i, u in enumerate(basis) for v in basis[i:]]
    assert {(u, v): (backward.quantum_product(u, v),
                     backward.classical_product(u, v))
            for u, v in reversed(pairs)} == table
    assert backward._compared == ring._compared
    assert backward._plans == ring._plans


def _peterson(ring, key) -> int:
    """The key on a partial ring of the Fl_n term `key`, or −1 when the
    comparison formula drops it, derived whole for each key: d_B against
    the lift of d, w = (w_0∘y)·ω′ by reversing the two runs of each block,
    and q^d·σ_{dual(w)} through the shape's own `dual`.  The route that
    `_compare` took before it read a plan per degree part."""
    shape, ns, n = ring._shape, ring._ns, ring.n
    src, dst = ring._fl.codec, ring._codec
    field = (1 << FIELD_BITS) - 1
    d = tuple(key >> src.shifts[k - 1] & field for k in ns[1:-1])
    steps = (0,) + d + (0,)
    w = [n + 1 - e for e in src.perm(key & src.mask)]
    level, lift = 0, 0
    for l in range(1, len(ns)):
        lo, hi = ns[l - 1], ns[l]
        a, t = divmod(steps[l] - steps[l - 1], hi - lo)
        cut = hi - t
        for i in range(lo, min(hi, n - 1)):
            level += a + (i >= cut)
            lift = (lift << FIELD_BITS) + level
        w[lo:cut] = w[lo:cut][::-1]
        w[cut:hi] = w[cut:hi][::-1]
    if lift == key >> src.base and shape.is_min_rep(w):
        return dst.key(d, shape.dual(w))
    return -1


def test_comparison_matches_the_per_key_derivation():
    rings = []
    for text in ("2:4", "2:6", "1:3:4", "1:2:4:5", "2:4:6", "3:7", "4:8"):
        ring = PartialRing(FlagShape.from_string(text))
        for u, v in combinations_with_replacement(ring.basis, 2):
            ring.quantum_product(u, v)
        rings.append(ring)
    # seeded pairs at n = 8, where each product walks thousands of terms
    for text, seed, count in (("2:4:6:8", 2468, 40), ("1:3:5:7:8", 13578, 20)):
        ring = PartialRing(FlagShape.from_string(text))
        basis, rng = ring.basis, random.Random(seed)
        for _ in range(count):
            ring.quantum_product(rng.choice(basis), rng.choice(basis))
        rings.append(ring)
    for ring in rings:
        compared = ring._compared
        # both fates occur on every shape, so neither side goes unchecked
        assert min(compared.values()) == -1 < max(compared.values())
        assert {key: _peterson(ring, key) for key in compared} == compared


def test_rings_expand_without_echelon_or_fractions(monkeypatch):
    # products read no basis lift, so e_decomposition's solver never runs
    shapes = [STEP134, FlagShape.from_string("2:6")]
    created = []

    def refuse(*args, **kwargs):
        created.append(args)
        raise AssertionError("expansion must not build echelons or fractions")

    monkeypatch.setattr(EchelonSystem, "__init__", refuse)
    monkeypatch.setattr(Fraction, "__new__", refuse)
    fl4 = _full_table(QuantumRing(4))
    step134, gr26 = (_full_table(PartialRing(shape)) for shape in shapes)
    assert created == []
    assert fl4[(S1 + (4,), S1 + (4,))][0].to_text() == "σ[3,1,2,4] + q1·σ[1,2,3,4]"
    line = (1, 3, 2, 4, 5, 6)
    assert gr26[(line, line)][0].to_text() == "σ[1,4,2,3,5,6] + σ[2,3,1,4,5,6]"
    assert len(step134) == 78


def test_no_ring_class_has_slice_hooks():
    refused = ("_slice", "_reduce_exact", "_grade_monomials", "_expected_rank",
               "_split_mon", "_expand", "_expand_classical", "_normalize",
               "_xelim", "_term_key", "_rules", "_nf", "_nf_monomial",
               "_groebner", "_peel", "_grade_table")
    for cls in (_GradedQuotientRing, QuantumRing, PartialRing):
        for name in refused:
            assert not hasattr(cls, name), (cls, name)
    for ring in (QuantumRing(3), PartialRing(STEP134)):
        for name in refused + ("_slices", "_caps", "_tables", "_by_length"):
            assert not hasattr(ring, name), (ring, name)
    for name in ("_groebner", "_reduce", "_monic"):
        assert not hasattr(qring, name), name
    # the element rules are the shape's, which the rings call directly
    for cls in (_GradedQuotientRing, QuantumRing, PartialRing):
        for name in ("_check_element", "_dual", "_moduli_dimension",
                     "_checked"):
            assert not hasattr(cls, name), (cls, name)
    assert not hasattr(partial, "_check_min_rep")


def _complete_poly(r, m):
    """h_r(x_1,…,x_m): every monomial of grade r in the first m variables."""
    out = Polynomial.zero()
    for idx in combinations_with_replacement(range(1, m + 1), r):
        term = Polynomial.constant(1)
        for i in idx:
            term = term * x_var(i)
        out = out + term
    return out


def test_fgp_relations_lie_in_the_ideal():
    """The Fomin–Gelfand–Postnikov polynomials

        H^q_k = Σ_{i=1..k} (−1)^{i+1}·e^q_i(n)·h_{k−i}(x_1,…,x_{n−k+1}),

    k = 1..n, lie in the quantum ideal, so they expand to zero."""
    for n in range(2, 6):
        ring = QuantumRing(n)
        for k in range(1, n + 1):
            h = Polynomial.zero()
            for i in range(1, k + 1):
                h = h + (-1) ** (i + 1) * quantum_e(i, n) * _complete_poly(
                    k - i, n - k + 1)
            assert ring.expand_in_quantum_basis(h).is_zero(), (n, k)


def _verify(monkeypatch, capsys, ring, suite):
    """`qschubert verify --suite suite` run against `ring`."""
    monkeypatch.setattr(cli, "quantum_ring", lambda n: ring)
    monkeypatch.setattr(cli, "partial_ring", lambda shape: ring)
    selector = (["--n", str(ring.n)] if ring.shape is None
                else ["--shape", ring.shape.to_string()])
    code = cli.main(["verify", "--suite", suite] + selector)
    return code, capsys.readouterr().out


def test_basis_lift_without_unit_leading_term_is_refused(monkeypatch, capsys):
    # products never read the lifts, so a doubled lift shows only where the
    # giambelli suite expands the lifts
    class Doubled(QuantumRing):
        def _basis_lift(self, w):
            return 2 * quantum_schubert(w)

    class DoubledPartial(PartialRing):
        def _basis_lift(self, w):
            return 2 * super()._basis_lift(w)

    gr24 = FlagShape.from_string("2:4")
    for ring, plain in ((Doubled(3), QuantumRing(3)),
                        (DoubledPartial(gr24), PartialRing(gr24))):
        top = ring.basis[-1]
        assert ring.quantum_product(top, top) == plain.quantum_product(top, top)
        unit = ring.basis[0]
        assert _verify(monkeypatch, capsys, ring, "giambelli") == (
            1, f"fail: σ_{unit} does not expand to the unit class\n")
        assert _verify(monkeypatch, capsys, plain, "giambelli") == (
            0, f"pass, {len(plain.basis)} classes\n")


def test_relations_without_unit_leading_coefficient_are_refused(
        monkeypatch, capsys):
    # 2·x1·x2 + q1 is not in the ideal of QH*(Fl_2): x1 ∗ x2 = −q1, so it
    # expands to −q1, and the relations suite fails
    def twice(self):
        x1x2 = x_var(1) * x_var(2)
        return (x_var(1) + x_var(2), 2 * x1x2 + q_var(1))

    for base, arg in ((PartialRing, FlagShape.from_string("1:2")),
                      (QuantumRing, 2)):
        ring = type("Twice", (base,), {"relations": twice})(arg)
        assert ring.expand_in_quantum_basis(ring.relations()[1]) == \
            -1 * ring.expand_in_quantum_basis(q_var(1))
        assert _verify(monkeypatch, capsys, ring, "relations") == (
            1, "fail: relation 2 does not expand to zero\n")
        assert _verify(monkeypatch, capsys, base(arg), "relations") == (
            0, "pass, 2 relations\n")


def test_expansion_refuses_a_variable_outside_the_ring_alphabet():
    """The alphabet of a ring is its generators and q_1,…,q_m; any other
    variable raises ValueError while the polynomial is keyed, also beside
    terms that are in the alphabet."""
    fl3, step = QuantumRing(3), PartialRing(STEP134)
    cases = [(step, x_var(1)), (fl3, sigma_var(1, 1))]
    for ring in (fl3, step):
        cases += [(ring, v) for v in (Polynomial.variable(("q", 0)),
                                      q_var(ring.q_count + 1), g_var(1, 0))]
    for ring, v in cases:
        for p in (v, ring.basis_polynomial(ring.basis[1]) + 2 * v):
            with pytest.raises(ValueError, match="not in the ring alphabet"):
                ring.expand_in_quantum_basis(p)
    for ring in (fl3, step):
        with pytest.raises(ValueError, match="not in the ring alphabet"):
            ring.expand_classical(g_var(1, 0))
        with pytest.raises(ValueError, match="needs a q-free input"):
            ring.expand_classical(q_var(1))
        # the alphabet itself expands
        assert ring.expand_in_quantum_basis(q_var(ring.q_count)) == \
            QuantumClass(ring.n, {((0,) * (ring.q_count - 1) + (1,),
                                   tuple(range(1, ring.n + 1))): 1},
                         ring.shape)


def test_warm_fold_checks_each_factor_once(monkeypatch):
    fl4 = ((2, 1, 3, 4), (1, 3, 2, 4), (2, 3, 1, 4), (3, 1, 2, 4), (1, 2, 4, 3))
    cases = [
        (QuantumRing(4), fl4, ((2, 1, 3, 4), (1, 0, 0))),
        (PartialRing(STEP134), ((2, 1, 3, 4), (1, 2, 4, 3), (2, 1, 4, 3),
                                (3, 1, 4, 2), (2, 1, 3, 4)), None),
    ]
    # both rings check through the one FlagShape class: wrap its check once
    calls = []
    orig = FlagShape.check

    def counted(self, w):
        calls.append(w)
        return orig(self, w)

    monkeypatch.setattr(FlagShape, "check", counted)
    for ring, ws, gw in cases:
        ring.quantum_product_multi(ws)
        if gw is not None:
            ring.gromov_witten(ws, *gw)
        calls.clear()
        ring.quantum_product_multi(ws)
        assert calls == list(ws)
        if gw is not None:
            calls.clear()
            assert ring.gromov_witten(ws, *gw) > 0
            assert calls == list(ws) + [gw[0]]


def test_degree_memo_keeps_the_input_rules():
    ring = QuantumRing(4)
    ws = ((2, 1, 3, 4), (1, 3, 2, 4), (1, 2, 4, 3), (2, 1, 3, 4))
    w = (4, 1, 3, 2)
    ring.gromov_witten(ws, w, (1, 0, 0))
    assert ring.gromov_witten(ws, w, (1, 0, 0)) == 1
    # a hit in the degree memo reads d as a miss does
    assert ring.gromov_witten(ws, w, (True, 0, 0)) == 1
    for d in ((1.0, 0, 0), ("1", 0, 0)):
        with pytest.raises(TypeError):
            ring.gromov_witten(ws, w, d)
    for d in ((-1, 0, 0), (1, 0), (1, 0, 0, 0)):
        for insertions in (ws, []):
            # the degree is checked before the insertion count
            with pytest.raises(ValueError, match="degree must be"):
                ring.gromov_witten(insertions, w, d)
    with pytest.raises(ValueError, match="need at least one insertion"):
        ring.gromov_witten([], w, (1, 0, 0))
    # only a checked degree is stored, under its ints
    assert list(ring._degrees) == [(1, 0, 0)]
    assert all(type(e) is int for e in next(iter(ring._degrees)))


def test_fold_mutates_no_memo_entry():
    # a fold starts from a pair memo entry's own dict, without a copy
    for ring, seed in ((QuantumRing(4), 43), (PartialRing(STEP134), 135)):
        for u, v in combinations_with_replacement(ring.basis, 2):
            ring.quantum_product(u, v)
        before = {key: dict(got._terms) for key, got in ring._products.items()}
        queries = [q for q in _gw_queries(ring, seed, 60) if len(q[0]) >= 3]
        assert {len(ws) for ws, _, _ in queries} == {3, 4, 5}
        for query in queries:
            # checked after each query: a changed entry feeds later folds
            _answers(ring, [query])
            assert {key: got._terms
                    for key, got in ring._products.items()} == before, query


def test_fold_values_are_positive(monkeypatch):
    # `_fold` filters no zero: every pair class is positive, so no sum of a
    # fold step cancels, and `quantum_product_multi` wraps what it returns
    folds = []
    fold = _GradedQuotientRing._fold

    def recorded(self, ws, grade):
        got = fold(self, ws, grade)
        folds.append(got)
        return got

    monkeypatch.setattr(_GradedQuotientRing, "_fold", recorded)
    for ring, seed in ((QuantumRing(4), 44), (PartialRing(STEP134), 136)):
        queries = [q for q in _gw_queries(ring, seed, 60) if len(q[0]) >= 3]
        assert {len(ws) for ws, _, _ in queries} == {3, 4, 5}
        _answers(ring, queries)
    assert len(folds) > 50
    assert all(c > 0 for got in folds for c in got.values())


# sha256 over the products of `_digest_pairs`, one JSON line each
PRODUCT_DIGEST = "94c556ffef4976633426bef4b4b3fe313fd20bbe67133f48dd5e6336aaff001c"


def _digest_pairs():
    """(label, ring, u, v): every pair of the full tables of Fl_3, Fl_4,
    Fl_5, 2:4, 2:6, 1:3:4, 1:3:5, 2:4:6 and 3:7, then 400 seeded pairs of
    Fl_6; 13 390 in all."""
    for n in (3, 4, 5):
        ring = QuantumRing(n)
        for u, v in combinations_with_replacement(ring.basis, 2):
            yield str(n), ring, u, v
    for text in ("2:4", "2:6", "1:3:4", "1:3:5", "2:4:6", "3:7"):
        ring = PartialRing(FlagShape.from_string(text))
        for u, v in combinations_with_replacement(ring.basis, 2):
            yield text, ring, u, v
    ring, perms, rng = QuantumRing(6), all_permutations(6), random.Random(6)
    for _ in range(400):
        yield "6", ring, rng.choice(perms), rng.choice(perms)


def _digest(pairs) -> str:
    digest = hashlib.sha256()
    for label, ring, u, v in pairs:
        line = json.dumps([label, list(u), list(v),
                           ring.quantum_product(u, v).to_json_obj()])
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def test_products_match_digest():
    assert _digest(_digest_pairs()) == PRODUCT_DIGEST


# sha256 over the products of `_wider_digest_pairs`, as for PRODUCT_DIGEST
WIDER_PRODUCT_DIGEST = (
    "f5d49bc5623a0e82360bd2e2dd5f5550a81f45a133b9168c7d7dd937a73d68b5")


def _wider_digest_pairs():
    """(label, ring, u, v) on shapes that `_digest_pairs` lacks: every pair
    of the full 1:2:4:5 and 4:8 tables, then 100 seeded pairs of 2:5:7 and
    20 of 2:4:6:8; 4 435 in all."""
    for text in ("1:2:4:5", "4:8"):
        ring = PartialRing(FlagShape.from_string(text))
        for u, v in combinations_with_replacement(ring.basis, 2):
            yield text, ring, u, v
    for text, count, seed in (("2:5:7", 100, 257), ("2:4:6:8", 20, 2468)):
        ring = PartialRing(FlagShape.from_string(text))
        basis, rng = ring.basis, random.Random(seed)
        for _ in range(count):
            yield text, ring, rng.choice(basis), rng.choice(basis)


def test_wider_products_match_digest():
    assert _digest(_wider_digest_pairs()) == WIDER_PRODUCT_DIGEST


def test_quantum_ring_9_multiplies_without_listing_s9(monkeypatch):
    def refuse(n):
        raise AssertionError(f"S_{n} listed")

    monkeypatch.setattr(perm, "all_permutations", refuse)
    monkeypatch.setattr(qring, "all_permutations", refuse)
    ring = QuantumRing(9)
    tail = (6, 7, 8, 9)
    got = ring.quantum_product((2, 1, 3, 4, 5) + tail, (3, 1, 2, 5, 4) + tail)
    assert got.to_text() == ("σ[4,1,2,5,3,6,7,8,9] + σ[5,1,2,3,4,6,7,8,9] "
                             "+ q1·σ[1,3,2,5,4,6,7,8,9]")
    w = (3, 1, 4, 2, 6, 5, 7, 9, 8)
    for r in (1, 4, 8):
        assert as_map(ring.quantum_product(transposition(9, r), w)) == \
            quantum_monk(r, w, 9)
    with pytest.raises(AssertionError, match="S_9 listed"):
        ring.basis
    # the complete shape through PartialRing lists nothing either
    monkeypatch.setattr(partial, "sn_elements", refuse)
    ring = PartialRing(FlagShape.complete(9))
    assert ring.quantum_product(w, w) == QuantumRing(9).quantum_product(w, w)


def test_fl6_triples_associate():
    ring = QuantumRing(6)
    perms = all_permutations(6)
    rng = random.Random(606)
    for _ in range(20):
        u, v, w = (rng.choice(perms) for _ in range(3))
        left = ring.quantum_product_multi([u, v, w])
        assert left == ring.quantum_product_multi([v, w, u]), (u, v, w)
        assert left == ring.quantum_product_multi([w, u, v]), (u, v, w)


def test_moduli_dimension_is_the_shape_count():
    for n in range(2, 6):
        ring = QuantumRing(n)
        for d in product(range(3), repeat=n - 1):
            assert ring._shape.moduli_dimension(d) == hyperquot_dim(n, d), \
                (n, d)
    for text in ("2:4", "1:3:4", "2:5", "1:3:5", "2:4:6", "1:2:3:4"):
        ring = PartialRing(FlagShape.from_string(text))
        for d in product(range(3), repeat=ring.q_count):
            want = ring.shape.dimension + sum(
                e * ring.q_grades[l] for l, e in enumerate(d, start=1))
            assert ring._shape.moduli_dimension(d) == want, (text, d)


def _two_series_generators(ring):
    """The generator classes by two series: with ẽ_k(t) the Grassmannian
    class σ_g of `_generator_classes`, h̃_0(l) = 1,
    h̃_t(l) = −Σ_{s=1..t} ẽ_s(l) ∗ h̃_{t−s}(l) and
    σ^l_i = Σ_{t=0..i} ẽ_{i−t}(l) ∗ h̃_t(l−1), on the ring's packed keys."""
    n, ns, zero = ring.n, ring._shape.ns, (0,) * ring.q_count
    key = ring._codec.key
    one = {key(zero, tuple(range(1, n + 1))): 1}

    def e(k, t):
        if k == 0:
            return one
        if not (1 <= t <= ring.q_count and k <= ns[t]):
            return {}
        top = ns[t]
        return {key(zero, (*range(1, top - k + 1), *range(top - k + 2, top + 2),
                           top - k + 1, *range(top + 2, n + 1))): 1}

    def combo(parts):
        out = {}
        for c, terms in parts:
            for key, v in terms.items():
                out[key] = out.get(key, 0) + c * v
        return {key: v for key, v in out.items() if v}

    gens = []
    for i, l in ring._blocks:
        h = [one]
        for t in range(1, i + 1):
            h.append(combo((-1, ring._times(e(s, l - 1), h[t - s]))
                           for s in range(1, t + 1)))
        gens.append(combo((1, ring._times(e(i - t, l), h[t]))
                          for t in range(i + 1)))
    return gens


def _shapes_through(n):
    return [FlagShape(steps, n) for k in range(1, n)
            for steps in combinations(range(1, n), k)]


@pytest.mark.parametrize("shape", [
    *(shape for n in range(2, 7) for shape in _shapes_through(n)),
    *map(FlagShape.from_string, ("1:3:6:7", "1:4:8", "2:4:6:8", "3:7", "4:8")),
], ids=FlagShape.to_string)
def test_generator_classes_match_the_two_series_formula(shape):
    ring = PartialRing(shape)
    gens = ring._generator_classes()
    assert gens == _two_series_generators(ring)
    if shape.is_complete():
        n, zero = shape.n, (0,) * shape.m
        for l, x in enumerate(gens, start=1):
            want = {}
            if l < n:
                want[(zero, transposition(n, l))] = 1
            if l > 1:
                want[(zero, transposition(n, l - 1))] = -1
            got = {ring._codec.decode(k): c for k, c in x.items()}
            assert got == want, (n, l)


@pytest.mark.parametrize("make", [
    lambda: quantum_ring(4),
    lambda: partial.partial_ring(FlagShape.complete(4)),
], ids=["quantum_ring", "partial_ring"])
def test_complete_products_hold_the_engine_entries(make):
    # each class holds the engine memo's own packed dict, not a copy, keyed
    # by the ranks of the shorter factor and of the other
    ring = make()
    index = ring._fl.codec.index
    for a, b in combinations_with_replacement(all_permutations(4), 2):
        u, v = (b, a) if length(a) > length(b) else (a, b)
        assert (ring.quantum_product(a, b)._terms
                is ring._fl._memo[index(v)][index(u)]
                is ring._fl.product(index(u), index(v)))
        assert ring.quantum_product(a, b)._codec is ring._fl.codec
