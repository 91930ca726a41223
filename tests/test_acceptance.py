"""End-to-end acceptance checks for the whole artifact.

Every equality here is exact integer arithmetic; there are no tolerances.
The numbered checks cover: vanishing of the quantum relations, quantum
Giambelli self-consistency, the universal → quantum → classical
specialization chain, frozen product values, ring axioms, the classical
limit with Poincaré duality, positivity and grading of structure
constants, recursion integrity of the path alphabet, the symbolic kernel
lemmas, the combinatorial utility bounds, and partial/complete coherence.
"""

import random
import time
from itertools import product

from qschubert import (
    FlagShape,
    Polynomial,
    QuantumClass,
    all_permutations,
    dual,
    elementary_poly,
    g_from_c,
    g_var,
    gromov_witten,
    hyperquot_dim,
    kernel_chern_check,
    kernel_chern_partial_check,
    kernel_chern_partial_report,
    lemma_es_check,
    length,
    longest_element,
    partial_quantum_product,
    partial_ring,
    path_poly,
    quantum_e,
    quantum_product,
    quantum_ring,
    quantum_schubert,
    schubert_poly,
    specialize_classical,
    specialize_quantum,
    universal_schubert_g,
)
from qschubert.universal import path_poly_via_determinant, path_poly_via_recursion


def test_01_quantum_relations_vanish_and_restrict_classically():
    start = time.monotonic()
    for n in range(2, 5):
        ring = quantum_ring(n)
        kill = {("q", i): Polynomial.zero() for i in range(1, n)}
        for k in range(1, n + 1):
            rel = quantum_e(k, n)
            assert ring.expand_in_quantum_basis(rel).is_zero()
            assert rel.substitute(kill) == elementary_poly(k, n)
    assert time.monotonic() - start < 10.0

    start = time.monotonic()
    n = 5
    ring = quantum_ring(n)
    kill = {("q", i): Polynomial.zero() for i in range(1, n)}
    for k in range(1, n + 1):
        rel = quantum_e(k, n)
        assert ring.expand_in_quantum_basis(rel).is_zero()
        assert rel.substitute(kill) == elementary_poly(k, n)
    assert time.monotonic() - start < 300.0


def test_02_quantum_giambelli_self_expansion_s4():
    start = time.monotonic()
    ring = quantum_ring(4)
    for w in all_permutations(4):
        assert ring.expand_in_quantum_basis(quantum_schubert(w)) == QuantumClass.unit(w)
    assert time.monotonic() - start < 60.0


def test_03_specialization_chain_s4():
    start = time.monotonic()
    for w in all_permutations(4):
        universal = universal_schubert_g(w)
        quantum = specialize_quantum(universal)
        assert quantum == quantum_schubert(w)
        assert specialize_classical(universal) == schubert_poly(w)
        kill = {("q", i): Polynomial.zero() for i in range(1, 4)}
        assert quantum.substitute(kill) == schubert_poly(w)
    assert time.monotonic() - start < 30.0


def test_04_known_products():
    assert dict(quantum_product((2, 1), (2, 1)).items()) == {((1,), (1, 2)): 1}
    assert dict(quantum_product((2, 1, 3), (2, 1, 3)).items()) == {
        ((0, 0), (3, 1, 2)): 1,
        ((1, 0), (1, 2, 3)): 1,
    }
    p1 = FlagShape((1,), 2)
    assert dict(partial_quantum_product((2, 1), (2, 1), p1).items()) == {
        ((1,), (1, 2)): 1
    }
    p2 = FlagShape((1,), 3)
    assert dict(partial_quantum_product((2, 1, 3), (3, 1, 2), p2).items()) == {
        ((1,), (1, 2, 3)): 1
    }


def _times_class(ring, cls, u):
    lifted = ring.class_to_poly(cls) * ring.basis_polynomial(u)
    return ring.expand_in_quantum_basis(lifted)


def test_05_ring_axioms():
    start = time.monotonic()
    ring3 = quantum_ring(3)
    s3 = all_permutations(3)
    for u, v in product(s3, repeat=2):
        assert quantum_product(u, v) == quantum_product(v, u)
    for u, v, w in product(s3, repeat=3):
        left = _times_class(ring3, quantum_product(u, v), w)
        right = _times_class(ring3, quantum_product(v, w), u)
        assert left == right

    ring4 = quantum_ring(4)
    rng = random.Random(20240817)
    s4 = all_permutations(4)
    for _ in range(100):
        u, v, w = rng.choice(s4), rng.choice(s4), rng.choice(s4)
        assert quantum_product(u, v) == quantum_product(v, u)
        left = _times_class(ring4, quantum_product(u, v), w)
        right = _times_class(ring4, quantum_product(v, w), u)
        assert left == right
    assert time.monotonic() - start < 120.0


def test_06_classical_limit_and_poincare_duality():
    start = time.monotonic()
    n = 4
    ring = quantum_ring(n)
    zero_d = (0,) * (n - 1)
    top = longest_element(n)
    perms = all_permutations(n)
    for u, v in product(perms, repeat=2):
        classical = dict(ring.classical_product(u, v).items())
        q0 = {key: c for key, c in quantum_product(u, v).items() if key[0] == zero_d}
        assert classical == q0
        if length(u) + length(v) == n * (n - 1) // 2:
            pairing = ring.classical_product(u, v).coefficient(zero_d, top)
            assert pairing == (1 if v == dual(u) else 0)
    assert time.monotonic() - start < 120.0


def test_07_gw_positivity_grading_and_two_point_vanishing():
    for n in (2, 3, 4):
        perms = all_permutations(n)
        for u, v in product(perms, repeat=2):
            for (d, w), coeff in quantum_product(u, v).items():
                assert coeff > 0
                assert length(w) == length(u) + length(v) - 2 * sum(d)
    # keys that violate the grading carry coefficient zero
    assert quantum_product((2, 1, 3), (2, 1, 3)).coefficient((0, 1), (1, 2, 3)) == 0
    assert quantum_product((2, 1, 3), (2, 1, 3)).coefficient((0, 0), (1, 2, 3)) == 0
    degrees = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    for u in all_permutations(3):
        for v in all_permutations(3):
            for d in degrees:
                assert gromov_witten([u], v, d) == 0


def test_08_path_recursion_integrity_and_round_trip():
    for l in range(1, 6):
        for k in range(0, l + 1):
            direct = path_poly(k, l)
            assert direct == path_poly_via_recursion(k, l)
            assert direct == path_poly_via_determinant(k, l)
    n = 5
    assignment = {}
    for l in range(1, n + 1):
        for k in range(1, l + 1):
            assignment[("c", k, l)] = path_poly(k, l)
    for i in range(1, n + 1):
        for j in range(0, n - i + 1):
            assert g_from_c(i, j).substitute(assignment) == g_var(i, j)


def test_09_symbolic_kernel_lemmas():
    for l in range(2, 6):
        for k in range(1, l):
            assert kernel_chern_check(k, l)
    shapes = [FlagShape((1,), 3), FlagShape((2,), 4), FlagShape((1, 3), 4)]
    for shape in shapes:
        for l in range(1, shape.m + 1):
            assert kernel_chern_partial_check(l, shape)
            # the verbatim two-case closed form needs an index resolution on
            # these shapes; the report records where it deviates.
            report = kernel_chern_partial_report(l, shape)
            assert all(entry["resolved_matches"] for entry in report)
        assert any(
            not entry["printed_matches"]
            for l in range(1, shape.m + 1)
            for entry in kernel_chern_partial_report(l, shape)
        )


def test_10_combinatorial_utilities():
    seen = 0
    stack = [()]
    while stack:
        e = stack.pop()
        if e and sum(e) >= 1:
            total, weighted = lemma_es_check(e)
            assert total == sum(e)
            assert total <= weighted
            assert weighted >= 2
            assert (weighted == 2) == (total == 1)
            seen += 1
        if len(e) < 4:
            prev = e[-1] if e else 0
            for nxt in range(0, prev + 2):
                if sum(e) + nxt <= 6:
                    stack.append(e + (nxt,))
    assert seen == 52

    for n in range(2, 6):
        for d in [(0,) * (n - 1), (1,) + (0,) * (n - 2), (2,) * (n - 1)]:
            assert hyperquot_dim(n, d) == n * (n - 1) // 2 + 2 * sum(d)
    # the dimension formula is what forces the two-point invariants of
    # mismatched total degree to vanish
    w0 = longest_element(3)
    assert length(w0) + length(w0) != hyperquot_dim(3, (0, 0))
    assert gromov_witten([w0], w0, (0, 0)) == 0
    assert length(w0) + length((1, 2, 3)) == hyperquot_dim(3, (0, 0))
    assert gromov_witten([w0], (1, 2, 3), (0, 0)) == 1


def test_11_partial_complete_coherence_n3():
    shape = FlagShape((1, 2), 3)
    ring = partial_ring(shape)
    assert ring.basis == tuple(all_permutations(3))
    for u, v in product(all_permutations(3), repeat=2):
        partial = partial_quantum_product(u, v, shape)
        complete = quantum_product(u, v)
        assert partial == complete
        assert dict(partial.items()) == dict(complete.items())
