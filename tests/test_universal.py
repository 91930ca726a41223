"""Path polynomials, universal Schubert polynomials, and their specializations."""

import hashlib
import json
import random
import sys
import threading

import pytest

from qschubert import (
    FlagShape,
    Polynomial,
    VerificationError,
    all_permutations,
    c_var,
    g_from_c,
    g_var,
    kernel_chern_check,
    length,
    partial_universal_schubert_c,
    path_poly,
    path_poly_range,
    quantum_e,
    quantum_schubert,
    q_var,
    schubert_poly,
    specialize_classical,
    specialize_quantum,
    universal_schubert_c,
    universal_schubert_g,
    x_var,
)
from qschubert import poly, universal
from qschubert.partial import PartialRing
from qschubert.schubert import (
    _e_fold_packed,
    _fold,
    _pack_images,
    _Transition,
    e_decomposition,
)
from qschubert.universal import path_poly_via_determinant, path_poly_via_recursion


def test_path_poly_examples():
    assert path_poly(1, 2) == g_var(1, 0) + g_var(2, 0)
    assert path_poly(2, 2) == g_var(1, 0) * g_var(2, 0) + g_var(1, 1)
    assert path_poly(3, 2).is_zero()
    assert path_poly(0, 4) == Polynomial.constant(1)


def test_path_poly_range_examples():
    assert path_poly_range(1, 2, 2) == g_var(2, 0)
    assert path_poly_range(2, 1, 2) == path_poly(2, 2)
    assert path_poly_range(3, 2, 3).is_zero()


def test_path_poly_monomials_are_disjoint_path_covers():
    for l in range(1, 6):
        for k in range(0, l + 1):
            p = path_poly(k, l)
            for mono, coeff in p.terms():
                assert coeff == 1
                intervals = []
                for (kind, i, j), exp in mono:
                    assert kind == "g" and exp == 1
                    intervals.append((i, i + j))
                covered = []
                for a, b in intervals:
                    assert 1 <= a <= b <= l
                    covered.extend(range(a, b + 1))
                assert len(covered) == len(set(covered)) == k


def test_path_poly_three_way_agreement():
    for l in range(1, 6):
        for k in range(0, l + 1):
            direct = path_poly(k, l)
            # each cover monomial is built in `_var_key` order, unsorted
            for mono, _ in direct.terms():
                assert list(mono) == sorted(mono, key=lambda ve: poly._var_key(ve[0]))
            assert direct == path_poly_via_recursion(k, l)
            assert direct == path_poly_via_determinant(k, l)


def test_path_poly_homogeneous_of_grade_k():
    for l in range(1, 6):
        for k in range(1, l + 1):
            assert path_poly(k, l).grade() == k


def test_g_from_c_examples():
    assert g_from_c(1, 0) == c_var(1, 1)
    for i in range(2, 5):
        assert g_from_c(i, 0) == c_var(1, i) - c_var(1, i - 1)
    expected = c_var(2, 2) - c_var(1, 1) * c_var(1, 2) + c_var(1, 1) * c_var(1, 1)
    assert g_from_c(1, 1) == expected


def test_g_from_c_round_trip_n5():
    n = 5
    assignment = {}
    for l in range(1, n + 1):
        for k in range(1, l + 1):
            assignment[("c", k, l)] = path_poly(k, l)
    for i in range(1, n + 1):
        for j in range(0, n - i + 1):
            expressed = g_from_c(i, j)
            assert expressed.grade() == j + 1
            assert expressed.substitute(assignment) == g_var(i, j)


def test_universal_schubert_c_examples():
    assert universal_schubert_c((1, 2, 3)) == Polynomial.constant(1)
    assert universal_schubert_c((2, 1, 3)) == c_var(1, 1)
    expected = c_var(1, 1) * c_var(1, 2) - c_var(2, 2)
    assert universal_schubert_c((3, 1, 2)) == expected


def test_universal_schubert_g_examples():
    assert universal_schubert_g((1, 2, 3)) == Polynomial.constant(1)
    assert universal_schubert_g((2, 1, 3)) == g_var(1, 0)
    assert universal_schubert_g((3, 1, 2)) == g_var(1, 0) * g_var(1, 0) - g_var(1, 1)


def test_universal_schubert_g_is_the_substitution_into_the_c_polynomial():
    # the fold with factor E_k(l) against c_k(l) := E_k(l) substituted into
    # 𝔖_w(c), the construction it replaced
    for n in (4, 5):
        for w in all_permutations(n):
            p = universal_schubert_c(w)
            asg = {v: path_poly(v[1], v[2]) for v in p.variables() if v[0] == "c"}
            assert universal_schubert_g(w) == p.substitute(asg), w


@pytest.mark.parametrize("n, sample", [(1, None), (2, None), (3, None),
                                       (4, None), (5, None), (6, None), (7, 60)])
def test_universal_lifts_match_the_per_call_e_fold(n, sample, naive_fold):
    """The folds over E_k(p) and c_k(p) packed once per n equal the sums
    multiplied out term by term, which pack nothing.  Past n = 5 only the
    c-lift is checked so: the naive E_k(p) sum takes seconds at n = 6, and
    test_s7_lifts_match_digest and the c → E substitution test cover the
    g-lift there."""
    ws = all_permutations(n)
    if sample:
        ws = random.Random(n).sample(ws, sample)
    for w in ws:
        coeffs = e_decomposition(w).coeffs
        if n <= 5:
            assert universal_schubert_g(w) == naive_fold(coeffs, path_poly), w
        assert universal_schubert_c(w) == naive_fold(coeffs, c_var), w


@pytest.mark.parametrize("n", range(1, 9))
def test_path_packing_fields_hold_the_top_grade(n):
    """Every g_i[j] with i + j ≤ n − 1 at exponent n − 1, alone and all in
    one monomial, round-trips through the packing of the path columns."""
    packing, columns = _Transition(n).columns(path_poly)
    assert [sorted(column) for column in columns] == [
        list(range(1, p + 1)) for p in range(1, n)]
    gs = [g_var(i, j) for i in range(1, n) for j in range(n - i)]
    assert sorted(packing._shifts) == sorted(v for g in gs for v in g.variables())
    top = n - 1
    assert (1 << packing._width) - 1 >= top
    powers = [g ** top for g in gs]
    all_at_top = Polynomial.constant(1)
    for power in powers:
        all_at_top = all_at_top * power
    p = sum(powers, all_at_top + 2)
    assert packing.unpack(packing.pack(p)) == p


def test_universal_schubert_homogeneous():
    for w in all_permutations(4):
        if length(w) == 0:
            continue
        assert universal_schubert_c(w).grade() == length(w)
        assert universal_schubert_g(w).grade() == length(w)


def test_specialize_quantum_and_classical_examples():
    p = g_var(1, 0) * g_var(1, 0) - g_var(1, 1)
    assert specialize_quantum(p) == x_var(1) * x_var(1) - q_var(1)
    assert specialize_classical(p) == x_var(1) * x_var(1)
    untouched = c_var(2, 3) + Polynomial.constant(7)
    assert specialize_quantum(untouched) == untouched


def test_specialization_kills_long_paths():
    p = g_var(1, 2) + g_var(2, 3) * g_var(1, 0)
    assert specialize_quantum(p).is_zero()


def test_quantum_e_examples():
    for l in range(1, 5):
        total = Polynomial.zero()
        for i in range(1, l + 1):
            total = total + x_var(i)
        assert quantum_e(1, l) == total
    assert quantum_e(2, 2) == x_var(1) * x_var(2) + q_var(1)
    expected = (x_var(1) * x_var(2) * x_var(3)
                + q_var(1) * x_var(3) + x_var(1) * q_var(2))
    assert quantum_e(3, 3) == expected


def test_quantum_e_matches_specialized_path_poly():
    for l in range(1, 6):
        for k in range(0, l + 1):
            assert quantum_e(k, l) == specialize_quantum(path_poly(k, l))


def test_quantum_schubert_examples():
    assert quantum_schubert((2, 1, 3)) == x_var(1)
    assert quantum_schubert((3, 1, 2)) == x_var(1) * x_var(1) - q_var(1)
    assert quantum_schubert((1, 2, 3)) == Polynomial.constant(1)


def _q_power(d):
    out = Polynomial.constant(1)
    for i, e in enumerate(d, start=1):
        out = out * q_var(i) ** e
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_quantum_monk_holds_for_the_quantum_schubert_polynomials(n):
    # x_r·𝔖^q_w = Σ c·q^d·𝔖^q_z over the terms of x_r ∗ σ_w, with w ∈ S_n
    # embedded in S_{n+1} so that every r ≤ n has its whole Monk sum
    engine = _Transition(n + 1)
    for w in all_permutations(n):
        for r in range(1, n + 1):
            rhs = Polynomial.zero()
            # x_r ∗ σ_w as (delta, sign) pairs on the rank of w
            wi = engine.codec.index(w + (n + 1,))
            for delta, c in engine._x_terms(r, wi):
                d, z = engine.codec.decode(wi + delta)
                rhs = rhs + c * _q_power(d) * quantum_schubert(z)
            assert x_var(r) * quantum_schubert(w) == rhs, (w, r)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_quantum_schubert_is_the_quantum_e_fold(n, naive_fold):
    # the oracle: the e-decomposition of 𝔖_w with e_k(p) ↦ e^q_k(p), summed
    # term by term up to n = 5 and, where that takes seconds, folded over
    # the packed e^q_k(p), which shares no code with the transition lift
    packed = _pack_images(quantum_e, n)
    for w in all_permutations(n):
        coeffs = e_decomposition(w).coeffs
        want = (naive_fold(coeffs, quantum_e) if n <= 5
                else _fold(coeffs, *packed)).to_json_obj()
        assert quantum_schubert(w).to_json_obj() == want, w


def test_concurrent_lifts_match_serial():
    ws = all_permutations(5)
    serial_engine = _Transition(5)
    serial = {w: serial_engine.lift(w) for w in ws}
    engine = _Transition(5)
    workers = 4
    start = threading.Barrier(workers)
    results = [None] * workers
    errors = []

    def work(slot):
        try:
            start.wait(timeout=60)
            # each thread starts at its own quarter of S_5
            cut = slot * len(ws) // workers
            results[slot] = {w: engine.lift(w) for w in ws[cut:] + ws[:cut]}
        except Exception as exc:  # reported below
            errors.append(exc)

    # switch threads often, so that they meet inside one transition tree
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert not any(t.is_alive() for t in threads)
    assert all(got == serial for got in results)


def test_concurrent_universal_lifts_match_serial(fresh_engines):
    ws = all_permutations(5)
    serial = {w: (universal_schubert_g(w), universal_schubert_c(w)) for w in ws}
    # a fresh engine for the threads, so that they pack its columns and
    # fill one packing's decode tables together (the lifts keep no memo of
    # their own)
    fresh_engines.cache_clear()
    workers = 4
    start = threading.Barrier(workers)
    results = [None] * workers
    errors = []

    def work(slot):
        try:
            order = random.Random(slot).sample(ws, len(ws))
            start.wait(timeout=60)
            results[slot] = {w: (universal.universal_schubert_g(w),
                                 universal.universal_schubert_c(w))
                             for w in order}
        except Exception as exc:  # reported below
            errors.append(exc)

    # switch threads often, so that they meet inside one packing and its
    # chunk tables
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert not any(t.is_alive() for t in threads)
    assert all(got == serial for got in results)


def test_concurrent_unpack_matches_serial():
    """Threads decode the universal lifts of S_5 through one fresh packing,
    whose chunk tables start empty and fill as they meet misses."""
    ws = all_permutations(5)
    packing, columns = _Transition(5).columns(path_poly)
    folds = [_e_fold_packed(e_decomposition(w).coeffs, columns) for w in ws]
    serial = [packing.unpack(f) for f in folds]
    fresh = poly._Packing(list(packing._shifts), packing._bound)
    assert [dict(table) for _, table in fresh._tables] == [{0: ()}] * 2
    workers = 4
    start = threading.Barrier(workers)
    results = [None] * workers
    errors = []

    def work(slot):
        try:
            order = random.Random(slot).sample(range(len(ws)), len(ws))
            start.wait(timeout=60)
            got = {i: fresh.unpack(folds[i]) for i in order}
            results[slot] = [got[i] for i in range(len(ws))]
        except Exception as exc:  # reported below
            errors.append(exc)

    # switch threads often, so that they miss and fill one table together
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert not any(t.is_alive() for t in threads)
    assert all(got == serial for got in results)
    assert [dict(t) for _, t in fresh._tables] == \
        [dict(t) for _, t in packing._tables]


# the sha256 of one JSON array that holds, for each w of
# random.Random(7).sample(S_7, 60) in that order, [w, 𝔖^q_w, 𝔖_w(g), 𝔖_w(c)],
# each polynomial as its sorted (monomial, coefficient) pairs
S7_LIFT_DIGEST = "333678cccaee94f9ee0a7d523bfeadc0c1347e972f8b1d09bcffb0a47de600e0"


def test_s7_lifts_match_digest(fresh_engines):
    lifts = (quantum_schubert, universal_schubert_g, universal_schubert_c)
    digest = hashlib.sha256(b"[")
    # entry by entry, as json.dumps writes the array, so that no more than
    # one entry's lifts are held at once
    for i, w in enumerate(random.Random(7).sample(all_permutations(7), 60)):
        entry = [list(w)] + [sorted(lift(w)._terms.items()) for lift in lifts]
        digest.update((", " if i else "").encode() + json.dumps(entry).encode())
    digest.update(b"]")
    assert digest.hexdigest() == S7_LIFT_DIGEST


def test_specialization_chain_s4():
    for w in all_permutations(4):
        universal = universal_schubert_g(w)
        assert specialize_quantum(universal) == quantum_schubert(w)
        assert specialize_classical(universal) == schubert_poly(w)
        assert quantum_schubert(w).substitute(
            {("q", i): Polynomial.zero() for i in range(1, 4)}
        ) == schubert_poly(w)


def test_kernel_chern_check_examples():
    assert kernel_chern_check(1, 2)
    assert kernel_chern_check(3, 3)
    assert kernel_chern_check(2, 4)


def test_kernel_chern_check_full_range_n5():
    for l in range(2, 6):
        for k in range(1, l):
            assert kernel_chern_check(k, l)


def test_path_alphabet_admissibility():
    # the paths of E_k(3) use exactly the g_i[j] with i ≥ 1, j ≥ 0, i+j ≤ 3
    used = set().union(*(path_poly(k, 3).variables() for k in range(4)))
    assert used == {("g", i, j) for i in range(1, 4) for j in range(4 - i)}


def test_path_alphabet_validates_arguments():
    with pytest.raises(ValueError):
        path_poly(1, 0)
    with pytest.raises(ValueError):
        quantum_e(1, 0)
    # a range starts at vertex 1 or later and is empty at worst
    for a, b in ((0, 2), (4, 2)):
        with pytest.raises(ValueError):
            path_poly_range(1, a, b)
    assert path_poly_range(0, 3, 2) == Polynomial.constant(1)
    # g_i[j] outside i ≥ 1, j ≥ 0 is zero
    assert g_from_c(0, 1).is_zero() and g_from_c(2, -1).is_zero()


def test_one_term_values_multiply_no_polynomials(monkeypatch):
    """The specializations, the q = 0 slice and the block substitutions of
    the partial lifts send every variable to 0, an int or one term c·m, so
    `substitute` multiplies no two polynomials and takes no power."""
    mul = Polynomial.__mul__

    def scalar_mul(self, other):
        if isinstance(other, Polynomial):
            raise AssertionError("a product of two polynomials")
        return mul(self, other)

    def no_pow(self, k):
        raise AssertionError("a power of a polynomial")

    monkeypatch.setattr(Polynomial, "__mul__", scalar_mul)
    monkeypatch.setattr(Polynomial, "__rmul__", scalar_mul)
    monkeypatch.setattr(Polynomial, "__pow__", no_pow)
    shape = FlagShape((2, 4), 6)
    for w in all_permutations(4):
        g = universal_schubert_g(w)
        assert specialize_quantum(g) == quantum_schubert(w)
        assert specialize_classical(g) == schubert_poly(w)
        q = quantum_schubert(w)
        assert q.substitute({v: 0 for v in q.variables() if v[0] == "q"}) \
            == schubert_poly(w)
    ring = PartialRing(shape)
    for w in ring.basis:
        partial_universal_schubert_c(w, shape)
        ring._basis_lift(w)
