"""Schubert polynomials, divided differences, and e-decompositions."""

import json
import random
import sys
import threading
from bisect import bisect_right
from collections import Counter
from functools import lru_cache
from itertools import permutations, product, zip_longest
from pathlib import Path

import pytest

from qschubert import (
    FlagShape,
    Polynomial,
    RingError,
    all_permutations,
    c_var,
    compose,
    divided_difference,
    e_decomposition,
    elementary_poly,
    length,
    longest_element,
    path_poly,
    q_var,
    quantum_e,
    quantum_ring,
    reduced_word,
    schubert_poly,
    transposition,
    x_var,
)
from qschubert import partial, poly, schubert, universal

X1, X2, X3 = x_var(1), x_var(2), x_var(3)


def test_divided_difference_examples():
    assert divided_difference(X1, 1) == Polynomial.constant(1)
    assert divided_difference(X1 * X2, 1).is_zero()
    assert divided_difference(X1 * X1 * X2, 2) == X1 * X1


def test_divided_difference_lowers_grade_by_one():
    p = X1 * X1 * X1 * X2 + 2 * X1 * X2 * X3 * X3
    for i in (1, 2):
        d = divided_difference(p, i)
        assert d.is_zero() or d.grade() == p.grade() - 1


def test_divided_difference_squares_to_zero():
    p = X1 * X1 * X2 * X3 + 3 * X1 * X1 * X1 - X2 * X2 * X3
    for i in (1, 2):
        assert divided_difference(divided_difference(p, i), i).is_zero()


def test_divided_difference_braid_relation():
    p = X1 * X1 * X1 * X2 * X2 * X3
    lhs = divided_difference(divided_difference(divided_difference(p, 1), 2), 1)
    rhs = divided_difference(divided_difference(divided_difference(p, 2), 1), 2)
    assert lhs == rhs


def test_divided_difference_commutes_at_distance():
    p = X1 * X1 * X2 * X3 * X3
    lhs = divided_difference(divided_difference(p, 1), 3)
    rhs = divided_difference(divided_difference(p, 3), 1)
    assert lhs == rhs


def test_schubert_poly_examples():
    assert schubert_poly((3, 2, 1)) == X1 * X1 * X2
    assert schubert_poly((1, 2, 3)) == Polynomial.constant(1)
    assert schubert_poly((2, 1, 3)) == X1


def test_schubert_poly_staircase_for_longest_element():
    staircase = X1 * X1 * X1 * X2 * X2 * X3
    assert schubert_poly((4, 3, 2, 1)) == staircase


def test_schubert_poly_homogeneous_of_length_grade():
    for w in all_permutations(4):
        p = schubert_poly(w)
        if length(w) == 0:
            assert p == Polynomial.constant(1)
        else:
            assert p.is_homogeneous()
            assert p.grade() == length(w)


def test_schubert_poly_recursion_under_divided_differences():
    # ∂_i 𝔖_w is 𝔖_{w·s_i} when that shortens w, and 0 otherwise.
    n = 4
    for w in all_permutations(n):
        p = schubert_poly(w)
        for i in range(1, n):
            ws = compose(w, transposition(n, i))
            got = divided_difference(p, i)
            if length(ws) < length(w):
                assert got == schubert_poly(ws)
            else:
                assert got.is_zero()


def test_schubert_poly_stability_under_embedding():
    for w in all_permutations(3):
        embedded = w + (4,)
        assert schubert_poly(embedded) == schubert_poly(w)


def test_elementary_poly_examples():
    assert elementary_poly(1, 2) == X1 + X2
    assert elementary_poly(2, 2) == X1 * X2
    assert elementary_poly(3, 2).is_zero()
    assert elementary_poly(0, 5) == Polynomial.constant(1)


def test_elementary_poly_pascal_recurrence():
    for l in range(2, 6):
        for k in range(1, l + 1):
            assert elementary_poly(k, l) == (
                elementary_poly(k, l - 1) + elementary_poly(k - 1, l - 1) * x_var(l)
            )


def test_e_decomposition_examples():
    assert e_decomposition((1, 2, 3)).coeffs == {(0, 0): 1}
    assert e_decomposition((3, 1, 2)).coeffs == {(1, 1): 1, (0, 2): -1}
    assert e_decomposition((2, 1, 3)).coeffs == {(1, 0): 1}


def test_e_decomposition_key_bounds_and_grading():
    for w in all_permutations(4):
        dec = e_decomposition(w)
        for key, coeff in dec.coeffs.items():
            assert coeff != 0
            assert len(key) == 3
            assert all(0 <= key[p] <= p + 1 for p in range(3))
            assert sum(key) == length(w)


def test_e_decomposition_recombines_exactly():
    for w in all_permutations(4):
        assert e_decomposition(w).recombine() == schubert_poly(w)
    assert schubert.EDecomposition({}).recombine().is_zero()
    assert e_decomposition((1,)).recombine() == Polynomial.constant(1)


@pytest.fixture()
def broken_packed_fold(monkeypatch, fresh_engines):
    """The packed fold of the recombination check off by 1, so the check
    of e_decomposition fails; the engines are fresh, so no decomposition
    is checked yet, and the universal lifts keep none, so each one reaches
    the check."""
    fold = schubert._e_fold_packed

    def broken(coeffs, columns):
        out = dict(fold(coeffs, columns))
        out[0] = out.get(0, 0) + 1
        return out

    monkeypatch.setattr(schubert, "_e_fold_packed", broken)


def test_failed_recombination_raises_verification_error(broken_packed_fold):
    with pytest.raises(poly.VerificationError, match="recombination failed"):
        e_decomposition((3, 1, 4, 2))


def test_e_fold_is_the_plain_sum_of_products():
    packed = schubert._pack_images(elementary_poly, 5)
    for w in all_permutations(5):
        coeffs = e_decomposition(w).coeffs
        plain = Polynomial.zero()
        for seq, a in coeffs.items():
            term = Polynomial.constant(a)
            for p, k in enumerate(seq, start=1):
                term = term * elementary_poly(k, p)
            plain = plain + term
        assert schubert._fold(coeffs, *packed) == plain, w
        assert plain == schubert_poly(w)


def test_e_fold_edge_cases():
    packed = schubert._pack_images(elementary_poly, 1)
    assert schubert._fold({}, *packed).is_zero()
    assert schubert._fold({(): 3}, *packed) == Polynomial.constant(3)
    # an image is looked up once per (k, p), 1 ≤ k ≤ p < n, used or not
    calls = []

    def factor(k, p):
        calls.append((k, p))
        return elementary_poly(k, p)

    coeffs = {(1, 0, 2): 2, (0, 1, 2): -1, (1, 1, 1): 5}
    assert schubert._fold(coeffs, *schubert._pack_images(factor, 4)) == (
        2 * X1 * elementary_poly(2, 3)
        - elementary_poly(1, 2) * elementary_poly(2, 3)
        + 5 * X1 * elementary_poly(1, 2) * elementary_poly(1, 3)
    )
    assert sorted(calls) == sorted(
        (k, p) for p in range(1, 4) for k in range(1, p + 1))


def _seeded_coeffs(seed, length, size, keep=()):
    """`size` seeded sequences K with 0 ≤ k_p ≤ p, and those in `keep`, each
    with a nonzero coefficient in [−5, 5]."""
    rng = random.Random(seed)
    seqs = list(product(*(range(p + 1) for p in range(1, length + 1))))
    chosen = rng.sample(seqs, min(size, len(seqs))) + list(keep)
    return {seq: rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]) for seq in chosen}


_PARTIAL_SHAPE = FlagShape((2, 4), 5)


def _partial_factor(k, p):
    """The factor of `partial_quantum_schubert` on the shape 2:4:5: column 1
    lies below n_1 = 2 and gives 0; columns 2–4 give σ classes, and
    ẽ^q_4(2) holds −q_1."""
    l = bisect_right(_PARTIAL_SHAPE.ns, p) - 1
    return (partial.partial_ring(_PARTIAL_SHAPE)._partial_e(k, l) if l
            else Polynomial.zero())


def _powers(k, p):
    """A factor with exponents above 1: x_1 reaches k·p at position p."""
    return X1 ** (k * p) + 3 * X2 ** k - x_var(p + 2)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("factor, length, size", [
    (elementary_poly, 5, 60),
    (path_poly, 5, 60),
    (quantum_e, 5, 60),
    (c_var, 5, 60),
    (_partial_factor, 4, 40),
])
def test_e_fold_matches_the_naive_sum(factor, length, size, seed, naive_fold):
    # the longest sequence uses every factor of the largest k at each p
    coeffs = _seeded_coeffs(seed, length, size, keep=[tuple(range(1, length + 1))])
    packed = schubert._pack_images(factor, length + 1)
    assert schubert._fold(coeffs, *packed) == naive_fold(coeffs, factor)


def test_partial_factor_has_sigmas_a_signed_q_and_a_zero_column():
    assert _partial_factor(1, 1).is_zero()
    assert any(v[0] == "sigma" for v in _partial_factor(2, 3).variables())
    assert _partial_factor(4, 4).coefficient(((("q", 1), 1),)) == -1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_e_fold_reaches_the_exponent_bound(seed, naive_fold):
    """An exponent of the sum equals the packing bound, Σ over positions p of
    the largest exponent of an image at p: x_1^{1·1 + 2·2 + 3·3}."""
    top = (1, 2, 3)
    coeffs = _seeded_coeffs(seed, 3, 8, keep=[top])
    bound = sum(
        max(e for k in range(1, p + 1)
            for mon in _powers(k, p)._terms for _, e in mon)
        for p in (1, 2, 3)
    )
    packing, columns = schubert._pack_images(_powers, 4)
    got = schubert._fold(coeffs, packing, columns)
    assert got == naive_fold(coeffs, _powers)
    top_x1 = max(e for mon in got._terms for v, e in mon if v == ("x", 1))
    assert top_x1 == bound == packing._bound == 14


def _e_monomial(seq) -> Polynomial:
    """e_{k_1}(1)⋯e_{k_L}(L) as a polynomial product."""
    out = Polynomial.constant(1)
    for p, k in enumerate(seq, start=1):
        out = out * elementary_poly(k, p)
    return out


def test_e_system_generators_are_the_elementary_products():
    # each row of the peel is the class of its e-monomial
    for n in range(2, 6):
        ring = quantum_ring(n)
        engine = schubert._Transition(n)
        zero = (0,) * (n - 1)
        for seq in product(*(range(p + 1) for p in range(1, n))):
            want = ring.expand_classical(_e_monomial(seq))
            row = engine.e_row(seq)
            assert dict(want.items()) == {(zero, w): c for w, c in row.items()}, seq


def test_e_sequences_match_the_filter_of_all_tuples():
    # K(w), read off a bitmask, is k_p = #{i ≤ p : w(i) > w(p+1)}, and the
    # pivots of the w of one grade are every K of the grade
    for n in range(1, 8):
        tuples = list(product(*(range(p + 1) for p in range(1, n))))
        pivots = {}
        for w in all_permutations(n):
            seq = schubert._e_pivot(w)
            assert seq == tuple(sum(w[i] > w[p] for i in range(p))
                                for p in range(1, n)), w
            pivots.setdefault(length(w), []).append(seq)
        for m in range(-1, n * (n - 1) // 2 + 2):
            assert sorted(pivots.get(m, ())) == [
                seq for seq in tuples if sum(seq) == m
            ], (n, m)


@pytest.mark.parametrize("n", range(1, 8))
def test_pivot_rows_are_unitriangular(n):
    """K(w) has grade ℓ(w) and k_p ≤ p, w ↦ K(w) is a bijection onto the K
    of each grade, and the class of e_{K(w)} holds σ_w at coefficient 1 and
    otherwise only σ_u with u⁻¹ lexicographically after w⁻¹."""
    engine = schubert._Transition(n)
    ws = all_permutations(n)
    pivots = {w: schubert._e_pivot(w) for w in ws}
    for w, seq in pivots.items():
        assert len(seq) == n - 1 and sum(seq) == length(w), w
        assert all(0 <= k <= p for p, k in enumerate(seq, start=1)), w
    assert len(set(pivots.values())) == len(ws)
    # each grade has as many K as w, so the injection is onto
    grades = Counter(map(sum, product(*(range(p + 1) for p in range(1, n)))))
    assert grades == Counter(map(length, ws))
    for w, seq in pivots.items():
        row = engine.e_row(seq)
        assert row.get(w) == 1, w
        inverse = _inverse(w)
        assert all(_inverse(u) > inverse for u in row if u != w), w
        assert schubert._is_pivot_row(row, w)


def _inverse(w):
    return tuple(sorted(range(1, len(w) + 1), key=lambda i: w[i - 1]))


def test_is_pivot_row_refuses_each_broken_property():
    w = (1, 3, 2)  # w⁻¹ = (1, 3, 2)
    assert schubert._is_pivot_row({w: 1, (2, 1, 3): 1, (3, 1, 2): 5}, w)
    # σ_w at a coefficient other than 1, or missing
    assert not schubert._is_pivot_row({w: 2, (2, 1, 3): 1}, w)
    assert not schubert._is_pivot_row({(2, 1, 3): 1}, w)
    # id⁻¹ = (1, 2, 3) comes before w⁻¹
    assert not schubert._is_pivot_row({w: 1, (1, 2, 3): 1}, w)


def test_lexicographic_walk_builds_each_row_once(e_rows_built):
    n = 6
    built = e_rows_built(n)
    reference = json.loads(
        (Path(__file__).parent / "data" / "e_reference.json").read_text("utf-8"))
    group = next(g for g in reference["groups"] if g["n"] == n)
    for w in all_permutations(n):
        got = [[list(seq), a] for seq, a in e_decomposition(w).coeffs.items()]
        assert got == group["entries"][",".join(map(str, w))], w
    assert max(built.values()) == 1
    assert sorted(built) == sorted(map(schubert._e_pivot, all_permutations(n)))


def test_e_decomposition_matches_the_echelon_solve():
    """The peel gives the coefficients, in the same order, that the generic
    echelon solve over the e-monomial polynomials gives."""
    for n in range(3, 7):
        tuples = list(product(*(range(p + 1) for p in range(1, n))))
        by_grade = {}
        for w in all_permutations(n):
            by_grade.setdefault(length(w), []).append(w)
        for m, ws in sorted(by_grade.items()):
            seqs = [seq for seq in tuples if sum(seq) == m]
            system = poly.EchelonSystem([_e_monomial(seq) for seq in seqs])
            for w in ws:
                solution = system.solve(schubert_poly(w))
                want = [(seq, a) for seq, a in zip(seqs, solution) if a]
                assert list(e_decomposition(w).coeffs.items()) == want, w


@pytest.mark.parametrize("n, sample", [(5, None), (6, 120), (7, 360)])
def test_pieri_is_the_q0_slice_of_the_product(n, sample):
    """e_k(p)·σ_z by the Pieri rule is the q⁰ slice of σ_z ∗ σ_g on the
    transition engine, 𝔖_g = e_k(p), for every 1 ≤ k ≤ p < n on a seeded
    sample of z, and in the last column, p = n − 1, which `_pieri` scans on
    its own, for every z of S_n up to n = 6 and the sample beyond.  Every
    class that `e_row` returns, and every prefix class behind it, is
    positive, so no Pieri sum can cancel."""
    zs = all_permutations(n)
    sampled = set(random.Random(n).sample(zs, sample)) if sample else set(zs)
    if n > 6:  # S_7's last column, like its others, on the sample alone
        zs = sorted(sampled)
    engine = schubert._Transition(n)
    zero = (0,) * (n - 1)
    decode, index = engine.codec.decode, engine.codec.index
    for z in zs:
        for p in range(1, n) if z in sampled else (n - 1,):
            rows = schubert._pieri(z, p)
            assert len(rows) == p + 1 and rows[0] == {z: 1}
            for k in range(1, p + 1):
                product = engine.product(
                    index(z), index(schubert._grassmannian(k, p, n)))
                want = {y: c for (d, y), c in
                        ((decode(key), c) for key, c in product.items())
                        if d == zero}
                assert rows[k] == want, (z, k, p)
                assert set(rows[k].values()) <= {1}, (z, k, p)
    for z in zs:
        row = engine.e_row(schubert._e_pivot(z))
        assert row and min(row.values()) > 0, z
    assert all(min(cls.values()) > 0 for cls in engine._e_prefixes.values())


def test_schubert_poly_is_the_divided_difference_chain_on_s6():
    """The packed first-ascent memo gives the Polynomial chain of ∂_i over
    the reduced word, applied to the staircase."""
    n = 6
    staircase = Polynomial.constant(1)
    for p in range(1, n):
        staircase = staircase * x_var(p) ** (n - p)
    for w in all_permutations(n):
        want = staircase
        for i in reduced_word(w):
            want = divided_difference(want, i)
        assert schubert_poly(w) == want, w


@pytest.mark.parametrize("n", range(1, 9))
def test_schubert_packing_fields_hold_the_top_grade(n):
    packing = schubert._transition(n)._packing
    top = n * (n - 1) // 2
    assert (1 << packing._width) - 1 >= top
    # every x_1..x_n and q_1..q_{n−1} at the bound, each alone and all in
    # one monomial
    powers = [v ** top for v in
              [x_var(i) for i in range(1, n + 1)] + [q_var(i) for i in range(1, n)]]
    all_at_top = Polynomial.constant(1)
    for power in powers:
        all_at_top = all_at_top * power
    p = sum(powers, all_at_top + 2)
    assert packing.unpack(packing.pack(p)) == p


@pytest.mark.parametrize("n", range(2, 9))
def test_lift_packing_fields_hold_the_top_grade(n):
    """The lift's variables, x_1..x_{n−1} and q_1..q_{n−1}, at exponent
    C(n, 2) round-trip through the engine's one packing."""
    packing = schubert._transition(n)._packing
    top = n * (n - 1) // 2
    assert (1 << packing._width) - 1 >= top
    # every variable at the bound, each alone and all in one monomial
    powers = [v ** top for v in
              [x_var(i) for i in range(1, n)] + [q_var(i) for i in range(1, n)]]
    all_at_top = Polynomial.constant(1)
    for power in powers:
        all_at_top = all_at_top * power
    p = sum(powers, all_at_top + 2)
    assert packing.unpack(packing.pack(p)) == p


def test_schubert_check_and_lift_fill_one_engine():
    w = (2, 5, 1, 4, 3)
    engine = schubert._transition(5)
    # the check reads 𝔖_w, and the peel and the check fill their own memos
    for fill, memos in ((schubert_poly, [engine._classical]),
                        (e_decomposition, [engine._classical, engine._e_coeffs,
                                           engine._decompositions]),
                        (universal.quantum_schubert, [engine._lifts])):
        for memo in memos:
            memo.pop(w, None)
        fill(w)
        assert all(w in memo for memo in memos), fill
    assert w in engine._classical and w in engine._lifts


def test_concurrent_engine_matches_serial(fresh_engines):
    ws = all_permutations(5)
    serial = {w: (schubert_poly(w), universal.quantum_schubert(w),
                  e_decomposition(w)) for w in ws}
    # the threads share one engine that holds nothing yet
    fresh_engines.cache_clear()
    workers = 4
    start = threading.Barrier(workers)
    results = [None] * workers
    errors = []

    def work(slot):
        try:
            order = random.Random(slot).sample(ws, len(ws))
            start.wait(timeout=60)
            results[slot] = {w: (schubert.schubert_poly(w),
                                 universal.quantum_schubert(w),
                                 schubert.e_decomposition(w)) for w in order}
        except Exception as exc:  # reported below
            errors.append(exc)

    # switch threads often, so that they meet inside one chain of ∂_i
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
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert all(got == serial for got in results)


@pytest.mark.parametrize("n, sample", [(3, None), (4, None), (5, None),
                                       (6, None), (7, 60)])
def test_packed_lift_matches_the_polynomial_transition(n, sample):
    """Each packed lift is one transition step of the lifts below it, taken
    in Polynomial arithmetic: 𝔖^q_w = x_r·𝔖^q_v − Σ c·q^d·𝔖^q_u; and the
    product walk takes the same step, on ranks."""
    ws = all_permutations(n)
    if sample:
        ws = random.Random(n).sample(ws, sample)
    engine = schubert._Transition(n)
    index = engine.codec.index
    assert engine.lift(engine.identity) == Polynomial.constant(1)
    for w in ws:
        if w == engine.identity:
            continue
        r, v, rest = engine._step(w)
        ranked = tuple((dkey, index(u), c) for dkey, u, c in rest)
        assert engine._rank_tree(index(w))[1:] == (r, index(v), ranked), w
        want = x_var(r) * engine.lift(v)
        for dkey, u, c in rest:
            d = engine.codec.decode(dkey)[0]
            q_d = Polynomial.constant(c)
            for i, e in enumerate(d, start=1):
                q_d = q_d * q_var(i) ** e
            want = want - q_d * engine.lift(u)
        assert engine.lift(w) == want, w


def test_no_library_lift_builds_an_echelon_system(monkeypatch, fresh_engines):
    def refuse(*args, **kwargs):
        raise AssertionError("a library lift built an echelon system")

    monkeypatch.setattr(poly.EchelonSystem, "__init__", refuse)
    for n in range(3, 6):
        for w in sorted(all_permutations(n), key=length):
            assert e_decomposition(w).recombine() == schubert_poly(w)
            universal.universal_schubert_c(w)
            universal.universal_schubert_g(w)
    for text in ("2:4", "1:3:4", "2:4:6"):
        shape = FlagShape.from_string(text)
        # a ring of its own holds no lift yet
        ring = partial.PartialRing(shape)
        for w in ring.basis:
            ring.basis_polynomial(w)
            partial.partial_universal_schubert_c(w, shape)


def test_a_stuck_peel_raises_ring_error(doubled_pieri):
    with pytest.raises(RingError, match="not unitriangular"):
        e_decomposition((1, 3, 2))
    # grade 0 has no product, so nothing is stuck there
    assert e_decomposition((1, 2, 3)).coeffs == {(0, 0): 1}


def test_a_stuck_peel_stores_nothing(doubled_pieri):
    w = (1, 3, 2)
    for _ in range(2):  # the second call raises again, from no stale entry
        with pytest.raises(RingError, match="not unitriangular"):
            e_decomposition(w)
        assert w not in schubert._transition(3)._e_coeffs


def test_e_decomposition_publishes_the_engine_entry(fresh_engines):
    """The sorted a_K that e_decomposition publishes are the engine's own
    entry, not a copy beside it."""
    for w in all_permutations(4):
        coeffs = e_decomposition(w).coeffs
        assert coeffs is fresh_engines(4)._e_coeffs[w]
        assert list(coeffs) == sorted(coeffs)


def _memo_sizes(owner) -> dict:
    """The entry count of each dict an engine or a ring holds, a list of
    dicts read as a dict by index, with the entry count of its dict values:
    what any memo that grows changes."""
    sizes = {}
    for name, value in vars(owner).items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            value = dict(enumerate(value))
        if isinstance(value, dict):
            sizes[name] = (len(value), sum(len(v) for v in value.values()
                                           if isinstance(v, dict)))
    return sizes


def test_fresh_owners_leave_the_shared_memos_unchanged(monkeypatch):
    """Every memo of n is its engine's and every memo of a shape its
    ring's: lifts and decompositions on a fresh engine and a fresh
    PartialRing add nothing to the shared ones."""
    n, shape = 5, FlagShape.from_string("2:3:5")
    engine, ring = schubert._transition(n), partial.partial_ring(shape)
    for w in ((2, 1, 3, 4, 5), (3, 1, 2, 5, 4)):
        e_decomposition(w)
        universal.quantum_schubert(w)
        universal.universal_schubert_g(w)
    ring.basis_polynomial(ring.basis[1])
    ring.relations()
    before = _memo_sizes(engine), _memo_sizes(ring)
    fresh = lru_cache(maxsize=None)(schubert._Transition)
    monkeypatch.setattr(schubert, "_transition", fresh)
    monkeypatch.setattr(universal, "_transition", fresh)
    own = partial.PartialRing(shape)
    for w in all_permutations(n):
        schubert_poly(w)
        e_decomposition(w)
        universal.quantum_schubert(w)
        universal.universal_schubert_g(w)
        universal.universal_schubert_c(w)
    for w in own.basis:
        own.basis_polynomial(w)
    own.relations()
    assert (_memo_sizes(engine), _memo_sizes(ring)) == before
    assert len(fresh(n)._decompositions) == 120
    assert len(fresh(n)._columns) == 2
    assert len(own._lifts) == len(own.basis)


def _decompose(ws):
    """The a_K of each w, on the engines of the moment: `fresh_engines`
    makes them fresh, and its `cache_clear()` drops every memo they hold."""
    return {w: e_decomposition(w).coeffs for w in ws}


def test_grade_by_grade_walk_builds_each_row_once(monkeypatch, e_rows_built):
    def refuse(*args, **kwargs):
        raise AssertionError("e_decomposition built an echelon system")

    monkeypatch.setattr(poly.EchelonSystem, "__init__", refuse)
    built = e_rows_built(5)
    ws = sorted(all_permutations(5), key=length)
    _decompose(ws)
    assert sorted(built) == sorted(map(schubert._e_pivot, ws))
    assert set(built.values()) == {1}
    # the engine keeps every a_K it peeled; a repeat builds nothing, even
    # past the memo of checked decompositions
    schubert._transition(5)._decompositions.clear()
    _decompose([longest_element(5)])
    assert sum(built.values()) == len(ws)


def test_interleaved_grades_match_serial_order(fresh_engines):
    s4 = sorted(all_permutations(4), key=length)
    s5 = sorted(all_permutations(5), key=length)
    serial = _decompose(s4 + s5)
    fresh_engines.cache_clear()
    # while S_4 lasts, every call changes n, and so the engine it peels on
    order = [w for pair in zip_longest(s4, reversed(s5)) for w in pair if w]
    assert _decompose(order) == serial


@pytest.mark.parametrize("n", [5, 6])
def test_threads_sharing_the_system_match_serial(fresh_engines, n):
    ws = all_permutations(n)
    serial = _decompose(ws)
    # the threads peel on one engine that holds nothing yet
    fresh_engines.cache_clear()
    workers = 4
    start = threading.Barrier(workers)
    results = [None] * workers
    errors = []

    def work(slot):
        try:
            order = list(ws)
            random.Random(slot).shuffle(order)
            start.wait(timeout=60)
            results[slot] = _decompose(order)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert all(got == serial for got in results)


def test_e_decomposition_recombines_on_all_of_s6():
    for w in sorted(all_permutations(6), key=length):
        assert e_decomposition(w).recombine() == schubert_poly(w)


def monk_expansion(r, w, n):
    """Transposition enumeration for multiplying by the r-th simple class.

    The product of the codimension-one class indexed by s_r with the class
    of w is the sum of classes w·t_{ab} over a ≤ r < b ≤ n that raise the
    length by exactly one.
    """
    out = {}
    for a in range(1, r + 1):
        for b in range(r + 1, n + 1):
            t = list(range(1, n + 1))
            t[a - 1], t[b - 1] = b, a
            wt = compose(w, tuple(t))
            if length(wt) == length(w) + 1:
                out[wt] = out.get(wt, 0) + 1
    return out


def test_classical_monk_oracle_exhaustive_s4():
    n = 4
    ring = quantum_ring(n)
    for w in all_permutations(n):
        for r in range(1, n):
            got = ring.classical_product(transposition(n, r), w)
            expected = monk_expansion(r, w, n)
            got_map = {key[1]: c for key, c in got.items()}
            assert got_map == expected


def test_x_times_schubert_expands_with_unit_coefficients():
    # x_r equals the difference of consecutive simple classes, so its
    # product with any basis class has coefficients in {0, ±1}.
    n = 4
    ring = quantum_ring(n)
    for w in all_permutations(n):
        for r in range(1, n):
            cls = ring.expand_classical(x_var(r) * schubert_poly(w))
            plus = monk_expansion(r, w, n)
            minus = monk_expansion(r - 1, w, n) if r > 1 else {}
            expected = {v: c for v, c in
                        ((v, plus.get(v, 0) - minus.get(v, 0))
                         for v in set(plus) | set(minus)) if c != 0}
            got_map = {key[1]: c for key, c in cls.items()}
            assert got_map == expected
            assert all(c in (1, -1) for c in got_map.values())


def test_memo_returns_equal_polynomials():
    a = schubert_poly((2, 3, 1))
    b = schubert_poly(tuple((2, 3, 1)))
    assert a == b
