"""Permutation combinatorics and flag-shape bookkeeping."""

import math
from itertools import combinations, permutations

import pytest
from hypothesis import given, strategies as st

from qschubert import (
    FlagShape,
    all_permutations,
    compose,
    dual,
    hyperquot_dim,
    identity,
    length,
    lemma_es_check,
    longest_element,
    rank_fn,
    reduced_word,
    sn_elements,
    transposition,
    validate,
)


def perms(max_n=5):
    return st.integers(2, max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))
    ).map(tuple)


def test_length_examples():
    assert length((1, 2, 3)) == 0
    assert length((3, 2, 1)) == 3
    assert length((2, 4, 1, 3)) == 3


def test_length_of_longest_element():
    for n in range(2, 7):
        assert length(longest_element(n)) == n * (n - 1) // 2


def test_rank_fn_examples():
    assert rank_fn((1, 2, 3), 2, 1) == 1
    assert rank_fn((3, 2, 1), 2, 2) == 1
    assert rank_fn((3, 2, 1), 3, 3) == 3


def test_rank_fn_rejects_out_of_range():
    with pytest.raises(ValueError):
        rank_fn((2, 1), 0, 1)
    with pytest.raises(ValueError):
        rank_fn((2, 1), 1, 3)


@given(perms())
def test_rank_fn_monotone_and_full_row(w):
    n = len(w)
    for q in range(1, n + 1):
        for p in range(1, n + 1):
            r = rank_fn(w, q, p)
            if q < n:
                assert rank_fn(w, q + 1, p) >= r
            if p < n:
                assert rank_fn(w, q, p + 1) >= r
    for p in range(1, n + 1):
        assert rank_fn(w, n, p) == p


def test_longest_element_and_dual_examples():
    assert longest_element(3) == (3, 2, 1)
    assert dual((1, 2, 3)) == (3, 2, 1)
    assert dual((3, 2, 1)) == (1, 2, 3)


@given(perms())
def test_dual_is_an_involution_with_complementary_length(w):
    n = len(w)
    assert dual(w) == compose(longest_element(n), w)
    assert dual(dual(w)) == w
    assert length(w) + length(dual(w)) == n * (n - 1) // 2


@given(perms())
def test_compose_inverse_identity(w):
    n = len(w)
    # w⁻¹ lists the positions of w in the order of their values
    inverse = tuple(sorted(range(1, n + 1), key=lambda i: w[i - 1]))
    assert compose(w, inverse) == identity(n)
    assert compose(inverse, w) == identity(n)


def test_compose_convention_applies_right_factor_first():
    u = (2, 3, 1)
    v = (1, 3, 2)
    assert compose(u, v) == tuple(u[v[i] - 1] for i in range(3))


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        compose((2, 1), (1, 2, 3))


def test_validate_rejects_non_permutations():
    with pytest.raises(ValueError):
        validate((1, 1, 2))
    with pytest.raises(ValueError):
        validate((0, 1))


def test_transposition_swaps_adjacent_entries():
    assert transposition(4, 2) == (1, 3, 2, 4)
    with pytest.raises(ValueError):
        transposition(3, 3)


def test_reduced_word_lengths():
    assert reduced_word((3, 2, 1)) == ()
    assert len(reduced_word((1, 2, 3))) == 3
    assert len(reduced_word((2, 1, 3))) == 2


@given(perms())
def test_reduced_word_recomposes_from_longest_element(w):
    n = len(w)
    word = reduced_word(w)
    assert len(word) == n * (n - 1) // 2 - length(w)
    rebuilt = longest_element(n)
    for i in word:
        rebuilt = compose(rebuilt, transposition(n, i))
    assert rebuilt == w


def test_all_permutations_is_sorted_and_complete():
    got = all_permutations(3)
    assert got == sorted(permutations((1, 2, 3)))
    assert len(all_permutations(4)) == 24


def test_flag_shape_basic_fields():
    shape = FlagShape((1, 3), 4)
    assert shape.ns == (0, 1, 3, 4)
    assert shape.m == 2
    assert shape.q_grades == (3, 3)
    assert not shape.is_complete()
    assert FlagShape((1, 2), 3).is_complete()
    assert FlagShape.complete(4) == FlagShape((1, 2, 3), 4)


def test_flag_shape_string_round_trip():
    shape = FlagShape.from_string("2:4")
    assert shape == FlagShape((2,), 4)
    assert shape.to_string() == "2:4"
    assert FlagShape.from_string("1:3:4").steps == (1, 3)


def test_flag_shape_rejects_bad_steps():
    with pytest.raises(ValueError):
        FlagShape((3, 1), 4)
    with pytest.raises(ValueError):
        FlagShape((0,), 2)
    with pytest.raises(ValueError):
        FlagShape((2,), 2)


def test_equal_valued_entries_are_read_as_ints():
    shape = FlagShape((1.0, True + 1), 3.0)
    assert shape == FlagShape((1, 2), 3)
    assert all(type(a) is int for a in shape.steps + (shape.n,))
    for bad in ((1.5,), 3), ((1,), "3"), ((None,), 3):
        with pytest.raises(TypeError):
            FlagShape(*bad)
    # the same tuple whether the int or the float form is checked first
    step = FlagShape((2,), 4)
    for w in ((3.0, 4, 1, 2), (3, 4, 1, 2), (3, 4.0, True, 2)):
        for got in (validate(w), step.check(w)):
            assert got == (3, 4, 1, 2)
            assert all(type(a) is int for a in got)


def test_flag_shape_dimension():
    assert FlagShape((1,), 2).dimension == 1
    assert FlagShape((2,), 4).dimension == 4
    assert FlagShape.complete(3).dimension == 3
    assert FlagShape.complete(4).dimension == 6


def test_block_of_and_min_rep():
    shape = FlagShape((2,), 4)
    assert shape.min_rep((3, 1, 4, 2)) == (1, 3, 2, 4)
    assert shape.min_rep((4, 3, 2, 1)) == (3, 4, 1, 2)


def test_shape_dual_lands_in_minimal_representatives():
    shape = FlagShape((2,), 4)
    for w in sn_elements(shape):
        wd = shape.dual(w)
        assert wd in sn_elements(shape)
        assert shape.dual(wd) == w
        assert length(w) + length(wd) == shape.dimension


def test_sn_elements_examples():
    assert sn_elements(FlagShape((1,), 3)) == [(1, 2, 3), (2, 1, 3), (3, 1, 2)]
    assert len(sn_elements(FlagShape((2,), 4))) == 6
    assert len(sn_elements(FlagShape.complete(3))) == 6


def test_sn_elements_cardinality_and_ascents():
    for shape in [FlagShape((1, 3), 4), FlagShape((2,), 5), FlagShape.complete(4)]:
        elems = sn_elements(shape)
        blocks = [b - a for a, b in zip(shape.ns, shape.ns[1:])]
        expected = math.factorial(shape.n)
        for b in blocks:
            expected //= math.factorial(b)
        assert len(elems) == expected
        assert elems == sorted(elems)
        for w in elems:
            for i in range(1, shape.n):
                if i not in shape.steps:
                    assert w[i - 1] < w[i]


def test_sn_elements_matches_ascent_filter_for_every_shape_up_to_n6():
    for n in range(2, 7):
        for r in range(1, n):
            for steps in combinations(range(1, n), r):
                shape = FlagShape(steps, n)
                expected = [
                    w for w in all_permutations(n)
                    if all(w[i - 1] < w[i] for i in range(1, n) if i not in steps)
                ]
                assert sn_elements(shape) == expected, shape


def test_hyperquot_dim_examples():
    assert hyperquot_dim(3, (0, 0)) == 3
    assert hyperquot_dim(3, (1, 0)) == 5
    assert hyperquot_dim(2, (2,)) == 5


def test_hyperquot_dim_rejects_bad_degrees():
    with pytest.raises(ValueError):
        hyperquot_dim(3, (1,))
    with pytest.raises(ValueError):
        hyperquot_dim(3, (-1, 0))


def valid_multiindices(max_total, max_len):
    """All e with entries ≥ 0, unit upward steps, and 1 ≤ Σe ≤ max_total."""
    out = []
    stack = [()]
    while stack:
        e = stack.pop()
        if e and sum(e) >= 1:
            out.append(e)
        if len(e) == max_len:
            continue
        prev = e[-1] if e else 0
        for nxt in range(0, prev + 2):
            if sum(e) + nxt <= max_total:
                stack.append(e + (nxt,))
    return out


def test_lemma_es_examples():
    assert lemma_es_check((1, 0, 0)) == (1, 2)
    assert lemma_es_check((1, 1, 0)) == (2, 3)
    assert lemma_es_check((1, 2, 2)) == (5, 8)


def test_lemma_es_rejects_invalid_input():
    with pytest.raises(ValueError):
        lemma_es_check((0, 2))
    with pytest.raises(ValueError):
        lemma_es_check((0, 0))
    with pytest.raises(ValueError):
        lemma_es_check((1, -1))


def test_lemma_es_bounds_exhaustive():
    # Both claims: Σe ≤ weighted sum, and weighted sum ≥ 2 with
    # equality exactly when Σe = 1.  All valid e with Σe ≤ 6, length ≤ 4.
    cases = valid_multiindices(6, 4)
    assert len(cases) == 52
    for e in cases:
        total, weighted = lemma_es_check(e)
        assert total == sum(e)
        assert total <= weighted
        assert weighted >= 2
        assert (weighted == 2) == (total == 1)


def _all_shapes(top):
    return [FlagShape(steps, n) for n in range(2, top + 1)
            for r in range(1, n) for steps in combinations(range(1, n), r)]


def test_shape_membership_accepts_exactly_sn_elements_up_to_n6():
    for shape in _all_shapes(6):
        members = sn_elements(shape)
        assert [w for w in all_permutations(shape.n)
                if shape.is_min_rep(w)] == members, shape
        members = set(members)
        for w in all_permutations(shape.n):
            if w in members:
                assert shape.check(list(w)) == w
            else:
                with pytest.raises(ValueError):
                    shape.check(w)


def test_min_rep_and_dual_match_their_definitions_up_to_n6():
    for shape in _all_shapes(6):
        ns, n = shape.ns, shape.n

        def sort_blocks(w):
            return tuple(a for l in range(1, len(ns))
                         for a in sorted(w[ns[l - 1]:ns[l]]))

        for w in all_permutations(n):
            assert shape.min_rep(w) == sort_blocks(w), (shape, w)
        for w in sn_elements(shape):
            assert shape.dual(w) == sort_blocks(
                compose(longest_element(n), w)), (shape, w)


def test_shape_check_messages_are_one_line():
    shape = FlagShape((2,), 4)
    with pytest.raises(ValueError) as wrong_size:
        shape.check((2, 1, 3))
    with pytest.raises(ValueError) as not_minimal:
        shape.check((2, 1, 3, 4))
    assert str(wrong_size.value) == "permutation (2, 1, 3) is not in S_4"
    assert str(not_minimal.value) == (
        "(2, 1, 3, 4) is not a minimal coset representative for shape 2:4")
    with pytest.raises(ValueError, match="not a permutation of 1..3"):
        shape.check((1, 1, 2))
    # a permutation of another length is refused before 1..n is listed
    with pytest.raises(ValueError,
                       match=r"^permutation \(1,\) is not in S_1000000000000$"):
        FlagShape((1,), 10 ** 12).check((1,))
