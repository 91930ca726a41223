"""Exact polynomial arithmetic, grading, rendering, and the linear solver."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qschubert import poly

from qschubert import (
    EchelonSystem,
    NonIntegralError,
    NoSolutionError,
    Polynomial,
    c_var,
    g_var,
    q_var,
    sigma_var,
    solve_linear_expansion,
    x_var,
)

X1, X2, X3 = x_var(1), x_var(2), x_var(3)
Q1 = q_var(1)


def small_polys():
    vars_ = [X1, X2, X3, Q1]
    term = st.tuples(
        st.integers(-4, 4),
        st.lists(st.sampled_from(vars_), min_size=0, max_size=3),
    )

    def build(terms):
        p = Polynomial.zero()
        for c, fs in terms:
            m = Polynomial.constant(c)
            for f in fs:
                m = m * f
            p = p + m
        return p

    return st.lists(term, min_size=0, max_size=4).map(build)


def test_constructors():
    assert Polynomial.zero().is_zero()
    assert Polynomial.constant(0).is_zero()
    assert Polynomial.constant(3).to_text() == "3"
    assert x_var(1) == Polynomial.variable(("x", 1))


def test_mul_example():
    assert (X1 * X1).to_text() == "x1^2"


def test_integer_scalar_multiplication_both_sides():
    p = X1 + X2
    assert 2 * p == p * 2 == p + p


@settings(max_examples=60)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + Polynomial.zero() == p
    assert p * Polynomial.constant(1) == p
    assert p - p == Polynomial.zero()


@settings(max_examples=40)
@given(small_polys(), small_polys())
def test_substitute_is_a_ring_homomorphism(p, q):
    assignment = {("x", 1): X2 + Q1, ("x", 3): Polynomial.constant(2)}
    assert (p * q).substitute(assignment) == p.substitute(assignment) * q.substitute(assignment)
    assert (p + q).substitute(assignment) == p.substitute(assignment) + q.substitute(assignment)


def test_substitute_leaves_unassigned_variables_fixed():
    p = g_var(1, 0) * g_var(2, 0) + g_var(1, 1)
    got = p.substitute({("g", 1, 1): Q1})
    assert got == g_var(1, 0) * g_var(2, 0) + Q1


def test_substitute_can_kill_a_variable():
    p = g_var(1, 0) + g_var(1, 1) + g_var(1, 2)
    killed = p.substitute({("g", 1, 1): Polynomial.zero(), ("g", 1, 2): Polynomial.zero()})
    assert killed == g_var(1, 0)


def test_variable_grades_through_homogeneity():
    assert (X1 * X2).grade() == 2
    assert Q1.grade() == 2
    assert g_var(1, 2).grade() == 3
    assert c_var(3, 5).grade() == 3
    assert sigma_var(2, 1).grade() == 2
    assert q_var(1).grade(q_grades={1: 4}) == 4


def test_out_of_convention_variables_collapse():
    assert c_var(0, 7) == Polynomial.constant(1)
    assert c_var(-1, 2).is_zero()
    assert c_var(3, 2).is_zero()
    assert c_var(1, 0).is_zero()
    assert g_var(0, 1).is_zero()
    assert g_var(1, -1).is_zero()


def test_homogeneous_component_examples():
    p = X1 + X1 * X2
    assert p.homogeneous_component(2) == X1 * X2
    both = X1 * X1 - Q1
    assert both.homogeneous_component(2) == both
    assert p.homogeneous_component(-1).is_zero()


@settings(max_examples=40)
@given(small_polys())
def test_graded_components_recover_polynomial(p):
    total = Polynomial.zero()
    for grade in p.grades():
        part = p.homogeneous_component(grade)
        assert part.is_homogeneous()
        assert part.grade() == grade
        total = total + part
    assert total == p


def test_monomial_order_is_total_and_multiplicative():
    monos = [
        X1 * X1, X1 * X2, X2 * X2, Q1, X1 * X1 * X2, X3,
        g_var(1, 0) * X1, c_var(2, 2), sigma_var(1, 1) * Q1,
    ]
    keys = [p.terms()[0][0] for p in monos]
    from qschubert.poly import mon_mul, mon_sort_key

    ordered = sorted(keys, key=mon_sort_key)
    for extra in keys:
        bumped = [mon_mul(k, extra) for k in ordered]
        assert bumped == sorted(bumped, key=mon_sort_key)
    assert len(set(keys)) == len(keys)


def test_text_rendering_uses_fixed_order_and_unicode_minus():
    assert (X1 * X1 - Q1).to_text() == "x1^2 − q1"
    assert (X1 * X1 * X2).to_text() == "x1^2·x2"
    assert Polynomial.zero().to_text() == "0"
    assert (g_var(1, 0) * g_var(1, 0) - g_var(1, 1)).to_text() == "g1[0]^2 − g1[1]"
    assert (c_var(1, 1) * c_var(1, 2) - c_var(2, 2)).to_text() == "c1(1)·c1(2) − c2(2)"


def test_text_rendering_parenthesizes_superscripted_variables():
    s = sigma_var(1, 1)
    assert s.to_text() == "s1^1"
    assert (s * s).to_text() == "(s1^1)^2"


def test_json_round_trip():
    p = X1 * X1 * X2 - 3 * Q1 * X3 + c_var(2, 3) * g_var(1, 1) - sigma_var(2, 2)
    obj = p.to_json_obj()
    assert Polynomial.from_json_obj(obj) == p
    for term in obj:
        assert isinstance(term["coeff"], str)
        for factor in term["monomial"]:
            assert factor["kind"] in ("x", "q", "g", "c", "sigma")
            assert factor["exp"] >= 1


def test_json_of_constant():
    obj = Polynomial.constant(5).to_json_obj()
    assert Polynomial.from_json_obj(obj) == Polynomial.constant(5)


def _term(coeff, *factors):
    return {
        "coeff": str(coeff),
        "monomial": [
            {"kind": kind, "indices": list(indices), "exp": e}
            for kind, indices, e in factors
        ],
    }


def test_json_repeated_variable_is_merged():
    obj = [_term(2, ("x", [1], 1), ("q", [1], 1), ("x", [1], 1))]
    p = Polynomial.from_json_obj(obj)
    assert p == 2 * X1 * X1 * Q1
    assert p.to_text() == "2·x1^2·q1"
    assert Polynomial.from_json_obj(p.to_json_obj()) == p


def test_json_zero_exponent_is_dropped():
    p = Polynomial.from_json_obj([_term(3, ("x", [1], 0))])
    assert p == 3
    assert p.to_text() == "3"
    p = Polynomial.from_json_obj(
        [_term(1, ("x", [2], 1), ("x", [1], 0)), _term(-1, ("x", [2], 1))]
    )
    assert p.is_zero()


def test_json_negative_exponent_is_refused():
    with pytest.raises(ValueError, match="negative exponent"):
        Polynomial.from_json_obj([_term(1, ("x", [1], -1))])
    with pytest.raises(ValueError, match="negative exponent"):
        Polynomial.from_json_obj([_term(1, ("x", [1], 2), ("x", [1], -1))])


def _canonical_monomials():
    """Sorted monomials over all five kinds, each variable once with a
    positive exponent; the kind order x < q < g < c < sigma is not the
    alphabetical one."""
    var = st.one_of(
        st.tuples(st.just("x"), st.integers(1, 4)),
        st.tuples(st.just("q"), st.integers(1, 4)),
        st.tuples(st.just("g"), st.integers(1, 3), st.integers(0, 2)),
        st.tuples(st.just("c"), st.integers(1, 3), st.integers(1, 3)),
        st.tuples(st.just("sigma"), st.integers(1, 3), st.integers(1, 3)),
    )
    return st.dictionaries(var, st.integers(1, 3), max_size=6).map(
        lambda factors: tuple(
            sorted(factors.items(), key=lambda ve: poly._var_key(ve[0]))
        )
    )


@settings(max_examples=300)
@given(_canonical_monomials(), _canonical_monomials(), _canonical_monomials())
def test_mon_mul_matches_dict_and_sort(m1, m2, m3):
    # the exponents add, and the product is canonical: variables strictly
    # increasing in the variable order, every exponent positive; the three
    # together fix the product
    got = poly.mon_mul(m1, m2)
    assert Counter(dict(got)) == Counter(dict(m1)) + Counter(dict(m2))
    keys = [poly._var_key(v) for v, _ in got]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert all(e > 0 for _, e in got)
    assert got == poly.mon_mul(m2, m1)
    assert poly.mon_mul(got, m3) == poly.mon_mul(m1, poly.mon_mul(m2, m3))


@pytest.mark.parametrize("scalar", [Fraction(1, 2), Fraction(2, 1), 0.5, 2.0])
def test_non_integer_scalars_raise_type_error(scalar):
    p = X1 + 2 * X2
    for op in (
        lambda: p + scalar, lambda: scalar + p,
        lambda: p - scalar, lambda: scalar - p,
        lambda: p * scalar, lambda: scalar * p,
    ):
        with pytest.raises(TypeError):
            op()
    assert p != scalar


@pytest.mark.parametrize("bound", [0, -1])
def test_packing_refuses_a_bound_below_one(bound):
    # fields of width 0 would make unpack of a nonzero key loop forever
    with pytest.raises(ValueError, match="bound ≥ 1"):
        poly._Packing([("x", 1), ("q", 1)], bound)
    # with no variable there is no field to hold
    empty = poly._Packing([], bound)
    assert empty.unpack(empty.pack(Polynomial.constant(3))) == 3


def test_packing_refuses_an_exponent_above_the_bound():
    packing = poly._Packing([("x", 1), ("x", 2)], 2)
    at_bound = X1 ** 2 * X2 ** 2 - X2
    assert packing.unpack(packing.pack(at_bound)) == at_bound
    # x_1^3 would carry into the x_2 field and read as x_1·x_2
    for p in (X1 ** 3, X1 * X2 ** 3 + X1):
        with pytest.raises(ValueError, match="exceeds the packing bound 2"):
            packing.pack(p)


_ALPHABET = st.one_of(
    st.tuples(st.just("x"), st.integers(1, 9)),
    st.tuples(st.just("q"), st.integers(1, 8)),
    st.tuples(st.just("g"), st.integers(1, 4), st.integers(0, 3)),
)


@st.composite
def _packings(draw):
    """(packing, p): a packing of 0–20 variables with a bound of 1–9, and a
    polynomial on it whose monomials include the constant, one with only
    the lowest field, one with only the last field, at the bound, and one
    with every field at the bound, so that the low chunk, the high chunk or
    both are empty in some monomial."""
    order = sorted(draw(st.lists(_ALPHABET, unique=True, max_size=20)),
                   key=poly._var_key)
    bound = draw(st.integers(1, 9))
    terms = {(): draw(st.integers(-3, 3))}
    if order:
        terms[((order[0], 1),)] = 1
        terms[((order[-1], bound),)] = -2
        terms[tuple((v, bound) for v in order)] = 5
        for factors in draw(st.lists(st.dictionaries(
                st.sampled_from(order), st.integers(1, bound)), max_size=12)):
            mon = tuple(sorted(factors.items(), key=poly._factor_key))
            terms[mon] = draw(st.integers(-9, 9))
    return poly._Packing(order, bound), Polynomial(terms)


@settings(max_examples=300)
@given(_packings())
def test_unpack_inverts_pack(case):
    packing, p = case
    chunks = packing._tables
    fields = [len(table._fields) for _, table in chunks]
    assert sum(fields) == len(packing._shifts)
    assert len(chunks) == max(2, -(-sum(fields) // poly._CHUNK_FIELDS))
    assert max(fields) <= poly._CHUNK_FIELDS
    packed = packing.pack(p)
    assert packing.unpack(packed) == p
    if p:
        # a zero coefficient is dropped
        mon, c = next(iter(p._terms.items()))
        packed[packing.key(mon)] = 0
        assert packing.unpack(packed) == p - Polynomial({mon: c})


_MUL_ORDER = [("x", 1), ("x", 2), ("q", 1), ("g", 1, 0)]


def _packed_terms(top):
    """{monomial over _MUL_ORDER with exponents ≤ top: coefficient}, the
    coefficients in −3..3, zero among them."""
    return st.dictionaries(
        st.dictionaries(st.sampled_from(_MUL_ORDER), st.integers(1, top)).map(
            lambda factors: tuple(sorted(factors.items(), key=poly._factor_key))),
        st.integers(-3, 3), max_size=8)


@settings(max_examples=300)
@given(_packed_terms(3), _packed_terms(3), _packed_terms(6))
def test_grouped_factor_product_matches_polynomial_mul(part, factor, before):
    """out += part·factor on packed monomials, with the factor grouped by
    coefficient (zero, negative and non-unit groups among them), equals the
    Polynomial arithmetic, also when part and out hold zero terms."""
    packing = poly._Packing(_MUL_ORDER, 6)
    groups = {}
    for mon, c in factor.items():
        groups.setdefault(c, []).append(packing.key(mon))
    grouped = tuple((c, tuple(keys)) for c, keys in groups.items())
    out = {packing.key(mon): c for mon, c in before.items()}
    got = poly._packed_mul_into(
        out, {packing.key(mon): c for mon, c in part.items()}, grouped)
    assert got is out
    want = Polynomial(before) + Polynomial(part) * Polynomial(factor)
    assert packing.unpack(got) == want
    # pack_factor groups a Polynomial the same way
    f = Polynomial(factor)
    assert {(c, m) for c, keys in packing.pack_factor(f) for m in keys} == \
        {(c, m) for m, c in packing.pack(f).items()}


def _single_term_values():
    """A value of at most one term: 0, an int, or c·m with m over the
    same alphabet as the polynomials substituted into."""
    mon = st.dictionaries(st.sampled_from(_MUL_ORDER), st.integers(1, 2),
                          max_size=3)
    return st.one_of(
        st.integers(-3, 3),
        st.builds(lambda c, factors: Polynomial({tuple(
            sorted(factors.items(), key=poly._factor_key)): c}),
            st.integers(-3, 3).filter(bool), mon))


@settings(max_examples=300)
@given(_packed_terms(3), st.dictionaries(
    st.sampled_from(_MUL_ORDER + [("q", 2)]), _single_term_values()))
def test_monomial_map_matches_the_expansion(terms, assignment):
    """With every value of at most one term, `substitute` maps monomials to
    monomials; it agrees with the general path, which multiplies out the
    powers of the values, also where a value holds a fixed variable or a
    variable that is itself assigned."""
    p = Polynomial(terms)
    values = {v: c if isinstance(c, Polynomial) else Polynomial.constant(c)
              for v, c in assignment.items()}
    want = p._expand(values)
    assert p._map_monomials(values) == want
    assert p.substitute(assignment) == want


def test_substitute_takes_the_general_path_for_a_sum():
    p = X1 ** 2 * Q1 - X2
    assert p.substitute({("x", 1): X2 + Q1, ("x", 2): 3}) == \
        (X2 + Q1) ** 2 * Q1 - 3
    assert p.substitute({("x", 1): -X2, ("q", 1): 0}) == -X2


def test_solver_example_and_recombination():
    gens = [X1 * (X1 + X2), X1 * X2]
    assert solve_linear_expansion(X1 * X1, gens) == (1, -1)
    assert EchelonSystem(gens).dependent_indices == []


def test_solver_zero_target():
    assert solve_linear_expansion(Polynomial.zero(), [X1, X2]) == (0, 0)


def test_solver_no_solution():
    with pytest.raises(NoSolutionError):
        solve_linear_expansion(X1, [X2])


def test_solver_non_integral_reported_distinctly():
    with pytest.raises(NonIntegralError):
        solve_linear_expansion(X1, [2 * X1])


def test_solver_reports_dependencies():
    sol = solve_linear_expansion(X1 + X2, [X1, X2, X1 + X2])
    assert EchelonSystem([X1, X2, X1 + X2]).dependent_indices == [2]
    assert all(type(c) is int for c in sol)
    recombined = Polynomial.zero()
    for c, gen in zip(sol, [X1, X2, X1 + X2]):
        recombined = recombined + c * gen
    assert recombined == X1 + X2


@settings(max_examples=30)
@given(small_polys(), st.lists(st.integers(-3, 3), min_size=2, max_size=4))
def test_solver_recombines_exactly(extra, coeffs):
    gens = [X1 * X1, X1 * X2, X2 * X2, Q1][: len(coeffs)]
    target = Polynomial.zero()
    for c, g in zip(coeffs, gens):
        target = target + c * g
    sol = solve_linear_expansion(target, gens)
    rebuilt = Polynomial.zero()
    for c, g in zip(sol, gens):
        rebuilt = rebuilt + c * g
    assert rebuilt == target


def test_echelon_solve_checks_span_and_integrality():
    system = EchelonSystem([X1 * (X1 + X2), X1 * X2])
    assert list(system.solve(X1 * X1)) == [1, -1]
    with pytest.raises(NoSolutionError):
        system.solve(X2 * X2)
    with pytest.raises(NonIntegralError):
        EchelonSystem([2 * X1]).solve(X1)
    system = EchelonSystem([X1, X2, X1 + X2])
    sol = system.solve(X1 + X2)
    assert sol == solve_linear_expansion(X1 + X2, [X1, X2, X1 + X2])
    assert system.dependent_indices == [2]


def test_echelon_solve_leaves_the_system_unchanged():
    system = EchelonSystem([X1 * X1, X1 * X2])
    pivots = {lead: dict(row) for lead, row in system.pivots.items()}
    ranks = dict(system._rank)
    system.solve(3 * X1 * X2)
    with pytest.raises(NoSolutionError):
        system.solve(X1 * X1 + X3 * X3)
    assert system.pivots == pivots
    assert system._rank == ranks


def test_echelon_reduce_splits_target():
    gens = [X1 * (X1 + X2), X1 * X2]
    sys = EchelonSystem(gens)
    assert sys.rank == 2
    t, coeffs, leftover = sys.reduce(X1 * X1 + X2 * X2)
    assert t == 1
    assert coeffs == {0: 1, 1: -1}
    assert leftover == X2 * X2
    rebuilt = leftover
    for j, c in coeffs.items():
        rebuilt = rebuilt + c * gens[j]
    assert rebuilt == t * (X1 * X1 + X2 * X2)


def test_echelon_reduce_sends_monomials_outside_the_generators_to_leftover():
    # the generators hold x1² > x1·x2 > x2²; x1·x3 ranks between the last
    # two, x2·x3 below them all.  The lead coefficient 2 makes reduce scale
    # the row to t = 2, and the leftover with it.
    gens = [2 * X1 * X1 + X2 * X2, X1 * X2 - X2 * X2]
    system = EchelonSystem(gens)
    target = 3 * X1 * X1 + 5 * X1 * X3 - 2 * X1 * X2 + 7 * X2 * X3 + X2 * X2
    t, coeffs, leftover = system.reduce(target)
    rebuilt = leftover
    for j, c in coeffs.items():
        rebuilt = rebuilt + c * gens[j]
    assert rebuilt == t * target
    assert t == 2
    assert coeffs == {0: 3, 1: -4}
    pivot_monomials = {system._monomials[lead] for lead in system.pivots}
    assert pivot_monomials == {(X1 * X1).terms()[0][0], (X1 * X2).terms()[0][0]}
    assert not pivot_monomials & {mon for mon, _ in leftover.terms()}
    assert leftover == 10 * X1 * X3 - 5 * X2 * X2 + 14 * X2 * X3
    with pytest.raises(NoSolutionError):
        system.solve(target)


def test_echelon_rejects_fractional_generators():
    (mon, _), = X1.terms()
    with pytest.raises(ValueError):
        EchelonSystem([Polynomial({mon: Fraction(1, 2)})])


def _integer_generator_lists():
    """Generator lists over a few monomials of grade 2 with small integer
    coefficients: zero generators, repeated and dependent ones included."""
    base = st.lists(small_polys(), min_size=1, max_size=4)

    def with_dependents(draw_args):
        gens, picks = draw_args
        extra = []
        for i, j, a, b in picks:
            extra.append(a * gens[i % len(gens)] + b * gens[j % len(gens)])
        return gens + [Polynomial.zero()] + extra

    pick = st.tuples(st.integers(0, 3), st.integers(0, 3),
                     st.integers(-3, 3), st.integers(-3, 3))
    return st.tuples(base, st.lists(pick, max_size=2)).map(with_dependents)


@settings(max_examples=120)
@given(_integer_generator_lists(), small_polys(), st.lists(st.integers(-3, 3), max_size=6))
def test_echelon_reduce_is_an_integer_identity(gens, outside, coeffs):
    # target: an integer combination of the generators plus a random
    # polynomial, which may lie outside their span
    target = outside
    for c, g in zip(coeffs, gens):
        target = target + c * g
    system = EchelonSystem(gens)
    t, got, leftover = system.reduce(target)
    assert type(t) is int and t >= 1
    assert all(type(c) is int and c for c in got.values())
    assert all(type(c) is int for _, c in leftover.terms())
    assert set(got) <= set(range(len(gens)))
    rebuilt = leftover
    for j, c in got.items():
        rebuilt = rebuilt + c * gens[j]
    assert rebuilt == t * target
    pivot_monomials = {system._monomials[lead] for lead in system.pivots}
    assert not pivot_monomials & {mon for mon, _ in leftover.terms()}


def test_echelon_dependent_indices():
    sys = EchelonSystem([X1, X2, X1 - X2])
    assert sys.rank == 2
    assert tuple(sys.dependent_indices) == (2,)
