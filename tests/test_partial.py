"""Quantum cohomology of partial flag manifolds."""

import hashlib
import json
import random
import sys
import threading
from itertools import product

import pytest

from qschubert import (
    FlagShape,
    QuantumClass,
    all_permutations,
    classical_product,
    c_var,
    g_var,
    index_sets,
    kernel_chern_partial_check,
    kernel_chern_partial_report,
    length,
    partial_gw,
    partial_quantum_product,
    partial_quantum_schubert,
    partial_relations,
    partial_ring,
    partial_universal_schubert_c,
    path_poly,
    quantum_product,
    quantum_schubert,
    q_var,
    relations,
    sigma_var,
    sn_elements,
    tilde_E,
    universal_schubert_c,
    x_var,
)
from qschubert.partial import PartialRing, _apply_sigma_q

P1 = FlagShape((1,), 2)
P2 = FlagShape((1,), 3)
GR24 = FlagShape((2,), 4)
TWO_STEP4 = FlagShape((1, 3), 4)
COMPLETE3 = FlagShape.complete(3)

# Grassmannian basis of Gr(2,4), labelled by the usual partitions.
G_ID, G_S1, G_S11, G_S2, G_S21, G_S22 = (
    (1, 2, 3, 4), (1, 3, 2, 4), (2, 3, 1, 4), (1, 4, 2, 3), (2, 4, 1, 3), (3, 4, 1, 2),
)


def as_map(cls):
    return dict(cls.items())


def test_index_sets_complete_n3():
    g_sigma, g_q = index_sets(COMPLETE3)
    assert g_sigma == {(1, 1), (2, 2), (3, 3)}
    assert g_q == {(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)}


def test_index_sets_p1():
    g_sigma, g_q = index_sets(P1)
    assert g_sigma == {(1, 1), (2, 2)}
    assert g_q == {(1, 1), (1, 2), (2, 2)}


def test_index_sets_membership_one_step():
    g_sigma, g_q = index_sets(GR24)
    assert g_sigma == {(1, 1), (1, 2), (3, 3), (3, 4)}
    assert g_q == {(1, 2), (2, 2), (1, 4), (2, 4), (3, 4), (4, 4)}


def test_tilde_e_complete_equals_path_poly():
    for shape in (COMPLETE3, FlagShape.complete(4)):
        for l in range(1, shape.m + 2):
            for k in range(0, shape.ns[l] + 1):
                assert tilde_E(k, l, shape) == path_poly(k, shape.ns[l])


def test_tilde_e_examples():
    assert tilde_E(2, 2, P1) == g_var(1, 0) * g_var(2, 0) + g_var(1, 1)
    assert tilde_E(0, 2, P1) == path_poly(0, 2)


def test_tilde_e_kills_paths_anchored_inside_blocks():
    # for {1} ⊂ C³ the pair (1,2) is inadmissible, so g1[1] dies, while
    # g2[1] (pair (2,3)) and g1[2] (pair (1,3)) both survive.
    g = g_var
    assert tilde_E(2, 2, P2) == (g(1, 0) * g(2, 0) + g(1, 0) * g(3, 0)
                                 + g(2, 0) * g(3, 0) + g(2, 1))
    assert tilde_E(3, 2, P2) == (g(1, 0) * g(2, 0) * g(3, 0)
                                 + g(1, 0) * g(2, 1) + g(1, 2))


def test_partial_universal_schubert_c_examples():
    assert partial_universal_schubert_c((1, 2, 3), P2).to_text() == "1"
    assert partial_universal_schubert_c((2, 1, 3), P2) == c_var(1, 1)
    for w in all_permutations(3):
        assert partial_universal_schubert_c(w, COMPLETE3) == universal_schubert_c(w)


def test_partial_universal_schubert_c_projects_interior_columns():
    # c1(2) folds down to c1(1) and c2(2) collapses, leaving c1(1)².
    assert partial_universal_schubert_c((3, 1, 2), P2) == c_var(1, 1) * c_var(1, 1)


def test_partial_schubert_rejects_non_minimal_representatives():
    with pytest.raises(ValueError):
        partial_universal_schubert_c((2, 1, 3), FlagShape((2,), 3))
    with pytest.raises(ValueError):
        partial_quantum_schubert((2, 1, 3, 4), GR24)


def _two_stage_lifts(w, shape):
    """The partial lifts by substitution into the whole polynomial: round the
    c-columns of 𝔖_w(c) down to the jump values, then substitute
    c_k(n_l) := tilde_E(k, l) and apply the block σ/q assignment."""
    ns = shape.ns
    base = universal_schubert_c(w)
    c_poly = base.substitute({
        v: c_var(v[1], max(t for t in ns if t <= v[2]))
        for v in base.variables()
    })
    block = {ns[l]: l for l in range(1, shape.m + 2)}
    g_poly = c_poly.substitute({
        v: tilde_E(v[1], block[v[2]], shape) for v in c_poly.variables()
    })
    return c_poly, _apply_sigma_q(g_poly, shape)


@pytest.mark.parametrize("shape", [
    "2:4", "2:6", "3:6", "1:3:4", "1:3:5", "2:4:6", "1:2:3:4", "1:2:3:4:5", "2:7",
])
def test_partial_lifts_match_the_two_stage_substitution(shape):
    shape = FlagShape.from_string(shape)
    for w in sorted(sn_elements(shape), key=length):
        c_poly, lift = _two_stage_lifts(w, shape)
        assert partial_universal_schubert_c(w, shape) == c_poly, w
        assert partial_quantum_schubert(w, shape) == lift, w


# sha256 over the partial lifts and partial c-lifts of `_DIGEST_CLASSES`
PARTIAL_LIFT_DIGEST = "caed5fdf7daa3a3628b4f64a3d78db8c6e9d6e14dce773662b6d5cce8f21a4da"


def _digest_classes():
    """(shape string, w): every class of 2:4:6, 3:7 and 1:3:6:7, then 20
    seeded classes each of 1:4:8 and 2:4:6:8; 585 in all."""
    for text in ("2:4:6", "3:7", "1:3:6:7"):
        for w in sn_elements(FlagShape.from_string(text)):
            yield text, w
    for text in ("1:4:8", "2:4:6:8"):
        for w in random.Random(8).sample(sn_elements(FlagShape.from_string(text)), 20):
            yield text, w


def test_partial_lifts_match_digest():
    digest = hashlib.sha256()
    for text, w in _digest_classes():
        shape = FlagShape.from_string(text)
        line = json.dumps([text, list(w),
                           partial_quantum_schubert(w, shape).to_json_obj(),
                           partial_universal_schubert_c(w, shape).to_json_obj()])
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == PARTIAL_LIFT_DIGEST


def test_concurrent_partial_lifts_match_serial():
    """Threads lift every class of one fresh ring, sharing the packed images
    it builds on the first lift and their decode tables.  A race may pack
    them twice (`cached_property` takes no lock on Python 3.12+), but each
    lift folds and decodes on the one packing it read."""
    shape = FlagShape((2, 4), 6)
    serial_ring = PartialRing(shape)
    ws = list(serial_ring.basis)
    serial = {w: serial_ring._basis_lift(w) for w in ws}
    ring = PartialRing(shape)
    assert "_images" not in vars(ring)
    workers = 4
    start = threading.Barrier(workers)
    results = [None] * workers
    errors = []

    def work(slot):
        try:
            start.wait(timeout=60)
            # each thread starts at its own quarter of the basis
            cut = slot * len(ws) // workers
            results[slot] = {w: ring._basis_lift(w) for w in ws[cut:] + ws[:cut]}
        except Exception as exc:  # reported below
            errors.append(exc)

    # switch threads often, so that they meet in the first lift's packing
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
    assert "_images" in vars(ring)


def test_partial_quantum_schubert_examples():
    assert partial_quantum_schubert((2, 1), P1) == x_var(1)
    assert partial_quantum_schubert((2, 1, 3), P2) == sigma_var(1, 1)
    assert partial_quantum_schubert((3, 1, 2), P2) == sigma_var(1, 1) * sigma_var(1, 1)
    assert partial_quantum_schubert(G_S21, GR24) == sigma_var(1, 1) * sigma_var(2, 1)


def test_partial_quantum_schubert_complete_shape_degenerates():
    for w in all_permutations(3):
        assert partial_quantum_schubert(w, COMPLETE3) == quantum_schubert(w)


def test_partial_quantum_schubert_homogeneous():
    ring = partial_ring(TWO_STEP4)
    for w in ring.basis:
        p = partial_quantum_schubert(w, TWO_STEP4)
        if length(w):
            assert p.grade(q_grades=ring.q_grades) == length(w)


def test_partial_relations_p1():
    assert partial_relations(P1) == [
        x_var(1) + x_var(2),
        x_var(1) * x_var(2) + q_var(1),
    ]


def test_partial_relations_p2():
    s11, s12, s22 = sigma_var(1, 1), sigma_var(1, 2), sigma_var(2, 2)
    assert partial_relations(P2) == [
        s11 + s12,
        s11 * s12 + s22,
        s11 * s22 - q_var(1),
    ]


def test_partial_relations_gr24_whitney_with_top_sign():
    a1, a2 = sigma_var(1, 1), sigma_var(2, 1)
    b1, b2 = sigma_var(1, 2), sigma_var(2, 2)
    assert partial_relations(GR24) == [
        a1 + b1,
        a2 + a1 * b1 + b2,
        a2 * b1 + a1 * b2,
        a2 * b2 - q_var(1),
    ]


def test_partial_relations_complete_shape_matches_complete_ring():
    for n in (2, 3, 4):
        assert partial_relations(FlagShape.complete(n)) == relations(n)


def test_partial_relations_first_is_q_free():
    for shape in (P1, P2, GR24, TWO_STEP4, FlagShape((2,), 5)):
        first = partial_relations(shape)[0]
        assert all(v[0] != "q" for v in first.variables())


def test_partial_product_p1():
    got = partial_quantum_product((2, 1), (2, 1), P1)
    assert as_map(got) == {((1,), (1, 2)): 1}
    assert got.to_text() == "q1·σ[1,2]"


def test_partial_product_p2():
    got = partial_quantum_product((2, 1, 3), (3, 1, 2), P2)
    assert as_map(got) == {((1,), (1, 2, 3)): 1}
    for v in sn_elements(P2):
        assert partial_quantum_product((1, 2, 3), v, P2) == QuantumClass.unit(v, P2)


def test_partial_product_full_gr24_table():
    table = {
        (G_S1, G_S1): {((0,), G_S2): 1, ((0,), G_S11): 1},
        (G_S1, G_S2): {((0,), G_S21): 1},
        (G_S1, G_S11): {((0,), G_S21): 1},
        (G_S1, G_S21): {((0,), G_S22): 1, ((1,), G_ID): 1},
        (G_S1, G_S22): {((1,), G_S1): 1},
        (G_S2, G_S2): {((0,), G_S22): 1},
        (G_S2, G_S11): {((1,), G_ID): 1},
        (G_S11, G_S11): {((0,), G_S22): 1},
        (G_S2, G_S21): {((1,), G_S1): 1},
        (G_S11, G_S21): {((1,), G_S1): 1},
        (G_S2, G_S22): {((1,), G_S11): 1},
        (G_S11, G_S22): {((1,), G_S2): 1},
        (G_S21, G_S21): {((1,), G_S2): 1, ((1,), G_S11): 1},
        (G_S21, G_S22): {((1,), G_S21): 1},
        (G_S22, G_S22): {((2,), G_ID): 1},
    }
    for (u, v), expected in table.items():
        assert as_map(partial_quantum_product(u, v, GR24)) == expected
        assert as_map(partial_quantum_product(v, u, GR24)) == expected


def test_partial_gw_two_lines_meeting_four_lines():
    assert partial_gw([G_S1, G_S1, G_S1, G_S1], G_S22, (1,), GR24) == 2


def test_partial_gw_line_through_two_points_in_p2():
    assert partial_gw([(3, 1, 2), (3, 1, 2)], (2, 1, 3), (1,), P2) == 1


def test_partial_gw_degree_validation():
    with pytest.raises(ValueError):
        partial_gw([G_S1], G_S1, (1, 0), GR24)
    with pytest.raises(ValueError):
        partial_gw([G_S1], G_S1, (-1,), GR24)


def test_partial_gw_two_point_vanishing():
    for u in sn_elements(GR24):
        for v in sn_elements(GR24):
            for d in ((1,), (2,)):
                assert partial_gw([u], v, d, GR24) == 0


def test_partial_grading_gr24():
    ring = partial_ring(GR24)
    for u in ring.basis:
        for v in ring.basis:
            for (d, w), coeff in partial_quantum_product(u, v, GR24).items():
                assert coeff > 0
                assert length(w) == length(u) + length(v) - 4 * d[0]


def test_partial_grading_two_step():
    ring = partial_ring(TWO_STEP4)
    grades = ring.shape.q_grades
    assert grades == (3, 3)
    rng = random.Random(3)
    basis = ring.basis
    for _ in range(30):
        u, v = rng.choice(basis), rng.choice(basis)
        for (d, w), coeff in partial_quantum_product(u, v, TWO_STEP4).items():
            weight = sum(di * gi for di, gi in zip(d, grades))
            assert length(w) == length(u) + length(v) - weight


def test_partial_product_commutative_and_associative_small_shapes():
    for shape in (P2, GR24):
        basis = sn_elements(shape)
        for u, v in product(basis, repeat=2):
            assert partial_quantum_product(u, v, shape) == partial_quantum_product(v, u, shape)
    ring = partial_ring(GR24)
    for u, v, w in product(sn_elements(GR24), repeat=3):
        assert ring.quantum_product_multi([u, v, w]) == ring.quantum_product_multi([w, v, u])


def test_partial_classical_matches_complete_flag_subring():
    # products of minimal-representative classes in the complete-flag
    # classical ring stay supported on minimal representatives and agree
    # with the partial classical product.
    for shape in (P2, GR24, TWO_STEP4):
        ring = partial_ring(shape)
        reps = set(sn_elements(shape))
        for u in reps:
            for v in reps:
                full_map = {key[1]: c for key, c in classical_product(u, v).items()}
                assert set(full_map) <= reps
                partial_map = {key[1]: c for key, c in ring.classical_product(u, v).items()}
                assert full_map == partial_map


def test_partial_poincare_duality_pairing():
    for shape in (P2, GR24, TWO_STEP4):
        ring = partial_ring(shape)
        top = shape.dual(tuple(range(1, shape.n + 1)))
        zero_d = (0,) * shape.m
        for u in ring.basis:
            for v in ring.basis:
                if length(u) + length(v) != shape.dimension:
                    continue
                coeff = ring.classical_product(u, v).coefficient(zero_d, top)
                assert coeff == (1 if v == shape.dual(u) else 0)


def test_complete_shape_product_table_matches_quantum_ring():
    for n in (3, 4):
        shape = FlagShape.complete(n)
        for u in all_permutations(n):
            for v in all_permutations(n):
                assert partial_quantum_product(u, v, shape) == quantum_product(u, v)


def test_kernel_chern_partial_resolved_reading():
    for shape in (P2, GR24, TWO_STEP4):
        for l in range(1, shape.m + 1):
            assert kernel_chern_partial_check(l, shape)


def test_kernel_chern_partial_printed_reading_documented():
    # The two-case closed form holds verbatim only when every block has
    # size one; on genuinely partial shapes the resolved reading is the one
    # that matches, and the verbatim one fails at some grade.
    def printed(l, shape):
        return all(e["printed_matches"] for e in kernel_chern_partial_report(l, shape))

    assert printed(1, COMPLETE3)
    assert printed(2, COMPLETE3)
    assert not printed(1, P2)
    assert not printed(1, GR24)
    assert not all(printed(l, TWO_STEP4) for l in (1, 2))


def test_kernel_chern_partial_report_structure():
    report = kernel_chern_partial_report(1, P2)
    assert [entry["j"] for entry in report] == [1, 2, 3]
    for entry in report:
        assert entry["resolved_matches"]
    assert not all(entry["printed_matches"] for entry in report)


def test_partial_ring_basis_and_identity():
    ring = partial_ring(GR24)
    assert ring.basis == tuple(sn_elements(GR24))
    assert ring.q_grades == {1: 4}
    assert partial_ring(GR24) is ring


def test_partial_class_json_round_trip():
    cls = partial_quantum_product(G_S1, G_S21, GR24)
    obj = cls.to_json_obj()
    assert obj.get("shape") == "2:4"
    back = QuantumClass.from_json_obj(obj)
    assert back == cls
