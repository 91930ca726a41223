"""Tests of the benchmark itself: the oracles reproduce known values and agree
with the package on small cases, the generators are deterministic, the
calibration scales by the right samples, and the tracer reports exactly the
metrics BENCHMARK.json declares."""
import itertools
import json
from pathlib import Path

import pytest

import calib
import oracles
import qschubert as qs
import tracing
import workloads
from run import UNITS

ROOT = Path(__file__).resolve().parent.parent


def _class(cls):
    return workloads.class_from_json(cls.to_json_obj())


def test_monk_reproduces_known_product():
    got = oracles.monk(1, {((0, 0), (2, 1, 3)): 1})
    assert got == {((0, 0), (3, 1, 2)): 1, ((1, 0), (1, 2, 3)): 1}


def test_pieri_counts_lines_meeting_four_lines():
    # σ_1^4 on Gr(2,4) = 2·σ_(2,2) + 2·q·σ_∅; partial_gw reads the q·σ_∅
    # coefficient for the insertions σ_1 ×4 against the top class
    cls = {((0,), (1, 2, 3, 4)): 1}
    for _ in range(4):
        nxt = {}
        for (d, w), c in cls.items():
            for (d2, u), c2 in oracles.pieri_sigma1(w, 2, 4).items():
                key = (tuple(a + b for a, b in zip(d, d2)), u)
                nxt[key] = nxt.get(key, 0) + c * c2
        cls = nxt
    top = (3, 4, 1, 2)
    assert cls == {((0,), top): 2, ((1,), (1, 2, 3, 4)): 2}
    line = (1, 3, 2, 4)
    gr = qs.FlagShape.from_string("2:4")
    assert qs.partial_gw([line] * 4, top, (1,), gr) == cls[((1,), (1, 2, 3, 4))]


def test_oracles_agree_with_package_on_small_cases():
    for n in (3, 4):
        for r in range(1, n):
            s = qs.transposition(n, r)
            for w in qs.all_permutations(n):
                assert _class(qs.quantum_product(s, w)) == oracles.monk(
                    r, {((0,) * (n - 1), w): 1})
    gr = qs.FlagShape.from_string("2:5")
    sigma1 = oracles.grass_perm((1, 0), 2, 5)
    for w in qs.sn_elements(gr):
        assert _class(qs.partial_quantum_product(sigma1, w, gr)) == \
            oracles.pieri_sigma1(w, 2, 5)
    for w in qs.all_permutations(5):
        got = workloads.poly_from_json(qs.schubert_poly(w).to_json_obj())
        assert {workloads.x_exponents(m, 5): c for m, c in got.items()} == \
            oracles.schubert_transition(w)


def test_generators_are_deterministic_per_seed():
    for gen in (workloads.table_inputs, workloads.gw_inputs, workloads.basis_inputs):
        assert gen(7) == gen(7)
        assert gen(7) != gen(8)
    first = list(itertools.islice(workloads.cli_inputs(7), 500))
    assert first == list(itertools.islice(workloads.cli_inputs(7), 500))
    assert first != list(itertools.islice(workloads.cli_inputs(8), 500))


def test_gw_queries_pass_the_dimension_gate():
    queries = workloads.gw_inputs(3)
    for q in queries:
        grades = workloads.q_grades(q.shape)
        total = sum(map(oracles.length, q.ws)) + oracles.length(q.w)
        assert total == workloads.dimension(q.shape) + sum(
            d * g for d, g in zip(q.d, grades))
        assert 3 <= len(q.ws) <= 5
        assert max(q.d) <= workloads.GW_MAX_DEGREE[q.shape]
    assert sum(q.monk is not None for q in queries) > len(queries) // 10
    assert sum(q.shape == workloads.STEP134 for q in queries) > len(queries) // 10


def test_clock_scales_by_the_samples_around_an_operation():
    clock = calib.Clock()
    clock.stamps, clock.times = [1.0, 2.0, 3.0], [0.002, 0.006, 0.010]
    assert clock.scale(1.5) == pytest.approx(calib.REF_S / 0.004)
    assert clock.scale(2.5) == pytest.approx(calib.REF_S / 0.008)
    with pytest.raises(ValueError):
        clock.scale(3.5)
    assert calib.sample() > 0


def test_tracer_reports_declared_metrics_and_restores_package():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    orig_mul = qs.Polynomial.__mul__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        qs.quantum_ring(3).quantum_product((2, 1, 3), (1, 3, 2))
        qs.gromov_witten([(2, 1, 3), (2, 1, 3)], (3, 2, 1), (1, 0))
    finally:
        tracer.uninstall()
    assert qs.Polynomial.__mul__ is orig_mul
    assert qs.Polynomial.__rmul__ is orig_mul
    layers = tracing.layer_metrics(tracer)
    assert layers["qring.gromov_witten.calls"] == 1
    assert layers["qring.quantum_product.calls"] >= 2
    assert all(v >= 0 for k, v in layers.items() if k.endswith(".calls"))
    declared = {m["name"] for m in spec["per_layer"]}
    assert declared == set(layers) | {"trace.overhead_ratio"}
    assert [m["name"] for m in spec["end_to_end"]] == list(UNITS)
