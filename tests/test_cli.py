"""Command-line interface: output formats, exit codes, and caching."""

import errno
import functools
import hashlib
import json
import multiprocessing
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qschubert import Polynomial, QuantumClass, quantum_product, quantum_schubert
from qschubert import cli, poly, qring, schubert
from qschubert.cli import main
from qschubert.partial import partial_ring
from qschubert.perm import FlagShape, all_permutations
from qschubert.qring import QuantumRing, quantum_ring


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.delenv("QSCHUBERT_CACHE", raising=False)
    return tmp_path / "cache"


def run(capsys, *argv, cache=None):
    args = list(argv)
    if cache is not None:
        args = ["--cache-dir", str(cache)] + args
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_schubert_text_examples(capsys, cache_dir):
    code, out, _ = run(capsys, "schubert", "--n", "3", "--w", "3,2,1", cache=cache_dir)
    assert (code, out) == (0, "x1^2·x2\n")
    code, out, _ = run(
        capsys, "schubert", "--n", "3", "--w", "3,1,2", "--quantum", cache=cache_dir
    )
    assert (code, out) == (0, "x1^2 − q1\n")
    code, out, _ = run(
        capsys, "schubert", "--n", "3", "--w", "1,2,3", "--universal", cache=cache_dir
    )
    assert (code, out) == (0, "1\n")


def test_schubert_universal_rendering(capsys, cache_dir):
    code, out, _ = run(
        capsys, "schubert", "--n", "3", "--w", "3,1,2", "--universal", cache=cache_dir
    )
    assert (code, out) == (0, "g1[0]^2 − g1[1]\n")


def test_schubert_json_round_trip(capsys, cache_dir):
    code, out, _ = run(
        capsys, "schubert", "--n", "3", "--w", "3,1,2", "--quantum",
        "--format", "json", cache=cache_dir,
    )
    assert code == 0
    assert Polynomial.from_json_obj(json.loads(out)) == quantum_schubert((3, 1, 2))


def test_product_text_examples(capsys, cache_dir):
    code, out, _ = run(
        capsys, "product", "--n", "3", "--u", "2,1,3", "--v", "2,1,3", cache=cache_dir
    )
    assert (code, out) == (0, "σ[3,1,2] + q1·σ[1,2,3]\n")
    code, out, _ = run(
        capsys, "product", "--shape", "1:2", "--u", "2,1", "--v", "2,1", cache=cache_dir
    )
    assert (code, out) == (0, "q1·σ[1,2]\n")


def test_product_json_round_trip(capsys, cache_dir):
    code, out, _ = run(
        capsys, "product", "--n", "3", "--u", "2,1,3", "--v", "3,1,2",
        "--format", "json", cache=cache_dir,
    )
    assert code == 0
    got = QuantumClass.from_json_obj(json.loads(out))
    assert got == quantum_product((2, 1, 3), (3, 1, 2))


def test_gw_example(capsys, cache_dir):
    code, out, _ = run(
        capsys, "gw", "--n", "3", "--insertions", "2,1,3;2,1,3",
        "--class", "3,2,1", "--degree", "1,0", cache=cache_dir,
    )
    assert (code, out) == (0, "1\n")
    code, out, _ = run(
        capsys, "gw", "--n", "3", "--insertions", "2,1,3;2,1,3",
        "--class", "3,2,1", "--degree", "1,0", "--format", "json", cache=cache_dir,
    )
    assert code == 0
    assert json.loads(out) == {"value": 1}


def test_gw_partial_shape(capsys, cache_dir):
    code, out, _ = run(
        capsys, "gw", "--shape", "2:4",
        "--insertions", "1,3,2,4;1,3,2,4;1,3,2,4;1,3,2,4",
        "--class", "3,4,1,2", "--degree", "1", cache=cache_dir,
    )
    assert (code, out) == (0, "2\n")


def test_parse_error_exit_code(capsys, cache_dir):
    code, out, err = run(
        capsys, "schubert", "--n", "3", "--w", "3,3,1", cache=cache_dir
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_mutually_exclusive_flags(capsys, cache_dir):
    code, _, err = run(
        capsys, "schubert", "--n", "3", "--w", "1,2,3",
        "--quantum", "--universal", cache=cache_dir,
    )
    assert code == 2
    assert "exclusive" in err


@pytest.mark.parametrize("argv", [
    ["product", "--u", "1,2,3", "--v", "2,1,3"],
    ["gw", "--insertions", "2,1,3", "--class", "2,1,3", "--degree", "0"],
    ["table"],
    ["verify", "--suite", "relations"],
])
def test_n_and_shape_together_refused(capsys, cache_dir, argv):
    code, out, err = run(
        capsys, *argv, "--n", "5", "--shape", "1:3", cache=cache_dir
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert not cache_dir.exists()


def test_product_needs_ring_argument(capsys, cache_dir):
    code, _, err = run(capsys, "product", "--u", "2,1", "--v", "2,1", cache=cache_dir)
    assert code == 2
    assert err.startswith("error:")


def test_non_basis_element_rejected_for_shape(capsys, cache_dir):
    code, _, err = run(
        capsys, "product", "--shape", "2:4", "--u", "2,1,3,4", "--v", "1,3,2,4",
        cache=cache_dir,
    )
    assert code == 2
    assert err.startswith("error:")


def test_unknown_suite_lists_known_ones(capsys, cache_dir):
    code, _, err = run(capsys, "verify", "--suite", "nonsense", cache=cache_dir)
    assert code == 2
    assert "associativity" in err and "kernel-chern-partial" in err


def test_verify_suites_report_sizes(capsys, cache_dir):
    code, out, _ = run(
        capsys, "verify", "--suite", "associativity", "--n", "3", cache=cache_dir
    )
    assert (code, out) == (0, "pass, 216 triples\n")
    code, out, _ = run(
        capsys, "verify", "--suite", "q0-classical", "--n", "3", cache=cache_dir
    )
    assert (code, out) == (0, "pass, 36 pairs\n")
    code, out, _ = run(
        capsys, "verify", "--suite", "recursion-roundtrip", "--n", "4", cache=cache_dir
    )
    assert (code, out) == (0, "pass\n")


def test_verify_more_suites_pass(capsys, cache_dir):
    for argv in (
        ("verify", "--suite", "duality", "--n", "3"),
        ("verify", "--suite", "relations", "--n", "3"),
        ("verify", "--suite", "giambelli", "--n", "3"),
        ("verify", "--suite", "grading", "--n", "3"),
        ("verify", "--suite", "two-point", "--n", "3"),
        ("verify", "--suite", "associativity", "--n", "4"),
        ("verify", "--suite", "q0-classical", "--n", "4"),
        ("verify", "--suite", "duality", "--n", "4"),
        ("verify", "--suite", "relations", "--n", "4"),
        ("verify", "--suite", "giambelli", "--n", "4"),
        ("verify", "--suite", "grading", "--n", "4"),
        ("verify", "--suite", "two-point", "--n", "4"),
        ("verify", "--suite", "specialization", "--n", "3"),
        ("verify", "--suite", "kernel-chern", "--n", "4"),
        ("verify", "--suite", "lemma-es", "--n", "4"),
        ("verify", "--suite", "associativity", "--shape", "2:4"),
        ("verify", "--suite", "kernel-chern-partial", "--shape", "1:3:4"),
        *(("verify", "--suite", suite, "--shape", shape)
          for shape in ("2:6", "1:3:4")
          for suite in ("associativity", "q0-classical", "duality",
                        "relations", "giambelli", "grading", "two-point")),
    ):
        code, out, _ = run(capsys, *argv, cache=cache_dir)
        assert code == 0, argv
        assert out.startswith("pass"), argv


def test_failed_recombination_is_one_internal_error_line(
        capsys, cache_dir, monkeypatch, fresh_engines):
    # the packed fold of the recombination check off by 1
    fold = schubert._e_fold_packed

    def broken(coeffs, columns):
        out = dict(fold(coeffs, columns))
        out[0] = out.get(0, 0) + 1
        return out

    monkeypatch.setattr(schubert, "_e_fold_packed", broken)
    # the universal lift keeps no memo, so on a fresh engine it reaches the
    # check of a fresh decomposition
    code, out, err = run(capsys, "schubert", "--n", "4", "--w", "3,1,4,2",
                         "--universal", cache=cache_dir)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("internal error: ")
    assert "recombination failed" in err
    assert "Traceback" not in err


def test_stuck_peel_is_one_internal_error_line(capsys, cache_dir, doubled_pieri):
    # doubled Pieri products leave no row of coefficient 1 to peel
    code, out, err = run(capsys, "schubert", "--n", "4", "--w", "3,1,4,2",
                         "--universal", cache=cache_dir)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("internal error: ")
    assert "not unitriangular" in err
    assert "Traceback" not in err


def test_two_point_suite_fails_on_a_nonzero_invariant(
        capsys, cache_dir, monkeypatch):
    # q1·σ_w0 in σ_312 ∗ σ_321 would make ⟨σ_312, σ_321, σ_id⟩_(1,0) = 1
    class Broken(QuantumRing):
        def _pair_product(self, a, b):
            terms = dict(super()._pair_product(a, b))
            if {self._codec.perm(a), self._codec.perm(b)} == {(3, 1, 2),
                                                              (3, 2, 1)}:
                terms[self._codec.key((1, 0), (3, 2, 1))] = 1
            return terms

    message = "⟨σ_(3, 1, 2),σ_(3, 2, 1),σ_(1, 2, 3)⟩_(1, 0) = 1, expected 0"
    assert cli._suite_two_point(QuantumRing(3), 1) == "8 invariants"
    with pytest.raises(cli._SuiteFailure) as failure:
        cli._suite_two_point(Broken(3), 1)
    assert str(failure.value) == message
    # the command prints that counterexample alone
    monkeypatch.setattr(cli, "quantum_ring", Broken)
    argv = ("verify", "--suite", "two-point", "--n", "3")
    assert run(capsys, *argv, cache=cache_dir) == (1, f"fail: {message}\n", "")
    code, out, err = run(capsys, *argv, "--format", "json", cache=cache_dir)
    assert (code, err) == (1, "")
    assert json.loads(out) == {"suite": "two-point", "status": "fail",
                               "failures": [message]}


def test_readme_suite_table_lists_every_suite_with_its_selector():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split(
        "### Verification suites", 1)[1].split("\n### ", 1)[0]
    rows = [line.split("|")[1:-1] for line in section.splitlines()
            if line.startswith("| `")]
    listed = {name.strip().strip("`"): (selector.strip(), default.strip())
              for name, _, selector, default in rows}
    selectors = {"ring": "`--n` or `--shape`", "n": "`--n`", "shape": "`--shape`"}
    assert listed == {
        name: (selectors[selector],
               "—" if default_n is None else f"`--n {default_n}`")
        for name, (_, selector, default_n) in cli._SUITES.items()
    }


def test_verify_specialization_builds_each_row_once(
        capsys, cache_dir, monkeypatch, e_rows_built):
    builds = []
    init = poly.EchelonSystem.__init__

    def counted(self, generators):
        builds.append(len(generators))
        init(self, generators)

    monkeypatch.setattr(poly.EchelonSystem, "__init__", counted)
    # a fresh Fl_4 engine, which also holds the quantum lifts
    rows = e_rows_built(4)
    code, out, _ = run(
        capsys, "verify", "--suite", "specialization", "--n", "4",
        cache=cache_dir,
    )
    assert (code, out) == (0, "pass, 24 chains\n")
    # one row per permutation of S_4, and no echelon solve
    assert sorted(rows) == sorted(map(schubert._e_pivot, all_permutations(4)))
    assert set(rows.values()) == {1}
    assert builds == []


def test_quantum_schubert_miss_builds_no_echelon_system(
        capsys, cache_dir, monkeypatch, fresh_engines):
    builds = []
    init = poly.EchelonSystem.__init__

    def counted(self, generators):
        builds.append(len(generators))
        init(self, generators)

    monkeypatch.setattr(poly.EchelonSystem, "__init__", counted)
    w = (3, 5, 1, 4, 2)
    code, out, _ = run(
        capsys, "schubert", "--n", "5", "--quantum", "--w", "3,5,1,4,2",
        "--format", "json", cache=cache_dir,
    )
    assert code == 0
    assert json.loads(out) == quantum_schubert(w).to_json_obj()
    assert builds == []


def test_schubert_miss_prints_and_stores_the_same_json(
        capsys, cache_dir, monkeypatch):
    calls = []
    to_json_obj = Polynomial.to_json_obj

    def counted(self):
        calls.append(1)
        return to_json_obj(self)

    monkeypatch.setattr(Polynomial, "to_json_obj", counted)
    argv = ("schubert", "--n", "4", "--quantum", "--w", "4,2,3,1",
            "--format", "json")
    code, out, _ = run(capsys, *argv, cache=cache_dir)
    assert (code, len(calls)) == (0, 1)
    stored = cli.TableCache(cache_dir).load("qschubert", "4")
    assert json.loads(out) == stored["4,2,3,1"]
    monkeypatch.setattr(cli, "_TABLES", {})
    assert run(capsys, *argv, cache=cache_dir)[:2] == (0, out)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_product_miss_serializes_once(capsys, cache_dir, monkeypatch, fmt):
    argv = ("product", "--n", "4", "--u", "3,1,4,2", "--v", "2,4,1,3",
            "--format", fmt)
    cls = quantum_ring(4).quantum_product((3, 1, 4, 2), (2, 4, 1, 3))
    want = (json.dumps(cls.to_json_obj(), sort_keys=True) if fmt == "json"
            else cls.to_text()) + "\n"
    calls = []
    to_json_obj = QuantumClass.to_json_obj

    def counted(self):
        calls.append(1)
        return to_json_obj(self)

    monkeypatch.setattr(QuantumClass, "to_json_obj", counted)
    assert run(capsys, *argv, cache=cache_dir) == (0, want, "")
    assert len(calls) == 1
    stored = cli.TableCache(cache_dir).load("product-table", "4")
    assert stored == {"2,4,1,3;3,1,4,2": to_json_obj(cls)}
    # a hit from a cold process prints the same bytes
    monkeypatch.setattr(cli, "_TABLES", {})
    assert run(capsys, *argv, cache=cache_dir) == (0, want, "")


def test_verify_json_format(capsys, cache_dir):
    code, out, _ = run(
        capsys, "verify", "--suite", "duality", "--n", "3",
        "--format", "json", cache=cache_dir,
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "pass"
    assert obj["suite"] == "duality"


def test_verify_suite_needs_matching_selector(capsys, cache_dir):
    code, _, err = run(
        capsys, "verify", "--suite", "kernel-chern-partial", cache=cache_dir
    )
    assert code == 2
    assert "--shape" in err


def test_identical_invocations_are_byte_identical(capsys, cache_dir):
    argv = ("product", "--n", "3", "--u", "3,1,2", "--v", "2,3,1")
    first = run(capsys, *argv, cache=cache_dir)
    second = run(capsys, *argv, cache=cache_dir)
    assert first == second
    assert first[0] == 0


# every command, each answer asked twice (a miss, then a hit)
_DIGEST_SCRIPT = [
    ("schubert", "--n", "4", "--w", "2,4,1,3"),
    ("schubert", "--n", "4", "--w", "2,4,1,3", "--quantum"),
    ("schubert", "--n", "4", "--w", "2,4,1,3", "--universal"),
    ("product", "--n", "3", "--u", "2,1,3", "--v", "2,3,1"),
    ("product", "--shape", "2:4", "--u", "1,3,2,4", "--v", "1,3,2,4"),
    ("product", "--shape", "1:3:4", "--u", "2,1,3,4", "--v", "3,1,2,4"),
    ("gw", "--n", "3", "--insertions", "2,1,3;2,1,3", "--class", "3,2,1",
     "--degree", "1,0"),
    ("verify", "--suite", "associativity", "--n", "3"),
    ("table", "--n", "3"),
]

# sha256 over the exit codes, output and cache files of `_DIGEST_SCRIPT`
CLI_DIGEST = "e7e65f026023105122f495306b9177799cc9bd1ccb094f91985cab009bb81cec"


def test_cli_script_matches_digest(capsys, tmp_path, monkeypatch):
    """The script's bytes, in text and then in JSON, each format in a fresh
    cache directory: every exit code, stdout and stderr, with the cache
    directory's path replaced by a fixed token, then every cache file's name
    and bytes in sorted order."""
    monkeypatch.delenv("QSCHUBERT_CACHE", raising=False)
    digest = hashlib.sha256()
    for fmt in ("text", "json"):
        cache = tmp_path / fmt
        for argv in _DIGEST_SCRIPT:
            for _ in range(2):
                code, out, err = run(capsys, *argv, "--format", fmt, cache=cache)
                assert code == 0, argv
                for part in (str(code), out, err):
                    text = part.replace(str(cache), "<cache>")
                    digest.update(text.encode("utf-8") + b"\0")
        for fp in sorted(cache.iterdir()):
            digest.update(fp.name.encode("utf-8") + b"\0" + fp.read_bytes() + b"\0")
    assert digest.hexdigest() == CLI_DIGEST


def test_cache_file_layout(capsys, cache_dir):
    run(capsys, "product", "--shape", "1:3", "--u", "2,1,3", "--v", "2,1,3",
        cache=cache_dir)
    files = sorted(p.name for p in Path(cache_dir).iterdir())
    assert files == ["product-table_1-3_v1.json"]
    obj = json.loads((Path(cache_dir) / files[0]).read_text(encoding="utf-8"))
    assert obj["kind"] == "product-table"
    assert obj["key"] == "1:3"
    assert obj["version"] == 1


def test_cache_env_var_override(capsys, tmp_path, monkeypatch):
    env_cache = tmp_path / "from-env"
    monkeypatch.setenv("QSCHUBERT_CACHE", str(env_cache))
    code, out, _ = run(capsys, "schubert", "--n", "3", "--w", "2,1,3")
    assert (code, out) == (0, "x1\n")
    assert (env_cache / "schubert_3_v1.json").exists()


def test_cache_corruption_treated_as_absent(capsys, cache_dir):
    argv = ("product", "--n", "2", "--u", "2,1", "--v", "2,1")
    _, first_out, _ = run(capsys, *argv, cache=cache_dir)
    fp = Path(cache_dir) / "product-table_2_v1.json"
    fp.write_text("{ truncated", encoding="utf-8")
    code, out, _ = run(capsys, *argv, cache=cache_dir)
    assert code == 0
    assert out == first_out
    # the rerun rebuilt a readable cache file
    assert json.loads(fp.read_text(encoding="utf-8"))["version"] == 1


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv, name, key, bad", [
    (("product", "--n", "3", "--u", "2,1,3", "--v", "2,1,3"),
     "product-table_3_v1.json", "2,1,3;2,1,3",
     {"n": 3, "terms": [{"d": [0, 0], "w": "3,1,2", "coeff": "x"}]}),
    (("product", "--n", "3", "--u", "2,1,3", "--v", "2,1,3"),
     "product-table_3_v1.json", "2,1,3;2,1,3", "σ[3,1,2]"),
    (("schubert", "--n", "3", "--w", "3,1,2", "--quantum"),
     "qschubert_3_v1.json", "3,1,2", {"bad": 1}),
    (("schubert", "--n", "3", "--w", "3,1,2"),
     "schubert_3_v1.json", "3,1,2", [{"monomial": [{"kind": "x"}]}]),
    (("product", "--n", "3", "--u", "2,1,3", "--v", "2,1,3"),
     "product-table_3_v1.json", "2,1,3;2,1,3",
     {"n": 3, "terms": [{"d": [0, 0], "w": "3,1,2", "coeff": 1.5}]}),
    (("product", "--n", "3", "--u", "2,1,3", "--v", "2,1,3"),
     "product-table_3_v1.json", "2,1,3;2,1,3",
     {"n": 3, "terms": [{"d": [0, 0], "w": "3,1,2", "coeff": True}]}),
    (("product", "--n", "3", "--u", "2,1,3", "--v", "2,1,3"),
     "product-table_3_v1.json", "2,1,3;2,1,3",
     {"n": 3, "terms": [{"d": [0.0, 0], "w": "3,1,2", "coeff": 1}]}),
    (("schubert", "--n", "3", "--w", "3,1,2", "--quantum"),
     "qschubert_3_v1.json", "3,1,2",
     [{"coeff": 1.5, "monomial": [{"kind": "x", "indices": [1], "exp": 2}]}]),
    (("schubert", "--n", "3", "--w", "3,1,2", "--quantum"),
     "qschubert_3_v1.json", "3,1,2",
     [{"coeff": True, "monomial": [{"kind": "x", "indices": [1], "exp": 2}]}]),
    (("schubert", "--n", "3", "--w", "3,1,2", "--quantum"),
     "qschubert_3_v1.json", "3,1,2",
     [{"coeff": "1", "monomial": [{"kind": "x", "indices": [1], "exp": 2.0}]}]),
    (("product", "--n", "3", "--u", "2,1,3", "--v", "2,1,3"),
     "product-table_3_v1.json", "2,1,3;2,1,3",
     {"n": 3, "terms": [{"d": [0, 0], "w": "1,1,1", "coeff": 1}]}),
    (("product", "--n", "3", "--u", "2,1,3", "--v", "2,1,3"),
     "product-table_3_v1.json", "2,1,3;2,1,3",
     {"n": 3, "terms": [{"d": [0, 0], "w": "3,1,2,4", "coeff": 1}]}),
    (("product", "--n", "3", "--u", "2,1,3", "--v", "2,1,3"),
     "product-table_3_v1.json", "2,1,3;2,1,3",
     {"n": 3, "terms": [{"d": [0, 0, 5], "w": "3,1,2", "coeff": 1}]}),
    (("product", "--n", "3", "--u", "2,1,3", "--v", "2,1,3"),
     "product-table_3_v1.json", "2,1,3;2,1,3",
     {"n": 3, "terms": [{"d": [-1, 0], "w": "3,1,2", "coeff": 1}]}),
    (("product", "--shape", "1:3", "--u", "2,1,3", "--v", "2,1,3"),
     "product-table_1-3_v1.json", "2,1,3;2,1,3",
     {"n": 3, "shape": "1:3", "terms": [{"d": [0], "w": "1,3,2", "coeff": 1}]}),
    # sound classes and polynomials, but of another ring or alphabet
    (("product", "--n", "3", "--u", "2,1,3", "--v", "2,1,3"),
     "product-table_3_v1.json", "2,1,3;2,1,3",
     {"n": 5, "terms": [{"d": [0, 0, 0, 0], "w": "1,2,3,4,5", "coeff": 1}]}),
    (("product", "--n", "3", "--u", "2,1,3", "--v", "2,1,3"),
     "product-table_3_v1.json", "2,1,3;2,1,3",
     {"n": 4, "shape": "2:4", "terms": [{"d": [0], "w": "1,2,3,4", "coeff": 1}]}),
    (("product", "--shape", "1:3", "--u", "2,1,3", "--v", "2,1,3"),
     "product-table_1-3_v1.json", "2,1,3;2,1,3",
     {"n": 3, "terms": [{"d": [0, 0], "w": "3,1,2", "coeff": 1}]}),
    (("schubert", "--n", "3", "--w", "3,1,2", "--quantum"),
     "qschubert_3_v1.json", "3,1,2",
     [{"coeff": 1, "monomial": [{"kind": "g", "indices": [9, 2], "exp": 1}]}]),
], ids=["product-coeff", "product-string", "qschubert-keys", "schubert-factor",
        "product-float", "product-bool", "product-float-degree",
        "qschubert-float", "qschubert-bool", "qschubert-float-exponent",
        "product-not-a-permutation", "product-longer-permutation",
        "product-long-degree", "product-negative-degree",
        "partial-not-a-coset-representative", "product-other-n",
        "product-other-shape", "partial-complete-class",
        "qschubert-other-alphabet"])
def test_malformed_cache_entry_is_recomputed(
        capsys, cache_dir, monkeypatch, argv, name, key, bad, fmt):
    argv = argv + ("--format", fmt)
    clean = run(capsys, *argv, cache=cache_dir)
    assert clean[0] == 0
    fp = Path(cache_dir) / name
    obj = json.loads(fp.read_text(encoding="utf-8"))
    good = obj["entries"][key]
    obj["entries"][key] = bad
    fp.write_text(json.dumps(obj), encoding="utf-8")
    # a new process: nothing of the file is held in memory
    monkeypatch.setattr(cli, "_TABLES", {})
    assert run(capsys, *argv, cache=cache_dir) == clean
    obj = json.loads(fp.read_text(encoding="utf-8"))
    assert obj["entries"][key] == good


@pytest.mark.parametrize("argv", [
    ("product", "--n", "3", "--u", "2,1,3", "--v", "2,1,3"),
    ("table", "--n", "3"),
], ids=["product", "table"])
def test_cached_entry_of_a_huge_n_builds_no_codec_of_it(
        capsys, cache_dir, monkeypatch, argv):
    clean = run(capsys, *argv, cache=cache_dir)
    assert clean[0] == 0
    fp = Path(cache_dir) / "product-table_3_v1.json"
    good = fp.read_bytes()
    obj = json.loads(good)
    obj["entries"]["2,1,3;2,1,3"] = {"n": 8000, "terms": []}
    fp.write_text(json.dumps(obj), encoding="utf-8")
    codec = qring._class_codec

    def only_n3(n, shape):
        assert n == 3, f"a codec of n = {n} was built"
        return codec(n, shape)

    monkeypatch.setattr(qring, "_class_codec", only_n3)
    monkeypatch.setattr(cli, "_TABLES", {})
    code, out, err = run(capsys, *argv, cache=cache_dir)
    if argv[0] == "table":
        assert (code, err) == (0, "")
        assert out.endswith("(36 entries, 1 computed)\n")
    else:
        assert (code, out, err) == clean
    assert fp.read_bytes() == good


def test_cache_stale_version_ignored(capsys, cache_dir):
    argv = ("product", "--n", "2", "--u", "2,1", "--v", "2,1")
    _, first_out, _ = run(capsys, *argv, cache=cache_dir)
    fp = Path(cache_dir) / "product-table_2_v1.json"
    obj = json.loads(fp.read_text(encoding="utf-8"))
    obj["version"] = 999
    obj["entries"] = {"2,1;2,1": [{"d": [9], "w": "1,2", "coeff": 77}]}
    fp.write_text(json.dumps(obj), encoding="utf-8")
    code, out, _ = run(capsys, *argv, cache=cache_dir)
    assert code == 0
    assert out == first_out


@pytest.mark.parametrize("under_a_file", [False, True])
def test_unusable_cache_dir_is_a_one_line_input_error(capsys, tmp_path, under_a_file):
    blocker = tmp_path / "a-file"
    blocker.write_text("not a directory\n", encoding="utf-8")
    cache = blocker / "cache" if under_a_file else blocker
    for argv in (("product", "--n", "3", "--u", "2,1,3", "--v", "2,1,3"),
                 ("schubert", "--n", "3", "--w", "2,1,3", "--quantum"),
                 ("table", "--n", "2")):
        code, out, err = run(capsys, *argv, cache=cache)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: cache directory {cache} is not usable: ")
        assert err.count("\n") == 1 and "Traceback" not in err


def test_store_removes_its_temp_file_when_the_rename_fails(tmp_path, monkeypatch):
    def fail(src, dst):
        raise OSError(errno.EIO, "injected rename failure")

    monkeypatch.setattr(cli.os, "replace", fail)
    cache = cli.TableCache(tmp_path)
    entry = {"2,1,3": schubert.schubert_poly((2, 1, 3)).to_json_obj()}
    with pytest.raises(cli.CLIInputError, match="injected rename failure"):
        cache.store("schubert", "3", entry)
    assert list(tmp_path.glob("*.tmp")) == []
    assert cache.load("schubert", "3") is None


def _reference_bytes(kind, key, entries):
    obj = {"version": cli.CACHE_VERSION, "kind": kind, "key": key,
           "entries": entries}
    return (json.dumps(obj, sort_keys=True, indent=1) + "\n").encode("utf-8")


def test_store_writes_the_bytes_of_one_json_dump(tmp_path, monkeypatch):
    ring = quantum_ring(4)
    fl4 = {cli._pair_key(u, v): ring.quantum_product(u, v).to_json_obj()
           for u in ring.basis for v in ring.basis}
    q5 = {cli._perm_key(w): quantum_schubert(w).to_json_obj()
          for w in all_permutations(5)}
    one = {"2,1;2,1": quantum_ring(2).quantum_product((2, 1), (2, 1)).to_json_obj()}
    rng = random.Random(5)
    for kind, key, entries in (("product-table", "3", {}),
                               ("product-table", "2", one),
                               ("product-table", "4", fl4),
                               ("qschubert", "5", q5)):
        cache = cli.TableCache(tmp_path / f"{kind}-{key}")
        keys = list(entries)
        rng.shuffle(keys)
        # three merges; before the last, forget the in-process copy, so it is
        # read back from the file without its memoized chunks
        cuts = [0, len(keys) // 3, 2 * len(keys) // 3, len(keys)]
        for i in range(3):
            if i == 2:
                monkeypatch.setattr(cli, "_TABLES", {})
            batch = {k: entries[k] for k in keys[cuts[i]:cuts[i + 1]]}
            path = cache.store(kind, key, batch)
            so_far = {k: entries[k] for k in keys[:cuts[i + 1]]}
            assert path.read_bytes() == _reference_bytes(kind, key, so_far)
        assert cache.load(kind, key) == entries


# quotes, backslashes, control and non-ASCII characters, besides any others
_odd_text = st.text(
    st.sampled_from('a"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600') | st.characters()
)
_json_leaves = (
    st.none() | st.booleans() | st.text() | _odd_text
    | st.integers() | st.integers(min_value=-2**200, max_value=2**200)
    | st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
)
_json_trees = st.recursive(
    _json_leaves,
    lambda kids: (st.lists(kids) | st.lists(kids).map(tuple)
                  | st.dictionaries(_odd_text, kids)
                  | st.dictionaries(st.integers(), kids)),
    max_leaves=25,
)


@settings(max_examples=300)
@given(_json_trees)
def test_writer_matches_one_json_dump(value):
    out = []
    cli._write(value, "", out)
    assert "".join(out) == json.dumps(value, sort_keys=True, indent=1)


@settings(max_examples=100)
@given(st.dictionaries(_odd_text, _json_trees, max_size=6), _odd_text)
def test_chunks_assemble_the_bytes_of_one_json_dump(entries, key):
    text = cli._table_text("product-table", key, cli._chunks(entries))
    assert text.encode("utf-8") == _reference_bytes("product-table", key, entries)


def test_warm_hit_parses_nothing(capsys, cache_dir, monkeypatch):
    argv = ("product", "--n", "3", "--u", "3,1,2", "--v", "2,3,1")
    _, first_out, _ = run(capsys, *argv, cache=cache_dir)
    # a cold process parses the file once, on its first load
    monkeypatch.setattr(cli, "_TABLES", {})
    assert run(capsys, *argv, cache=cache_dir)[:2] == (0, first_out)

    def refuse(*args, **kwargs):
        raise AssertionError("a warm hit must not parse the table file")

    monkeypatch.setattr(cli.json, "load", refuse)
    for _ in range(2):
        code, out, err = run(capsys, *argv, cache=cache_dir)
        assert (code, out, err) == (0, first_out, "")


def test_foreign_replace_and_unlink_are_seen_on_next_load(tmp_path):
    cache = cli.TableCache(tmp_path)
    value = schubert.schubert_poly((2, 1, 3)).to_json_obj()
    fp = cache.store("schubert", "3", {"2,1,3": value})
    assert cache.load("schubert", "3") == {"2,1,3": value}
    # same size and mtime, another inode: only st_ino tells the files apart
    st = os.stat(fp)
    foreign = tmp_path / "written-elsewhere"
    text = fp.read_text(encoding="utf-8")
    foreign.write_text(text.replace('"2,1,3"', '"1,3,2"'), encoding="utf-8")
    os.utime(foreign, ns=(st.st_atime_ns, st.st_mtime_ns))
    os.replace(foreign, fp)
    assert cache.load("schubert", "3") == {"1,3,2": value}
    fp.unlink()
    assert cache.load("schubert", "3") is None


class _LockstepCache(cli.TableCache):
    """Stores only once every writer has loaded the table and computed its
    entry, so a whole-file load, modify and store loses an update a round."""

    def __init__(self, path, barrier):
        super().__init__(path)
        self.barrier = barrier

    def store(self, kind, key, entries):
        self.barrier.wait(timeout=60)
        return super().store(kind, key, entries)


def _fl4_pairs():
    basis = sorted(quantum_ring(4).basis)
    return [(u, v) for i, u in enumerate(basis) for v in basis[i:]]


def _write_products(path, barrier, pairs):
    ring = quantum_ring(4)
    cache = _LockstepCache(path, barrier)
    for u, v in pairs:
        cli._cached_answer(cache, "product-table", "4", cli._pair_key(u, v),
                           functools.partial(cli._read_class, ring),
                           functools.partial(ring.quantum_product, u, v))


def _assert_full_fl4_table(path):
    ring = quantum_ring(4)
    want = {cli._pair_key(u, v): ring.quantum_product(u, v).to_json_obj()
            for u, v in _fl4_pairs()}
    assert len(want) == 300
    data = (path / "product-table_4_v1.json").read_bytes()
    assert len(json.loads(data)["entries"]) == 300
    assert data == _reference_bytes("product-table", "4", want)
    assert list(path.glob("*.tmp")) == []


def test_concurrent_writer_processes_keep_every_entry(tmp_path):
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(2)
    pairs = _fl4_pairs()
    procs = [ctx.Process(target=_write_products, args=(tmp_path, barrier, pairs[i::2]))
             for i in range(2)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
    assert not any(p.is_alive() for p in procs)
    assert [p.exitcode for p in procs] == [0, 0]
    _assert_full_fl4_table(tmp_path)


def test_concurrent_writer_threads_keep_every_entry(tmp_path):
    barrier = threading.Barrier(2)
    pairs = _fl4_pairs()
    errors = []

    def work(i):
        try:
            _write_products(tmp_path, barrier, pairs[i::2])
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    _assert_full_fl4_table(tmp_path)


def test_table_n2_contents_and_idempotence(capsys, cache_dir):
    code, out, _ = run(capsys, "table", "--n", "2", cache=cache_dir)
    assert code == 0
    assert out.endswith("(4 entries, 3 computed)\n")
    fp = Path(cache_dir) / "product-table_2_v1.json"
    first_bytes = fp.read_bytes()
    entries = json.loads(first_bytes)["entries"]
    assert set(entries) == {"1,2;1,2", "1,2;2,1", "2,1;1,2", "2,1;2,1"}
    cls = QuantumClass.from_json_obj(entries["2,1;2,1"])
    assert dict(cls.items()) == {((1,), (1, 2)): 1}

    code, out, _ = run(capsys, "table", "--n", "2", cache=cache_dir)
    assert code == 0
    assert out.endswith("(4 entries, 0 computed)\n")
    assert fp.read_bytes() == first_bytes


def test_table_rerun_leaves_the_file_untouched(capsys, cache_dir, tmp_path,
                                              monkeypatch):
    assert run(capsys, "table", "--n", "3", cache=cache_dir)[0] == 0
    fp = Path(cache_dir) / "product-table_3_v1.json"
    first, st = fp.read_bytes(), fp.stat()
    dest = tmp_path / "copy.json"
    # warm, then from a cold process, then with --out: no write to the file
    for cold, extra in ((False, ()), (True, ()), (False, ("--out", str(dest)))):
        if cold:
            monkeypatch.setattr(cli, "_TABLES", {})
        code, out, err = run(capsys, "table", "--n", "3", *extra, cache=cache_dir)
        path = dest if extra else fp
        assert (code, out, err) == (0, f"wrote {path} (36 entries, 0 computed)\n", "")
        again = fp.stat()
        assert fp.read_bytes() == first
        assert (again.st_ino, again.st_mtime_ns) == (st.st_ino, st.st_mtime_ns)
    assert dest.read_bytes() == first


def test_table_resumes_from_partial_cache(capsys, cache_dir):
    run(capsys, "product", "--n", "2", "--u", "2,1", "--v", "2,1", cache=cache_dir)
    code, out, _ = run(capsys, "table", "--n", "2", cache=cache_dir)
    assert code == 0
    assert out.endswith("(4 entries, 2 computed)\n")


def _junk(entries):
    return {"bad": 1}


def _unreadable(entries):
    return "not a class"


def _other_class(entries):
    # σ_132 ∗ σ_132: a sound class, not σ_132 ∗ σ_213
    return entries["1,3,2;1,3,2"]


def _other_ring(entries):
    # a sound class of Fl_5, not of Fl_3
    return {"n": 5, "terms": [{"d": [0, 0, 0, 0], "w": "1,2,3,4,5", "coeff": 1}]}


@pytest.mark.parametrize("keys, bad, computed", [
    (["1,3,2;2,1,3"], _junk, 1),
    (["2,1,3;1,3,2"], _junk, 0),
    (["1,3,2;2,1,3", "2,1,3;1,3,2"], _junk, 1),
    (["2,1,3;1,3,2"], _unreadable, 0),
    (["2,1,3;1,3,2"], _other_class, 0),
    (["1,3,2;2,1,3"], _other_ring, 1),
], ids=["canonical", "mirror", "both", "mirror-unreadable", "mirror-differs",
        "canonical-other-ring"])
def test_table_replaces_malformed_entries(
        capsys, cache_dir, monkeypatch, keys, bad, computed):
    # a bad canonical entry is recomputed; a mirror that is not equal to its
    # sound canonical entry, readable or not, is copied again
    run(capsys, "table", "--n", "3", cache=cache_dir)
    fp = Path(cache_dir) / "product-table_3_v1.json"
    clean = fp.read_bytes()
    obj = json.loads(clean)
    for key in keys:
        obj["entries"][key] = bad(obj["entries"])
    fp.write_text(json.dumps(obj), encoding="utf-8")
    monkeypatch.setattr(cli, "_TABLES", {})
    code, out, _ = run(capsys, "table", "--n", "3", cache=cache_dir)
    assert code == 0
    assert out.endswith(f"(36 entries, {computed} computed)\n")
    assert fp.read_bytes() == clean


def test_table_out_flag_copies(capsys, cache_dir, tmp_path):
    dest = tmp_path / "copy" / "table.json"
    code, out, _ = run(capsys, "table", "--n", "2", "--out", str(dest), cache=cache_dir)
    assert code == 0
    assert str(dest) in out
    assert json.loads(dest.read_text(encoding="utf-8"))["kind"] == "product-table"
    original = Path(cache_dir) / "product-table_2_v1.json"
    assert dest.read_bytes() == original.read_bytes()


def test_table_out_naming_the_cache_file_leaves_it_alone(capsys, cache_dir):
    assert run(capsys, "table", "--n", "2", cache=cache_dir)[0] == 0
    fp = Path(cache_dir) / "product-table_2_v1.json"
    first = fp.read_bytes()
    link = Path(cache_dir).parent / "link.json"
    link.symlink_to(fp)
    for out in (fp, link):
        code, stdout, err = run(capsys, "table", "--n", "2", "--out", str(out),
                                cache=cache_dir)
        assert (code, stdout, err) == (0, f"wrote {fp} (4 entries, 0 computed)\n", "")
        assert fp.read_bytes() == first


def test_table_file_is_one_json_dump_and_encodes_each_product_once(
        capsys, cache_dir, monkeypatch):
    ring = quantum_ring(4)
    want = {cli._pair_key(u, v): ring.quantum_product(u, v).to_json_obj()
            for u in ring.basis for v in ring.basis}
    encoded = []
    write = cli._write

    def counted(value, indent, out):
        if indent == "  ":
            encoded.append(value)
        write(value, indent, out)

    monkeypatch.setattr(cli, "_write", counted)
    code, _, _ = run(capsys, "table", "--n", "4", cache=cache_dir)
    assert code == 0
    fp = Path(cache_dir) / "product-table_4_v1.json"
    first = fp.read_bytes()
    assert first == _reference_bytes("product-table", "4", want)
    # 300 unordered pairs; each mirror pair shares its canonical pair's object
    assert len(encoded) == 300
    table = cli._TABLES[(os.fspath(fp), "product-table", "4")]
    for u in ring.basis:
        for v in ring.basis:
            if u > v:
                mirror, canonical = cli._pair_key(u, v), cli._pair_key(v, u)
                assert table.entries[mirror] is table.entries[canonical]
                assert (table.chunks[mirror].split(": ", 1)[1]
                        == table.chunks[canonical].split(": ", 1)[1])
    # a rerun, warm and then from a cold process, leaves the bytes alone
    for cold in (False, True):
        if cold:
            monkeypatch.setattr(cli, "_TABLES", {})
        code, out, _ = run(capsys, "table", "--n", "4", cache=cache_dir)
        assert (code, out) == (0, f"wrote {fp} (576 entries, 0 computed)\n")
        assert fp.read_bytes() == first


def test_table_respects_size_bound(capsys, cache_dir):
    code, _, err = run(capsys, "table", "--n", "6", cache=cache_dir)
    assert code == 2
    assert "n ≤ 5" in err


def test_table_size_bound_is_checked_before_the_ring_is_built(
        capsys, cache_dir, monkeypatch):
    def refuse(*args):
        raise AssertionError("the ring must not be built past --max-n")

    monkeypatch.setattr(cli, "quantum_ring", refuse)
    monkeypatch.setattr(cli, "partial_ring", refuse)
    for argv, n in ((("--n", "9"), 9), (("--shape", "1:2:3:4:5:6:7:8"), 8)):
        code, out, err = run(capsys, "table", *argv, cache=cache_dir)
        assert code == 2
        assert out == ""
        assert err == f"error: table generation is limited to n ≤ 5 (got n = {n})\n"


def _python(*argv):
    """Run python3 with the package importable, in a fresh process."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env, timeout=120)


def test_cli_import_loads_no_process_pool():
    probe = ("import sys, qschubert.cli; "
             "print(sorted(m for m in ('concurrent.futures', 'multiprocessing')"
             " if m in sys.modules))")
    result = _python("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_table_jobs_option_is_gone(cache_dir):
    result = _python("-m", "qschubert", "--cache-dir", str(cache_dir),
                     "table", "--n", "2", "--jobs", "2")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert result.stderr.splitlines()[-1].endswith(
        "error: unrecognized arguments: --jobs 2")
    assert not cache_dir.exists()


def test_table_out_that_cannot_be_written_exits_2(capsys, cache_dir, tmp_path):
    a_dir = tmp_path / "a_dir"
    a_dir.mkdir()
    a_file = tmp_path / "a_file"
    a_file.write_text("x", encoding="utf-8")
    for out, reason in ((a_dir, "Is a directory"),
                        (a_file / "table.json", "not a directory")):
        code, stdout, err = run(capsys, "table", "--n", "2", "--out", str(out),
                                cache=cache_dir)
        assert code == 2
        assert stdout == ""
        assert err == f"error: cannot write {out}: {reason}\n"
    assert a_file.read_text(encoding="utf-8") == "x"
    assert list(a_dir.iterdir()) == []


REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "fl_reference.json").read_text("utf-8")
)


@pytest.mark.parametrize(
    "ring", ["3", "4", "2:4", "2:5", "1:3:4", "2:6", "1:2:3:4"])
def test_table_matches_the_reference(capsys, cache_dir, ring):
    if ":" in ring:
        (ref,) = [t for t in REFERENCE["tables"] if t.get("shape") == ring]
        argv, name = ("--shape", ring), ring.replace(":", "-")
    else:
        (ref,) = [t for t in REFERENCE["tables"] if t.get("n") == int(ring)]
        argv, name = ("--n", ring), ring
    code, _, _ = run(capsys, "table", *argv, "--max-n", "6", cache=cache_dir)
    assert code == 0
    fp = Path(cache_dir) / f"product-table_{name}_v1.json"
    entries = json.loads(fp.read_text(encoding="utf-8"))["entries"]
    got = {pair: [[t["d"], t["w"], t["coeff"]] for t in obj["terms"]]
           for pair, obj in entries.items()}
    want = {}
    for e in ref["entries"]:
        want[f"{e['u']};{e['v']}"] = want[f"{e['v']};{e['u']}"] = e["quantum"]
    assert got == want


def test_table_json_format(capsys, cache_dir):
    code, out, _ = run(capsys, "table", "--n", "2", "--format", "json", cache=cache_dir)
    assert code == 0
    obj = json.loads(out)
    assert obj["entries"] == 4
    assert obj["computed"] == 3


def test_shape_product_table(capsys, cache_dir):
    code, out, _ = run(capsys, "table", "--shape", "2:4", cache=cache_dir)
    assert code == 0
    assert "(36 entries, 21 computed)" in out


def _list_sample(items, limit, seed):
    """The sample that `verify` drew before it stopped listing tuples."""
    items = list(items)
    if len(items) <= limit:
        return items
    return random.Random(seed).sample(items, limit)


def test_sampled_tuples_equal_the_sample_of_the_listed_tuples():
    bases = [all_permutations(3), all_permutations(4),
             list(partial_ring(FlagShape((1, 3), 4)).basis)]
    for basis in bases:
        listed = {2: [(u, v) for u in basis for v in basis],
                  3: [(u, v, w) for u in basis for v in basis for w in basis]}
        for k, tuples in listed.items():
            for limit in (100, 250, 600):
                for seed in (0, 1, 7):
                    assert cli._sampled(basis, k, limit, seed) == \
                        _list_sample(tuples, limit, seed), (basis, k, limit, seed)


class _StandIn:
    """A basis of `size` elements that can be indexed but not listed."""

    def __init__(self, size):
        self.size = size

    def __len__(self):
        return self.size

    def __getitem__(self, i):
        if not 0 <= i < self.size:
            raise IndexError(i)
        return i

    def __iter__(self):
        raise AssertionError("the basis was listed")


def test_sampled_draws_past_sys_maxsize_without_listing_the_basis():
    # as many elements as S_10: 3 628 800³ triples is past sys.maxsize, so
    # random.sample cannot take the len() of their index range
    basis = _StandIn(3_628_800)
    assert len(basis) ** 3 > sys.maxsize
    triples = cli._sampled(basis, 3, 100, 1)
    assert len(set(triples)) == 100
    assert all(len(t) == 3 and all(0 <= e < len(basis) for e in t)
               for t in triples)
    assert cli._sampled(basis, 3, 100, 1) == triples
    assert cli._sampled(basis, 3, 100, 2) != triples


def test_associativity_at_n6_runs_in_bounded_memory():
    pytest.importorskip("resource")
    probe = ("import resource, sys; "
             "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
             "from qschubert.cli import main; "
             "sys.exit(main(sys.argv[1:]))")
    result = _python("-c", probe, "verify", "--suite", "associativity",
                     "--n", "6")
    assert (result.returncode, result.stdout, result.stderr) == (
        0, "pass, 100 triples\n", "")


@pytest.mark.parametrize("argv", [
    ("product", "--n", "3", "--u", "1,2,3"),
    (),
    ("table", "--n", "2", "--bogus"),
    ("product", "--n", "x", "--u", "1,2,3", "--v", "1,2,3"),
    ("product", "--n", "3", "--u", "1,2,3", "--v", "1,2,3", "--format", "xml"),
    ("product", "--n", "3", "--u", "1,2", "--v", "1,2,3"),
    ("verify", "--suite", "no-such-suite"),
    ("table", "--n", "3", "--max-n", "x"),
    ("verify", "--suite", "associativity", "--seed", "x"),
    ("schubert", "--n", "3", "--w", "3,1,2", "--quantum", "--universal"),
    ("schubert", "--n", "3", "--w", "3,1,2", "--format", "xml"),
    ("verify", "--suite", "kernel-chern-partial"),
    ("verify", "--suite", "specialization", "--shape", "2:4"),
    ("verify", "--suite", "lemma-es", "--n", "0"),
    ("gw", "--n", "3", "--insertions", "2,1,3;9,9,9", "--class", "1,2,3",
     "--degree", "0,0"),
])
def test_bad_invocations_print_one_error_line(capsys, cache_dir, argv):
    code, out, err = run(capsys, *argv, cache=cache_dir)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("product", "--n", "400", "--u", "1", "--v", "1"),
    ("product", "--n", "9999999999", "--u", "1", "--v", "1"),
    ("product", "--shape", "1:100000000", "--u", "1", "--v", "1"),
    ("gw", "--n", "3000", "--insertions", "1", "--class", "1", "--degree", "0"),
])
def test_arguments_are_checked_before_the_ring_is_built(cache_dir, argv):
    # no ring of these n fits in 1 GiB of address space, or builds in the
    # time a bad argument should take to refuse
    pytest.importorskip("resource")
    probe = ("import resource, sys; "
             "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
             "from qschubert.cli import main; "
             "sys.exit(main(sys.argv[1:]))")
    result = _python("-c", probe, "--cache-dir", str(cache_dir), *argv)
    n = argv[2].split(":")[-1]
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: permutation '1' is not in S_{n}\n"
