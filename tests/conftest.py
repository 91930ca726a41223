"""Shared fixtures."""
import os
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

import qschubert
from qschubert import Polynomial, schubert, universal


def _naive_fold(coeffs, factor):
    """Σ a_K·factor(k_1, 1)⋯factor(k_L, L), multiplied out term by term with
    Polynomial.__mul__."""
    out = Polynomial.zero()
    for seq, a in coeffs.items():
        term = Polynomial.constant(a)
        for p, k in enumerate(seq, start=1):
            if k:
                term = term * factor(k, p)
        out = out + term
    return out


@pytest.fixture()
def naive_fold():
    """The oracle of the packed folds: `_naive_fold`, which packs nothing."""
    return _naive_fold


@pytest.fixture()
def run_fresh():
    """run(code, *args): the stdout of code run by a fresh interpreter on
    this package."""
    src = str(Path(qschubert.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)

    def run(code, *args):
        result = subprocess.run([sys.executable, "-c", code, *args],
                                capture_output=True, text=True, env=env,
                                timeout=120)
        assert result.returncode == 0, result.stderr
        return result.stdout

    return run


@pytest.fixture()
def fresh_engines(monkeypatch):
    """A fresh `_transition` cache in `schubert` and `universal`, so that
    every e-decomposition, lift and column is built again: the engine of n
    holds every memo of n.  monkeypatch puts the shared engines back.
    Returns the fresh cache."""
    fresh = lru_cache(maxsize=None)(schubert._Transition)
    monkeypatch.setattr(schubert, "_transition", fresh)
    monkeypatch.setattr(universal, "_transition", fresh)
    return fresh


@pytest.fixture()
def e_rows_built(fresh_engines):
    """watch(n): a Counter, by K, of the rows (`e_row`) that the fresh
    engine of n builds from then on."""
    def watch(n):
        engine = fresh_engines(n)
        built = Counter()
        row = engine.e_row

        def counted(seq):
            built[seq] += 1
            return row(seq)

        engine.e_row = counted
        return built

    return watch


@pytest.fixture()
def doubled_pieri(fresh_engines, monkeypatch):
    """Every Pieri product comes back doubled, so no row of grade ≥ 1 holds
    its σ_w at coefficient 1; the peel runs on fresh engines."""
    pieri = schubert._pieri
    monkeypatch.setattr(
        schubert, "_pieri",
        lambda z, p: tuple({y: 2 * c for y, c in row.items()}
                           for row in pieri(z, p)))
