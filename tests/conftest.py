"""Shared fixtures."""
from collections import Counter
from functools import lru_cache

import pytest

from qschubert import schubert, universal


@pytest.fixture()
def fresh_engines(monkeypatch):
    """A fresh `_transition` cache in `schubert` and `universal`, so that
    every e-decomposition is peeled again; the memos of e_decomposition and
    of the universal lifts are cleared before and after, and monkeypatch
    puts the shared engines back.  Returns the fresh cache."""
    fresh = lru_cache(maxsize=None)(schubert._Transition)
    monkeypatch.setattr(schubert, "_transition", fresh)
    monkeypatch.setattr(universal, "_transition", fresh)
    caches = (schubert.e_decomposition, universal.universal_schubert_c,
              universal.universal_schubert_g)
    for cached in caches:
        cached.cache_clear()
    yield fresh
    for cached in caches:
        cached.cache_clear()


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
