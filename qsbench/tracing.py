"""Spans around the calls into qschubert's public functions.

The package is not modified: each traced function or method is replaced, in
every qschubert module that holds it, by a wrapper that records a span
[name, start, end, parent, request, extra].  Spans stay in memory until the
run ends.  A span's self time is its duration minus the durations of its
direct children; calls are strictly nested in one thread, so children never
overlap.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from time import perf_counter


def _rows_rank(args, out):
    return (len(args[1]), args[0].rank)


def _size(args, out):
    return len(out)


def _dec_terms(args, out):
    return len(out.coeffs)


def _file_bytes(path):
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def _load_bytes(args, out):
    if out is None:
        return 0
    self, kind, key = args[:3]
    return _file_bytes(self.file_for(kind, key))


def _store_bytes(args, out):
    return _file_bytes(out)


# (module, function, extra) traced in every module that binds the function
FUNCTIONS = [
    ("perm", "sn_elements", None),
    ("perm", "all_permutations", None),
    ("perm", "dual", None),
    ("perm", "hyperquot_dim", None),
    ("poly", "solve_linear_expansion", None),
    ("schubert", "schubert_poly", None),
    ("schubert", "e_decomposition", _dec_terms),
    ("universal", "quantum_schubert", None),
    ("universal", "universal_schubert_g", None),
    ("universal", "path_poly", None),
    ("partial", "partial_quantum_schubert", None),
    ("partial", "tilde_E", None),
    ("partial", "partial_ring", None),
    ("qring", "quantum_ring", None),
    ("cli", "main", None),
]

# (module, class, method, span name, extra); an extra turns a call's
# arguments and result into a number, or a pair of numbers, summed per layer
METHODS = [
    ("poly", "EchelonSystem", "__init__", "poly.EchelonSystem.build", _rows_rank),
    ("poly", "EchelonSystem", "reduce", "poly.EchelonSystem.reduce", None),
    ("poly", "Polynomial", "__mul__", "poly.Polynomial.mul", _size),
    ("poly", "Polynomial", "substitute", "poly.Polynomial.substitute", None),
    ("qring", "_GradedQuotientRing", "quantum_product", "qring.quantum_product", None),
    ("qring", "_GradedQuotientRing", "expand_in_quantum_basis",
     "qring.expand_in_quantum_basis", None),
    ("qring", "_GradedQuotientRing", "class_to_poly", "qring.class_to_poly", None),
    ("qring", "_GradedQuotientRing", "gromov_witten", "qring.gromov_witten", None),
    ("cli", "TableCache", "load", "cli.TableCache.load", _load_bytes),
    ("cli", "TableCache", "store", "cli.TableCache.store", _store_bytes),
]


class Tracer:
    """Spans of one repetition.  `request` is set by the client before each
    request; `cacheable` holds the requests the cache could answer."""

    def __init__(self):
        self.spans = []
        self.request = -1
        self.cacheable = set()
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, extra):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if extra is not None:
                rec[5] = extra(args, out)
            return out

        return traced

    def install(self):
        """Patch every traced function and method; uninstall() undoes it."""
        for modname, _, _ in FUNCTIONS:
            importlib.import_module(f"qschubert.{modname}")
        mods = [m for k, m in list(sys.modules.items())
                if k == "qschubert" or k.startswith("qschubert.")]
        for modname, attr, extra in FUNCTIONS:
            orig = getattr(sys.modules[f"qschubert.{modname}"], attr)
            traced = self._wrap(f"{modname}.{attr}", orig, extra)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, traced)
        for modname, clsname, attr, name, extra in METHODS:
            cls = getattr(sys.modules[f"qschubert.{modname}"], clsname)
            orig = cls.__dict__[attr]
            traced = self._wrap(name, orig, extra)
            # aliases such as Polynomial.__rmul__ = __mul__ are patched too
            for key, value in list(cls.__dict__.items()):
                if value is orig:
                    self._undo.append((cls, key, orig))
                    setattr(cls, key, traced)

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


LAYER_NAMES = [name for _, _, _, name, _ in METHODS] + [
    f"{m}.{a}" for m, a, _ in FUNCTIONS if m != "perm"
]


def layer_metrics(tracer):
    """Per-layer metrics over the recorded spans, named
    <module>.<function>.<stat>; every name is present even at zero calls."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    expand_child = [False] * len(spans)
    stored = set()
    for name, start, end, parent, request, _ in spans:
        if parent >= 0:
            child[parent] += end - start
            if name == "qring.expand_in_quantum_basis":
                expand_child[parent] = True
        if name == "cli.TableCache.store":
            stored.add(request)
    calls = {name: 0 for name in LAYER_NAMES}
    self_s = {name: 0.0 for name in LAYER_NAMES}
    extra = {}
    memo_hits = 0
    for i, (name, start, end, parent, request, ex) in enumerate(spans):
        key = "perm" if name.startswith("perm.") else name
        calls[key] = calls.get(key, 0) + 1
        self_s[key] = self_s.get(key, 0.0) + (end - start) - child[i]
        if ex is not None:
            acc = extra.setdefault(name, [0, 0])
            if isinstance(ex, tuple):
                acc[0] += ex[0]
                acc[1] += ex[1]
            else:
                acc[0] += ex
        if name == "qring.quantum_product" and not expand_child[i]:
            memo_hits += 1
    out = {}
    for key in ["perm"] + LAYER_NAMES:
        out[f"{key}.calls"] = calls.get(key, 0)
        out[f"{key}.self_s"] = self_s.get(key, 0.0)
    rows_in, rank = extra.get("poly.EchelonSystem.build", [0, 0])
    out["poly.EchelonSystem.build.rows_in"] = rows_in
    out["poly.EchelonSystem.build.rank"] = rank
    out["poly.EchelonSystem.build.useful_ratio"] = rank / rows_in if rows_in else 0.0
    out["poly.Polynomial.mul.terms_out"] = extra.get("poly.Polynomial.mul", [0])[0]
    out["schubert.e_decomposition.terms"] = extra.get(
        "schubert.e_decomposition", [0])[0]
    out["cli.TableCache.load.bytes"] = extra.get("cli.TableCache.load", [0])[0]
    out["cli.TableCache.store.bytes"] = extra.get("cli.TableCache.store", [0])[0]
    qp = calls["qring.quantum_product"]
    out["qring.quantum_product.memo_hit_ratio"] = memo_hits / qp if qp else 0.0
    cacheable = tracer.cacheable
    hits = len(cacheable - stored)
    out["cli.cache_hit_ratio"] = hits / len(cacheable) if cacheable else 0.0
    return out
