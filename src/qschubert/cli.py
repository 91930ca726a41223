"""Command-line interface: polynomials, products, GW numbers, verification
suites, and cached multiplication tables.

Exit codes: 0 success, 1 internal error or failed verification, 2 bad input.
All output is deterministic; identical invocations print identical bytes.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import random
import shutil
import sys
from pathlib import Path
from typing import NamedTuple

try:
    import fcntl
except ImportError:  # not POSIX: stores merge but do not lock
    fcntl = None

from .perm import (
    FlagShape,
    all_permutations,
    lemma_es_check,
    length,
    validate,
)
from .poly import Polynomial, VerificationError
from .qring import QuantumClass, quantum_ring
from .partial import kernel_chern_partial_check, partial_ring
from .schubert import elementary_poly, schubert_poly
from .universal import (
    g_from_c,
    kernel_chern_check,
    path_poly,
    path_poly_via_determinant,
    path_poly_via_recursion,
    quantum_schubert,
    specialize_classical,
    specialize_quantum,
    universal_schubert_g,
)

CACHE_VERSION = 1


class CLIInputError(Exception):
    """User input failed to parse or validate; exits with status 2."""


# ---- parsing helpers -------------------------------------------------------


def _parse_perm(text: str, n: int | None = None) -> tuple:
    try:
        w = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise CLIInputError(f"cannot parse permutation {text!r}") from None
    try:
        validate(w)
    except ValueError as exc:
        raise CLIInputError(str(exc)) from None
    if n is not None and len(w) != n:
        raise CLIInputError(f"permutation {text!r} is not in S_{n}")
    return w


def _parse_shape(text: str) -> FlagShape:
    try:
        return FlagShape.from_string(text)
    except ValueError as exc:
        raise CLIInputError(str(exc)) from None


def _parse_degree(text: str, want: int) -> tuple:
    try:
        d = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise CLIInputError(f"cannot parse degree {text!r}") from None
    if len(d) != want or any(e < 0 for e in d):
        raise CLIInputError(
            f"degree must be {want} nonnegative integers: {text!r}"
        )
    return d


def _selection(args, max_n=None) -> tuple:
    """(n, shape) of --n or --shape, shape None for --n, read before any
    ring is built; with max_n, a larger n is refused."""
    if getattr(args, "shape", None):
        shape = _parse_shape(args.shape)
        n = shape.n
    elif getattr(args, "n", None) is None:
        raise CLIInputError("one of --n or --shape is required")
    elif args.n < 2:
        raise CLIInputError(f"need n ≥ 2: {args.n}")
    else:
        n, shape = args.n, None
    if max_n is not None and n > max_n:
        raise CLIInputError(
            f"table generation is limited to n ≤ {max_n} (got n = {n})"
        )
    return n, shape


def _ring(n, shape):
    """The partial ring of shape, or the complete ring of n for None."""
    return partial_ring(shape) if shape is not None else quantum_ring(n)


def _parse_element(text: str, n: int, shape) -> tuple:
    """A basis element of the ring of n and shape, checked before the ring
    is built, length first (`_parse_perm`, then `FlagShape.check`)."""
    w = _parse_perm(text, n)
    if shape is None:
        return w
    try:
        return shape.check(w)
    except ValueError as exc:
        raise CLIInputError(str(exc)) from None


def _perm_key(w) -> str:
    return ",".join(str(a) for a in w)


def _os_reason(exc: OSError) -> str:
    # mkdir(exist_ok=True) raises FileExistsError only for a non-directory
    return ("not a directory" if isinstance(exc, FileExistsError)
            else exc.strerror or str(exc))


# ---- cache -----------------------------------------------------------------


class _Table(NamedTuple):
    """One table file as this process last read or wrote it."""

    sig: tuple          # (st_ino, st_mtime_ns, st_size) of that file
    entries: dict | None  # None when the file is unreadable or mismatched
    chunks: dict        # entry key -> its serialized lines, filled on store


# (file, kind, key) -> _Table.  Module-level because every CLI request
# makes its own TableCache; each copy is checked against a fresh stat.
_TABLES: dict = {}


def _sig(st) -> tuple:
    return (st.st_ino, st.st_mtime_ns, st.st_size)


def _read_table(name: str, kind: str, key: str) -> _Table | None:
    """The table in file `name`, from the in-process copy while one stat
    still matches it; None, and the copy dropped, when the file is gone."""
    memo_key = (name, kind, key)
    try:
        sig = _sig(os.stat(name))
    except OSError:
        _TABLES.pop(memo_key, None)
        return None
    old = _TABLES.get(memo_key)
    if old is not None and old.sig == sig:
        return old
    entries = None
    try:
        with open(name, encoding="utf-8") as fh:
            sig = _sig(os.fstat(fh.fileno()))
            obj = json.load(fh)
    except FileNotFoundError:
        _TABLES.pop(memo_key, None)
        return None
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        obj = None
    if (
        isinstance(obj, dict)
        and obj.get("version") == CACHE_VERSION
        and obj.get("kind") == kind
        and obj.get("key") == key
        and isinstance(obj.get("entries"), dict)
    ):
        entries = obj["entries"]
    table = _TABLES[memo_key] = _Table(sig, entries, {})
    return table


_encode_str = json.encoder.encode_basestring_ascii


def _dump_at(value, indent: str) -> str:
    """json.dumps(value, sort_keys=True, indent=1) with `indent` put before
    every line but the first.  A raw newline occurs only between tokens."""
    return json.dumps(value, sort_keys=True, indent=1).replace("\n", "\n" + indent)


def _write(value, indent: str, out: list) -> None:
    """Append to `out` the text of `_dump_at(value, indent)`, written
    directly for strings, ints, and dicts with string keys and lists or
    tuples of those; any other value, or a dict with another key type, is
    handed to `_dump_at` whole."""
    t = type(value)
    if t is str:
        out.append(_encode_str(value))
    elif t is int:
        out.append(int.__repr__(value))
    elif t is dict and value:
        inner = indent + " "
        mark = len(out)
        sep = "{\n" + inner
        for k in sorted(value):
            if type(k) is not str:
                del out[mark:]
                out.append(_dump_at(value, indent))
                return
            out.append(sep + _encode_str(k) + ": ")
            _write(value[k], inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif (t is list or t is tuple) and value:
        inner = indent + " "
        sep = "[\n" + inner
        for v in value:
            out.append(sep)
            _write(v, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    elif t is dict:
        out.append("{}")
    elif t is list or t is tuple:
        out.append("[]")
    else:
        out.append(_dump_at(value, indent))


def _chunks(entries: dict) -> dict:
    """Each entry's lines exactly as json.dump(..., sort_keys=True, indent=1)
    writes them two levels deep, keyed by the entry's (string) key.  Each
    distinct entry object is encoded once, so mirror pairs that share their
    canonical pair's object cost one encoding."""
    texts = {}  # id of an entry object -> its encoded text
    chunks = {}
    for k, v in entries.items():
        text = texts.get(id(v))
        if text is None:
            out = []
            _write(v, "  ", out)
            text = texts[id(v)] = "".join(out)
        chunks[k] = "  " + _encode_str(k) + ": " + text
    return chunks


def _table_text(kind: str, key: str, chunks: dict) -> str:
    """json.dump(header and entries, sort_keys=True, indent=1) plus a
    newline: the header, cut once around its empty "entries" placeholder,
    joined with the entries' chunks in key order, so nothing searches or
    rewrites the body.  "entries" sorts first among the header keys, so the
    placeholder is the first match."""
    head, _, tail = json.dumps(
        {"entries": {}, "key": key, "kind": kind, "version": CACHE_VERSION},
        sort_keys=True,
        indent=1,
    ).partition('"entries": {}')
    if not chunks:
        return head + '"entries": {}' + tail + "\n"
    body = ",\n".join([chunks[k] for k in sorted(chunks)])
    return "".join((head, '"entries": {\n', body, "\n }", tail, "\n"))


@contextlib.contextmanager
def _locked(path: Path):
    """Hold an exclusive flock on the directory itself, so no lock file
    appears beside the tables.  Without fcntl (not POSIX) nothing is
    locked."""
    if fcntl is None:
        yield
        return
    fd = os.open(path, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)


class TableCache:
    """Versioned JSON cache under one directory.

    Files are named {kind}_{key}_v{version}.json with kind one of schubert,
    qschubert, product-table and key the rank n or the sanitized shape string.
    Entries from other versions, unreadable files, or files whose header does
    not match are treated as absent.

    Reads are served from an in-process parsed copy of each file, valid while
    one os.stat still gives the (st_ino, st_mtime_ns, st_size) it was read
    or written at; a hit parses nothing, and a file that has vanished drops
    its copy.  The entries dict that `load` returns is that shared copy:
    callers must not mutate it.

    `store` merges the given entries into the current table under an
    exclusive fcntl.flock on the cache directory.  If the file changed since
    it was last seen, it is read again first, so concurrent writers in other
    processes or threads lose nothing.  The file is written through a temp
    file and an atomic rename, byte for byte as json.dump(..., sort_keys=True,
    indent=1) plus a newline, joined from a per-table memo of each entry's
    serialized lines.  A store encodes only the entries that have no lines
    yet (`_chunks`), without the json module's pure-Python indent encoder.
    Those lines are only ever ones this process encoded: a file changed by
    another process is read again with no lines, and the next store encodes
    it whole.

    Limits: fcntl is POSIX-only, and elsewhere stores do not lock.  A
    foreign in-place rewrite that keeps the file's size within one
    timestamp tick is not detected.
    """

    def __init__(self, path=None):
        if path is None:
            env = os.environ.get("QSCHUBERT_CACHE")
            path = Path(env) if env else Path.home() / ".qschubert"
        self.path = Path(path)

    def file_for(self, kind: str, key: str) -> Path:
        safe = str(key).replace(":", "-")
        return self.path / f"{kind}_{safe}_v{CACHE_VERSION}.json"

    def load(self, kind: str, key: str):
        """The entries dict of a cached table, or None.  Do not mutate it."""
        table = _read_table(os.fspath(self.file_for(kind, key)), kind, str(key))
        return None if table is None else table.entries

    def store(self, kind: str, key: str, entries: dict) -> Path:
        """Merge `entries` into the cached table and return its file.

        Raises CLIInputError when the cache directory cannot be used."""
        key = str(key)
        fp = self.file_for(kind, key)
        name = os.fspath(fp)
        tmp = fp.with_name(f"{fp.name}.{os.getpid()}.tmp")
        try:
            self.path.mkdir(parents=True, exist_ok=True)
            with _locked(self.path):
                table = _read_table(name, kind, key)
                if table is None or table.entries is None:
                    merged, chunks = dict(entries), {}
                else:
                    merged = {**table.entries, **entries}
                    chunks = dict(table.chunks)
                chunks.update(_chunks(entries))
                # entries read back from the file may have no chunk yet
                missing = merged.keys() - chunks.keys()
                if missing:
                    chunks.update(_chunks({k: merged[k] for k in missing}))
                try:
                    with open(tmp, "w", encoding="utf-8") as fh:
                        fh.write(_table_text(kind, key, chunks))
                    os.replace(tmp, fp)
                finally:
                    tmp.unlink(missing_ok=True)
                _TABLES[(name, kind, key)] = _Table(
                    _sig(os.stat(name)), merged, chunks
                )
        except OSError as exc:
            raise CLIInputError(
                f"cache directory {self.path} is not usable: {_os_reason(exc)}"
            ) from None
        return fp


def _read_entry(cls, obj):
    """cls.from_json_obj(obj), or None when the entry is absent or cannot
    be read, so that a malformed entry is recomputed and stored over."""
    if obj is None:
        return None
    try:
        return cls.from_json_obj(obj)
    except (AttributeError, KeyError, TypeError, ValueError):
        return None


def _cached_answer(cache: TableCache, kind: str, key: str, entry_key: str,
                   read, compute) -> tuple:
    """(answer, None) when read(entry) accepts the stored entry; otherwise
    (answer, obj) for answer = compute() and obj its JSON object, which is
    stored.  One serialization serves the cache entry and the JSON output."""
    entries = cache.load(kind, key) or {}
    answer = read(entries.get(entry_key))
    if answer is not None:
        return answer, None
    answer = compute()
    obj = answer.to_json_obj()
    cache.store(kind, key, {entry_key: obj})
    return answer, obj


def _print(args, answer, obj=None) -> None:
    """Print one answer: with --format json, `obj` as one line, else the
    answer's text.  A Polynomial or QuantumClass renders itself, and is
    serialized only when `obj` is None; any other answer is its own text."""
    if args.format == "json":
        obj = answer.to_json_obj() if obj is None else obj
        print(json.dumps(obj, sort_keys=True))
    elif isinstance(answer, (Polynomial, QuantumClass)):
        print(answer.to_text())
    else:
        print(answer)


# ---- schubert --------------------------------------------------------------


def _read_poly(n: int, quantum: bool, obj):
    """The polynomial of a schubert or qschubert entry of n, or None when
    the entry cannot be read or is over another alphabet, so that it is
    recomputed and stored over."""
    alphabet = {("x", i) for i in range(1, n + 1)}
    if quantum:
        alphabet.update(("q", i) for i in range(1, n))
    poly = _read_entry(Polynomial, obj)
    return poly if poly is not None and poly.variables() <= alphabet else None


def cmd_schubert(args) -> int:
    w = _parse_perm(args.w, args.n)
    if args.quantum and args.universal:
        raise CLIInputError("--quantum and --universal are mutually exclusive")
    if args.universal:
        _print(args, universal_schubert_g(w))
        return 0
    kind, compute = (("qschubert", quantum_schubert) if args.quantum
                     else ("schubert", schubert_poly))
    poly, obj = _cached_answer(
        TableCache(args.cache_dir), kind, str(args.n), _perm_key(w),
        functools.partial(_read_poly, args.n, args.quantum),
        functools.partial(compute, w))
    _print(args, poly, obj)
    return 0


# ---- product ---------------------------------------------------------------


def _product_cache_key(ring) -> str:
    return ring.shape.to_string() if ring.shape is not None else str(ring.n)


def _pair_key(u, v) -> str:
    return f"{_perm_key(u)};{_perm_key(v)}"


def _read_class(ring, obj):
    """The class of a product entry, or None when the entry cannot be read
    or is a class of another ring, so that it is recomputed and stored
    over.  The entry's n and shape string are compared before it is parsed,
    so no codec of another n is built."""
    shape = None if ring.shape is None else ring.shape.to_string()
    if (not isinstance(obj, dict) or obj.get("n") != ring.n
            or obj.get("shape") != shape):
        return None
    return _read_entry(QuantumClass, obj)


def cmd_product(args) -> int:
    n, shape = _selection(args)
    u = _parse_element(args.u, n, shape)
    v = _parse_element(args.v, n, shape)
    ring = _ring(n, shape)
    # σ_u∗σ_v = σ_v∗σ_u is stored once, under the sorted pair
    cls, obj = _cached_answer(
        TableCache(args.cache_dir), "product-table", _product_cache_key(ring),
        _pair_key(*sorted((u, v))), functools.partial(_read_class, ring),
        functools.partial(ring.quantum_product, u, v))
    _print(args, cls, obj)
    return 0


# ---- gw --------------------------------------------------------------------


def cmd_gw(args) -> int:
    n, shape = _selection(args)
    parts = args.insertions.split(";")
    if "" in parts:
        raise CLIInputError(
            "--insertions must list ';'-separated permutations, none empty")
    ws = [_parse_element(p, n, shape) for p in parts]
    w = _parse_element(args.cls, n, shape)
    d = _parse_degree(args.degree, n - 1 if shape is None else shape.m)
    value = _ring(n, shape).gromov_witten(ws, w, d)
    _print(args, value, {"value": value})
    return 0


# ---- verify ----------------------------------------------------------------


def _sampled(basis, k, limit, seed):
    """The k-tuples of basis elements in lexicographic order, or a seeded
    sample of `limit` of them when there are more.  The sample draws
    indices from range(len(basis) ** k), which random.sample treats as it
    would the list of all tuples, so no such list is built.  Past
    sys.maxsize, where random.sample cannot take the range's len(), the
    indices come from the loop it runs on large populations: a random
    index, drawn again while it repeats."""
    size = len(basis)
    total = size ** k
    rng = random.Random(seed)
    if total <= limit:
        picks = range(total)
    elif total <= sys.maxsize:
        picks = rng.sample(range(total), limit)
    else:
        picks = {}  # ordered as drawn
        while len(picks) < limit:
            picks[rng.randrange(total)] = None
    # index i names the tuple of the elements at its base-|B| digits, most
    # significant first
    return [tuple(basis[i // size ** j % size] for j in range(k - 1, -1, -1))
            for i in picks]


class _SuiteFailure(Exception):
    """A suite's first counterexample; `cmd_verify` prints it as the one
    `fail:` line."""


def _checked(check, *args):
    """check(*args), a library check that raises VerificationError, whose
    message becomes the suite's failure."""
    try:
        check(*args)
    except VerificationError as exc:
        raise _SuiteFailure(str(exc)) from None


def _suite_associativity(ring, seed):
    basis = list(ring.basis)
    triples = _sampled(basis, 3, 250 if len(basis) <= 6 else 100, seed)
    for u, v, w in triples:
        left = ring.quantum_product_multi([u, v, w])
        if left != ring.quantum_product_multi([v, w, u]):
            raise _SuiteFailure(f"(σ_{u}∗σ_{v})∗σ_{w} ≠ σ_{u}∗(σ_{v}∗σ_{w})")
    return f"{len(triples)} triples"


def _suite_q0_classical(ring, seed):
    # the q = 0 slice of the structure constants against the product of the
    # classical lifts, expanded by Horner's rule
    pairs = _sampled(list(ring.basis), 2, 600, seed)
    for u, v in pairs:
        lifts = ring._classical_lift(u) * ring._classical_lift(v)
        if ring.classical_product(u, v) != ring.expand_classical(lifts):
            raise _SuiteFailure(f"q=0 slice of σ_{u}∗σ_{v} differs from the "
                                f"classical product")
    return f"{len(pairs)} pairs"


def _suite_duality(ring, seed):
    basis = list(ring.basis)
    d0 = (0,) * ring.q_count
    dim = ring._shape.moduli_dimension(d0)
    top = max(basis, key=length)
    checked = 0
    for u in basis:
        for v in basis:
            if length(u) + length(v) != dim:
                continue
            checked += 1
            got = ring.classical_product(u, v).coefficient(d0, top)
            want = 1 if v == ring._shape.dual(u) else 0
            if got != want:
                raise _SuiteFailure(
                    f"pairing ⟨σ_{u},σ_{v}⟩ = {got}, expected {want}"
                )
    return f"{checked} pairs"


def _suite_relations(ring, seed):
    rels = list(ring.relations())
    for k, rel in enumerate(rels, start=1):
        if not ring.expand_in_quantum_basis(rel).is_zero():
            raise _SuiteFailure(f"relation {k} does not expand to zero")
    if ring.shape is None:
        for k, rel in enumerate(rels, start=1):
            classical = rel.substitute(ring._q_zero)
            if classical != elementary_poly(k, ring.n):
                raise _SuiteFailure(
                    f"relation {k} at q=0 is not the elementary polynomial"
                )
    return f"{len(rels)} relations"


def _suite_giambelli(ring, seed):
    for w in ring.basis:
        got = ring.expand_in_quantum_basis(ring.basis_polynomial(w))
        if got != QuantumClass.unit(w, shape=ring.shape):
            raise _SuiteFailure(f"σ_{w} does not expand to the unit class")
    return f"{len(ring.basis)} classes"


def _suite_specialization(n, seed):
    ws = sorted(all_permutations(n), key=length)
    for w in ws:
        universal = universal_schubert_g(w)
        quantum = quantum_schubert(w)
        if specialize_quantum(universal) != quantum:
            raise _SuiteFailure(f"universal → quantum failed at {w}")
        classical = schubert_poly(w)
        if specialize_classical(universal) != classical:
            raise _SuiteFailure(f"universal → classical failed at {w}")
        q_zero = {v: 0 for v in quantum.variables() if v[0] == "q"}
        if quantum.substitute(q_zero) != classical:
            raise _SuiteFailure(f"quantum → classical failed at {w}")
    return f"{len(ws)} chains"


def _suite_recursion_roundtrip(n, seed):
    for l in range(1, n + 1):
        for k in range(0, l + 1):
            direct = path_poly(k, l)
            if direct != path_poly_via_recursion(k, l):
                raise _SuiteFailure(f"recursion disagrees at E_{k}({l})")
            if direct != path_poly_via_determinant(k, l):
                raise _SuiteFailure(f"determinant disagrees at E_{k}({l})")
    for i in range(1, n + 1):
        for j in range(0, n - i + 1):
            image = g_from_c(i, j)
            back = image.substitute(
                {v: path_poly(v[1], v[2]) for v in image.variables()}
            )
            if back != Polynomial.variable(("g", i, j)):
                raise _SuiteFailure(f"g↔c round trip failed at g{i}[{j}]")
    return None


def _suite_kernel_chern(n, seed):
    pairs = [(k, l) for l in range(1, n + 1) for k in range(1, l)]
    for k, l in pairs:
        _checked(kernel_chern_check, k, l)
    return f"{len(pairs)} pairs"


def _suite_kernel_chern_partial(shape, seed):
    for l in range(1, shape.m + 1):
        _checked(kernel_chern_partial_check, l, shape)
    return f"{shape.m} maps"


def _suite_lemma_es(n, seed):
    count = 0
    stack = [()]
    while stack:
        e = stack.pop()
        if len(e) < n - 1:
            prev = e[-1] if e else 0
            for nxt in range(0, prev + 2):
                if sum(e) + nxt <= 6:
                    stack.append(e + (nxt,))
        if not e or sum(e) < 1:
            continue
        total, weighted = lemma_es_check(e)
        if not (total <= weighted and weighted >= 2):
            raise _SuiteFailure(f"bounds fail at e = {e}")
        if (weighted == 2) != (total == 1):
            raise _SuiteFailure(f"equality case fails at e = {e}")
        count += 1
    return f"{count} multiindices"


def _suite_grading(ring, seed):
    pairs = _sampled(list(ring.basis), 2, 600, seed)
    dim = ring._shape.moduli_dimension((0,) * ring.q_count)
    for u, v in pairs:
        for (d, w), c in ring.quantum_product(u, v).items():
            if c < 0:
                raise _SuiteFailure(
                    f"negative structure constant {c} at q^{d}·σ_{w} "
                    f"in σ_{u}∗σ_{v}"
                )
            weight = ring._shape.moduli_dimension(d) - dim
            if length(w) + weight != length(u) + length(v):
                raise _SuiteFailure(
                    f"graded mismatch at q^{d}·σ_{w} in σ_{u}∗σ_{v}"
                )
    return f"{len(pairs)} pairs"


def _suite_two_point(ring, seed):
    # the fundamental-class axiom: ⟨σ_u, σ_v, σ_id⟩_d = 0 for d ≠ 0, read off
    # the product σ_u ∗ σ_v at every d with entries ≤ 2 that passes its
    # dimension gate
    identity = tuple(range(1, ring.n + 1))
    by_dim = {}
    for d in itertools.product(range(3), repeat=ring.q_count):
        if any(d):
            by_dim.setdefault(ring._shape.moduli_dimension(d), []).append(d)
    lengths = [(w, length(w)) for w in ring.basis]
    count = 0
    for u, lu in lengths:
        for v, lv in lengths:
            for d in by_dim.get(lu + lv, ()):
                got = ring.gromov_witten([u, v], identity, d)
                count += 1
                if got != 0:
                    raise _SuiteFailure(
                        f"⟨σ_{u},σ_{v},σ_{identity}⟩_{d} = {got}, expected 0"
                    )
    return f"{count} invariants"


# name -> (suite, selector, default n).  A "ring" suite takes the ring of
# --n or --shape, an "n" suite --n alone, a "shape" suite --shape alone;
# each is called with that ring, n or shape and the seed.
_SUITES = {
    "associativity": (_suite_associativity, "ring", 3),
    "q0-classical": (_suite_q0_classical, "ring", 3),
    "duality": (_suite_duality, "ring", 3),
    "relations": (_suite_relations, "ring", 3),
    "giambelli": (_suite_giambelli, "ring", 3),
    "grading": (_suite_grading, "ring", 3),
    "two-point": (_suite_two_point, "ring", 3),
    "specialization": (_suite_specialization, "n", 3),
    "recursion-roundtrip": (_suite_recursion_roundtrip, "n", 5),
    "kernel-chern": (_suite_kernel_chern, "n", 5),
    "kernel-chern-partial": (_suite_kernel_chern_partial, "shape", None),
    "lemma-es": (_suite_lemma_es, "n", 5),
}


def cmd_verify(args) -> int:
    name = args.suite
    if name not in _SUITES:
        raise CLIInputError(
            f"unknown suite {name!r}; known suites: {', '.join(sorted(_SUITES))}"
        )
    suite, selector, default_n = _SUITES[name]
    if selector == "shape" and not args.shape:
        raise CLIInputError(f"suite {name!r} needs --shape")
    if selector == "n" and args.shape:
        raise CLIInputError(f"suite {name!r} takes --n, not --shape")
    if not args.shape and args.n is None:
        args.n = default_n
    if selector == "shape":
        selection = _parse_shape(args.shape)
    elif selector == "ring":
        selection = _ring(*_selection(args))
    elif args.n < 1:
        raise CLIInputError(f"need n ≥ 1: {args.n}")
    else:
        selection = args.n
    try:
        summary, failure = suite(selection, args.seed), None
    except _SuiteFailure as exc:
        summary, failure = None, str(exc)
    if failure is not None:
        text, obj = f"fail: {failure}", {"status": "fail", "failures": [failure]}
    elif summary is not None:
        text, obj = f"pass, {summary}", {"status": "pass", "summary": summary}
    else:
        text, obj = "pass", {"status": "pass"}
    _print(args, text, {"suite": name, **obj})
    return 0 if failure is None else 1


# ---- table -----------------------------------------------------------------


def cmd_table(args) -> int:
    ring = _ring(*_selection(args, max_n=args.max_n))
    cache = TableCache(args.cache_dir)
    key = _product_cache_key(ring)
    entries = cache.load("product-table", key) or {}
    basis = list(ring.basis)
    # canonical pairs u ≤ v (the basis is sorted), and the mirror key of each
    # pair off the diagonal
    pairs = {_pair_key(u, v): (u, v) for i, u in enumerate(basis) for v in basis[i:]}
    mirrors = {k: _pair_key(v, u) for k, (u, v) in pairs.items() if u != v}
    # a canonical entry that cannot be read, or holds a class of another
    # ring, counts as missing, so it is stored over; a mirror is held when
    # its canonical entry is and the two JSON objects are equal, so no
    # mirror is parsed
    held = {k for k in pairs if _read_class(ring, entries.get(k)) is not None}
    held.update(m for k, m in mirrors.items()
                if k in held and entries.get(m) == entries[k])
    # one process: every product of this n shares the ring's transition memo
    new = {k: ring.quantum_product(u, v).to_json_obj()
           for k, (u, v) in pairs.items() if k not in held}
    computed = len(new)
    # mirror each canonical pair onto the opposite order so the table lists
    # every ordered pair explicitly
    for k, m in mirrors.items():
        if m not in held:
            new[m] = (new if k in new else entries)[k]
    # a rerun that finds every pair leaves the file untouched
    path = (cache.store("product-table", key, new) if new
            else cache.file_for("product-table", key))
    total = len(entries.keys() | new.keys())
    if args.out:
        out = Path(args.out)
        try:
            out.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(path, out)
            path = out
        except shutil.SameFileError:  # --out names the cache file itself
            pass
        except OSError as exc:
            raise CLIInputError(f"cannot write {out}: {_os_reason(exc)}") from None
    _print(args, f"wrote {path} ({total} entries, {computed} computed)",
           {"path": str(path), "entries": total, "computed": computed})
    return 0


# ---- entry point -----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors raise CLIInputError, so they print one `error: …` line
    like any other bad input.  Subparsers inherit the class."""

    def error(self, message):
        raise CLIInputError(message)


def _add_selector(p):
    """--n for the complete flag manifold or --shape for a partial one; a
    command line that gives both is refused."""
    group = p.add_mutually_exclusive_group()
    group.add_argument("--n", type=int)
    group.add_argument("--shape", help="flag shape n1:n2:…:n")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="qschubert",
        description="Exact Schubert calculus: classical, quantum, universal.",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default: $QSCHUBERT_CACHE or ~/.qschubert)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # every command takes --format, declared once in a shared parent
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    add_parser = functools.partial(sub.add_parser, parents=[common])

    p = add_parser("schubert", help="print a Schubert polynomial")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", required=True, help="permutation, e.g. 3,1,2")
    p.add_argument("--quantum", action="store_true")
    p.add_argument("--universal", action="store_true")
    p.set_defaults(fn=cmd_schubert)

    p = add_parser("product", help="quantum product of two classes")
    _add_selector(p)
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.set_defaults(fn=cmd_product)

    p = add_parser("gw", help="Gromov–Witten invariant")
    _add_selector(p)
    p.add_argument(
        "--insertions", required=True, help="semicolon-separated permutations"
    )
    p.add_argument(
        "--class",
        dest="cls",
        required=True,
        help="the class σ_w paired against the insertions; the invariant is "
        "the coefficient of q^d·σ_{dual(w)} in their product",
    )
    p.add_argument("--degree", required=True, help="comma-separated degree")
    p.set_defaults(fn=cmd_gw)

    p = add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True)
    _add_selector(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    p = add_parser("table", help="materialize a multiplication table")
    _add_selector(p)
    p.add_argument("--out", help="copy the table to this path")
    p.add_argument("--max-n", type=int, default=5)
    p.set_defaults(fn=cmd_table)

    return parser


def main(argv=None) -> int:
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except CLIInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
