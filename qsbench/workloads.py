"""The four workloads: seeded inputs, set-up, timed phase and output checks.

One call of run_rep() is one repetition in a fresh interpreter.  Inputs are
generated from the seed with the standard library alone, before the set-up
clock starts; the package is imported inside set-up, so import time counts as
set-up.  Every output of the timed phase is checked afterwards against the
oracles in oracles.py or against the package's own answer to the same
question, and each mismatch or raised call counts as a failed operation.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import resource
import shutil
import tempfile
from collections import namedtuple
from time import perf_counter

import calib
import oracles
import tracing
from oracles import length

COLD = ("table-cold", "basis-cold")

FL4 = "1:2:3:4"
GR26 = "2:6"
STEP134 = "1:3:4"

GW_QUERIES = 1200       # queries in one gw-warm repetition, each asked once
# query kinds in a fixed rotation: 20 % Monk-checkable Fl_4 queries (all
# insertions but one are divisor classes), 55 % other Fl_4, 25 % on 1:3:4
GW_KINDS = [(FL4, True)] * 4 + [(FL4, False)] * 11 + [(STEP134, False)] * 5
GW_MAX_DEGREE = {FL4: 2, STEP134: 1}   # bound on each q-degree d_l
BASIS_SHARE = 16        # basis-cold samples 1 in BASIS_SHARE of each length of S_6
CLI_REQUESTS = 500      # requests in one cli-cache repetition
CLI_MISS_SLOTS = (3, 6, 9)   # request n is a miss when n % 10 is one of these
SYMMETRY_SAMPLE = 40


# ---- permutations, without the package ---------------------------------------


def perms(n):
    return list(itertools.permutations(range(1, n + 1)))


def min_reps(steps, n):
    """Permutations increasing inside every block of the flag shape."""
    return [
        w for w in perms(n)
        if all(w[i - 1] < w[i] for i in range(1, n) if i not in steps)
    ]


def shape_of(text):
    parts = tuple(int(p) for p in text.split(":"))
    return parts[:-1], parts[-1]


def q_grades(text):
    steps, n = shape_of(text)
    ns = (0,) + steps + (n,)
    return tuple(ns[l + 1] - ns[l - 1] for l in range(1, len(steps) + 1))


def dimension(text):
    steps, n = shape_of(text)
    ns = (0,) + steps + (n,)
    blocks = [b - a for a, b in zip(ns, ns[1:])]
    return sum(a * b for i, a in enumerate(blocks) for b in blocks[i + 1:])


def perm_text(w):
    return ",".join(map(str, w))


# ---- seeded inputs -----------------------------------------------------------


def table_inputs(seed):
    """Every unordered pair of Fl_4 and of Gr(2,6), by increasing degree
    ℓ(u) + ℓ(v) and in a seeded order within a degree.  The first product of
    each new degree then builds exactly one echelon slice of each ring, so
    the slow products are the same set of builds for every seed."""
    rng = random.Random(seed)
    pairs = []
    for shape in (FL4, GR26):
        basis = min_reps(*shape_of(shape))
        for i, u in enumerate(basis):
            for v in basis[i:]:
                pairs.append((shape, u, v) if rng.random() < 0.5 else (shape, v, u))
    rng.shuffle(pairs)
    pairs.sort(key=lambda p: length(p[1]) + length(p[2]))
    return pairs


Query = namedtuple("Query", "shape ws w d monk")


def _degrees(count, cap, total):
    return [d for d in itertools.product(range(cap + 1), repeat=count)
            if sum(d) == total]


def _gw_query(rng, shape, monk, k):
    """A query that passes the dimension gate: the insertion lengths sum to
    dim + Σ d_l·grade(q_l), with every d_l ≤ GW_MAX_DEGREE[shape]."""
    cap = GW_MAX_DEGREE[shape]
    basis = min_reps(*shape_of(shape))
    nonid = [w for w in basis if length(w)]
    grades = q_grades(shape)
    dim = dimension(shape)
    while True:
        if monk:
            divisors = [rng.randrange(1, 4) for _ in range(k - 1)]
            u = rng.choice(nonid)
            ws = [oracles.swap((1, 2, 3, 4), r, r + 1) for r in divisors]
            ws.insert(rng.randrange(k), u)
        else:
            ws = [rng.choice(nonid) for _ in range(k)]
        w = rng.choice(basis)
        excess = sum(map(length, ws)) + length(w) - dim
        if excess < 0 or excess % grades[0]:
            continue
        ds = _degrees(len(grades), cap, excess // grades[0])
        if not ds:
            continue
        return Query(shape, tuple(ws), w, rng.choice(ds),
                     (tuple(divisors), u) if monk else None)


def gw_inputs(seed):
    """Kinds and insertion counts (3, 4, 5, besides σ_w) rotate in a fixed
    pattern, so every stretch of the stream has the same mix; the seed draws
    the classes and degrees."""
    rng = random.Random(seed)
    return [
        _gw_query(rng, *GW_KINDS[(i // 3) % len(GW_KINDS)], 3 + i % 3)
        for i in range(GW_QUERIES)
    ]


def basis_inputs(seed):
    """A fixed systematic sample of S_6 in a seeded order, shortest first.

    Each length class is ordered by the number of terms of 𝔖_w, which the
    cost follows, and every BASIS_SHARE-th permutation is taken from the
    middle of the first stretch, at least one of each length.  The seed
    shuffles each length class of the sample.  The sample itself is fixed:
    a sample of 1 in 16 drawn at a seeded offset moves the median cost of a
    permutation by about 9 % (quartile distance ÷ median over 40 offsets),
    which alone would take a third of the benchmark's bound."""
    rng = random.Random(seed)
    by_len = {}
    for w in perms(6):
        by_len.setdefault(length(w), []).append(w)
    out = []
    for _, bucket in sorted(by_len.items()):
        bucket.sort(key=lambda w: len(oracles.schubert_transition(w)))
        sample = bucket[min(BASIS_SHARE, len(bucket)) // 2::BASIS_SHARE]
        rng.shuffle(sample)
        out += sample
    return out


def cli_inputs(seed):
    """Endless (argv, evict) requests, three misses in every ten at fixed
    places.  Hits read seeded pairs from the Fl_4 table made in set-up.
    Misses walk each miss family's keys in a fixed order, growing its table
    file, and evict the file (evict = (kind, key)) before starting over; the
    seed only swaps the factors of some products.  The order is fixed
    because a miss's cost depends on what earlier misses left in the
    package's caches: in a seeded order, p90 moved by ±15 % between seeds."""
    rng = random.Random(seed)
    fl4 = perms(4)
    families = []
    for shape in ("1:2:3", "2:5", STEP134):
        basis = min_reps(*shape_of(shape))
        sel = ["--n", "3"] if shape == "1:2:3" else ["--shape", shape]
        key = "3" if shape == "1:2:3" else shape
        keys = [["product"] + sel + ["--u", perm_text(u), "--v", perm_text(v)]
                for i, u in enumerate(basis) for v in basis[i:]]
        families.append((("product-table", key), keys))
    families.append((("qschubert", "5"), [
        ["schubert", "--n", "5", "--quantum", "--w", perm_text(w)] for w in perms(5)
    ]))
    orders = [[] for _ in families]
    # misses take the families in a fixed rotation, each in proportion to its
    # size, so that all of them are used up at the same pace
    rotation = [i for _, i in sorted(
        ((k + 0.5) / len(keys), i)
        for i, (_, keys) in enumerate(families) for k in range(len(keys))
    )]
    misses = itertools.cycle(rotation)
    for n in itertools.count():
        if n % 10 not in CLI_MISS_SLOTS:
            u, v = rng.choice(fl4), rng.choice(fl4)
            yield ["product", "--n", "4", "--u", perm_text(u), "--v", perm_text(v)], None
            continue
        i = next(misses)
        evict = None
        if not orders[i]:
            orders[i] = families[i][1][::-1]
            evict = families[i][0]
        argv = orders[i].pop()
        if argv[0] == "product" and rng.random() < 0.5:
            argv = argv[:-4] + ["--u", argv[-1], "--v", argv[-3]]
        yield argv, evict


# ---- JSON forms of the package's answers -------------------------------------


def class_from_json(obj):
    """{(d, w): coeff} from QuantumClass.to_json_obj()."""
    return {
        (tuple(t["d"]), tuple(int(a) for a in t["w"].split(","))): int(t["coeff"])
        for t in obj["terms"]
    }


def poly_from_json(obj):
    """{((kind, indices), ...) sorted: coeff} from Polynomial.to_json_obj()."""
    out = {}
    for t in obj:
        mon = tuple(sorted(
            ((f["kind"],) + tuple(f["indices"]), f["exp"]) for f in t["monomial"]
        ))
        out[mon] = int(t["coeff"])
    return out


def x_exponents(mon, n):
    e = [0] * n
    for var, k in mon:
        e[var[1] - 1] = k
    return tuple(e)


def specialize(upoly, quantum):
    """g_i[0] ↦ x_i, g_i[1] ↦ q_i (only when quantum), other g ↦ 0."""
    out = {}
    for mon, c in upoly.items():
        new = []
        for (kind, i, j), k in mon:
            if j == 0:
                new.append((("x", i), k))
            elif j == 1 and quantum:
                new.append((("q", i), k))
            else:
                break
        else:
            key = tuple(sorted(new))
            out[key] = out.get(key, 0) + c
    return {m: c for m, c in out.items() if c}


# ---- measurement ---------------------------------------------------------------


class Recorder:
    def __init__(self):
        self.starts = []
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def fail(self, message):
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append(message)


def stream(ops, call, rec, clock, tracer=None, before=None):
    """Closed loop over (key, op): one call at a time, each timed alone,
    with calibration samples between calls.

    Returns the first answer for each key; a later answer that differs from
    the first, or a call that raises, fails.
    """
    answers = {}
    for i, (key, op) in enumerate(ops):
        clock.maybe()
        if before is not None:
            before(op)
        if tracer is not None:
            tracer.request = i
        t = perf_counter()
        try:
            out = call(op)
        except Exception as exc:  # any error of the program is a failed op
            rec.starts.append(t)
            rec.latencies.append(perf_counter() - t)
            rec.attempted += 1
            rec.fail(f"{op!r} raised {exc!r}")
            continue
        rec.starts.append(t)
        rec.latencies.append(perf_counter() - t)
        rec.attempted += 1
        first = answers.setdefault(key, out)
        if first is not out and first != out:
            rec.fail(f"{op!r} answered {out!r}, earlier {first!r}")
    return answers


def _check_class(rec, what, got, want):
    if got != want:
        rec.fail(f"{what}: got {sorted(got.items())}, expected {sorted(want.items())}")


def _check_grading(rec, shape, u, v, got):
    grades = q_grades(shape)
    for (d, w), c in got.items():
        if c <= 0 or length(w) + sum(e * g for e, g in zip(d, grades)) != (
            length(u) + length(v)
        ):
            rec.fail(f"σ{u}∗σ{v} on {shape}: coefficient {c} at q^{d}·σ{w}")
            return


def _product_oracle(shape, u, v):
    """The independent answer for σ_u∗σ_v when one factor is a divisor class
    (complete flags) or σ_1 (Grassmannians), else None."""
    steps, n = shape_of(shape)
    for a, b in ((u, v), (v, u)):
        if len(steps) == n - 1:
            r = oracles.divisor_index(a)
            if r is not None:
                return oracles.monk(r, {((0,) * (n - 1), b): 1})
        elif len(steps) == 1 and length(a) == 1:
            return oracles.pieri_sigma1(b, steps[0], n)
    return None


# ---- the workloads ----------------------------------------------------------------


def _ring_of(qs, shape):
    steps, n = shape_of(shape)
    if len(steps) == n - 1:
        return qs.quantum_ring(n)
    return qs.partial_ring(qs.FlagShape.from_string(shape))


class TableCold:
    """Full quantum multiplication tables of Fl_4 and Gr(2,6) in a fresh
    interpreter, through the public product functions."""

    inputs = staticmethod(table_inputs)

    def setup(self, pairs, workdir):
        import qschubert as qs
        self.qs = qs
        self.gr26 = qs.FlagShape.from_string(GR26)
        qs.quantum_ring(4)
        qs.partial_ring(self.gr26)

    def ops(self, pairs):
        return enumerate(pairs)

    def call(self, op):
        shape, u, v = op
        if shape == FL4:
            return self.qs.quantum_product(u, v)
        return self.qs.partial_quantum_product(u, v, self.gr26)

    def check(self, pairs, answers, rec):
        for i, (shape, u, v) in enumerate(pairs):
            if i not in answers:
                continue
            got = class_from_json(answers[i].to_json_obj())
            _check_grading(rec, shape, u, v, got)
            want = _product_oracle(shape, u, v)
            if want is not None:
                _check_class(rec, f"σ{u}∗σ{v} on {shape}", got, want)


class GwWarm:
    """A closed-loop stream of N-point Gromov–Witten invariants against warm
    rings: set-up builds every echelon slice the stream can touch."""

    inputs = staticmethod(gw_inputs)

    def setup(self, queries, workdir):
        import qschubert as qs
        self.qs = qs
        self.s134 = qs.FlagShape.from_string(STEP134)

    def warm_up(self):
        """The rest of set-up, in stages: one ring, or the slice of one grade,
        between yields.

        The largest x-grade an expansion reaches is the total grade of the
        insertions (the q-free stratum); the gate bounds it by dim + Σ d_l ·
        grade(q_l), so slices 0..top cover every query the generator can draw.
        """
        qs = self.qs
        for shape, cap in sorted(GW_MAX_DEGREE.items()):
            grade = dimension(shape) + cap * sum(q_grades(shape))
            ring = _ring_of(qs, shape)
            var = qs.x_var(1) if shape == FL4 else \
                qs.Polynomial.variable(ring.sigma_vars[0])
            for m in range(grade + 1):
                yield
                ring.expand_classical(var ** m)

    def ops(self, queries):
        return enumerate(queries)

    def call(self, q):
        if q.shape == FL4:
            return self.qs.gromov_witten(q.ws, q.w, q.d)
        return self.qs.partial_gw(q.ws, q.w, q.d, self.s134)

    def check(self, queries, answers, rec):
        for i, got in answers.items():
            q = queries[i]
            if not isinstance(got, int) or got < 0:
                rec.fail(f"{q}: invariant {got!r} is not a nonnegative integer")
            if q.monk is not None:
                prod = oracles.monk_product(*q.monk)
                want = prod.get((q.d, oracles.dual(q.w)), 0)
                if got != want:
                    rec.fail(f"{q}: got {got}, quantum Monk gives {want}")
        rng = random.Random(len(answers))
        for i in rng.sample(sorted(answers), min(SYMMETRY_SAMPLE, len(answers))):
            q = queries[i]
            ws = list(q.ws)
            rng.shuffle(ws)
            got = self.call(q._replace(ws=tuple(ws)))
            rec.attempted += 1
            if got != answers[i]:
                rec.fail(f"{q}: insertion order {ws} gives {got}, not {answers[i]}")


class BasisCold:
    """Quantum and universal Schubert polynomials of a stratified sample of
    S_6 in a fresh interpreter."""

    inputs = staticmethod(basis_inputs)

    def setup(self, ws, workdir):
        import qschubert as qs
        self.qs = qs

    def ops(self, ws):
        return enumerate(ws)

    def call(self, w):
        return self.qs.quantum_schubert(w), self.qs.universal_schubert_g(w)

    def check(self, ws, answers, rec):
        for i, (qpoly, upoly) in answers.items():
            w = ws[i]
            want = oracles.schubert_transition(w)
            qterms = poly_from_json(qpoly.to_json_obj())
            uterms = poly_from_json(upoly.to_json_obj())
            at_q0 = {x_exponents(m, 6): c for m, c in qterms.items()
                     if all(var[0] == "x" for var, _ in m)}
            if at_q0 != want:
                rec.fail(f"quantum Schubert {w} at q = 0 differs from transition")
            classical = {x_exponents(m, 6): c
                         for m, c in specialize(uterms, False).items()}
            if classical != want:
                rec.fail(f"universal Schubert {w} at g_i[j>0] = 0 differs from "
                         f"transition")
            if specialize(uterms, True) != qterms:
                rec.fail(f"universal Schubert {w} does not specialize to the "
                         f"quantum one")


class CliCache:
    """In-process CLI requests against a fresh cache directory that set-up
    fills with the Fl_4 product table."""

    inputs = staticmethod(cli_inputs)

    def setup(self, requests, workdir):
        from qschubert import cli
        import qschubert as qs
        self.qs = qs
        self.cli = cli
        self.dir = tempfile.mkdtemp(prefix="cache-", dir=workdir)
        self.cache = cli.TableCache(self.dir)
        self.main(["table", "--n", "4"])

    def main(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = self.cli.main(["--cache-dir", self.dir] + argv + ["--format", "json"])
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        return out.getvalue()

    def ops(self, requests):
        return ((tuple(argv), (argv, evict))
                for argv, evict in itertools.islice(requests, CLI_REQUESTS))

    def before(self, op):
        evict = op[1]
        if evict is not None:
            self.cache.file_for(*evict).unlink(missing_ok=True)

    def call(self, op):
        return self.main(op[0])

    def check(self, requests, answers, rec):
        for argv, text in answers.items():
            obj = json.loads(text)
            if argv[0] == "schubert":
                w = tuple(int(a) for a in argv[-1].split(","))
                got = poly_from_json(obj)
                if got != poly_from_json(self.qs.quantum_schubert(w).to_json_obj()):
                    rec.fail(f"{argv}: differs from quantum_schubert")
                at_q0 = {x_exponents(m, 5): c for m, c in got.items()
                         if all(var[0] == "x" for var, _ in m)}
                if at_q0 != oracles.schubert_transition(w):
                    rec.fail(f"{argv}: q = 0 part differs from transition")
                continue
            shape = {"3": "1:2:3", "4": FL4}[argv[2]] if argv[1] == "--n" else argv[2]
            u = tuple(int(a) for a in argv[argv.index("--u") + 1].split(","))
            v = tuple(int(a) for a in argv[argv.index("--v") + 1].split(","))
            got = class_from_json(obj)
            ring = _ring_of(self.qs, shape)
            _check_class(rec, str(argv), got,
                         class_from_json(ring.quantum_product(u, v).to_json_obj()))
            want = _product_oracle(shape, u, v)
            if want is not None:
                _check_class(rec, str(argv), got, want)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


IMPLS = {
    "table-cold": TableCold,
    "gw-warm": GwWarm,
    "basis-cold": BasisCold,
    "cli-cache": CliCache,
}
WORKLOADS = tuple(IMPLS)


def run_rep(workload, seed, trace, workdir, setup_only=False):
    """One repetition; returns a JSON-ready dict.  Every repetition of one
    workload and seed runs the same operations in the same order from the
    same state, so run.py can compare their latencies operation by operation."""
    impl = IMPLS[workload]()
    inputs = impl.inputs(seed)
    clock = calib.Clock()

    def stages():
        impl.setup(inputs, workdir)
        yield
        yield from getattr(impl, "warm_up", tuple)()

    setup_s, setup_scaled = calib.run_stages(stages())
    out = {"setup_s": setup_s, "setup_scaled": setup_scaled}
    try:
        if setup_only:
            return out
        rec = Recorder()
        tracer = None
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
        try:
            answers = stream(
                impl.ops(inputs), impl.call, rec, clock, tracer=tracer,
                before=getattr(impl, "before", None),
            )
        finally:
            if tracer is not None:
                tracer.uninstall()
        clock.take()
        impl.check(inputs, answers, rec)
        if tracer is not None:
            if workload == "cli-cache":
                # its product and schubert requests are all cacheable
                tracer.cacheable = set(range(len(rec.latencies)))
            out["layers"] = layers = tracing.layer_metrics(tracer)
            builds = layers["poly.EchelonSystem.build.calls"]
            if workload == "gw-warm" and builds:
                rec.fail(f"timed phase built {builds} echelon systems; "
                         f"warm-up missed a slice")
            tracer.write(f"{workdir}/spans-{workload}.jsonl")
        out.update(
            latencies=rec.latencies,
            scaled=[lat * clock.scale(t) for t, lat in zip(rec.starts, rec.latencies)],
            attempted=rec.attempted,
            failed=rec.failed,
            messages=rec.messages,
        )
    finally:
        if hasattr(impl, "close"):
            impl.close()
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out
