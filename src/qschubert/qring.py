"""Quantum cohomology ring of the complete flag manifold, and the
presentation and expansion engine that it shares with the partial flag rings
(partial.py).

Elements are integer combinations of Schubert classes σ_w scaled by monomials
in the deformation parameters q_1,…,q_{n−1} (each of grade 2).  A pairwise
product σ_u ∗ σ_v is computed once, by multiplying quantum Schubert
polynomial representatives and rewriting the result in the basis {q^d·σ_w}
modulo the quantum relations e^q_k(n) = 0, over the integers alone, and then
memoized.  Every other product and every Gromov–Witten invariant is folded
from those memoized structure constants by bilinearity; the rewriting below
serves only the pairwise products and arbitrary polynomial inputs.

Every ring is presented the same way (`_GradedQuotientRing`): a ring
supplies only its relations, its basis lifts and its element rules.  From the
flag shape and the relations the shared code derives the variables with their
grades, a term order, and rewriting rules x^lead → tail with q-free leading
terms: the reduced Gröbner basis of the relations over Z.  It then rewrites
by two steps.

1. Normal form.  Each monomial is reduced by the rules to a Z[q]-combination
   of standard monomials, those that no leading term divides, and the result
   is memoized per exponent vector.
2. Peel.  The normal form of each basis lift leads with a q-free monomial at
   coefficient 1, a different one for each class of a grade.  So the
   expansion is read off the residual from the top: take its largest term
   c·x^a·q^d, record c·q^d·σ_w for the w whose lift leads with x^a,
   subtract c·q^d·NF(lift of σ_w), and repeat until the residual vanishes.

For Fl_n the order is grade first, then lower q-degree first, then reverse
lex with x_n > … > x_1; the rules lead with x_n, x_{n−1}², …, x_1^n, so the
standard monomials are the n! staircase monomials x^a, a_i ≤ n − i, and
NF(𝔖^q_w) leads with x^code(w).  The classical expansion runs the same steps
on the q = 0 rules and the classical lifts (for Fl_n, the Schubert
polynomials 𝔖_w).
"""
from __future__ import annotations

import operator
import threading
from bisect import insort
from functools import lru_cache

from .perm import (
    FlagShape,
    Perm,
    all_permutations,
    dual,
    hyperquot_dim,
    length,
    validate,
)
from .poly import Polynomial, VerificationError
from .schubert import schubert_poly
from .universal import quantum_e, quantum_schubert

__all__ = [
    "QuantumClass",
    "QuantumRing",
    "RingError",
    "quantum_ring",
    "relations",
    "expand_in_quantum_basis",
    "quantum_product",
    "quantum_product_multi",
    "classical_product",
    "gromov_witten",
]


class RingError(VerificationError):
    """An internal consistency check of the ring presentation failed."""


class QuantumClass:
    """An integer combination of basis classes q^d·σ_w.

    Terms are keyed by (d, w) with d a tuple of q-exponents and w a
    permutation; zero coefficients are dropped.  Equality compares n and the
    term dictionaries, so a class over a partial flag shape and one over the
    complete shape agree exactly when their expansions match.
    """

    __slots__ = ("n", "shape", "_terms")

    def __init__(self, n: int, terms=None, shape=None):
        self.n = n
        self.shape = shape
        clean = {}
        for (d, w), c in (terms or {}).items():
            if c:
                clean[(tuple(d), tuple(w))] = c
        self._terms = clean

    @property
    def q_count(self) -> int:
        return self.shape.m if self.shape is not None else self.n - 1

    @classmethod
    def unit(cls, w: Perm, shape=None) -> "QuantumClass":
        """The single class 1·σ_w at q-degree zero."""
        w = validate(w)
        qc = shape.m if shape is not None else len(w) - 1
        return cls(len(w), {((0,) * qc, w): 1}, shape=shape)

    def coefficient(self, d, w) -> int:
        return self._terms.get((tuple(d), tuple(w)), 0)

    def items(self):
        """Terms as ((d, w), coeff), sorted by d then w."""
        return sorted(self._terms.items())

    def support(self):
        return sorted(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuantumClass)
            and self.n == other.n
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.n, frozenset(self._terms.items())))

    def __add__(self, other: "QuantumClass") -> "QuantumClass":
        if not isinstance(other, QuantumClass) or other.n != self.n:
            return NotImplemented
        terms = dict(self._terms)
        for key, c in other._terms.items():
            terms[key] = terms.get(key, 0) + c
        return QuantumClass(self.n, terms, shape=self.shape)

    def __sub__(self, other: "QuantumClass") -> "QuantumClass":
        return self + (-1) * other

    def __rmul__(self, c: int) -> "QuantumClass":
        return QuantumClass(
            self.n, {key: c * v for key, v in self._terms.items()}, shape=self.shape
        )

    def to_text(self) -> str:
        """Human-readable form, e.g. 'σ[3,1,2] + q1·σ[1,2,3]'."""
        if not self._terms:
            return "0"
        pieces = []
        for (d, w), c in self.items():
            factors = []
            if abs(c) != 1:
                factors.append(str(abs(c)))
            for i, e in enumerate(d, start=1):
                if e == 1:
                    factors.append(f"q{i}")
                elif e > 1:
                    factors.append(f"q{i}^{e}")
            factors.append("σ[" + ",".join(str(a) for a in w) + "]")
            pieces.append((c < 0, "·".join(factors)))
        neg, body = pieces[0]
        out = ("−" + body) if neg else body
        for neg, body in pieces[1:]:
            out += (" − " if neg else " + ") + body
        return out

    def to_json_obj(self) -> dict:
        obj = {
            "n": self.n,
            "terms": [
                {"d": list(d), "w": ",".join(str(a) for a in w), "coeff": c}
                for (d, w), c in self.items()
            ],
        }
        if self.shape is not None:
            obj["shape"] = self.shape.to_string()
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "QuantumClass":
        shape = FlagShape.from_string(obj["shape"]) if "shape" in obj else None
        terms = {}
        for t in obj["terms"]:
            w = tuple(int(a) for a in t["w"].split(","))
            terms[(tuple(t["d"]), w)] = int(t["coeff"])
        return cls(int(obj["n"]), terms, shape=shape)

    def __repr__(self):
        return f"QuantumClass({self.to_text()!r})"


def _add(u: tuple, v: tuple) -> tuple:
    return tuple(map(operator.add, u, v))


def _divides(u: tuple, v: tuple) -> bool:
    return all(map(operator.le, u, v))


def _reduce(p: dict, basis: list, key) -> dict:
    """The remainder of p (exponent → int) modulo `basis`, a list of
    (lead, poly) with leading coefficient 1; every term is reduced."""
    p = dict(p)
    rem = {}
    while p:
        t = max(p, key=key)
        c = p.pop(t)
        for lead, g in basis:
            if _divides(lead, t):
                shift = tuple(map(operator.sub, t, lead))
                for e, cg in g.items():
                    if e != lead:
                        e2 = _add(e, shift)
                        s = p.get(e2, 0) - c * cg
                        if s:
                            p[e2] = s
                        else:
                            p.pop(e2, None)
                break
        else:
            rem[t] = c
    return rem


def _monic(p: dict, key):
    """(lead, p divided by its leading coefficient c).  Raises RingError
    unless c is ±1 after removing the content, that is, unless c divides
    every coefficient."""
    lead = max(p, key=key)
    c = p[lead]
    if any(v % c for v in p.values()):
        raise RingError("a Gröbner basis element does not have leading "
                        "coefficient ±1 after removing its content")
    return lead, {e: v // c for e, v in p.items()}


def _groebner(gens, key) -> list:
    """Reduced Gröbner basis over Z of the ideal of `gens` (dicts exponent →
    int) under the term order `key`, as (lead, poly) pairs in increasing
    order of leads, each with leading coefficient 1.

    Buchberger's algorithm with his two criteria, taking pairs by smallest
    lcm first; every remainder must be monic up to its content.
    """
    basis = []
    pairs = set()   # (i, j) with i < j, not yet treated
    queue = []      # (key of lcm, i, j, lcm), the smallest lcm first

    def include(p):
        p = _reduce(p, basis, key)
        if p:
            lead, g = _monic(p, key)
            for i, (other, _) in enumerate(basis):
                lcm = tuple(map(max, other, lead))
                pairs.add((i, len(basis)))
                insort(queue, (key(lcm), i, len(basis), lcm))
            basis.append((lead, g))

    for g in gens:
        include(g)
    while queue:
        _, i, j, lcm = queue.pop(0)
        pairs.remove((i, j))
        (li, gi), (lj, gj) = basis[i], basis[j]
        if not any(map(min, li, lj)):
            continue    # coprime leads
        if any(k not in (i, j) and _divides(basis[k][0], lcm)
               and (min(i, k), max(i, k)) not in pairs
               and (min(j, k), max(j, k)) not in pairs
               for k in range(len(basis))):
            continue    # chain criterion
        s = {}
        for sign, lead, g in ((1, li, gi), (-1, lj, gj)):
            shift = tuple(map(operator.sub, lcm, lead))
            for e, c in g.items():
                e2 = _add(e, shift)
                s[e2] = s.get(e2, 0) + sign * c
        include({e: c for e, c in s.items() if c})
    # a remainder's lead is divisible by no earlier lead, so the leads are
    # distinct; keep the minimal ones and reduce their tails
    leads = [lead for lead, _ in basis]
    minimal = [(lead, g) for lead, g in basis
               if not any(_divides(other, lead) for other in leads
                          if other != lead)]
    out = []
    for lead, g in minimal:
        others = [lg for lg in minimal if lg[0] != lead]
        tail = _reduce({e: c for e, c in g.items() if e != lead}, others, key)
        out.append((lead, {lead: 1, **tail}))
    return sorted(out, key=lambda lg: key(lg[0]))


class _GradedQuotientRing:
    """Public product and invariant API, and the presentation and expansion
    engine, of the complete and partial rings.

    `quantum_product` expands the product of two lifts once per unordered
    pair and memoizes it; `quantum_product_multi` and `gromov_witten` fold
    those structure constants in the class basis and expand nothing.  The
    expansion below serves the pairwise products and the arbitrary inputs of
    `expand_in_quantum_basis` and `expand_classical`.

    A subclass supplies only:
    - `basis`, the basis permutations, set before `__init__` runs;
    - `relations()`, generators of the quantum ideal;
    - the lifts `_basis_lift` and `_classical_lift`, and the element rules
      `_check_element`, `_dual` and `_moduli_dimension`.

    `__init__(shape)` derives the rest from the flag shape and the relations:
    - `_vars`, the block classes σ_i^l (x_l for complete shapes) with their
      grades `_var_grades`, and `_q_weights`, the grades of q_1, q_2, …; a
      term x^a·q^d is keyed (a, d) by its exponent vectors over `_vars` and
      the q_l (`_keyed`);
    - the term order `_term_key(a, d)`: weighted grade, then lower q-weight
      first, then reverse lex over `_vars`, biggest first;
    - `_rules[quantum]`, the reduced Gröbner basis over Z of the relations,
      with the q_l as variables, for the quantum ideal (True) and its q = 0
      part (False): a rule (lead, tail) has a q-free x^lead, given by its
      support ((i, e), …), and rewrites it to −Σ c·x^a·q^d over the tail's
      terms (a, d, c).

    Expansion has two steps, over the integers alone.
    1. Normal form.  A monomial x^a reduces by the first rule whose leading
       exponent divides it, until only monomials that no leading exponent
       divides remain; the result is memoized per exponent vector.
    2. Peel.  The normal form of each lift leads with a q-free monomial at
       coefficient 1, a different one for each class of a grade.  So the
       expansion is read off the residual from the top: take its largest
       term c·x^a·q^d, record c·q^d·σ_w for the w whose lift leads with x^a,
       subtract c·q^d·NF(lift of σ_w), and repeat until nothing is left.
    The classical expansion runs the same steps on the q = 0 rules and the
    classical lifts, with its own memo.
    """

    def __init__(self, shape: FlagShape):
        self.n = shape.n
        self.q_count = shape.m
        # biggest first: blocks from last to first, larger i first in the
        # last block and smaller i first in the others
        ns = shape.ns
        complete = shape.is_complete()
        order = []
        for l in range(shape.m + 1, 0, -1):
            size = ns[l] - ns[l - 1]
            for i in (range(size, 0, -1) if l == shape.m + 1
                      else range(1, size + 1)):
                order.append((("x", l) if complete else ("sigma", i, l), i))
        self._vars = tuple(v for v, _ in order)
        self._var_grades = tuple(g for _, g in order)
        self._q_weights = shape.q_grades
        self._q_zero = {("q", l): 0 for l in range(1, shape.m + 1)}
        self._index = {v: i for i, v in enumerate(self._vars)}
        self._q_grade_map = dict(enumerate(self._q_weights, start=1))
        self._zero_d = (0,) * self.q_count
        self._nf = {True: {}, False: {}}
        self._tables = {}
        self._by_length = {}
        for w in self.basis:
            self._by_length.setdefault(length(w), []).append(w)
        self._products = {}
        self._lock = threading.RLock()

        r = len(self._vars)
        keys = {}

        def key(e):
            got = keys.get(e)
            if got is None:
                got = keys[e] = self._term_key(e[:r], e[r:])
            return got

        gens = [{a + d: c for a, d, c in self._keyed(rel)}
                for rel in self.relations()]
        self._rules = {True: [], False: []}
        for lead, g in _groebner(gens, key):
            if any(lead[r:]):
                raise RingError(f"a Gröbner basis element of "
                                f"{shape.to_string()} has a leading term "
                                f"with q")
            support = tuple((i, e) for i, e in enumerate(lead) if e)
            tail = tuple((e[:r], e[r:], c) for e, c in g.items() if e != lead)
            self._rules[True].append((support, tail))
            self._rules[False].append(
                (support, tuple(t for t in tail if not any(t[1]))))

    # -- hooks ----------------------------------------------------------
    def relations(self) -> tuple:
        raise NotImplementedError

    def _check_element(self, w) -> Perm:
        raise NotImplementedError

    def _basis_lift(self, w: Perm) -> Polynomial:
        raise NotImplementedError

    def _classical_lift(self, w: Perm) -> Polynomial:
        return self._basis_lift(w).substitute(self._q_zero)

    def _moduli_dimension(self, d) -> int:
        raise NotImplementedError

    def _dual(self, w: Perm) -> Perm:
        raise NotImplementedError

    # -- shared machinery -------------------------------------------------
    def _q_monomial(self, d):
        return tuple((("q", i + 1), e) for i, e in enumerate(d) if e)

    def _checked(self, p: Polynomial) -> Polynomial:
        for v in p.variables():
            if v not in self._index and not (
                v[0] == "q" and 1 <= v[1] <= self.q_count
            ):
                raise ValueError(f"variable {v} is not in the ring alphabet")
        return p

    def expand_in_quantum_basis(self, p: Polynomial) -> QuantumClass:
        """Rewrite p as an integer combination of classes q^d·σ_w."""
        p = self._checked(p)
        self._lift_grades(p)
        return self._peel(self._normal_form(p, True), True)

    def expand_classical(self, p: Polynomial) -> QuantumClass:
        """Rewrite a q-free polynomial in the Schubert basis (all d = 0)."""
        if any(v[0] == "q" for v in p.variables()):
            raise ValueError("classical expansion needs a q-free input")
        p = self._checked(p)
        self._lift_grades(p)
        return self._peel(self._normal_form(p, False), False)

    def basis_polynomial(self, w) -> Polynomial:
        """The polynomial representative of the basis class σ_w."""
        return self._basis_lift(self._check_element(w))

    def class_to_poly(self, cls: QuantumClass) -> Polynomial:
        """Polynomial representative: Σ c·q^d·(lift of σ_w)."""
        out = Polynomial.zero()
        for (d, w), c in cls.items():
            qm = Polynomial({self._q_monomial(d): c})
            out = out + qm * self._basis_lift(w)
        return out

    def quantum_product(self, u, v) -> QuantumClass:
        u = self._check_element(u)
        v = self._check_element(v)
        key = (u, v) if u <= v else (v, u)
        got = self._products.get(key)
        if got is None:
            prod = self._basis_lift(key[0]) * self._basis_lift(key[1])
            got = self.expand_in_quantum_basis(prod)
            with self._lock:
                self._products[key] = got
        return got

    def quantum_product_multi(self, ws) -> QuantumClass:
        """σ_{w_1} ∗ ⋯ ∗ σ_{w_N} over a nonempty factor list: a left fold of
        the memoized pairwise products by bilinearity,
        (Σ c·q^d·σ_v) ∗ σ_w = Σ c·q^d·(σ_v ∗ σ_w)."""
        ws = [self._check_element(w) for w in ws]
        if not ws:
            raise ValueError("need at least one factor")
        acc = {(self._zero_d, ws[0]): 1}
        for w in ws[1:]:
            nxt = {}
            for (d, v), c in acc.items():
                for (d2, y), c2 in self.quantum_product(v, w)._terms.items():
                    key = (_add(d, d2), y)
                    nxt[key] = nxt.get(key, 0) + c * c2
            acc = {key: c for key, c in nxt.items() if c}
        return QuantumClass(self.n, acc, shape=self.shape)

    def classical_product(self, u, v) -> QuantumClass:
        u = self._check_element(u)
        v = self._check_element(v)
        return self.expand_classical(
            self._classical_lift(u) * self._classical_lift(v)
        )

    def gromov_witten(self, ws, w, d) -> int:
        """N-point genus-zero invariant ⟨σ_{w_1},…,σ_{w_N}, σ_w⟩_d, read off
        as the coefficient of q^d·σ_{w∨} in the product of the σ_{w_i}.

        Returns 0 immediately when the lengths fail the dimension count.
        """
        ws = [self._check_element(x) for x in ws]
        w = self._check_element(w)
        d = tuple(int(e) for e in d)
        if len(d) != self.q_count or any(e < 0 for e in d):
            raise ValueError(
                f"degree must be {self.q_count} nonnegative integers: {d}"
            )
        if not ws:
            raise ValueError("need at least one insertion")
        total = sum(length(x) for x in ws) + length(w)
        if total != self._moduli_dimension(d):
            return 0
        cls = self.quantum_product_multi(ws)
        return cls.coefficient(d, self._dual(w))

    # -- normal form and peel ---------------------------------------------
    def _grade(self, a: tuple) -> int:
        return sum(map(operator.mul, a, self._var_grades))

    def _term_key(self, a: tuple, d: tuple) -> tuple:
        qw = sum(map(operator.mul, d, self._q_weights))
        return (self._grade(a) + qw, -qw, tuple(map(operator.neg, a[::-1])), d)

    def _keyed(self, p: Polynomial):
        """p as (a, d, c) triples over `_vars` and the q_l."""
        index = self._index
        r = len(self._vars)
        out = []
        for mon, c in p._terms.items():
            a = [0] * r
            d = [0] * self.q_count
            for v, e in mon:
                if v[0] == "q":
                    d[v[1] - 1] = e
                else:
                    a[index[v]] = e
            out.append((tuple(a), tuple(d), c))
        return out

    def _lead_and_tail(self, terms: dict, what, lead=None):
        """The largest key (a, d) of `terms` and the other terms as (a, d, c)
        triples, after checking that the largest is q-free, has coefficient
        1 and, when `lead` is given, equals it."""
        top = max(terms, key=lambda ad: self._term_key(*ad), default=None)
        if (top is None or any(top[1]) or terms[top] != 1
                or lead is not None and top != lead):
            raise RingError(f"{what} does not have a q-free leading term "
                            f"with coefficient 1"
                            + (f" at x^{lead[0]}" if lead is not None else ""))
        return top, tuple((a, d, c) for (a, d), c in terms.items() if (a, d) != top)

    def _nf_monomial(self, a: tuple, quantum: bool) -> tuple:
        """Normal form of x^a as ((a', d'), c) pairs over standard a'.

        Dependencies are resolved with an explicit stack; each memo entry is
        stored only once it is complete, so concurrent readers never see a
        partial one and a race costs at most a duplicate computation.
        """
        memo = self._nf[quantum]
        got = memo.get(a)
        if got is not None:
            return got
        rules = self._rules[quantum]
        stack = [a]
        while stack:
            top = stack[-1]
            if top in memo:
                stack.pop()
                continue
            rule = next((r for r in rules
                         if all(top[i] >= e for i, e in r[0])), None)
            if rule is None:
                memo[top] = (((top, self._zero_d), 1),)
                stack.pop()
                continue
            lead, tail = rule
            base = list(top)
            for i, e in lead:
                base[i] -= e
            base = tuple(base)
            deps = [_add(base, ta) for ta, _, _ in tail]
            missing = [dep for dep in deps if dep not in memo]
            if missing:
                stack.extend(missing)
                continue
            acc = {}
            for dep, (_, td, c) in zip(deps, tail):
                shift = any(td)
                for (a2, d2), c2 in memo[dep]:
                    key = (a2, _add(td, d2) if shift else d2)
                    acc[key] = acc.get(key, 0) - c * c2
            memo[top] = tuple((key, c) for key, c in acc.items() if c)
            stack.pop()
        return memo[a]

    def _normal_form(self, p: Polynomial, quantum: bool) -> dict:
        """p reduced to standard terms keyed (a, d)."""
        out = {}
        for a, d, c in self._keyed(p):
            shift = any(d)
            for (a2, d2), c2 in self._nf_monomial(a, quantum):
                key = (a2, _add(d, d2) if shift else d2)
                s = out.get(key, 0) + c * c2
                if s:
                    out[key] = s
                else:
                    del out[key]
        return out

    def _grade_table(self, m: int) -> dict:
        """lead → (w, quantum tail, classical tail) for every ℓ(w) = m.

        The lift of σ_w, quantum and classical, has a normal form led by the
        q-free x^lead at coefficient 1; a tail lists its other terms.  The
        whole grade is lifted at once, under the lock, and published
        complete.
        """
        got = self._tables.get(m)
        if got is not None:
            return got
        with self._lock:
            got = self._tables.get(m)
            if got is not None:
                return got
            table = {}
            for w in self._by_length.get(m, ()):
                what = f"NF of the lift of σ_{list(w)}"
                nf = self._normal_form(self._basis_lift(w), True)
                lead, tail = self._lead_and_tail(nf, what)
                if lead[0] in table:
                    raise RingError(f"{what} has the same leading term "
                                    f"x^{lead[0]} as σ_{list(table[lead[0]][0])}")
                nf = self._normal_form(self._classical_lift(w), False)
                table[lead[0]] = (
                    w, tail, self._lead_and_tail(nf, f"classical {what}", lead)[1]
                )
            self._tables[m] = table
            return table

    def _lift_grades(self, p: Polynomial):
        """The first expansion that meets an input of grade m lifts every
        σ_w with ℓ(w) = m, even where the normal form leaves nothing to peel
        at that grade."""
        if len(self._tables) < len(self._by_length):
            for m in p.grades(self._q_grade_map):
                if m in self._by_length:
                    self._grade_table(m)

    def _peel(self, residual: dict, quantum: bool) -> QuantumClass:
        """Read the basis expansion off a normal form, largest term first."""
        slot = 1 if quantum else 2
        key_of = self._term_key
        out = {}
        # the largest term last; every term a peel step adds is smaller
        # than the one it removes, so it is inserted below the top
        todo = sorted((key_of(a, d), (a, d)) for a, d in residual)
        while todo:
            _, key = todo.pop()
            c = residual.pop(key, 0)
            if not c:
                continue
            a, d = key
            entry = self._grade_table(self._grade(a)).get(a)
            if entry is None:
                raise RingError(f"no basis class leads with x^{a}")
            out[(d, entry[0])] = c
            shift = any(d)
            for a2, d2, c2 in entry[slot]:
                k2 = (a2, _add(d, d2) if shift else d2)
                s = residual.get(k2, 0) - c * c2
                if s:
                    if k2 not in residual:
                        insort(todo, (key_of(*k2), k2))
                    residual[k2] = s
                else:
                    residual.pop(k2, None)
        return QuantumClass(self.n, out, shape=self.shape)


class QuantumRing(_GradedQuotientRing):
    """QH*(Fl_n): basis σ_w for w in S_n over Z[q_1,…,q_{n−1}].

    The ring of the complete shape (1, 2, …, n−1), presented on x_1,…,x_n
    and q_1,…,q_{n−1} modulo the quantum relations e^q_k(n) = 0, k = 1..n.
    Its Gröbner rules lead with x_n, x_{n−1}², …, x_1^n, so the normal forms
    live on the n! staircase monomials.  The lifts are the quantum Schubert
    polynomials 𝔖^q_w and, classically, the Schubert polynomials 𝔖_w.
    `shape` is None: classes, JSON and cache keys name the ring by n alone.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError(f"need n ≥ 2: {n}")
        self.shape = None
        self.basis = all_permutations(n)
        super().__init__(FlagShape.complete(n))

    def relations(self) -> tuple:
        """The quantum relations e^q_1(n),…,e^q_n(n)."""
        return tuple(quantum_e(k, self.n) for k in range(1, self.n + 1))

    def _check_element(self, w):
        w = validate(w)
        if len(w) != self.n:
            raise ValueError(f"permutation {w} is not in S_{self.n}")
        return w

    def _basis_lift(self, w):
        return quantum_schubert(w)

    def _classical_lift(self, w):
        return schubert_poly(w)

    def _moduli_dimension(self, d):
        return hyperquot_dim(self.n, d)

    def _dual(self, w):
        return dual(w)


@lru_cache(maxsize=None)
def quantum_ring(n: int) -> QuantumRing:
    """Shared per-n ring instance (normal forms are memoized inside)."""
    return QuantumRing(n)


def relations(n: int) -> list:
    """Quantum relations e^q_k(n) for k = 1..n.

    >>> relations(2)[1].to_text()
    'x1·x2 + q1'
    """
    return list(quantum_ring(n).relations())


def expand_in_quantum_basis(p: Polynomial, n: int) -> QuantumClass:
    """Rewrite p ∈ Z[x_1..x_n, q_1..q_{n−1}] in the basis q^d·σ_w."""
    return quantum_ring(n).expand_in_quantum_basis(p)


def quantum_product(u: Perm, v: Perm) -> QuantumClass:
    """σ_u ∗ σ_v in QH*(Fl_n) with n = len(u).

    >>> quantum_product((2, 1, 3), (2, 1, 3)).to_text()
    'σ[3,1,2] + q1·σ[1,2,3]'
    """
    u = validate(u)
    return quantum_ring(len(u)).quantum_product(u, v)


def quantum_product_multi(ws) -> QuantumClass:
    ws = [validate(w) for w in ws]
    if not ws:
        raise ValueError("need at least one factor")
    return quantum_ring(len(ws[0])).quantum_product_multi(ws)


def classical_product(u: Perm, v: Perm) -> QuantumClass:
    """σ_u · σ_v in H*(Fl_n): the q = 0 part of the quantum product."""
    u = validate(u)
    return quantum_ring(len(u)).classical_product(u, v)


def gromov_witten(ws, w: Perm, d) -> int:
    """⟨σ_{w_1},…,σ_{w_N}, σ_w⟩_d for the complete flag manifold."""
    w = validate(w)
    return quantum_ring(len(w)).gromov_witten(ws, w, d)
