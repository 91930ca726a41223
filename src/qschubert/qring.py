"""Quantum cohomology ring of the complete flag manifold, and the expansion
engine that it shares with the partial flag rings (partial.py).

Elements are integer combinations of Schubert classes σ_w scaled by monomials
in the deformation parameters q_1,…,q_{n−1} (each of grade 2).  Products are
computed by multiplying quantum Schubert polynomial representatives and
rewriting the result in the basis {q^d·σ_w} modulo the quantum relations
e^q_k(n) = 0, over the integers alone.

Every ring rewrites by the same two steps (`_GradedQuotientRing`); a ring
supplies only its presentation: its variables and their grades, a term order
and rewriting rules x^lead → tail with q-free leading terms.

1. Normal form.  Each monomial is reduced by the rules to a Z[q]-combination
   of standard monomials, those that no leading term divides, and the result
   is memoized per exponent vector.
2. Peel.  The normal form of each basis lift leads with a q-free monomial at
   coefficient 1, a different one for each class of a grade.  So the
   expansion is read off the residual from the top: take its largest term
   c·x^a·q^d, record c·q^d·σ_w for the w whose lift leads with x^a, subtract
   c·q^d·NF(lift of σ_w), and repeat until the residual vanishes.

For Fl_n, x_n is eliminated by e^q_1(n) = 0; then the polynomials

    H^q_k = Σ_{i=1..k} (−1)^{i+1}·e^q_i(n)·h_{k−i}(x_1,…,x_{n−k+1}),  k = 2..n,

lie in the quantum ideal (Fomin–Gelfand–Postnikov) and have leading term
x_{n−k+1}^k, as h_k(x_1,…,x_{n−k+1}) does in the classical Gröbner basis of
the symmetric ideal.  The order is: grade first, then lower q-degree first,
then lex with x_{n−1} > … > x_1.  The standard monomials are the n!
staircase monomials x^a, a_i ≤ n − i, and NF(𝔖^q_w) leads with x^code(w).
Partial flag shapes compute their rules by a Gröbner basis (partial.py).
The classical expansion runs the same steps on the q = 0 rules and the
classical lifts (for Fl_n, the Schubert polynomials 𝔖_w).
"""
from __future__ import annotations

import operator
import threading
from bisect import insort
from functools import lru_cache
from itertools import combinations_with_replacement

from .perm import (
    Perm,
    all_permutations,
    dual,
    hyperquot_dim,
    length,
    validate,
)
from .poly import Polynomial, VerificationError, x_var
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
        from .perm import FlagShape

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


def _complete_poly(r: int, m: int) -> Polynomial:
    """h_r(x_1,…,x_m): every monomial of grade r in the first m variables."""
    terms = {}
    for idx in combinations_with_replacement(range(1, m + 1), r):
        mon = {}
        for i in idx:
            mon[("x", i)] = mon.get(("x", i), 0) + 1
        terms[tuple(sorted(mon.items()))] = 1
    return Polynomial(terms)


class _GradedQuotientRing:
    """Public product and invariant API, and the expansion engine, of the
    complete and partial rings.

    A subclass supplies its presentation:
    - `_vars`, the variables other than q, with their grades `_var_grades`,
      and `_q_weights`, the grades of q_1, q_2, …; a term x^a·q^d is keyed
      (a, d) by its exponent vectors over `_vars` and the q_l (`_keyed`);
      `_init_engine` needs these, and the rules can be built after it;
    - `_term_key(a, d)`, which sorts terms in increasing term order;
    - `_rules[quantum]`, a list of rules (lead, tail) for the quantum ideal
      (True) and its q = 0 part (False): each x^lead is q-free, given by its
      support ((i, e), …), and rewrites to −Σ c·x^a·q^d over the tail's
      terms (a, d, c);
    - the basis permutations and their lifts `_basis_lift`, `_classical_lift`.

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

    def _init_engine(self):
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

    # -- hooks ----------------------------------------------------------
    def _normalize(self, p: Polynomial) -> Polynomial:
        return p

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
        p = self._normalize(p)
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
        """Left fold of the quantum product over a nonempty factor list."""
        ws = [self._check_element(w) for w in ws]
        if not ws:
            raise ValueError("need at least one factor")
        if len(ws) == 1:
            return self.expand_in_quantum_basis(self._basis_lift(ws[0]))
        acc = self.quantum_product(ws[0], ws[1])
        for w in ws[2:]:
            acc = self.expand_in_quantum_basis(
                self.class_to_poly(acc) * self._basis_lift(w)
            )
        return acc

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
                nf = self._normal_form(self._normalize(self._basis_lift(w)), True)
                lead, tail = self._lead_and_tail(nf, what)
                if lead[0] in table:
                    raise RingError(f"{what} has the same leading term "
                                    f"x^{lead[0]} as σ_{list(table[lead[0]][0])}")
                nf = self._normal_form(
                    self._normalize(self._classical_lift(w)), False)
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

    x_n is eliminated via the vanishing of e^q_1(n) = x_1+…+x_n, after which
    the remaining relations e^q_k(n) = 0 (k = 2..n) present the ring on the
    alphabet x_1,…,x_{n−1}, q_1,…,q_{n−1}.  The rules are x_i^{n−i+1} → the
    rest of H^q_{n−i+1}, largest i first; their leading terms are the
    staircase caps, so the normal forms live on the n! staircase monomials.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError(f"need n ≥ 2: {n}")
        self.n = n
        self.shape = None
        self.q_count = n - 1
        self.basis = all_permutations(n)
        self._vars = tuple(("x", i) for i in range(1, n))
        self._var_grades = (1,) * (n - 1)
        self._q_weights = (2,) * (n - 1)
        xsum = Polynomial.zero()
        for i in range(1, n):
            xsum = xsum - x_var(i)
        self._xelim = {("x", n): xsum}
        self._q_zero = {("q", i): 0 for i in range(1, n)}
        rels = tuple(quantum_e(k, n) for k in range(1, n + 1))
        self._relations = rels
        reduced = [r.substitute(self._xelim) for r in rels]
        if not reduced[0].is_zero():
            raise RingError("the linear relation must vanish after "
                            "eliminating x_n")
        self._init_engine()
        self._rules = {True: [], False: []}
        for i in range(n - 1, 0, -1):
            k = n - i + 1
            h = Polynomial.zero()
            for j in range(2, k + 1):
                h = h + (-1) ** (j + 1) * reduced[j - 1] * _complete_poly(k - j, i)
            lead = tuple(k if j == i else 0 for j in range(1, n)), self._zero_d
            for quantum, rel in ((True, h), (False, h.substitute(self._q_zero))):
                terms = {(a, d): c for a, d, c in self._keyed(rel)}
                tail = self._lead_and_tail(terms, f"H_{k}", lead)[1]
                self._rules[quantum].append((((i - 1, k),), tail))

    @staticmethod
    def _term_key(a: tuple, d: tuple) -> tuple:
        """Grade first, then lower q-degree first, then lex with
        x_{n−1} > … > x_1."""
        qd = sum(d)
        return (sum(a) + 2 * qd, -qd, a[::-1], d)

    def relations(self) -> tuple:
        """The quantum relations e^q_1(n),…,e^q_n(n) before elimination."""
        return self._relations

    def _normalize(self, p):
        return p.substitute(self._xelim)

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
