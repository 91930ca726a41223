"""Quantum cohomology ring of the complete flag manifold, and the product
engine that it shares with the partial flag rings (partial.py).

Elements are integer combinations of Schubert classes σ_w scaled by monomials
in the deformation parameters q_1,…,q_m.  Every structure constant comes from
permutations alone, in integers, and is memoized:

1. Fl_n (`schubert._Transition`): the quantum Monk rule of
   Fomin–Gelfand–Postnikov (JAMS 1997) and Lascoux–Schützenberger
   transition; the same engine lifts the quantum Schubert polynomials.
2. Fl(N) (`_GradedQuotientRing._compare`): Peterson's comparison formula
   reads each structure constant off one term q^{d_B}·σ_y of the Fl_n
   product of the two minimal coset representatives.  The term counts when
   d_B is the lift of its d and y with each block [n_{l−1}, n_l) rotated,
   its last t_l = (d_l − d_{l−1}) mod b_l entries first, increases in every
   block; it becomes q^d·σ of that rotation.  The formula's w reverses two
   runs of each block of w_0∘y, so w_0∘w is y with the same runs reversed,
   and dual(w) = min_rep(w_0∘w) is that rotation.  The lift test and the
   rotation depend on d_B alone, so each ring plans each degree part once
   (`_plans`) and compares each Fl_n key once (`_compared`).
3. Polynomials (`_GradedQuotientRing._horner`): Horner's rule over the
   classes of the ring's generators, with the bilinear class product, whose
   one-class step also folds N-point products and Gromov–Witten invariants.

Each structure constant is held as {key: c}, with one int key per class
q^d·σ_w from the engine to `QuantumClass` (`schubert._Codec`: the q-degree
fields above the rank of w).  The engine's entries are the classes of the
complete rings, without a copy; `_compare` writes keys of the partial ring,
with m fields; each ring's pair memo is keyed by the ranks of the pair
alone, (rank(u) << base) + rank(v), and a miss hands those ranks to the
engine, whose product walk is keyed by rank throughout; a fold multiplies
by one class at a time, adding the degree part of each running key to the
keys of a memoized pair (`_add_times`), and filters no zero, as no sum of
positive structure constants cancels; `gromov_witten` keys each d once
(`_degrees`) and reads one key of the fold's last product.  Keys are
decoded only at the public boundary of a class (`items`, `coefficient`,
`to_text`, `to_json_obj`), and the terms that come in there are checked
and keyed by one function (`_class_terms`).  A fold, product or expansion
of total grade g keeps every d_l ≤ g/2, so the fields never carry; a grade
that could make one carry (g ≥ 2^(FIELD_BITS + 1)) raises ValueError.

The polynomial presentation (relations and Schubert polynomial lifts) stays
public; `qschubert verify` checks it against the products.
"""
from __future__ import annotations

from functools import cached_property, lru_cache
from operator import index, itemgetter

from .perm import FlagShape, Perm, all_permutations, length, validate
from .poly import Polynomial, _json_int
from .schubert import (
    FIELD_BITS,
    RingError,
    _codec,
    _gather,
    _grassmannian,
    _nonzero,
    _q_monomial,
    _transition,
    schubert_poly,
)
from .universal import quantum_e, quantum_schubert

__all__ = [
    "QuantumClass",
    "QuantumRing",
    "RingError",
    "quantum_ring",
    "quantum_product",
    "gromov_witten",
]

# the inversion count of each permutation, counted once: the grade of every
# fold and the dimension gate of every gromov_witten call read it
_length = lru_cache(maxsize=None)(length)


def _class_codec(n: int, shape):
    """The codec of the classes of n over shape, None for the complete one."""
    return _codec(n, n - 1 if shape is None else shape.m)


def _class_terms(n: int, shape, triples) -> tuple:
    """(codec, {key of q^d·σ_w: c}) for the classes of n over shape, from
    (d, w, c) triples: the one rule of what a class term is.  Repeated
    terms add and zero sums drop.  ValueError unless shape is None or a
    shape of n, every w is a class of the ring (a permutation of n, and on
    a shape `FlagShape.check`) and every d has one entry in
    [0, 2^FIELD_BITS) per q; TypeError unless every entry of d and every c
    is an int, so a bool or a float raises it."""
    if shape is not None and shape.n != n:
        raise ValueError(f"shape {shape.to_string()} is not a shape of n = {n}")
    codec = _class_codec(n, shape)
    q_count, index, shifts = codec.m, codec.index, codec.shifts
    check = validate if shape is None else shape.check
    terms = {}
    for d, w, c in triples:
        w = check(w)
        if len(w) != n:
            raise ValueError(f"σ{list(w)} is not a class of the ring")
        if len(d) != q_count:
            raise ValueError(f"{list(d)} is not a q-degree of {q_count} entries")
        # the key as `_Codec.degree` and `_Codec.index` pack it, field by field
        key = index(w)
        for e, s in zip(d, shifts):
            if e.__class__ is not int or e < 0 or e >> FIELD_BITS:
                _json_int(e)  # an entry that is no int raises TypeError
                raise ValueError(f"{list(d)} is not a q-degree of entries in "
                                 f"[0, 2^{FIELD_BITS})")
            key += e << s
        c = _json_int(c)
        if key in terms:
            c += terms[key]
        terms[key] = c
    # stored classes hold no zero, so a reader keeps the dict it built
    return codec, terms if all(terms.values()) else _nonzero(terms)


class QuantumClass:
    """An integer combination of basis classes q^d·σ_w.

    Terms are held packed, {key of q^d·σ_w: c} on the codec of the ring's n
    and q count (`schubert._Codec`), with zero coefficients dropped; `items`,
    `coefficient`, `to_text` and `to_json_obj` decode them.  The
    constructor, `unit`, `coefficient` and `from_json_obj` take terms from
    outside through `_class_terms`, so all four accept the same terms and
    the reader reads every class that the others build.  Classes compare
    by n, shape and keys, shape None and the complete shape counting as the
    same, so classes of two shapes differ even when both are zero.
    """

    __slots__ = ("n", "shape", "_codec", "_terms")

    def __init__(self, n: int, terms=None, shape=None):
        """terms maps (d, w) to c, checked and keyed by `_class_terms`."""
        self.n, self.shape = n, shape
        self._codec, self._terms = _class_terms(
            n, shape, ((d, w, c) for (d, w), c in (terms or {}).items()))

    @classmethod
    def _wrap(cls, n, shape, codec, terms: dict) -> "QuantumClass":
        """A class holding the packed terms itself, without a copy; terms
        must have no zero coefficient and must not be changed later."""
        self = cls.__new__(cls)
        self.n, self.shape, self._codec, self._terms = n, shape, codec, terms
        return self

    def _like(self, terms: dict) -> "QuantumClass":
        return QuantumClass._wrap(self.n, self.shape, self._codec, terms)

    @classmethod
    def unit(cls, w: Perm, shape=None) -> "QuantumClass":
        """The single class 1·σ_w at q-degree zero, of n = len(w)."""
        w = tuple(w)
        d = (0,) * (len(w) - 1 if shape is None else shape.m)
        return cls(len(w), {(d, w): 1}, shape)

    def coefficient(self, d, w) -> int:
        """The coefficient of q^d·σ_w, 0 when (d, w) is no class term of the
        ring."""
        try:
            _, (key,) = _class_terms(self.n, self.shape, ((d, w, 1),))
        except (TypeError, ValueError):
            return 0
        return self._terms.get(key, 0)

    def items(self):
        """Terms as ((d, w), coeff), sorted by d then w."""
        decode, terms = self._codec.decode, self._terms
        return [(decode(key), terms[key]) for key in sorted(terms)]

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        # keys of one n and one shape share a layout, whichever codec
        # object wrote them
        return (
            isinstance(other, QuantumClass)
            and self.n == other.n
            and self._shape_key() == other._shape_key()
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.n, self._shape_key(), frozenset(self._terms.items())))

    def _shape_key(self):
        """The shape, with the complete shape read as None."""
        shape = self.shape
        return None if shape is None or shape.is_complete() else shape

    def __add__(self, other: "QuantumClass") -> "QuantumClass":
        """The sum of two classes over one n and one shape; shape None and
        the complete shape count as the same."""
        if (not isinstance(other, QuantumClass) or other.n != self.n
                or other._shape_key() != self._shape_key()):
            return NotImplemented
        return self._like(_nonzero(_gather(dict(self._terms),
                                           other._terms.items())))

    def __sub__(self, other: "QuantumClass") -> "QuantumClass":
        return self.__add__((-1) * other)

    def __rmul__(self, c: int) -> "QuantumClass":
        if not isinstance(c, int):
            return NotImplemented
        return self._like({key: c * v for key, v in self._terms.items()}
                          if c else {})

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
        """Inverse of `to_json_obj`: n must be an int, and the shape string,
        n and the terms must pass `_class_terms`, as they do for the
        constructor."""
        shape = FlagShape.from_string(obj["shape"]) if "shape" in obj else None
        n = _json_int(obj["n"])
        codec, terms = _class_terms(n, shape, [
            (t["d"], tuple(map(int, t["w"].split(","))), t["coeff"])
            for t in obj["terms"]])
        return cls._wrap(n, shape, codec, terms)

    def __repr__(self):
        return f"QuantumClass({self.to_text()!r})"


class _GradedQuotientRing:
    """Public product and invariant API of the complete and partial rings,
    and their one product path.

    `quantum_product` computes σ_u ∗ σ_v once per unordered pair: the Fl_n
    product (`_Transition`) through the comparison filter (`_compare`), the
    identity on complete shapes.  The ring's one pair memo `_products` is
    keyed (rank(u) << base) + rank(v) and holds both orders of a pair as one
    class (`_product`), which wraps the answer without a copy, so on
    complete shapes its classes hold the engine memo's own entries.  A fold
    starts from one `quantum_product` call, σ_{w_1} ∗ σ_{w_2}, then
    multiplies by each later factor, one class, on packed keys
    (`_add_times`), reading each pair of ranks straight from the memo, for
    `quantum_product_multi` and for all but the last insertion of
    `gromov_witten`, which reads the last product at one key
    (`_coefficient`).  `gromov_witten` reads the moduli dimension and the
    key of each degree d from `_degrees`, filled once per d.  The bilinear
    class product (`_times`) runs `_add_times` once per term of its other
    factor; it builds the generator classes by one Chern recursion
    (`_generator_classes`), and evaluates a polynomial in the generators
    `_vars` and the q_l by Horner's rule for `expand_in_quantum_basis`.
    `classical_product` and `expand_classical` are the q⁰ slices.

    The element rules are the shape's, called on `_shape` directly:
    `FlagShape.check`, `is_min_rep`, `dual` and `moduli_dimension`.  A
    subclass supplies only `basis`, `relations()` and the lifts `_basis_lift`
    and `_classical_lift` (which `class_to_poly` and `basis_polynomial`
    return, and the `relations` and `giambelli` suites of `qschubert verify`
    check).
    """

    def __init__(self, shape: FlagShape):
        self._shape = shape
        self.n = shape.n
        self.q_count = shape.m
        ns = self._ns = shape.ns
        self._complete = shape.is_complete()
        # the block classes σ_i^l as (i, l), named x_l on complete shapes
        self._blocks = tuple((i, l) for l in range(1, shape.m + 2)
                             for i in range(1, ns[l] - ns[l - 1] + 1))
        self._vars = tuple(("x", l) if self._complete else ("sigma", i, l)
                           for i, l in self._blocks)
        self._q_zero = {("q", l): 0 for l in range(1, shape.m + 1)}
        # the slot of each variable of the ring alphabet: `_vars`, then the q_l
        self._index = {v: i for i, v in enumerate((*self._vars, *self._q_zero))}
        self._codec = _codec(self.n, shape.m)
        self._fl = _transition(self.n)
        # (rank(u) << base) + rank(v) → σ_u ∗ σ_v, both orders one class
        self._products = {}
        # rank(w) → rank(dual(w)), for the keys of `gromov_witten`
        self._duals = {}
        # checked d → (moduli dimension, key of q^d), for `gromov_witten`
        self._degrees = {}
        # Fl_n key → its key on this ring, −1 when `_compare` drops it
        self._compared = {}
        # degree part of an Fl_n key → its comparison plan (`_plan`)
        self._plans = {}
        self._gens = None

    def _classical_lift(self, w: Perm) -> Polynomial:
        return self._basis_lift(w).substitute(self._q_zero)

    # -- public API -------------------------------------------------------
    def _class(self, terms: dict) -> QuantumClass:
        return QuantumClass._wrap(self.n, self.shape, self._codec, terms)

    def _q0(self, terms: dict) -> QuantumClass:
        # a key at q-degree zero is its rank alone
        mask = self._codec.mask
        return self._class({key: c for key, c in terms.items() if key <= mask})

    def expand_in_quantum_basis(self, p: Polynomial) -> QuantumClass:
        """Rewrite p as an integer combination of classes q^d·σ_w."""
        return self._class(self._horner(p))

    def expand_classical(self, p: Polynomial) -> QuantumClass:
        """Rewrite a q-free polynomial in the Schubert basis (all d = 0)."""
        return self._q0(self._horner(p, classical=True))

    def basis_polynomial(self, w) -> Polynomial:
        """The polynomial representative of the basis class σ_w."""
        return self._basis_lift(self._shape.check(w))

    def class_to_poly(self, cls: QuantumClass) -> Polynomial:
        """Polynomial representative: Σ c·q^d·(lift of σ_w)."""
        out = Polynomial.zero()
        for (d, w), c in cls.items():
            out = out + Polynomial({_q_monomial(d): c}) * self._basis_lift(w)
        return out

    def quantum_product(self, u, v) -> QuantumClass:
        codec, check = self._codec, self._shape.check
        # a stored pair was checked when it was stored
        if type(u) is tuple and type(v) is tuple:
            ranks = codec._ranks
            a, b = ranks.get(u), ranks.get(v)
            if a is not None and b is not None:
                got = self._products.get((a << codec.base) + b)
                if got is not None:
                    return got
                # check returns a tuple equal to its input, or raises, so
                # the ranks stand
                check(u), check(v)
                return self._product(a, b)
        a, b = codec.index(check(u)), codec.index(check(v))
        got = self._products.get((a << codec.base) + b)
        return self._product(a, b) if got is None else got

    def quantum_product_multi(self, ws) -> QuantumClass:
        """σ_{w_1} ∗ ⋯ ∗ σ_{w_N} over a nonempty factor list."""
        ws = list(map(self._shape.check, ws))
        if not ws:
            raise ValueError("need at least one factor")
        return self._class(self._fold(ws, sum(map(_length, ws))))

    def classical_product(self, u, v) -> QuantumClass:
        return self._q0(self.quantum_product(u, v)._terms)

    def gromov_witten(self, ws, w, d) -> int:
        """N-point genus-zero invariant ⟨σ_{w_1},…,σ_{w_N}, σ_w⟩_d, read off
        as the coefficient of q^d·σ_{w∨} in the product of the σ_{w_i}: the
        fold of the first N − 1, times σ_{w_N} at that one key alone, or for
        N ≤ 2 the fold of all N at that key.

        Returns 0 immediately when the lengths fail the dimension count.
        Each entry of d is read with operator.index: a bool counts as its
        int, and a float or a string raises TypeError.  The length and sign
        checks of d, its moduli dimension and its key run once per ring and
        d: `_degrees` keeps the last two under the ints of d.
        """
        shape = self._shape
        ws = list(map(shape.check, ws))
        w = shape.check(w)
        d = tuple(map(index, d))
        codec = self._codec
        got = self._degrees.get(d)
        if got is None:
            if len(d) != self.q_count or any(e < 0 for e in d):
                raise ValueError(
                    f"degree must be {self.q_count} nonnegative integers: {d}"
                )
            got = self._degrees[d] = (shape.moduli_dimension(d),
                                      codec.degree(d))
        if not ws:
            raise ValueError("need at least one insertion")
        total = sum(map(_length, ws)) + _length(w)
        if total != got[0]:
            return 0
        rank = codec.index(w)
        dual = self._duals.get(rank)
        if dual is None:
            dual = self._duals[rank] = codec.index(shape.dual(w))
        # the fold's grade check bounds every d_l, so d encodes exactly
        key = got[1] + dual
        if len(ws) < 3:
            return self._fold(ws, total).get(key, 0)
        return self._coefficient(self._fold(ws[:-1], total),
                                 codec.index(ws[-1]), key)

    # -- the product path -------------------------------------------------
    def _product(self, a: int, b: int) -> QuantumClass:
        """σ_u ∗ σ_v for the classes of ranks a and b, on a memo miss: one
        class, stored under both orders of the pair.  Rank order is the
        lexicographic order of S_n, so the pair is computed as u ≤ v."""
        if a > b:
            a, b = b, a
        base, products = self._codec.base, self._products
        # wrap the product's own dict: on complete shapes it is the engine
        # memo's entry, which nothing mutates; a pair stored meanwhile by
        # another thread wins, so both orders hold one class
        got = products.setdefault(
            (a << base) + b, self._class(self._pair_product(a, b)))
        products[(b << base) + a] = got
        return got

    def _pair_product(self, a: int, b: int) -> dict:
        """σ_u ∗ σ_v for u and v of ranks a and b, packed, on a memo miss, by
        transition on the shorter factor: the engine walks ranks alone."""
        if self._codec.length(a) > self._codec.length(b):
            a, b = b, a
        terms = self._fl.product(a, b)
        return terms if self._complete else self._compare(terms)

    def _compare(self, terms: dict) -> dict:
        """The Fl(N) product of two minimal coset representatives, read off
        their Fl_n product by Peterson's comparison formula (Woodward,
        Proc. AMS 2005).  A term c·q^{d_B}·σ_y counts only if d_B is the lift
        of d = (d_B[n_1], …, d_B[n_m]) (`_plan`), and only if y with each
        block rotated, its last t entries first, increases inside every
        block; it adds c to q^d·σ of that rotation.

        The formula reverses, in w_0∘y, the first b − t and the last t
        positions of each block, and keeps w if it increases in every block;
        w_0∘w is y with the same runs reversed, so dual(w) = min_rep(w_0∘w)
        sorts each block by reversing it whole, which rotates y's block, and
        w increases there exactly when that rotation does.

        What a term becomes depends on its key alone, so the ring memoizes
        it per Fl_n key (`_compared`: its key on this ring, or −1 for a
        dropped term), and the lift test and the rotation per degree part
        d_B (`_plans`), each entry stored whole in one assignment.
        """
        src, compared, plans = self._fl.codec, self._compared, self._plans
        base, mask, index = src.base, src.mask, self._codec.index
        is_min_rep, out = self._shape.is_min_rep, {}
        for key, c in terms.items():
            k = compared.get(key)
            if k is None:
                plan = plans.get(key >> base)
                if plan is None:
                    plan = plans[key >> base] = self._plan(key >> base)
                w = plan and itemgetter(*plan[1])(src.perm(key & mask))
                k = compared[key] = (plan[0] + index(w)
                                     if plan and is_min_rep(w) else -1)
            if k >= 0:
                out[k] = out.get(k, 0) + c
        return out

    def _plan(self, lifted: int) -> tuple:
        """The comparison plan of the degree part d_B = key >> base of an
        Fl_n key, for `_plans`: () unless d_B is the lift of its
        d = (d_B[n_1], …, d_B[n_m]), else (the key of q^d on this ring, the
        positions of y that rotate each block).  In block l of size b, with
        (a, t) = divmod(d_l − d_{l−1}, b) and d_0 = d_{m+1} = 0, the lift
        climbs by a at each of the first b − t positions and by a + 1 at each
        of the last t, and the rotation reads those last t positions first.
        The lift, whose levels lie between consecutive d_l, is packed as d_B
        is, to be compared with it whole."""
        n, ns, field = self.n, self._ns, (1 << FIELD_BITS) - 1
        # d_l is the field of q_{n_l}, n − 1 − n_l fields above the last
        d = tuple(lifted >> (n - 1 - k) * FIELD_BITS & field for k in ns[1:-1])
        level, lift, order = 0, 0, []
        for lo, hi, e, f in zip(ns, ns[1:], (0, *d), (*d, 0)):
            a, t = divmod(f - e, hi - lo)
            for i in range(lo, min(hi, n - 1)):
                level += a + (i >= hi - t)
                lift = (lift << FIELD_BITS) + level
            order += (*range(hi - t, hi), *range(lo, hi - t))
        return ((self._codec.degree(d), tuple(order)) if lift == lifted
                else ())

    def _times(self, acc: dict, other: dict) -> dict:
        """(Σ c·q^d·σ_v) ∗ (Σ c′·q^d′·σ_w) by bilinearity: `_add_times` once
        per term of other."""
        out = {}
        mask = self._codec.mask
        for k1, c1 in other.items():
            wi = k1 & mask
            self._add_times(out, acc, wi, k1 - wi, c1)
        return _nonzero(out)

    def _add_times(self, out: dict, acc: dict, wi: int, d1: int = 0,
                   c1: int = 1) -> dict:
        """Add c1·q^d1·(acc ∗ σ_w) to out and return out, for w of rank wi
        and d1 the degree part of a key: the one inner loop of every class
        product.  On packed keys, a term c·q^d·σ_v of acc adds the degree
        parts d + d1 to each key of σ_v ∗ σ_w, read from the pair memo at
        (rank(v) << base) + rank(w).  acc is only read, so it may be a memo
        entry."""
        get = out.get
        mask, base = self._codec.mask, self._codec.base
        products = self._products
        for k, c in acc.items():
            zi = k & mask
            pair = products.get((zi << base) + wi)
            if pair is None:
                pair = self._product(zi, wi)
            shift = k - zi + d1
            c *= c1
            for k2, c2 in pair._terms.items():
                k2 += shift
                out[k2] = get(k2, 0) + c * c2
        return out

    def _coefficient(self, acc: dict, wi: int, key: int) -> int:
        """The coefficient of key in acc ∗ σ_w, w of rank wi.  A term
        k = q^d·σ_v of acc meets it at key − (k less the rank of v) in
        σ_v ∗ σ_w; as no sum of keys carries, only a term that adds up to
        key field by field can sit there."""
        mask, base = self._codec.mask, self._codec.base
        products = self._products
        out = 0
        for k, c in acc.items():
            zi = k & mask
            pair = products.get((zi << base) + wi)
            if pair is None:
                pair = self._product(zi, wi)
            out += c * pair._terms.get(key - k + zi, 0)
        return out

    def _fold(self, ws, grade: int) -> dict:
        """σ_{w_1} ∗ ⋯ ∗ σ_{w_N} over N ≥ 1 checked factors of total grade
        at most `grade`.  For N ≥ 2 one `quantum_product` call gives
        σ_{w_1} ∗ σ_{w_2}, whose dict starts the fold without a copy and is
        never mutated; each later factor, one class, multiplies the running
        dict by its rank alone (`_add_times`) into a new dict.  No step
        filters zeros: every pair class holds positive coefficients, which
        are Gromov–Witten numbers, and stored classes hold no zero, so no
        sum of a step can cancel and `quantum_product_multi` may wrap the
        result.  ValueError when that grade could carry a field of the keys
        (`_Codec.check`)."""
        self._codec.check(grade)
        index = self._codec.index
        if len(ws) == 1:
            return {index(ws[0]): 1}
        acc = self.quantum_product(ws[0], ws[1])._terms
        for w in ws[2:]:
            acc = self._add_times({}, acc, index(w))
        return acc

    def _generator_classes(self) -> list:
        """The class of each generator in `_vars`, packed, computed once.
        ẽ_k(t), for 1 ≤ t ≤ m and k ≤ n_t, is σ_g for the Grassmannian g
        with 𝔖_g = e_k(x_1..x_{n_t}) (`schubert._grassmannian`); other
        ẽ_k(t) are 0 and ẽ_0 = 1.  The kernel Chern identity ẽ(l) = ẽ(l−1) ∗ σ^l
        (`kernel_chern_partial_check`) gives σ^l_0 = 1 and
        σ^l_i = ẽ_i(l) − Σ_{s=1..i} ẽ_s(l−1) ∗ σ^l_{i−s}; on complete
        shapes x_l = σ_{s_l} − σ_{s_{l−1}}.
        """
        if self._gens is not None:
            return self._gens
        n, ns, index = self.n, self._ns, self._codec.index
        one = {index(tuple(range(1, n + 1))): 1}

        def e(k, t):
            if not (1 <= t < len(ns) - 1 and k <= ns[t]):
                return {}
            return {index(_grassmannian(k, ns[t], n)): 1}

        gens = []
        for i, l in self._blocks:
            if i == 1:
                sigma = [one]  # σ^l_0, σ^l_1, …
            acc = dict(e(i, l))
            for s in range(1, i + 1):
                _gather(acc, self._times(e(s, l - 1), sigma[i - s]).items(), -1)
            sigma.append(_nonzero(acc))
            gens.append(sigma[i])
        self._gens = gens
        return gens

    def _keyed(self, p: Polynomial, classical: bool = False):
        """p as (a, key of q^d, c) triples over `_vars` and the q_l, after
        the grade check (`_Codec.check`) of its top grade, whose terms bound
        every q-degree that Horner's rule reaches.  ValueError on a variable
        outside the ring alphabet (`_index`): `_vars` and q_1,…,q_m, and on
        any q_l when classical."""
        out = []
        top = 0
        slots, cut = self._index, len(self._vars)
        limit = cut if classical else len(slots)
        grades = [i for i, _ in self._blocks] + list(self._shape.q_grades)
        for mon, c in p._terms.items():
            a = [0] * len(slots)
            for v, e in mon:
                i = slots.get(v)
                if i is None or i >= limit:
                    raise ValueError(
                        f"variable {v} is not in the ring alphabet" if i is None
                        else "classical expansion needs a q-free input")
                a[i] = e
            top = max(top, sum(e * g for e, g in zip(a, grades)))
            out.append((tuple(a[:cut]), a[cut:], c))
        self._codec.check(top)
        degree = self._codec.degree
        return [(a, degree(d), c) for a, d, c in out]

    def _horner(self, p: Polynomial, classical: bool = False) -> dict:
        """p evaluated over the generator classes by Horner's rule, one
        generator at a time: Σ_e g^e·p_e = (…(p_top·g + p_{top−1})·g …)·g + p_0;
        classical refuses a q_l (`_keyed`)."""
        gens = self._generator_classes()

        def run(terms, i):
            if i == len(gens):
                # q^d·σ_id: the identity has rank 0
                return _gather({}, ((d, c) for _, d, c in terms))
            by_power = {}
            for term in terms:
                by_power.setdefault(term[0][i], []).append(term)
            acc = {}
            for e in range(max(by_power), -1, -1):
                if acc:
                    acc = self._times(acc, gens[i])
                if e in by_power:
                    _gather(acc, run(by_power[e], i + 1).items())
            return acc

        return _nonzero(run(self._keyed(p, classical), 0)) if p._terms else {}


class QuantumRing(_GradedQuotientRing):
    """QH*(Fl_n): basis σ_w for w in S_n over Z[q_1,…,q_{n−1}].

    The ring of the complete shape (1, 2, …, n−1), presented on x_1,…,x_n
    and q_1,…,q_{n−1} modulo the quantum relations e^q_k(n) = 0, k = 1..n.
    The lifts are the quantum Schubert polynomials 𝔖^q_w and, classically,
    the Schubert polynomials 𝔖_w.  `shape` is None: classes, JSON and cache
    keys name the ring by n alone.  Building the ring lists nothing; `basis`
    lists S_n on first read.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError(f"need n ≥ 2: {n}")
        self.shape = None
        super().__init__(FlagShape.complete(n))

    @cached_property
    def basis(self) -> list:
        return all_permutations(self.n)

    def relations(self) -> tuple:
        """The quantum relations e^q_1(n),…,e^q_n(n)."""
        return tuple(quantum_e(k, self.n) for k in range(1, self.n + 1))

    def _basis_lift(self, w):
        return quantum_schubert(w)

    def _classical_lift(self, w):
        return schubert_poly(w)


@lru_cache(maxsize=None)
def quantum_ring(n: int) -> QuantumRing:
    """Shared per-n ring instance (products are memoized inside)."""
    return QuantumRing(n)


def quantum_product(u: Perm, v: Perm) -> QuantumClass:
    """σ_u ∗ σ_v in QH*(Fl_n) with n = len(u).

    >>> quantum_product((2, 1, 3), (2, 1, 3)).to_text()
    'σ[3,1,2] + q1·σ[1,2,3]'
    """
    u = validate(u)
    return quantum_ring(len(u)).quantum_product(u, v)


def gromov_witten(ws, w: Perm, d) -> int:
    """⟨σ_{w_1},…,σ_{w_N}, σ_w⟩_d for the complete flag manifold."""
    w = validate(w)
    return quantum_ring(len(w)).gromov_witten(ws, w, d)
