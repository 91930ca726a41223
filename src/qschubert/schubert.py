"""Schubert polynomials, their elementary-symmetric decomposition, and the
one Schubert engine per n that holds them with the quantum products.

𝔖_w is built by divided differences from the staircase monomial
x_1^{n−1}x_2^{n−2}⋯x_{n−1} = 𝔖_{w_0}: 𝔖_w = ∂_i 𝔖_{w·s_i} for an ascent i
of w.  Every 𝔖_w for w ∈ S_n decomposes uniquely as 𝔖_w = Σ a_K·e_K over the
e_K = e_{k_1}(1)⋯e_{k_{n−1}}(n−1) with k_p ≤ p and Σk_p = length(w)
(Fomin–Gelfand–Postnikov).  The a_K of w are peeled on demand
(`_Transition.e_coeffs`): the pivot K(w), k_p = #{i ≤ p : w(i) > w(p+1)}
(`_e_pivot`), has a class in H*(Fl_n), multiplied out by Sottile's Pieri
rule for e_k(x_1,…,x_p)·σ_z (`_pieri`), that holds σ_w once and otherwise
only σ_u with u⁻¹ lexicographically after w⁻¹, so
a[w] = {K(w): 1} − Σ_{u≠w} B[K(w), u]·a[u] resolves, and only the u that
the row of w reaches are peeled.
Every lift replaces each e_k(p) by an image factor(k, p) and sums
Σ a_K·factor(k_1, 1)⋯factor(k_{n−1}, n−1) by Horner's rule on packed
monomials (`_e_fold_packed`), over factors packed and grouped by
coefficient by one helper (`_pack_columns`): once per call in `e_fold`,
once per n where the factor depends on (k, p) alone
(`_Transition.columns`).  E_k(p), c_k(p) and e_k(p) are one group each,
of coefficient 1.  The recombination check of `e_decomposition` and
`EDecomposition.recombine` fold with e_k(p) on the engine's own packing;
the check compares the packed sum with the packed 𝔖_w.

`_Transition`, one per n, is that engine: quantum Monk and
Lascoux–Schützenberger transition give the structure constants of
QH*(Fl_n), which `qring` and `partial` read, and the quantum Schubert
polynomials 𝔖^q_w, which `universal.quantum_schubert` returns.  It also
holds the packed 𝔖_w that `schubert_poly` decodes and the packed e_k(p) of
the check and of `recombine`, all on one packing, and every other memo of
n, and lives here so that all of them import it; only the codecs are
shared between engines (`_codec`).

Every structure constant, here and in `qring`, is keyed by one int
(`_Codec`, one per n and q count m, `_codec`): the fields of q_1,…,q_m, of
FIELD_BITS bits each with q_1 highest, sit above the lexicographic rank of
w in S_n, so a key times q^d is the key plus that of d, keys sort as
(d, w), and the rank of a key is key & mask.  The engine writes keys with
m = n − 1, which the complete rings and their classes share.
"""
from __future__ import annotations

import math
import operator
from functools import cached_property, lru_cache
from itertools import accumulate, combinations

from .perm import Perm, _Frozen, validate
from .poly import (
    Polynomial,
    VerificationError,
    _packed_mul_into,
    _Packing,
    _var_key,
)

__all__ = [
    "divided_difference",
    "schubert_poly",
    "elementary_poly",
    "e_decomposition",
    "EDecomposition",
    "e_fold",
]


def divided_difference(p: Polynomial, i: int) -> Polynomial:
    """∂_i p = (p − s_i·p)/(x_i − x_{i+1}), computed per monomial.

    On x_i^a·x_{i+1}^b·R the quotient is the telescoped geometric sum
    ±Σ x_i^j·x_{i+1}^{a+b−1−j}·R, so no division is performed and the result
    is exact by construction.  ∂_i∘∂_i = 0; grade drops by one.
    """
    if i < 1:
        raise ValueError(f"divided difference index must be ≥ 1: {i}")
    vi = ("x", i)
    vi1 = ("x", i + 1)
    acc = {}
    for mon, coeff in p._terms.items():
        a = b = 0
        rest = []
        for v, e in mon:
            if v == vi:
                a = e
            elif v == vi1:
                b = e
            else:
                rest.append((v, e))
        if a == b:
            continue
        lo, hi, sign = (b, a, 1) if a > b else (a, b, -1)
        for j in range(lo, hi):
            pairs = list(rest)
            if j:
                pairs.append((vi, j))
            k = a + b - 1 - j
            if k:
                pairs.append((vi1, k))
            pairs.sort(key=lambda ve: _var_key(ve[0]))
            key = tuple(pairs)
            s = acc.get(key, 0) + sign * coeff
            if s:
                acc[key] = s
            else:
                del acc[key]
    return Polynomial(acc)


def schubert_poly(w: Perm) -> Polynomial:
    """The Schubert polynomial 𝔖_w; homogeneous of grade length(w), decoded
    from the engine of its n (`_Transition.schubert`).

    >>> schubert_poly((3, 2, 1)).to_text()
    'x1^2·x2'
    >>> schubert_poly((2, 1, 3)).to_text()
    'x1'
    """
    w = validate(w)
    engine = _transition(len(w))
    return engine._packing.unpack(engine.schubert(w))


def elementary_poly(k: int, l: int) -> Polynomial:
    """e_k(x_1,…,x_l); 1 when k = 0, 0 when k < 0 or k > l."""
    if l < 1:
        raise ValueError(f"alphabet size must be ≥ 1: {l}")
    if k == 0:
        return Polynomial.constant(1)
    if k < 0 or k > l:
        return Polynomial.zero()
    terms = {}
    for subset in combinations(range(1, l + 1), k):
        terms[tuple((("x", i), 1) for i in subset)] = 1
    return Polynomial(terms)


def e_fold(coeffs: dict, factor) -> Polynomial:
    """Σ a_K·factor(k_1, 1)⋯factor(k_L, L) over coeffs = {K: a_K}, all
    sequences K of one length L; a factor with k_p = 0 is 1.

    Each factor(k, p), k ≠ 0, is looked up once and packed, for this call
    alone, over the variables of these factors (`_pack_columns`);
    `_e_fold_packed` folds the packed factors, and the sum is decoded once,
    at the end.  A factor that depends only on (k, p) is better packed once
    per n on its engine (`_Transition.columns`), like E_k(p) and c_k(p).

    >>> e_fold({(1, 0): 1, (0, 1): -1}, elementary_poly).to_text()
    '−x2'
    """
    if not coeffs:
        return Polynomial.zero()
    packing, columns = _pack_columns(
        [{k: factor(k, p) for k in {seq[p - 1] for seq in coeffs} if k}
         for p in range(1, len(next(iter(coeffs))) + 1)])
    return packing.unpack(_e_fold_packed(coeffs, columns))


def _pack_columns(factors: list) -> tuple:
    """(packing, columns) for factor columns, factors[p − 1] = {k: factor}:
    one `_Packing` over the variables of all the factors, in `_var_key`
    order, and columns[p − 1] = {k: the factor packed on it, grouped by
    coefficient} (`_Packing.pack_factor`).

    No product of a fold takes more than one factor from a column, so the
    fields hold the sum over the columns of the largest exponent in each.
    """
    pairs = [[ve for f in column.values() for mon in f._terms for ve in mon]
             for column in factors]
    packing = _Packing(sorted({v for col in pairs for v, _ in col}, key=_var_key),
                       sum(max((e for _, e in col), default=0) for col in pairs))
    return packing, [{k: packing.pack_factor(f) for k, f in column.items()}
                     for column in factors]


def _e_fold_packed(coeffs: dict, columns: list) -> dict:
    """Σ a_K·columns[0][k_1]⋯columns[L−1][k_L] on packed monomials, where
    columns[p − 1] maps each k ≠ 0 that some K has at p to a packed factor
    grouped by coefficient (`_Packing.pack_factor`); cancelled terms stay
    with coefficient 0, and each product skips those of its partial sum
    (`_packed_mul_into`).

    Horner's rule over the trie of the sequences read from the end: the
    sequences are grouped by their last entry k, each group's sum over
    shorter prefixes is folded first, and then multiplied once by the
    factor of k at position L.
    """
    # level p: suffix (k_{p+1},…,k_L) → Σ over its sequences of
    # a_K·factor(k_1, 1)⋯factor(k_p, p), packed
    level = {seq: {0: a} for seq, a in coeffs.items()}
    for column in columns:
        up = {}
        for seq, part in level.items():
            out = up.setdefault(seq[1:], {})
            if seq[0]:
                _packed_mul_into(out, part, column[seq[0]])
            else:
                _gather(out, part.items())
        level = up
    return level.get((), {})


def _grassmannian(k: int, p: int, n: int) -> Perm:
    """The Grassmannian g ∈ S_n with 𝔖_g = e_k(x_1,…,x_p), 0 ≤ k ≤ p < n."""
    return (*range(1, p - k + 1), *range(p - k + 2, p + 2), p - k + 1,
            *range(p + 2, n + 1))


def _pieri(z: Perm, p: int) -> tuple:
    """(e_0(p)·σ_z, e_1(p)·σ_z, …, e_p(p)·σ_z) in H*(Fl_n), each as z′ → 1,
    with e_k(p) = e_k(x_1,…,x_p), 1 ≤ p < n.

    Sottile's Pieri formula: e_k(p)·σ_z is the sum of σ_{z′} over the chains
    of covers z → z·t_{a_1b_1} → ⋯ → z′ = z·t_{a_1b_1}⋯t_{a_kb_k}, each
    raising the length by one, with a_i ≤ p < b_i, the a_i pairwise
    distinct and b_1 ≥ b_2 ≥ ⋯ ≥ b_k.  Each z′ ends exactly one such chain,
    so every coefficient is 1.  One depth-first walk gives every k at once.
    """
    n = len(z)
    rows = ({z: 1},) + tuple({} for _ in range(p))
    # (permutation, the a used as bits, the largest b allowed, its depth)
    stack = [(z, 0, n, 0)]
    while stack:
        y, used, top, k = stack.pop()
        row = rows[k + 1] if k < p else None
        for a in range(1, p + 1):
            if used >> a & 1:
                continue
            # y·t_ab covers y iff y(a) < y(b) and no y(c), a < c < b, lies
            # between them: scan b upward, keeping the least y(c) above y(a)
            lo, least = y[a - 1], n + 1
            for b in range(a + 1, top + 1):
                hi = y[b - 1]
                if lo < hi < least:
                    least = hi
                    if b > p:
                        x = (*y[:a - 1], hi, *y[a:b - 1], lo, *y[b:])
                        row[x] = row.get(x, 0) + 1
                        stack.append((x, used | 1 << a, b, k + 1))
    return rows


def _e_pivot(w: Perm) -> tuple:
    """K(w) = (k_1,…,k_{n−1}) with k_p = #{i ≤ p : w(i) > w(p+1)}, the
    e-monomial whose class in H*(Fl_n) holds σ_w at coefficient 1 beside
    only σ_u with u⁻¹ lexicographically after w⁻¹.  w ↦ K(w) is a bijection
    from the w of length m onto the K with k_p ≤ p and Σk_p = m."""
    return tuple(sum(x > y for x in w[:p]) for p, y in enumerate(w) if p)


@lru_cache(maxsize=None)
def _inverse(w: Perm) -> Perm:
    """w⁻¹, memoized, since a pivot check reads it for every class of a row."""
    out = [0] * len(w)
    for i, a in enumerate(w, start=1):
        out[a - 1] = i
    return tuple(out)


def _is_pivot_row(row: dict, w: Perm) -> bool:
    """Whether the class row = {u: B[K, u]} holds σ_w at coefficient 1 and
    every other σ_u with u⁻¹ lexicographically after w⁻¹."""
    if row.get(w) != 1:
        return False
    least = _inverse(w)
    return all(_inverse(u) > least for u in row if u != w)


class EDecomposition(_Frozen):
    """𝔖_w = Σ coeffs[(k_1,…,k_{n−1})] · e_{k_1}(1)⋯e_{k_{n−1}}(n−1).

    Compared by value; unhashable, since it holds a dict."""

    coeffs: dict

    def __init__(self, coeffs: dict):
        object.__setattr__(self, "coeffs", coeffs)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coeffs == other.coeffs
        return NotImplemented

    def __repr__(self):
        return f"{type(self).__qualname__}(coeffs={self.coeffs!r})"

    def recombine(self) -> Polynomial:
        """Σ a_K·e_K, folded over the packed e_k(p) of the engine of n and
        decoded on its packing."""
        if not self.coeffs:
            return Polynomial.zero()
        engine = _transition(len(next(iter(self.coeffs))) + 1)
        return engine._packing.unpack(
            _e_fold_packed(self.coeffs, engine.e_columns))


def e_decomposition(w: Perm) -> EDecomposition:
    """𝔖_w over the e_K, K in lexicographic order, peeled on the engine of
    its n (`_Transition.e_coeffs`) and checked by recombination against 𝔖_w
    before the engine keeps it (`_decompositions`).  The check folds the
    a_K over the engine's packed e_k(p) and compares the sum with the packed
    𝔖_w, built by divided differences, so it is independent of the Pieri
    rule; nothing is decoded."""
    w = validate(w)
    engine = _transition(len(w))
    got = engine._decompositions.get(w)
    if got is None:
        coeffs = dict(sorted(engine.e_coeffs(w).items()))
        if _nonzero(_e_fold_packed(coeffs, engine.e_columns)) != engine.schubert(w):
            raise VerificationError(f"e-decomposition recombination failed for {w}")
        # the sorted dict replaces the peel's entry: one copy of the a_K
        engine._e_coeffs[w] = coeffs
        got = engine._decompositions[w] = EDecomposition(coeffs)
    return got


class RingError(VerificationError):
    """An internal consistency check of the ring presentation failed."""


def _gather(out: dict, terms, scale: int = 1) -> dict:
    """Add scale·terms, given as (key, c) pairs, into out and return out."""
    for key, c in terms:
        out[key] = out.get(key, 0) + scale * c
    return out


# the bits of each q-degree field of a packed class key
FIELD_BITS = 16


class _Unranked(dict):
    """w of rank, for the permutations of n: a rank not met yet is unranked
    from its factorial digits on first read and memoized both ways, so a
    key pickled in another process, or ranked by another codec of n, reads
    here too."""

    def __init__(self, n: int, ranks: dict):
        super().__init__()
        self.ranks = ranks
        # (n − 1)!, …, 1!, 0!: the place values of the digits of a rank, by
        # one running product 0!, 1!, … (none for n = 0)
        rising = tuple(accumulate(range(1, n), operator.mul, initial=1))
        self.places = rising[:n][::-1]

    def __missing__(self, rank: int) -> Perm:
        if not 0 <= rank < self.places[0] * len(self.places):
            raise KeyError(rank)
        left, rest, w = list(range(1, len(self.places) + 1)), rank, []
        for place in self.places:
            digit, rest = divmod(rest, place)
            w.append(left.pop(digit))
        w = tuple(w)
        self.ranks[w] = rank
        self[rank] = w
        return w


class _Codec:
    """The packed keys of the classes q^d·σ_w, w ∈ S_n, d of m entries: the
    int Σ_l d_l·2^(base + (m − l)·FIELD_BITS) + rank(w).

    rank(w) is the index of w in the lexicographic order of S_n, below
    base = bit_length(n! − 1) bits, and each d_l has a field of FIELD_BITS
    bits above it, d_1 highest, so that sorting keys sorts (d, w).  A key
    times q^d′ is the key plus that of d′ (`degree`).  Ranks are computed
    and memoized both ways on first sight, from either side (`index`,
    `_Unranked`), so a permutation never met costs nothing and a rank
    never met reads all the same.

    The codec checks nothing: `key` and `degree` pack terms already known
    to be classes.  A term from outside the package, given to a
    `QuantumClass` or read from JSON, is checked by `qring._class_terms`,
    which packs it field by field in the same loop.

    Every term of a product, a fold or an expansion of total grade g has
    2·d_l ≤ g, q_l being of grade ≥ 2, so no field carries while g <
    2^(FIELD_BITS + 1) (`check`).  A pair product, the engine's own terms
    included, has g ≤ 2·C(n, 2) = n(n − 1), below that bound for every
    n ≤ 362, far past any S_n within reach, so only folds and expansions
    are checked.
    """

    def __init__(self, n: int, m: int):
        self.n, self.m = n, m
        self.base = base = (math.factorial(n) - 1).bit_length()
        self.mask = (1 << base) - 1
        # the shift of the field of d_l, l = 1..m
        self.shifts = tuple(base + (m - l) * FIELD_BITS for l in range(1, m + 1))
        self.zero = (0,) * m
        # the d of each degree part of a key decoded so far
        self._degrees = {0: self.zero}
        # w of rank and rank of w, for the permutations of n met so far: the
        # codec with m = n − 1 holds them, and every other codec of n reads it
        self._perms = (_Unranked(n, {}) if m == n - 1
                       else _codec(n, n - 1)._perms)
        self._ranks = self._perms.ranks
        self._places = self._perms.places

    def __reduce__(self):
        # a pickled or copied class shares the codec of its (n, m) instead
        # of holding a copy of it
        return _codec, (self.n, self.m)

    def index(self, w: Perm) -> int:
        """The rank of a permutation w of n: Σ_p #{j > p : w(j) < w(p)}·(n − p)!,
        the count of the values below w(p) not yet placed."""
        got = self._ranks.get(w)
        if got is None:
            got = placed = 0
            for a, place in zip(w, self._places):
                got += (a - 1 - (placed & ((1 << a) - 1)).bit_count()) * place
                placed |= 1 << a
            self._perms[got] = w
            self._ranks[w] = got
        return got

    def perm(self, i: int) -> Perm:
        """The permutation of rank i, a rank in a key."""
        return self._perms[i]

    def degree(self, d) -> int:
        """The key of q^d·σ_id less rank(id) = 0."""
        return sum(e << s for e, s in zip(d, self.shifts))

    def key(self, d, w: Perm) -> int:
        return self.degree(d) + self.index(w)

    def decode(self, key: int) -> tuple:
        """(d, w) of a key."""
        rank = key & self.mask
        d = self._degrees.get(key - rank)
        if d is None:
            field = (1 << FIELD_BITS) - 1
            d = self._degrees[key - rank] = tuple(
                key >> s & field for s in self.shifts)
        return d, self._perms[rank]

    def check(self, grade: int) -> None:
        """ValueError when terms of this total grade could carry a field."""
        if grade >> FIELD_BITS + 1:
            raise ValueError(f"total grade {grade} could carry a q-degree "
                             f"field of {FIELD_BITS} bits")


@lru_cache(maxsize=None)
def _codec(n: int, m: int) -> _Codec:
    """The codec of n with m q's, shared by the engine of n (m = n − 1), by
    every ring of n with m q's and by every class of n, even with no engine."""
    return _Codec(n, m)


def _nonzero(terms: dict) -> dict:
    return {key: c for key, c in terms.items() if c}


def _q_monomial(d: tuple) -> tuple:
    """The monomial q^d = q_1^{d_1}⋯q_m^{d_m}."""
    return tuple((("q", i), e) for i, e in enumerate(d, start=1) if e)


def _ascent(w: Perm) -> tuple:
    """The expand of 𝔖_w: w·s_i for the first ascent i of w, then i."""
    i = next(i for i in range(1, len(w)) if w[i - 1] < w[i])
    up = (*w[:i - 1], w[i], w[i - 1], *w[i + 1:])
    return (up,), up, i


def _parent(seq: tuple) -> tuple:
    """The expand of a prefix class: its parent prefix, then the prefix."""
    return (seq[:-1],), seq


def _peel(memo: dict, w: Perm, seq: tuple, row: dict) -> dict:
    """a[w] = {K(w): 1} − Σ_{u≠w} B[K(w), u]·a[u], with K(w) = seq and the
    a[u] in memo."""
    acc = {seq: 1}
    get = acc.get
    for u, b in row.items():
        if u != w:
            for key, a in memo[u].items():
                acc[key] = get(key, 0) - b * a
    return _nonzero(acc)


class _Transition:
    """The Schubert engine of S_n: the structure constants of QH*(Fl_n),
    σ_w ∗ σ_y as a dict {key of q^d·σ_z: c} on the codec of n with n − 1
    q's (`codec`), and the packed 𝔖_w and 𝔖^q_w.

    Quantum Monk gives x_r ∗ σ_w (`_monk`), read off the edge table
    `_edges`, built once per engine: for each r, the edges (a, b) of x_r
    with their sign, the q-degree d of q_a⋯q_{b−1} and its key dkey.
    `_x_terms` and `_step` both read it.  Transition: with r the last
    descent of w, s the last position after r with w(s) < w(r) and
    v = w·t_rs, x_r ∗ σ_v = σ_w + R, so σ_w ∗ σ_y is
    x_r ∗ (σ_v ∗ σ_y) − Σ_R c·q^d·(σ_u ∗ σ_y), down to σ_id ∗ σ_y = σ_y.  The
    classical u of R are as long as w and lexicographically later, the
    quantum ones shorter, so the recursion ends.  Quantum Monk holds for the
    𝔖^q_w as polynomials in Z[x, q], so the same step lifts them (`lift`):
    𝔖^q_w = x_r·𝔖^q_v − Σ_R c·q^d·𝔖^q_u, down to 𝔖^q_id = 1.  Both walk
    the transition tree of w, with their own rule per node, and share the
    memo of `_step`, which holds each term of R as (d, dkey, u, c).  The
    product node works on packed keys alone: its memo `_x_terms` holds
    x_r ∗ σ_z as (delta, sign) pairs, so a term K with z = K & mask maps to
    K + delta, and the q^d of a term of R adds its dkey; no tuple is built.
    The 𝔖_w come from divided differences (`schubert`), so the
    recombination check, which folds them against the packed e_k(p)
    (`e_columns`), owes nothing to the lift or the Pieri rule.
    The e-decompositions are peeled here on demand (`e_coeffs`), each from
    the class of the e-monomial of its pivot (`e_row`), over two memos:
    `_e_prefixes`, the classes e_{k_1}(1)⋯e_{k_p}(p) of the prefixes,
    p < n − 1, each one Pieri product of its parent's, and `_e_coeffs`, the
    a_K of each w peeled.  One walker (`_walk`) fills the five memos
    `_memo`, `_lifts`, `_classical`, `_e_prefixes` and `_e_coeffs`, each
    entry after those it is built from; beside them sit the Pieri rows
    (`_pieri_rows`), the checked decompositions of `e_decomposition` and
    the factor columns of the universal lifts (`columns`).
    One `_Packing` over x_1,…,x_n, q_1,…,q_{n−1} holds 𝔖_w, 𝔖^q_w and the
    e_k(p); its fields hold C(n, 2) (1 at n = 1), the top grade, which no
    term that a lift, a divided difference or the check's fold meets
    exceeds, cancelled ones included.  A lift node adds the packed key of
    x_r or q^d to every key of a shorter lift, read from tables built with
    the edges (`_x_shifts`, and `_q_shifts` by the dkey of each edge), and
    drops each term as it cancels.  The e_k(p) of the check (`e_columns`),
    like the factor columns, are packed grouped by coefficient
    (`_Packing.pack_factor`).  The lift never sets x_n, but
    ∂_{n−1} writes x_n terms that cancel only once every monomial is done,
    so x_n has a field.
    """

    def __init__(self, n: int):
        self.n = n
        self.identity = tuple(range(1, n + 1))
        self.codec = codec = _codec(n, n - 1)
        self._packing = packing = _Packing(
            [("x", i) for i in range(1, n + 1)] + [("q", i) for i in range(1, n)],
            max(n * (n - 1) // 2, 1))
        # what a lift node adds to a packed monomial to multiply it by x_r,
        # at r − 1, and by q^d, at the key dkey of d: 0 for a classical term,
        # and q_a⋯q_{b−1} for a quantum edge
        self._x_shifts = tuple(packing.key(((("x", r), 1),))
                               for r in range(1, n + 1))
        self._q_shifts = {0: 0}
        # _edges[r]: (a, b, sign, d of q_a⋯q_{b−1}, its key) per edge of x_r
        self._edges = [[] for _ in range(n + 1)]
        for a, b in combinations(range(1, n + 1), 2):
            d = (0,) * (a - 1) + (1,) * (b - a) + (0,) * (n - b)
            dkey = codec.degree(d)
            self._q_shifts[dkey] = packing.key(_q_monomial(d))
            self._edges[a].append((a, b, 1, d, dkey))
            self._edges[b].append((a, b, -1, d, dkey))
        # _x[r]: rank of z → x_r ∗ σ_z as (delta, sign) pairs
        self._x = [{} for _ in range(n + 1)]
        self._steps = {}  # w → (r, v, R as (d, dkey, u, c) terms)
        self._memo = {}   # y → {w → σ_w ∗ σ_y, packed}
        # w → 𝔖^q_w as {packed monomial: coefficient}
        self._lifts = {self.identity: {0: 1}}
        # (k_1,…,k_p), p < n − 1 → e_{k_1}(1)⋯e_{k_p}(p) as {z: c}
        self._e_prefixes = {(): {self.identity: 1}}
        self._e_coeffs = {}  # w → {K: a_K}, the e-decomposition of 𝔖_w
        self._pieri_rows = {}      # (z, p) → the rows of `_pieri`
        self._decompositions = {}  # w → its checked EDecomposition
        self._columns = {}         # factor → (packing, columns)
        # w → 𝔖_w as {packed monomial: coefficient}, from the staircase 𝔖_{w_0}
        staircase = tuple((("x", p), n - p) for p in range(1, n))
        self._classical = {tuple(range(n, 0, -1)): {packing.key(staircase): 1}}

    def _monk(self, r: int, w: Perm) -> list:
        """x_r ∗ σ_w as (d, dkey, z, sign) terms, dkey the key of q^d, read
        off the edges of x_r (`_edges`): x_r ∗ σ_w = Σ_{b>r} ε_rb −
        Σ_{a<r} ε_ar, quantum Monk for σ_{s_r} minus that for σ_{s_{r−1}}.
        ε_ab is σ_{w·t_ab} if w·t_ab is one longer than w,
        q_a⋯q_{b−1}·σ_{w·t_ab} if 2(b − a) − 1 shorter, else 0."""
        out, zero = [], self.codec.zero
        for a, b, sign, d, dkey in self._edges[r]:
            lo, hi = w[a - 1], w[b - 1]
            between = w[a:b - 1]
            if lo < hi:
                # one longer: no w(i), a < i < b, lies between lo and hi
                for x in between:
                    if lo < x < hi:
                        break
                else:
                    out.append((zero, 0, (*w[:a - 1], hi, *between, lo,
                                          *w[b:]), sign))
            else:
                # 2(b − a) − 1 shorter: every w(i), a < i < b, lies
                # between hi and lo
                for x in between:
                    if not hi < x < lo:
                        break
                else:
                    out.append((d, dkey, (*w[:a - 1], hi, *between, lo,
                                          *w[b:]), sign))
        return out

    def _x_terms(self, r: int, zi: int) -> list:
        """x_r ∗ σ_z, z of rank zi, as (delta, sign) pairs (`_monk`), delta
        the key of the term less zi; the memo entry itself, which must not
        be changed."""
        got = self._x[r].get(zi)
        if got is None:
            index = self.codec.index
            got = self._x[r][zi] = [
                (dkey + index(z) - zi, sign)
                for _, dkey, z, sign in self._monk(r, self.codec.perm(zi))]
        return got

    def _step(self, w: Perm) -> tuple:
        """(r, v, R) with σ_w = x_r ∗ σ_v − R."""
        got = self._steps.get(w)
        if got is not None:
            return got
        r = max(i for i in range(1, self.n) if w[i - 1] > w[i])
        s = max(j for j in range(r + 1, self.n + 1) if w[j - 1] < w[r - 1])
        v = list(w)
        v[r - 1], v[s - 1] = w[s - 1], w[r - 1]
        v = tuple(v)
        rest, head = self._monk(r, v), (self.codec.zero, 0, w, 1)
        if head not in rest:
            raise RingError(f"x_{r}∗σ_{list(v)} does not contain σ_{list(w)} once")
        rest.remove(head)
        got = self._steps[w] = (r, v, tuple(rest))
        return got

    def _walk(self, memo: dict, key, expand, node):
        """memo[key], resolved by an explicit stack.  expand(key) runs once
        per entry built and returns (keys, *args): the keys the entry is
        built from, then what node(memo, *args) needs to build it once they
        are all in memo.  An entry is stored only when it is complete, so
        another thread sees each one whole or not at all, a race costs at
        most a duplicate build, and an expand or node that raises leaves
        no entry for its key."""
        got = memo.get(key)
        if got is not None:
            return got
        stack = [(key, None)]
        while stack:
            top, parts = stack[-1]
            if top in memo:
                stack.pop()
                continue
            if parts is None:
                parts = expand(top)
                missing = [(k, None) for k in parts[0] if k not in memo]
                if missing:
                    # top is met again only once all of these are stored
                    stack[-1] = (top, parts)
                    stack.extend(missing)
                    continue
            memo[top] = node(memo, *parts[1:])
            stack.pop()
        return memo[key]

    def _tree(self, w: Perm) -> tuple:
        """The expand of a transition tree: v and the u of R, then the
        step (r, v, R) of w."""
        _, v, rest = step = self._step(w)
        return (v, *(u for _, _, u, _ in rest)), *step

    def product(self, w: Perm, y: Perm) -> dict:
        """σ_w ∗ σ_y, packed, from the memo of the products with this σ_y;
        the entry itself, which must not be changed."""
        memo = self._memo.get(y)
        if memo is None:
            memo = self._memo.setdefault(
                y, {self.identity: {self.codec.index(y): 1}})
        return self._walk(memo, w, self._tree, self._product_node)

    def _product_node(self, memo: dict, r: int, v: Perm, rest: tuple) -> dict:
        """x_r ∗ (σ_v ∗ σ_y) less c·q^d·(σ_u ∗ σ_y) for each term of R."""
        acc = {}
        get = acc.get
        mask, x_r = self.codec.mask, self._x[r]
        for k, c in memo[v].items():
            terms = x_r.get(k & mask)
            if terms is None:
                terms = self._x_terms(r, k & mask)
            for delta, sign in terms:
                delta += k
                acc[delta] = get(delta, 0) + sign * c
        for _, dkey, u, c in rest:
            for k, c2 in memo[u].items():
                k += dkey
                acc[k] = get(k, 0) - c * c2
        return _nonzero(acc)

    def lift(self, w: Perm) -> Polynomial:
        """𝔖^q_w, decoded from its packed memo entry."""
        return self._packing.unpack(
            self._walk(self._lifts, w, self._tree, self._lift_node))

    def _lift_node(self, memo: dict, r: int, v: Perm, rest: tuple) -> dict:
        """x_r times the terms of 𝔖^q_v, less c·q^d times those of each
        𝔖^q_u of R, summed in one packed dict: a monomial times x_r or q^d
        is its key plus the packed x_r or q^d (`_x_shifts`, `_q_shifts`)."""
        shift = self._x_shifts[r - 1]
        # x_r·(distinct monomials) are distinct: nothing to gather yet
        acc = {m + shift: c for m, c in memo[v].items()}
        get, shifts = acc.get, self._q_shifts
        for _, dkey, u, c in rest:
            shift = shifts[dkey]
            for m, c2 in memo[u].items():
                m += shift
                # dropped at once: a pass at the end, as in `_product_node`,
                # copies the whole sum and measured slower here
                s = get(m, 0) - c * c2
                if s:
                    acc[m] = s
                else:
                    del acc[m]
        return acc

    def schubert(self, w: Perm) -> dict:
        """𝔖_w, packed; w must be a permutation of n.  𝔖_w = ∂_i 𝔖_{w·s_i}
        for the first ascent i of w, so each entry costs one divided
        difference of an entry one longer."""
        return self._walk(self._classical, w, _ascent, self._divided_difference)

    def _divided_difference(self, memo: dict, up: Perm, i: int) -> dict:
        """∂_i of the packed memo[up], by `divided_difference`'s telescoped
        sum: x_i^a·x_{i+1}^b·R ↦ ±Σ_{lo ≤ j < hi} x_i^j·x_{i+1}^{a+b−1−j}·R."""
        terms = memo[up]
        width = self._packing._width
        low, high = (i - 1) * width, i * width
        mask = (1 << width) - 1
        step = (1 << low) - (1 << high)  # x_i one up, x_{i+1} one down
        acc = {}
        get = acc.get
        for m, c in terms.items():
            a, b = m >> low & mask, m >> high & mask
            if a == b:
                continue
            lo, hi = (b, a) if a > b else (a, b)
            if a < b:
                c = -c
            key = m + (lo - a << low) + (a - 1 - lo << high)
            for _ in range(lo, hi):
                acc[key] = get(key, 0) + c
                key += step
        return _nonzero(acc)

    def e_row(self, seq: tuple) -> dict:
        """The class of e_K = e_{k_1}(1)⋯e_{k_{n−1}}(n−1) in H*(Fl_n), K =
        seq, as {u: B[K, u]}: the class of its prefix, from the memo
        `_e_prefixes`, times e_{k_{n−1}}(n−1), which is multiplied on here
        and not kept.  With k_{n−1} = 0 the row is the prefix memo's own
        entry, which must not be changed."""
        self._walk(self._e_prefixes, seq[:-1], _parent, self._e_times)
        return self._e_times(self._e_prefixes, seq)

    def _e_times(self, memo: dict, seq: tuple) -> dict:
        """The class of the prefix seq[:−1], from memo, times e_k(p), k =
        seq[−1] and p = len(seq), by the Pieri rule; the parent class itself
        when k = 0."""
        cls, k = memo[seq[:-1]], seq[-1] if seq else 0
        if not k:
            return cls
        p, acc = len(seq), {}
        get, rows = acc.get, self._pieri_rows
        for z, c in cls.items():
            row = rows.get((z, p))
            if row is None:
                row = rows[z, p] = _pieri(z, p)
            for u, b in row[k].items():
                acc[u] = get(u, 0) + b * c
        return _nonzero(acc)

    def e_coeffs(self, w: Perm) -> dict:
        """{K: a_K} with 𝔖_w = Σ a_K·e_K, memoized; in K order once
        `e_decomposition` has checked it, in no fixed order before.

        The row of the pivot K(w) (`_e_pivot`, `e_row`) is σ_w plus σ_u
        with u⁻¹ lexicographically after w⁻¹ (`_pivot_row`), so
        a[w] = {K(w): 1} − Σ_{u≠w} B[K(w), u]·a[u], with the u resolved
        first."""
        return self._walk(self._e_coeffs, w, self._pivot_row, _peel)

    def _pivot_row(self, w: Perm) -> tuple:
        """The expand of the peel: the u ≠ w of the row of K(w), then w,
        K(w) and the row.  A row that breaks either pivot property raises
        RingError, so a wrong row cannot loop."""
        seq = _e_pivot(w)
        row = self.e_row(seq)
        if not _is_pivot_row(row, w):
            raise RingError(
                f"the e-monomials of H*(Fl_{self.n}) are not unitriangular "
                f"in the Schubert basis: e_{seq} at σ_{list(w)}")
        return [u for u in row if u != w], w, seq, row

    @cached_property
    def e_columns(self) -> list:
        """Column p − 1 maps k to e_k(x_1,…,x_p), packed and grouped by
        coefficient (`_Packing.pack_factor`), for 1 ≤ k ≤ p < n; built on
        first use, so building a ring packs none."""
        pack = self._packing.pack_factor
        return [{k: pack(elementary_poly(k, p)) for k in range(1, p + 1)}
                for p in range(1, self.n)]

    def columns(self, factor) -> tuple:
        """(packing, columns) with columns[p − 1] = {k: factor(k, p),
        packed} for 1 ≤ k ≤ p < n, packed once per factor object
        (`_pack_columns`), so that every fold over them decodes through one
        packing; racing threads keep the first stored."""
        got = self._columns.get(factor)
        if got is None:
            got = self._columns.setdefault(factor, _pack_columns(
                [{k: factor(k, p) for k in range(1, p + 1)}
                 for p in range(1, self.n)]))
        return got


@lru_cache(maxsize=None)
def _transition(n: int) -> _Transition:
    """The engine of S_n, shared by every ring with this n, by the lifts and
    by the Schubert polynomials and their e-decompositions."""
    return _Transition(n)
