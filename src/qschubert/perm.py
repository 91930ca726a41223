"""Permutation combinatorics for Schubert calculus.

Permutations are tuples of 1-indexed images in one-line notation: ``w[i-1]``
is w(i).  Composition is fixed once and for all as (u∘v)(i) = u(v(i)); every
word identity in this package is stated under that convention.
"""
from __future__ import annotations

from functools import cached_property
from itertools import combinations, permutations as _all_tuples
from math import comb

Perm = tuple[int, ...]

__all__ = [
    "Perm",
    "FlagShape",
    "validate",
    "identity",
    "length",
    "rank_fn",
    "longest_element",
    "dual",
    "compose",
    "transposition",
    "reduced_word",
    "all_permutations",
    "sn_elements",
    "hyperquot_dim",
    "lemma_es_check",
]


# every permutation validated so far, keyed by itself
_PERMS: dict = {}


def validate(w) -> Perm:
    """Return w as a tuple of ints after checking it is a permutation of 1..n.

    Entries are read by value: one equal to an int (3.0, True) is that int,
    and the tuple returned holds ints only, whatever was validated before.

    >>> validate([2, 1])
    (2, 1)
    >>> validate((3.0, True, 2))
    (3, 1, 2)
    """
    w = tuple(w)
    got = _PERMS.get(w)
    if got is None:
        n = len(w)
        if n == 0 or sorted(w) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {w}")
        got = tuple(map(int, w))
        _PERMS[got] = got
    return got


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def length(w: Perm) -> int:
    """Number of inversions #{(i,j): i < j, w(i) > w(j)}.

    >>> length((2, 4, 1, 3))
    3
    """
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def rank_fn(w: Perm, q: int, p: int) -> int:
    """#{i ≤ q : w(i) ≤ p}, the rank function of the permutation matrix."""
    n = len(w)
    if not (1 <= q <= n and 1 <= p <= n):
        raise ValueError(f"rank_fn arguments out of range 1..{n}: q={q}, p={p}")
    return sum(1 for i in range(q) if w[i] <= p)


def longest_element(n: int) -> Perm:
    """w_0 with w_0(i) = n - i + 1."""
    return tuple(range(n, 0, -1))


def compose(u: Perm, v: Perm) -> Perm:
    """(u∘v)(i) = u(v(i))."""
    if len(u) != len(v):
        raise ValueError(f"size mismatch in compose: {len(u)} vs {len(v)}")
    return tuple(u[v[i] - 1] for i in range(len(v)))


def dual(w: Perm) -> Perm:
    """w^∨ = w_0 ∘ w; an involution with length(w) + length(dual(w)) = C(n,2)."""
    return compose(longest_element(len(w)), w)


def transposition(n: int, i: int) -> Perm:
    """The simple transposition s_i swapping i and i+1."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"simple transposition index out of range 1..{n - 1}: {i}")
    w = list(range(1, n + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def reduced_word(w: Perm) -> tuple[int, ...]:
    """Canonical word (i_1,…,i_k) with w = w_0∘s_{i_1}∘…∘s_{i_k}.

    k = C(n,2) − length(w).  The word is produced by repeatedly peeling the
    smallest descent off u = w_0∘w from the right (u ← u∘s_i swaps positions
    i, i+1), then reversing the peel order.

    >>> reduced_word((3, 2, 1))
    ()
    >>> len(reduced_word((1, 2, 3)))
    3
    """
    u = list(dual(w))
    peeled = []
    while True:
        i = next((i for i in range(1, len(u)) if u[i - 1] > u[i]), None)
        if i is None:
            break
        u[i - 1], u[i] = u[i], u[i - 1]
        peeled.append(i)
    peeled.reverse()
    return tuple(peeled)


def all_permutations(n: int) -> list[Perm]:
    """All of S_n in lexicographic one-line order."""
    return list(_all_tuples(range(1, n + 1)))


def _as_int(a) -> int:
    """a as an int when it equals one (3.0 and True are read as 3 and 1);
    TypeError otherwise."""
    try:
        i = int(a)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or i != a:
        raise TypeError(f"not an integer: {a!r}")
    return i


class _Frozen:
    """Base of the package's value classes: no attribute can be set or
    deleted once __init__ has set the fields through object.__setattr__.
    A cached_property still fills, since it writes the instance __dict__
    directly.  It stands in for @dataclass(frozen=True), so that importing
    the package does not import dataclasses and, under it, inspect."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FlagShape(_Frozen):
    """A partial flag shape: steps n_1 < … < n_m inside ambient dimension n.

    Internally n_0 = 0 and n_{m+1} = n.  The complete shape has steps
    (1, 2, …, n−1).

    The shape alone decides which permutations index its Schubert classes
    (`check`, `is_min_rep`), their Poincaré duals (`dual`) and the dimension
    count of its Gromov–Witten invariants (`moduli_dimension`); both quantum
    rings read all three from it.  Only blocks of size > 1 do block work, so
    the complete shape does none.  Derived data is computed once per shape.

    The steps and n are ints: one equal to an int (2.0, True) is read as
    that int, and any other value raises TypeError.
    """

    steps: tuple[int, ...]
    n: int

    def __init__(self, steps, n):
        steps = tuple(map(_as_int, steps))
        n = _as_int(n)
        if len(steps) == 0:
            raise ValueError("shape needs at least one step")
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ValueError(f"steps must be strictly increasing: {steps}")
        if steps[0] < 1 or steps[-1] >= n:
            raise ValueError(f"steps must satisfy 1 ≤ n_1 < … < n_m < n: {steps} in {n}")
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "n", n)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.steps, self.n) == (other.steps, other.n)
        return NotImplemented

    def __hash__(self):
        return hash((self.steps, self.n))

    def __repr__(self):
        return f"{type(self).__qualname__}(steps={self.steps!r}, n={self.n!r})"

    @classmethod
    def complete(cls, n: int) -> "FlagShape":
        return cls(tuple(range(1, n)), n)

    @classmethod
    def from_string(cls, text: str) -> "FlagShape":
        """Parse "n1:n2:…:n" (the last entry is the ambient dimension)."""
        try:
            parts = tuple(int(p) for p in text.split(":"))
        except ValueError:
            raise ValueError(f"malformed shape string: {text!r}") from None
        if len(parts) < 2:
            raise ValueError(f"shape string needs at least two entries: {text!r}")
        return cls(parts[:-1], parts[-1])

    def to_string(self) -> str:
        return ":".join(str(v) for v in self.steps + (self.n,))

    @property
    def m(self) -> int:
        return len(self.steps)

    @cached_property
    def ns(self) -> tuple[int, ...]:
        """(n_0, n_1, …, n_m, n_{m+1}) with n_0 = 0 and n_{m+1} = n."""
        return (0,) + self.steps + (self.n,)

    @cached_property
    def _wide(self) -> tuple:
        """The blocks of size > 1 as 0-based slices (lo, hi) of one-line
        notation."""
        ns = self.ns
        return tuple((lo, hi) for lo, hi in zip(ns, ns[1:]) if hi - lo > 1)

    def is_complete(self) -> bool:
        return not self._wide

    @cached_property
    def q_grades(self) -> tuple[int, ...]:
        """Grade of q_l is n_{l+1} − n_{l−1}, for l = 1..m."""
        ns = self.ns
        return tuple(ns[l + 1] - ns[l - 1] for l in range(1, self.m + 1))

    @cached_property
    def dimension(self) -> int:
        """dim F^N = Σ_{l<l'} b_l·b_{l'} = C(n,2) − Σ_l C(b_l,2) over block
        sizes b_l = n_l − n_{l−1}."""
        return comb(self.n, 2) - sum(comb(hi - lo, 2) for lo, hi in self._wide)

    def moduli_dimension(self, d) -> int:
        """dim F^N + Σ d_l·grade(q_l): the total length of the classes in a
        Gromov–Witten invariant of degree d that can be nonzero.  The complete
        shape gives hyperquot_dim(n, d)."""
        if len(d) != self.m:
            raise ValueError(f"degree vector must have length {self.m}: {d}")
        return self.dimension + sum(e * g for e, g in zip(d, self.q_grades))

    def is_min_rep(self, w) -> bool:
        """Whether a permutation w of 1..n increases inside every block, that
        is, lies in S^(N)."""
        return all(w[i] < w[i + 1] for lo, hi in self._wide
                   for i in range(lo, hi - 1))

    @cached_property
    def _members(self) -> dict:
        """Every permutation `check` has passed, keyed by itself."""
        return {}

    def check(self, w) -> Perm:
        """w as a tuple of ints after checking that it lies in S^(N); its
        entries are read by value, as `validate` reads them."""
        w = tuple(w)
        got = self._members.get(w)
        if got is None:
            # validate reads w alone, so a huge n lists nothing
            got = validate(w)
            if len(got) != self.n:
                raise ValueError(f"permutation {w} is not in S_{self.n}")
            if self._wide and not self.is_min_rep(got):
                raise ValueError(
                    f"{w} is not a minimal coset representative for shape "
                    f"{self.to_string()}"
                )
            self._members[got] = got
        return got

    def min_rep(self, w: Perm) -> Perm:
        """Minimal-length coset representative: sort values within each block."""
        out = list(w)
        for lo, hi in self._wide:
            out[lo:hi] = sorted(out[lo:hi])
        return tuple(out)

    def dual(self, w: Perm) -> Perm:
        """Poincaré dual inside the ascent-class basis: min_rep(w_0∘w), for a
        permutation w of 1..n.

        Degenerates to w_0∘w for the complete shape.  Satisfies
        length(w) + length(dual(w)) = self.dimension.
        """
        return self.min_rep([self.n + 1 - a for a in w])


def sn_elements(shape: FlagShape) -> list[Perm]:
    """All w ∈ S_n with w(i) < w(i+1) for every i not in the step set.

    Cardinality n!/∏(n_l − n_{l−1})!.  Lexicographic order: built block by
    block, each block an increasing choice of the values left, taken in
    lexicographic order.

    >>> [list(w) for w in sn_elements(FlagShape((1,), 3))]
    [[1, 2, 3], [2, 1, 3], [3, 1, 2]]
    """
    ns = shape.ns
    out = [()]
    for l in range(1, shape.m + 2):
        size = ns[l] - ns[l - 1]
        out = [w + block for w in out
               for block in combinations(
                   [v for v in range(1, shape.n + 1) if v not in w], size)]
    return out


def hyperquot_dim(n: int, d: tuple[int, ...]) -> int:
    """C(n,2) + 2·Σd_i: the grading bound for vanishing of structure constants."""
    if len(d) != n - 1:
        raise ValueError(f"degree vector must have length {n - 1}: {d}")
    if any(di < 0 for di in d):
        raise ValueError(f"degree entries must be nonnegative: {d}")
    return comb(n, 2) + 2 * sum(d)


def lemma_es_check(e: tuple[int, ...]) -> tuple[int, int]:
    """Return (Σe_i, Σe_i(1 + e_i − e_{i−1})) with e_0 = 0.

    Requires e_i ≥ 0, e_i − e_{i−1} ≤ 1 and Σe_i ≥ 1.  On every valid input
    the first component is ≤ the second, the second is ≥ 2, with equality to 2
    exactly when Σe_i = 1.

    >>> lemma_es_check((1, 2, 2))
    (5, 8)
    """
    e = tuple(e)
    if any(ei < 0 for ei in e):
        raise ValueError(f"entries must be nonnegative: {e}")
    prev = 0
    for ei in e:
        if ei - prev > 1:
            raise ValueError(f"steps must satisfy e_i − e_(i−1) ≤ 1: {e}")
        prev = ei
    total = sum(e)
    if total < 1:
        raise ValueError(f"Σe_i ≥ 1 required: {e}")
    weighted = 0
    prev = 0
    for ei in e:
        weighted += ei * (1 + ei - prev)
        prev = ei
    return total, weighted
