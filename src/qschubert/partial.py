"""Quantum cohomology of partial flag manifolds.

A flag shape N = {n_1 < … < n_m} ⊂ {1,…,n−1} selects the manifold of flags
with jumps exactly at the n_l.  The ring is presented on block Chern-class
variables σ_i^l (grade i, block l of size n_l − n_{l−1}) and deformation
parameters q_l of grade n_{l+1} − n_{l−1}, modulo the relations ẽ^q_k.

Everything is produced from the universal (path-alphabet) polynomials by
one block substitution (`_apply_sigma_q`): block-anchored paths become
σ-variables and signed q parameters, and every other g-variable becomes 0.
That zero set holds every g-variable whose vertex interval is not admissible
for the shape (`index_sets`), so the ring applies it to the path polynomial
E_k directly (`PartialRing._partial_e`); tilde_E, E_k with only the
inadmissible g-variables set to 0, serves the kernel Chern checks.  Complete
shapes substitute x_l for the grade-1 block classes, so the complete-shape
objects coincide exactly with their counterparts for the full flag manifold.

The ring of a shape (`partial_ring`) owns the memos derived from it: the
packed images of the ẽ^q_k(l) (`PartialRing._images`), built once, and the
lifts, which `partial_quantum_schubert` reads; the other functions here
keep none.
"""
from __future__ import annotations

from bisect import bisect_right
from functools import cached_property, lru_cache

from .perm import FlagShape, Perm, length, sn_elements
from .poly import (
    Polynomial,
    VerificationError,
    _var_key,
    c_var,
    g_var,
    q_var,
    sigma_var,
    x_var,
)
from .qring import QuantumClass, RingError, _GradedQuotientRing
from .schubert import _fold, _pack_images, e_decomposition
from .universal import path_poly, universal_schubert_c

__all__ = [
    "PartialRing",
    "partial_ring",
    "index_sets",
    "tilde_E",
    "partial_universal_schubert_c",
    "partial_quantum_schubert",
    "partial_quantum_product",
    "partial_gw",
    "kernel_chern_partial_check",
    "kernel_chern_partial_report",
]


def _check_shape(shape) -> FlagShape:
    if not isinstance(shape, FlagShape):
        raise TypeError(f"expected a FlagShape, got {shape!r}")
    return shape


def _sigma(shape: FlagShape, i: int, l: int) -> Polynomial:
    # complete shapes have blocks of size one; using x_l for the single
    # grade-1 class makes the degeneration to the full flag an identity
    if shape.is_complete():
        return x_var(l)
    return sigma_var(i, l)


def index_sets(shape: FlagShape):
    """Admissible interval pairs (i, j), i.e. paths covering vertices i..j.

    The first set holds the block intervals (start at a block anchor, end
    inside the same block); the second holds every interval ending at a jump
    value n_l (including n).  A g-variable g_i[j−i] survives in tilde_E
    exactly when (i, j) lies in their union.

    >>> gs, gq = index_sets(FlagShape((1,), 2))
    >>> sorted(gs), sorted(gq)
    ([(1, 1), (2, 2)], [(1, 1), (1, 2), (2, 2)])
    """
    shape = _check_shape(shape)
    ns = shape.ns
    g_sigma = set()
    for l in range(1, shape.m + 2):
        i = ns[l - 1] + 1
        for j in range(i, ns[l] + 1):
            g_sigma.add((i, j))
    g_q = set()
    for l in range(1, shape.m + 2):
        j = ns[l]
        for i in range(1, j + 1):
            g_q.add((i, j))
    return frozenset(g_sigma), frozenset(g_q)


def tilde_E(k: int, l: int, shape: FlagShape) -> Polynomial:
    """E_k on the first n_l vertices with inadmissible g-variables set to 0.

    >>> tilde_E(2, 2, FlagShape((1,), 2)).to_text()
    'g1[0]·g2[0] + g1[1]'
    """
    shape = _check_shape(shape)
    if not 1 <= l <= shape.m + 1:
        raise ValueError(f"block index out of range: {l}")
    g_sigma, g_q = index_sets(shape)
    allowed = g_sigma | g_q
    p = path_poly(k, shape.ns[l])
    kill = {
        v: 0
        for v in p.variables()
        if v[0] == "g" and (v[1], v[1] + v[2]) not in allowed
    }
    return p.substitute(kill)


def _apply_sigma_q(p: Polynomial, shape: FlagShape) -> Polynomial:
    """Block substitution: anchored paths inside block l become σ^l classes,
    the anchored path of full length n_{l+1}−n_{l−1} becomes
    (−1)^{n_{l+1}−n_l−1}·q_l, every other g-variable becomes zero."""
    ns = shape.ns
    anchors = {ns[l - 1] + 1: l for l in range(1, shape.m + 2)}
    asg = {}
    for v in p.variables():
        if v[0] != "g":
            continue
        i, j = v[1], v[2]
        l = anchors.get(i)
        val = 0
        if l is not None:
            if j <= ns[l] - ns[l - 1] - 1:
                val = _sigma(shape, j + 1, l)
            elif l <= shape.m and j == ns[l + 1] - ns[l - 1] - 1:
                sign = (-1) ** (ns[l + 1] - ns[l] - 1)
                val = sign * q_var(l)
        asg[v] = val
    return p.substitute(asg)


def partial_universal_schubert_c(w: Perm, shape: FlagShape) -> Polynomial:
    """𝔖_w^(N)(c): round every c-column down to the nearest jump value.

    c_i(j) becomes c_i(n_k) for n_k ≤ j < n_{k+1}; columns below n_1 collapse
    to constants (c_i(0) = 0 for i ≥ 1): `universal_schubert_c` under
    that substitution, a ring map sending each variable to one term.

    >>> partial_universal_schubert_c((2, 1, 3), FlagShape((1,), 3)).to_text()
    'c1(1)'
    """
    shape = _check_shape(shape)
    lift = universal_schubert_c(shape.check(w))
    ns = shape.ns
    return lift.substitute({v: c_var(v[1], ns[bisect_right(ns, v[2]) - 1])
                            for v in lift.variables()})


def partial_quantum_schubert(w: Perm, shape: FlagShape) -> Polynomial:
    """𝔖_w^(N)(σ,q): substitute c_k(n_l) := ẽ^q_k(l), the block σ/q image
    of tilde_E(k,l), into 𝔖_w^(N)(c).  Homogeneous of grade length(w); at a
    complete shape this is exactly the quantum polynomial of the full flag
    manifold.  Memoized on the ring of the shape (`PartialRing`).

    >>> partial_quantum_schubert((2, 1, 3), FlagShape((1,), 3)).to_text()
    's1^1'
    """
    shape = _check_shape(shape)
    w = shape.check(w)
    return partial_ring(shape)._basis_lift(w)


class PartialRing(_GradedQuotientRing):
    """QH*(Fl(N)): basis σ_w for w ∈ S^(N) over Z[q_1,…,q_m].

    The working alphabet is σ_i^l for blocks l = 1..m+1 and 1 ≤ i ≤ block
    size, with grade(σ_i^l) = i and grade(q_l) = n_{l+1} − n_{l−1}; complete
    shapes use x_1,…,x_n in place of the grade-1 block classes.  The ring
    supplies the relations ẽ^q_k and the lifts 𝔖_w^(N)(σ,q); its products
    are read off Fl_n products by the comparison formula in the shared code
    (`_GradedQuotientRing`).  It owns every memo of its shape: the images
    of the ẽ^q_k(l), packed once (`_images`), and the lifts (`_lifts`).
    """

    def __init__(self, shape: FlagShape):
        shape = _check_shape(shape)
        self.shape = shape
        self.q_grades = dict(enumerate(shape.q_grades, start=1))
        super().__init__(shape)
        self.sigma_vars = tuple(sorted(self._vars, key=_var_key))
        self._lifts = {}  # w → 𝔖_w^(N)(σ,q)

    @cached_property
    def basis(self) -> tuple:
        return tuple(sn_elements(self.shape))

    def _partial_e(self, k: int, l: int) -> Polynomial:
        """ẽ^q_k(l): E_k on the first n_l vertices after the block σ/q
        substitution, which kills every g-variable that tilde_E kills."""
        return _apply_sigma_q(path_poly(k, self._ns[l]), self.shape)

    @cached_property
    def _images(self) -> tuple:
        """The packed images of e_k(p) in the lifts, ẽ^q_k(l) for the jump
        value n_l that p rounds down to and 0 below n_1
        (`schubert._pack_images`), built on the first lift.  Each ẽ^q_k(l)
        is built once, however many columns round down to n_l, and dropped
        with this build."""
        ns, zero = self._ns, Polynomial.zero()
        e = lru_cache(maxsize=None)(self._partial_e)

        def image(k, p):
            l = bisect_right(ns, p) - 1
            return e(k, l) if l else zero

        return _pack_images(image, self.n)

    def relations(self) -> tuple:
        """The ring relations ẽ^q_k, k = 1..n; ẽ^q_1 is always q-free."""
        return tuple(self._partial_e(k, self.q_count + 1)
                     for k in range(1, self.n + 1))

    def _basis_lift(self, w):
        """𝔖_w^(N)(σ,q), memoized: the e-fold of 𝔖_w with column p rounded
        down to its jump value n_l and e_k(p) ↦ ẽ^q_k(l), c_k(n_0) = 0
        (`_images`)."""
        got = self._lifts.get(w)
        if got is not None:
            return got
        out = _fold(e_decomposition(w).coeffs, *self._images)
        if not out.is_zero() and out.grades(self.q_grades) != {length(w)}:
            raise RingError(
                f"partial quantum polynomial for {w} is not homogeneous of "
                f"grade {length(w)}"
            )
        self._lifts[w] = out
        return out


@lru_cache(maxsize=None)
def partial_ring(shape: FlagShape) -> PartialRing:
    """Shared per-shape ring instance."""
    return PartialRing(_check_shape(shape))


def partial_quantum_product(u: Perm, v: Perm, shape: FlagShape) -> QuantumClass:
    """σ_u ∗ σ_v in QH*(Fl(N)).

    >>> partial_quantum_product((2, 1), (2, 1), FlagShape((1,), 2)).to_text()
    'q1·σ[1,2]'
    """
    return partial_ring(_check_shape(shape)).quantum_product(u, v)


def partial_gw(ws, w: Perm, d, shape: FlagShape) -> int:
    """⟨σ_{w_1},…,σ_{w_N}, σ_w⟩_d for the partial flag manifold; zero unless
    Σ length matches dim Fl(N) + Σ d_l·grade(q_l)."""
    return partial_ring(_check_shape(shape)).gromov_witten(ws, w, d)


def _kernel_quotient(l: int, shape: FlagShape) -> dict:
    """Graded pieces of the series c(E_{l+1})/c(E_l) with c_k(E_t) :=
    tilde_E(k, t), computed through grade n_{l+1} − n_{l−1}."""
    ns = shape.ns
    top = ns[l + 1] - ns[l - 1]
    low = [tilde_E(t, l, shape) for t in range(top + 1)]
    Q = {0: Polynomial.constant(1)}
    for j in range(1, top + 1):
        Q[j] = tilde_E(j, l + 1, shape) - sum(
            (low[t] * Q[j - t] for t in range(1, j + 1)), Polynomial.zero())
    return Q


def kernel_chern_partial_report(l: int, shape: FlagShape) -> list:
    """Per-grade comparison of the kernel Chern classes c_j(ker(E_{l+1}→E_l))
    against two closed forms.

    'printed' is the raw two-case expression: g_{n_{l−1}+1}[j−1] for
    j < n_l − n_{l−1}, else g_{n_{l+1}−j+1}[j−1].  'resolved' states the same
    identity after the σ/q substitution with the block anchor of the first
    case shifted up by one: c_j(ker) = σ^{l+1}_j for j up to the kernel rank
    n_{l+1} − n_l, zero in the middle grades, and (−1)^{n_{l+1}−n_l−1}·q_l at
    the top grade n_{l+1} − n_{l−1}.  The raw form holds verbatim only when
    every block has size one; the resolved form holds for every shape checked.
    """
    shape = _check_shape(shape)
    if not 1 <= l <= shape.m:
        raise ValueError(f"need 1 ≤ l ≤ {shape.m}: {l}")
    ns = shape.ns
    Q = _kernel_quotient(l, shape)
    kernel_rank = ns[l + 1] - ns[l]
    top = ns[l + 1] - ns[l - 1]
    boundary = ns[l] - ns[l - 1]
    entries = []
    for j in range(1, top + 1):
        computed = Q[j]
        case1 = g_var(ns[l - 1] + 1, j - 1)
        case2 = g_var(ns[l + 1] - j + 1, j - 1)
        printed = case1 if j < boundary else case2
        if j <= kernel_rank:
            expected = _sigma(shape, j, l + 1)
        elif j == top:
            expected = ((-1) ** (kernel_rank - 1)) * q_var(l)
        else:
            expected = Polynomial.zero()
        entries.append(
            {
                "j": j,
                "computed": computed,
                "printed": printed,
                "printed_matches": computed == printed,
                "resolved_expected": expected,
                "resolved_matches": _apply_sigma_q(computed, shape) == expected,
            }
        )
    return entries


def kernel_chern_partial_check(l: int, shape: FlagShape) -> bool:
    """Verify the resolved kernel Chern-class closed form for the map
    E_{l+1} → E_l (see kernel_chern_partial_report).

    A mismatch raises instead of returning False, naming the first bad
    grade.  The raw two-case expression, which holds exactly for complete
    shapes, is reported per grade as `printed_matches`.
    """
    entries = kernel_chern_partial_report(l, shape)
    for e in entries:
        if not e["resolved_matches"]:
            raise VerificationError(
                f"kernel Chern mismatch for l={l}, shape {shape.to_string()} "
                f"at grade {e['j']}: computed {e['computed'].to_text()}, "
                f"expected {e['resolved_expected'].to_text()}"
            )
    return True
