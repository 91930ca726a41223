"""Universal Schubert polynomials and Dynkin path polynomials.

The path alphabet attaches a variable g_i[j] (grade j+1) to the path covering
the consecutive vertices x_i,…,x_{i+j} of a type-A Dynkin diagram.  The path
polynomial E_k(l) sums one monomial for every collection of vertex-disjoint
paths covering exactly k of the first l vertices; it is the formal elementary
symmetric polynomial of the alphabet.  Substituting c_k(l) := E_k(l) into the
elementary-symmetric decomposition of 𝔖_w yields the universal Schubert
polynomial 𝔖_w(g), which specializes to the quantum polynomial 𝔖_w(x,q) via
g_i[0] ↦ x_i, g_i[1] ↦ q_i, g_i[j≥2] ↦ 0 and further to the classical 𝔖_w(x)
at q = 0.

The lifts 𝔖_w(c), 𝔖_w(g) and the partial lifts are each one fold
(`schubert._fold`) of the decomposition
Σ a_K·e_{k_1}(1)⋯e_{k_{n−1}}(n−1) with e_k(p) replaced by its image: c_k(p),
E_k(p) or, for a partial shape, the image of the column p rounds down to.
The owner of the images packs them once (`schubert._pack_images`), and
every fold decodes on that packing, whose decode tables fill once:
c_k(p) and E_k(p) depend on (k, p) alone, so the engine of n packs them,
each as one group of coefficient 1 (`schubert._Transition.columns`); the
partial images depend on the shape, and its ring packs them
(`partial.PartialRing`).  𝔖_w(g) is folded directly with E_k(l) rather
than substituted into 𝔖_w(c); the two agree because distinct sequences K
give distinct c-monomials.  The partial c-lift is 𝔖_w(c) with its
variables substituted (`partial.partial_universal_schubert_c`).

Both specializations send each g_i[j] to x_i, q_i or 0, so
`Polynomial.substitute` maps each monomial of 𝔖_w(g) to one monomial or
drops it, with no polynomial product.

The quantum polynomial 𝔖_w(x,q) is not a fold: it comes from
Lascoux–Schützenberger transition on the Fl_n product engine
(`schubert._Transition.lift`), since the quantum Monk rule holds for the
𝔖^q_w as polynomials.  It equals the fold with e_k(p) ↦ e^q_k(p), so the
specialization of 𝔖_w(g) to 𝔖_w(x,q) compares two independent routes.

Primary implementation is the direct cover enumeration; the one-step recursion
and the characteristic-polynomial (determinant) characterization are provided
as independent oracles and cross-checked in the test suite.
"""
from __future__ import annotations

from functools import lru_cache

from .perm import Perm, validate
from .poly import (
    Polynomial,
    VerificationError,
    c_var,
    g_var,
    q_var,
    x_var,
)
from .schubert import _fold, _transition, e_decomposition

__all__ = [
    "path_poly",
    "path_poly_range",
    "path_poly_via_recursion",
    "path_poly_via_determinant",
    "g_from_c",
    "universal_schubert_c",
    "universal_schubert_g",
    "specialize_quantum",
    "specialize_classical",
    "quantum_e",
    "quantum_schubert",
    "kernel_chern_check",
]


@lru_cache(maxsize=None)
def _cover_monomials(a: int, b: int, k: int) -> tuple:
    """Monomials of vertex-disjoint paths inside [a, b] covering k vertices."""
    if k == 0:
        return ((),)
    if k < 0 or a > b or k > b - a + 1:
        return ()
    out = list(_cover_monomials(a + 1, b, k))
    for j in range(0, min(k - 1, b - a) + 1):
        head = ((("g", a, j), 1),)
        # every g of rest has index > a, so head + rest is in `_var_key` order
        for rest in _cover_monomials(a + j + 1, b, k - j - 1):
            out.append(head + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def path_poly_range(i: int, a: int, b: int) -> Polynomial:
    """E_i(a,b): covers of exactly i of the vertices x_a,…,x_b, 1 ≤ a ≤ b+1.

    Zero when i > b−a+1; E_i(1,b) = E_i(b).

    >>> path_poly_range(1, 2, 2).to_text()
    'g2[0]'
    """
    if not 1 <= a <= b + 1:
        raise ValueError(f"need 1 ≤ a ≤ b+1: ({a}, {b})")
    return Polynomial({mon: 1 for mon in _cover_monomials(a, b, i)})


def path_poly(k: int, l: int) -> Polynomial:
    """E_k(l): vertex-disjoint path covers of exactly k of x_1,…,x_l.

    >>> path_poly(2, 2).to_text()
    'g1[0]·g2[0] + g1[1]'
    """
    if l < 1:
        raise ValueError(f"vertex count must be ≥ 1: {l}")
    return path_poly_range(k, 1, l)


@lru_cache(maxsize=None)
def path_poly_via_recursion(k: int, l: int) -> Polynomial:
    """Oracle: E_k(l) = E_k(l−1) + Σ_j E_{k−j−1}(l−j−1)·g_{l−j}[j]."""
    if k == 0:
        return Polynomial.constant(1)
    if k < 0 or l < 1 or k > l:
        return Polynomial.zero()
    out = path_poly_via_recursion(k, l - 1) if l > 1 else Polynomial.zero()
    for j in range(0, k):
        if l - j < 1:
            break
        prev = (
            path_poly_via_recursion(k - j - 1, l - j - 1)
            if l - j - 1 >= 1
            else (Polynomial.constant(1) if k - j - 1 == 0 else Polynomial.zero())
        )
        out = out + prev * g_var(l - j, j)
    return out


def _lambda_mul(p1: dict, p2: dict) -> dict:
    out = {}
    for d1, a in p1.items():
        for d2, b in p2.items():
            prod = a * b
            if prod.is_zero():
                continue
            cur = out.get(d1 + d2)
            out[d1 + d2] = prod if cur is None else cur + prod
    return {d: p for d, p in out.items() if not p.is_zero()}


def _lambda_det(rows: list) -> dict:
    size = len(rows)
    if size == 0:
        return {0: Polynomial.constant(1)}
    out = {}
    for c in range(size):
        entry = rows[0][c]
        if not entry:
            continue
        minor = [row[:c] + row[c + 1:] for row in rows[1:]]
        piece = _lambda_mul(entry, _lambda_det(minor))
        if c % 2:
            piece = {d: -p for d, p in piece.items()}
        for d, p in piece.items():
            cur = out.get(d)
            s = p if cur is None else cur + p
            if s.is_zero():
                out.pop(d, None)
            else:
                out[d] = s
    return out


def path_poly_via_determinant(k: int, l: int) -> Polynomial:
    """Oracle: E_k(l) is the coefficient of λ^{l−k} in det(G_l + λI).

    G_l is the lower-Hessenberg matrix with −1 on the superdiagonal and
    g_c[r−c] in row r, column c ≤ r (the path covering vertices c..r).
    """
    if k == 0:
        return Polynomial.constant(1)
    if k < 0 or k > l:
        return Polynomial.zero()
    rows = []
    for r in range(1, l + 1):
        row = []
        for c in range(1, l + 1):
            if c == r:
                row.append({0: g_var(c, 0), 1: Polynomial.constant(1)})
            elif c == r + 1:
                row.append({0: Polynomial.constant(-1)})
            elif c < r:
                row.append({0: g_var(c, r - c)})
            else:
                row.append({})
        rows.append(row)
    det = _lambda_det(rows)
    return det.get(l - k, Polynomial.zero())


@lru_cache(maxsize=None)
def g_from_c(i: int, j: int) -> Polynomial:
    """g_i[j] expressed in c-variables (grade j+1).

    Obtained by isolating the single-path term among the covers of the window
    [i, i+j] that reach its last vertex:
        g_i[j] = c_{j+1}(i+j) − c_{j+1}(i+j−1)
                 − Σ_{j'<j} c_{j−j'}(i+j−j'−1)·g_{i+j−j'}[j']
    and recursing on the (shorter) trailing paths.  Substituting
    c_k(l) := E_k(l) back in returns g_i[j] identically.

    >>> g_from_c(1, 0).to_text()
    'c1(1)'
    """
    if i < 1 or j < 0:
        return Polynomial.zero()
    out = c_var(j + 1, i + j) - c_var(j + 1, i + j - 1)
    for jp in range(j):
        out = out - c_var(j - jp, i + j - jp - 1) * g_from_c(i + j - jp, jp)
    return out


def universal_schubert_c(w: Perm) -> Polynomial:
    """𝔖_w(c) = Σ a_K·c_{k_1}(1)⋯c_{k_{n−1}}(n−1); homogeneous of grade length(w)."""
    return _fold(e_decomposition(w).coeffs, *_transition(len(w)).columns(c_var))


def universal_schubert_g(w: Perm) -> Polynomial:
    """𝔖_w(g) = Σ a_K·E_{k_1}(1)⋯E_{k_{n−1}}(n−1), which is 𝔖_w(c) with
    c_k(l) := E_k(l).  The fold runs over the E_k(p) packed once per n
    on its engine and is decoded on that packing.

    Not memoized, like `universal_schubert_c`: no library path reads a
    lift twice, and the lifts of a walk through S_n take far more memory
    than the memoized decompositions they are folded from."""
    return _fold(e_decomposition(w).coeffs, *_transition(len(w)).columns(path_poly))


def specialize_quantum(p: Polynomial) -> Polynomial:
    """g_i[0] ↦ x_i, g_i[1] ↦ q_i, g_i[j] ↦ 0 for j ≥ 2; other variables fixed."""
    asg = {}
    for v in p.variables():
        if v[0] != "g":
            continue
        if v[2] == 0:
            asg[v] = x_var(v[1])
        elif v[2] == 1:
            asg[v] = q_var(v[1])
        else:
            asg[v] = 0
    return p.substitute(asg)


def specialize_classical(p: Polynomial) -> Polynomial:
    """g_i[0] ↦ x_i, all other g to 0, all q to 0."""
    asg = {}
    for v in p.variables():
        if v[0] == "g":
            asg[v] = x_var(v[1]) if v[2] == 0 else 0
        elif v[0] == "q":
            asg[v] = 0
    return p.substitute(asg)


@lru_cache(maxsize=None)
def quantum_e(k: int, l: int) -> Polynomial:
    """e^q_k(l) = specialize_quantum(E_k(l)); grade k with q_i of grade 2.

    >>> quantum_e(2, 2).to_text()
    'x1·x2 + q1'
    """
    if l < 1:
        raise ValueError(f"alphabet size must be ≥ 1: {l}")
    return specialize_quantum(path_poly(k, l))


def quantum_schubert(w: Perm) -> Polynomial:
    """𝔖_w(x,q), lifted by transition on the Fl_n engine
    (`schubert._Transition.lift`) and memoized there per n.

    It equals Σ a_K·e^q_{k_1}(1)⋯e^q_{k_{n−1}}(n−1), the e-fold of 𝔖_w with
    e_k(p) ↦ e^q_k(p).  Setting q = 0 recovers schubert_poly(w) exactly.

    >>> quantum_schubert((3, 1, 2)).to_text()
    'x1^2 − q1'
    """
    w = validate(w)
    return _transition(len(w)).lift(w)


def kernel_chern_check(k: int, l: int) -> bool:
    """Verify (Σ_i E_i(k))·(Σ_i E_i(k+1,l)) = Σ_i E_i(l) in the quotient
    alphabet where g_i[j] := 0 whenever i < k+1 ≤ i+j ≤ l.

    The vanishing kills exactly the paths crossing the cut between vertex k
    and vertex k+1, which makes every surviving cover of [1, l] split.  Always
    true; a failure raises with the offending graded component.
    """
    if not 1 <= k <= l:
        raise ValueError(f"need 1 ≤ k ≤ l: ({k}, {l})")
    kill = {
        ("g", i, j): 0
        for i in range(1, l + 1)
        for j in range(0, l - i + 1)
        if i < k + 1 <= i + j <= l
    }
    total_low = Polynomial.zero()
    for i in range(0, k + 1):
        total_low = total_low + path_poly(i, k)
    total_range = Polynomial.zero()
    for i in range(0, l - k + 1):
        total_range = total_range + path_poly_range(i, k + 1, l)
    total_full = Polynomial.zero()
    for i in range(0, l + 1):
        total_full = total_full + path_poly(i, l)
    lhs = total_low.substitute(kill) * total_range.substitute(kill)
    rhs = total_full.substitute(kill)
    diff = lhs - rhs
    if diff.is_zero():
        return True
    bad = min(diff.grades())
    raise VerificationError(
        f"kernel Chern identity failed for (k,l)=({k},{l}) at grade {bad}: "
        f"{diff.homogeneous_component(bad).to_text()}"
    )
