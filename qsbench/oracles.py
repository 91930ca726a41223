"""Correctness oracles that share no code with the qschubert package.

Permutations are tuples in one-line notation, as in the package.  A quantum
class is a dict (d, w) -> coefficient with d the tuple of q-exponents; a
polynomial in x_1..x_n is a dict exponent-tuple -> coefficient.  The formulas
are the textbook ones:

* the quantum Monk rule of Fomin–Gelfand–Postnikov for complete flags,
* the quantum Pieri rule for σ_1 on a Grassmannian (Bertram),
* Lascoux–Schützenberger transition for classical Schubert polynomials.
"""
from __future__ import annotations

from functools import lru_cache


def length(w) -> int:
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def swap(w, a: int, b: int) -> tuple:
    """w·t_ab: exchange the entries in positions a and b (1-indexed)."""
    w = list(w)
    w[a - 1], w[b - 1] = w[b - 1], w[a - 1]
    return tuple(w)


def dual(w) -> tuple:
    """w_0∘w, the Poincaré dual index in the complete flag manifold."""
    n = len(w)
    return tuple(n + 1 - a for a in w)


def _add(acc: dict, key, c: int) -> None:
    s = acc.get(key, 0) + c
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


# ---- quantum Monk rule ------------------------------------------------------


def monk(r: int, cls: dict) -> dict:
    """σ_{s_r} ∗ cls in QH*(Fl_n).

    σ_{s_r}∗σ_w = Σ σ_{w t_ab} over a ≤ r < b with ℓ(w t_ab) = ℓ(w) + 1,
    plus Σ q_a⋯q_{b−1}·σ_{w t_ab} over a ≤ r < b with
    ℓ(w t_ab) = ℓ(w) − 2(b − a) + 1.
    """
    out: dict = {}
    for (d, w), c in cls.items():
        n = len(w)
        lw = length(w)
        for a in range(1, r + 1):
            for b in range(r + 1, n + 1):
                u = swap(w, a, b)
                lu = length(u)
                if lu == lw + 1:
                    _add(out, (d, u), c)
                elif lu == lw - 2 * (b - a) + 1:
                    dd = tuple(
                        e + 1 if a <= i + 1 < b else e for i, e in enumerate(d)
                    )
                    _add(out, (dd, u), c)
    return out


def divisor_index(w):
    """r when w is the simple transposition s_r, else None."""
    moved = [i for i, a in enumerate(w, start=1) if a != i]
    if len(moved) == 2 and moved[1] == moved[0] + 1:
        return moved[0]
    return None


def monk_product(divisors, u) -> dict:
    """σ_{s_{r_1}} ∗ … ∗ σ_{s_{r_k}} ∗ σ_u by iterating the Monk rule."""
    n = len(u)
    cls = {((0,) * (n - 1), tuple(u)): 1}
    for r in divisors:
        cls = monk(r, cls)
    return cls


# ---- quantum Pieri rule on Gr(k, n) -----------------------------------------


def grass_partition(w, k: int) -> tuple:
    """Partition of a Grassmannian permutation with its descent at k."""
    return tuple(w[k - i] - (k + 1 - i) for i in range(1, k + 1))


def grass_perm(lam, k: int, n: int) -> tuple:
    first = [lam[k - i] + i for i in range(1, k + 1)]
    rest = [a for a in range(1, n + 1) if a not in first]
    return tuple(first + rest)


def pieri_sigma1(w, k: int, n: int) -> dict:
    """σ_1 ∗ σ_λ in QH*(Gr(k, n)), λ the partition of w.

    Classical part: every partition in the k × (n−k) box obtained by adding
    one box.  Quantum part: q·σ_{(λ_2−1,…,λ_k−1,0)} when λ_1 = n−k and
    λ_k ≥ 1 (the rim hook of length n can be removed).
    """
    lam = grass_partition(w, k)
    out: dict = {}
    for i in range(k):
        mu = list(lam)
        mu[i] += 1
        if mu[i] > n - k or (i > 0 and mu[i] > mu[i - 1]):
            continue
        out[((0,), grass_perm(mu, k, n))] = 1
    if lam[0] == n - k and lam[-1] >= 1:
        mu = tuple(p - 1 for p in lam[1:]) + (0,)
        out[((1,), grass_perm(mu, k, n))] = 1
    return out


# ---- Lascoux–Schützenberger transition ---------------------------------------


@lru_cache(maxsize=None)
def _transition(w: tuple) -> tuple:
    n = len(w)
    descents = [r for r in range(1, n) if w[r - 1] > w[r]]
    if not descents:
        return (((0,) * n, 1),)
    r = descents[-1]
    s = max(j for j in range(r + 1, n + 1) if w[j - 1] < w[r - 1])
    v = swap(w, r, s)
    out: dict = {}
    for mon, c in _transition(v):
        mon = list(mon)
        mon[r - 1] += 1
        _add(out, tuple(mon), c)
    lv = length(v)
    for i in range(1, r):
        u = swap(v, i, r)
        if length(u) == lv + 1:
            for mon, c in _transition(u):
                _add(out, mon, c)
    return tuple(sorted(out.items()))


def schubert_transition(w) -> dict:
    """𝔖_w as {exponent tuple: coefficient}, by the transition recursion
    𝔖_w = x_r·𝔖_v + Σ_{i<r, ℓ(v t_ir) = ℓ(w)} 𝔖_{v t_ir}, with r the last
    descent of w, s the last position after r with w(s) < w(r), v = w t_rs.
    """
    return dict(_transition(tuple(w)))
