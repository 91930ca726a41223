"""Exact sparse multivariate polynomials over Z with graded, tagged variables.

Variable alphabet (tagged tuples):
    ("x", i)        grade 1
    ("q", i)        grade 2 by default; shape-dependent grades are supplied to
                    the grading helpers, never baked into the variable
    ("g", i, j)     grade j+1
    ("c", k, l)     grade k
    ("sigma", i, j) grade i

Monomial order: graded lexicographic.  The grade uses the default q-grade 2 so
serialization is context-free.  Within a grade, x1 > x2 > … > q1 > q2 > … and
g/c/sigma variables compare by (kind, indices).  The order is total and
multiplicative, which makes text/JSON output and echelon pivoting
deterministic.

A monomial is a tuple of (variable, exponent) pairs, sorted by the variable
order above, each variable at most once and every exponent positive; the
constant monomial is ().  Every constructor keeps this invariant;
`mon_mul` adds the exponents of two monomials in a dict and sorts the result.
Monomials rest in this tuple form everywhere but in the kernels of
`schubert`, which pack them into one int with a bit field per variable
(`_Packing`), all fields of one width, so that a monomial product is one int
addition.  The width must hold every exponent the kernel meets, so that no
field carries into the next.  A factor that a fold multiplies by is packed
grouped by coefficient, as ((c, packed monomials), …)
(`_Packing.pack_factor`), so the product kernel (`_packed_mul_into`) runs
an int addition and a dict update per term and multiplies coefficients
once per group.  A packed sum is decoded by one table lookup per chunk of
at most 8 fields (`_Packing.unpack`), two on every packing of S_6.
There are three packings:
  * the fold (`e_fold`) has one packing per call.  Its fields are as wide as
    the bit length of the sum, over the factor positions, of the largest
    exponent of any factor used there; no product of that call exceeds it.
    The sum is decoded once, at the end.
  * the path fold of `universal.universal_schubert_g` has one packing per n,
    over the g_i[j] with i ≥ 1 and i + j ≤ n − 1, built by the same helper
    as the per-call one (`schubert._pack_columns`) from every E_k(p),
    1 ≤ k ≤ p < n.  Each E_k(p) is squarefree and a product takes at most
    one factor from each of the n − 1 positions, so its fields hold n − 1.
    The engine of n keeps the packed E_k(p) and their decode tables for
    every fold of that n (`schubert._Transition.columns`), and the c_k(p)
    of `universal_schubert_c` the same way.
  * the Schubert engine (`schubert._Transition`) has one packing per n, over
    x_1,…,x_n, q_1,…,q_{n−1}, whose fields hold C(n, 2) (1 at n = 1),
    since a packing with variables refuses a bound below 1.  On it are the
    𝔖_w, each a divided difference of a memo entry one longer; the
    e_k(x_1,…,x_p) that the recombination check of `e_decomposition` folds;
    and the transition lifts 𝔖^q_w.  Every term that a divided difference,
    the check's fold or a lift of w ∈ S_n meets, cancelled ones included,
    has grade at most C(n, 2), with x of grade 1 and q of grade 2.  The lift
    never sets x_n, but ∂_{n−1} writes x_n terms that cancel only after the
    whole step, so x_n has a field.  The entries stay packed in the engine's
    memos, and `schubert_poly` and the lift decode the one asked for.  A
    lift node multiplies by x_r or q^d by adding its packed key, which the
    engine computes once per x_r and per edge.
A polynomial holds a dict monomial → nonzero coefficient.  Coefficients are
Python ints, and the only scalars that arithmetic accepts are ints: any other
scalar, a Fraction or a float among them, raises TypeError.
"""
from __future__ import annotations

import re
from math import gcd

Variable = tuple
Monomial = tuple

__all__ = [
    "Polynomial",
    "x_var",
    "q_var",
    "g_var",
    "c_var",
    "sigma_var",
    "var_grade",
    "mon_grade",
    "mon_mul",
    "mon_sort_key",
    "render_var",
    "solve_linear_expansion",
    "EchelonSystem",
    "SolveError",
    "NoSolutionError",
    "NonIntegralError",
    "VerificationError",
]


class VerificationError(Exception):
    """An exact identity that must hold failed to verify."""

_KIND_ORDER = {"x": 0, "q": 1, "g": 2, "c": 3, "sigma": 4}


def var_grade(v: Variable, q_grades=None) -> int:
    kind = v[0]
    if kind == "x":
        return 1
    if kind == "q":
        return 2 if q_grades is None else q_grades.get(v[1], 2)
    if kind == "g":
        return v[2] + 1
    if kind == "c":
        return v[1]
    if kind == "sigma":
        return v[1]
    raise ValueError(f"unknown variable kind: {v}")


def _var_key(v: Variable):
    return (_KIND_ORDER[v[0]],) + v[1:]


def _factor_key(pair):
    """The sort key of a (variable, exponent) pair of a monomial."""
    return _var_key(pair[0])


# an unassigned variable in `Polynomial._map_monomials`
_FIXED = object()


def mon_grade(mon: Monomial, q_grades=None) -> int:
    return sum(e * var_grade(v, q_grades) for v, e in mon)


def mon_mul(m1: Monomial, m2: Monomial) -> Monomial:
    """The product monomial: the exponents added, sorted by variable."""
    factors = dict(m1)
    for v, e in m2:
        factors[v] = factors.get(v, 0) + e
    return tuple(sorted(factors.items(), key=_factor_key))


def mon_sort_key(mon: Monomial):
    """Sorting by this key lists monomials in decreasing monomial order."""
    return (-mon_grade(mon), tuple((_var_key(v), -e) for v, e in mon))


def render_var(v: Variable) -> str:
    kind = v[0]
    if kind == "x":
        return f"x{v[1]}"
    if kind == "q":
        return f"q{v[1]}"
    if kind == "g":
        return f"g{v[1]}[{v[2]}]"
    if kind == "c":
        return f"c{v[1]}({v[2]})"
    if kind == "sigma":
        return f"s{v[1]}^{v[2]}"
    raise ValueError(f"unknown variable kind: {v}")


_MINUS = "−"
_DOT = "·"


class Polynomial:
    """Immutable-by-convention sparse polynomial with int coefficients; do
    not mutate `_terms`."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        self._terms = {mon: c for mon, c in terms.items() if c} if terms else {}

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def constant(cls, a) -> "Polynomial":
        return cls({(): a})

    @classmethod
    def variable(cls, v: Variable) -> "Polynomial":
        return cls({((v, 1),): 1})

    # ---- inspection ---------------------------------------------------

    def terms(self):
        """(monomial, coefficient) pairs in decreasing monomial order."""
        return sorted(self._terms.items(), key=lambda mc: mon_sort_key(mc[0]))

    def coefficient(self, mon: Monomial):
        return self._terms.get(mon, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def variables(self) -> set:
        return {v for mon in self._terms for v, _ in mon}

    def grades(self, q_grades=None) -> set:
        return {mon_grade(mon, q_grades) for mon in self._terms}

    def is_homogeneous(self, q_grades=None) -> bool:
        return len(self.grades(q_grades)) <= 1

    def grade(self, q_grades=None) -> int:
        """Grade of a homogeneous polynomial (0 for the zero polynomial)."""
        gs = self.grades(q_grades)
        if len(gs) > 1:
            raise ValueError(f"not homogeneous, grades {sorted(gs)}")
        return gs.pop() if gs else 0

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == Polynomial.constant(other)._terms
        return NotImplemented

    def __repr__(self):
        return f"Polynomial({self.to_text()})"

    # ---- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        out = dict(self._terms)
        for mon, coeff in other._terms.items():
            s = out.get(mon, 0) + coeff
            if s:
                out[mon] = s
            else:
                out.pop(mon, None)
        res = Polynomial.__new__(Polynomial)
        res._terms = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = Polynomial.__new__(Polynomial)
        res._terms = {mon: -coeff for mon, coeff in self._terms.items()}
        return res

    def __sub__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return Polynomial.zero()
            res = Polynomial.__new__(Polynomial)
            res._terms = {mon: coeff * other for mon, coeff in self._terms.items()}
            return res
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = {}
        # iterate over the smaller factor outside for fewer mon_mul calls
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                mon = mon_mul(m1, m2)
                s = out.get(mon, 0) + c1 * c2
                if s:
                    out[mon] = s
                else:
                    del out[mon]
        res = Polynomial.__new__(Polynomial)
        res._terms = out
        return res

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # ---- structure ----------------------------------------------------

    def substitute(self, assignment) -> "Polynomial":
        """Replace variables per `assignment` (variable → Polynomial or int).

        Unassigned variables are left fixed.  Ring homomorphism.  When every
        value has at most one term, each monomial maps to one monomial or to
        nothing (`_map_monomials`); else the powers of the values are
        multiplied out (`_expand`).
        """
        if not assignment:
            return self
        asg = {
            v: (p if isinstance(p, Polynomial) else Polynomial.constant(p))
            for v, p in assignment.items()
        }
        if all(len(p._terms) <= 1 for p in asg.values()):
            return self._map_monomials(asg)
        return self._expand(asg)

    def _map_monomials(self, asg: dict) -> "Polynomial":
        """`substitute` for values v ↦ c·m of one term or 0: a monomial with
        a variable sent to 0 goes, and any other maps to one monomial, with
        m^e for each v^e in it and its coefficient times c^e, sorted once."""
        images = {v: next(iter(p._terms.items()), None) for v, p in asg.items()}
        acc = {}
        for mon, coeff in self._terms.items():
            factors = {}
            for v, e in mon:
                image = images.get(v, _FIXED)
                if image is _FIXED:
                    factors[v] = factors.get(v, 0) + e
                    continue
                if image is None:
                    break
                m, c = image
                coeff *= c ** e
                for u, k in m:
                    factors[u] = factors.get(u, 0) + k * e
            else:
                key = tuple(sorted(factors.items(), key=_factor_key))
                acc[key] = acc.get(key, 0) + coeff
        return Polynomial(acc)

    def _expand(self, asg: dict) -> "Polynomial":
        """`substitute` for any Polynomial values: each monomial times the
        product of the powers of its variables' values."""
        power_cache = {}

        def powered(v, e):
            key = (v, e)
            got = power_cache.get(key)
            if got is None:
                got = power_cache[key] = asg[v] ** e
            return got

        acc = {}
        for mon, coeff in self._terms.items():
            fixed = []
            replaced = None
            dead = False
            for v, e in mon:
                if v in asg:
                    piece = powered(v, e)
                    replaced = piece if replaced is None else replaced * piece
                    if replaced.is_zero():
                        dead = True
                        break
                else:
                    fixed.append((v, e))
            if dead:
                continue
            base = tuple(fixed)
            if replaced is None:
                acc[base] = acc.get(base, 0) + coeff
            else:
                for m2, c2 in replaced._terms.items():
                    m = mon_mul(base, m2)
                    acc[m] = acc.get(m, 0) + coeff * c2
        return Polynomial(acc)

    def homogeneous_component(self, grade: int, q_grades=None) -> "Polynomial":
        res = Polynomial.__new__(Polynomial)
        res._terms = {
            mon: coeff
            for mon, coeff in self._terms.items()
            if mon_grade(mon, q_grades) == grade
        }
        return res

    # ---- rendering ----------------------------------------------------

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for mon, coeff in self.terms():
            factors = []
            for v, e in mon:
                base = render_var(v)
                if e == 1:
                    factors.append(base)
                elif "^" in base:
                    factors.append(f"({base})^{e}")
                else:
                    factors.append(f"{base}^{e}")
            body = _DOT.join(factors)
            mag = abs(coeff)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}{_DOT}{body}"
            pieces.append((coeff < 0, text))
        first_neg, first = pieces[0]
        out = (_MINUS + first) if first_neg else first
        for neg, text in pieces[1:]:
            out += f" {_MINUS} {text}" if neg else f" + {text}"
        return out

    def to_json_obj(self) -> list:
        out = []
        for mon, coeff in self.terms():
            out.append(
                {
                    "coeff": str(coeff),
                    "monomial": [
                        {"kind": v[0], "indices": list(v[1:]), "exp": e} for v, e in mon
                    ],
                }
            )
        return out

    @classmethod
    def from_json_obj(cls, obj) -> "Polynomial":
        """Inverse of `to_json_obj`.  Factors may come in any order; a
        repeated variable has its exponents added and an exponent 0 is
        dropped, so the monomials are canonical.  A coefficient is an int or
        the decimal string that `to_json_obj` writes, indices and exponents
        are ints, and exponents are ≥ 0; else TypeError or ValueError."""
        terms = {}
        for entry in obj:
            factors = {}
            for f in entry["monomial"]:
                v = (f["kind"],) + tuple(_json_int(i) for i in f["indices"])
                e = _json_int(f["exp"])
                if e < 0:
                    raise ValueError(f"negative exponent {e} of {render_var(v)}")
                factors[v] = factors.get(v, 0) + e
            mon = tuple(sorted(((v, e) for v, e in factors.items() if e),
                               key=_factor_key))
            c = entry["coeff"]
            c = int(c) if c.__class__ is str and _DECIMAL.fullmatch(c) else c
            terms[mon] = terms.get(mon, 0) + _json_int(c)
        return cls(terms)


_DECIMAL = re.compile(r"-?(?:0|[1-9][0-9]*)")  # an int as `str` writes it


def _json_int(value) -> int:
    """value if it is an int; a float or a bool raises TypeError."""
    if value.__class__ is not int:
        raise TypeError(f"not an integer: {value!r}")
    return value


# ---- packed monomials, inside the folds and the Schubert engine ----


# the most fields that one decode table of `_Packing.unpack` covers: a wider
# chunk takes fewer lookups per monomial, but its table can hold more values
_CHUNK_FIELDS = 8


class _Chunk(dict):
    """The table of one chunk of a `_Packing`'s fields: chunk value → the
    pair tuple it stands for, seeded with 0 → () and filled on a miss from
    one shared (variable, exponent) pair per field value (`fields`)."""

    __slots__ = ("_fields", "_width")

    def __init__(self, fields: list, width: int):
        super().__init__({0: ()})
        self._fields = fields
        self._width = width

    def __missing__(self, part: int) -> tuple:
        width = self._width
        mask = (1 << width) - 1
        pairs, rest = [], part
        for values in self._fields:
            if rest & mask:
                pairs.append(values[rest & mask])
            rest >>= width
            if not rest:
                break
        got = self[part] = tuple(pairs)
        return got


class _Packing:
    """Monomials as ints, one bit field per variable of a fixed list.

    The fields are laid out in the given variable order, the first variable
    lowest, which must be the monomial order, and all have the width of the
    bit length of `bound`.  The caller picks a bound that no exponent of any
    monomial it packs or forms can exceed, so no field carries into the
    next: the product of two packed monomials is their sum.  A bound below
    1 with variables to hold, and an exponent above the bound in `pack`,
    raise ValueError; `key` and the products that callers form on packed
    monomials are not checked.

    `unpack` turns a packed sum back into a Polynomial with canonical tuple
    monomials.  The F fields are cut into max(2, ⌈F/_CHUNK_FIELDS⌉) chunks
    of ⌈F/chunks⌉ fields each, the last ones maybe fewer or none, and each
    chunk has a table (`_Chunk`) from its value to the pair tuple it
    stands for, seeded with 0 → () and filled on a miss.  So every monomial
    is decoded by the same lookups, one per chunk, whichever of its chunks
    are empty: two up to 2·_CHUNK_FIELDS fields, which covers both
    packings of S_6 and the engine's up to S_8.  A table holds one entry
    per chunk value met, so it never exceeds the number of distinct
    monomials decoded, nor (bound + 1) to the power of its chunk's fields.
    """

    __slots__ = ("_bound", "_width", "_shifts", "_mask", "_tables")

    def __init__(self, order, bound: int):
        if order and bound < 1:
            raise ValueError(f"a packing with variables needs a bound ≥ 1: "
                             f"{bound}")
        self._bound = bound
        self._width = width = bound.bit_length()
        self._shifts = {v: i * width for i, v in enumerate(order)}
        # per field, its (variable, exponent) pair at each exponent
        pairs = [[None] + [(v, e) for e in range(1, bound + 1)] for v in order]
        chunks = max(-(-len(order) // _CHUNK_FIELDS), 2)
        span = -(-len(order) // chunks)  # fields per chunk
        self._mask = (1 << span * width) - 1
        # per chunk, the shift of its lowest field and its table
        self._tables = [(j * span * width,
                         _Chunk(pairs[j * span:(j + 1) * span], width))
                        for j in range(chunks)]

    def key(self, mon: Monomial) -> int:
        """The packed form of a monomial whose variables are all in the
        order and whose exponents do not exceed the bound."""
        shifts = self._shifts
        return sum(e << shifts[v] for v, e in mon)

    def pack(self, p: Polynomial) -> dict:
        """{packed monomial: coefficient} of p, with every monomial as `key`
        requires; an exponent above the bound raises ValueError."""
        bound = self._bound
        if any(e > bound for mon in p._terms for _, e in mon):
            raise ValueError(f"an exponent exceeds the packing bound {bound}")
        return {self.key(mon): c for mon, c in p._terms.items()}

    def pack_factor(self, p: Polynomial) -> tuple:
        """p packed as by `pack` and grouped by coefficient, as
        ((c, packed monomials), …): a factor of `_packed_mul_into`."""
        groups = {}
        for m, c in self.pack(p).items():
            groups.setdefault(c, []).append(m)
        return tuple((c, tuple(keys)) for c, keys in groups.items())

    def unpack(self, terms: dict) -> Polynomial:
        """The Polynomial of a packed {monomial: coefficient} dict; zero
        coefficients are dropped."""
        mask = self._mask
        (_, low), (shift, high), *more = self._tables
        res = Polynomial.__new__(Polynomial)
        if not more:
            res._terms = {low[m & mask] + high[m >> shift & mask]: c
                          for m, c in terms.items() if c}
            return res
        # past two chunks, one pass per further chunk extends the pairs of
        # every monomial
        keys = [m for m, c in terms.items() if c]
        mons = [low[m & mask] + high[m >> shift & mask] for m in keys]
        for shift, table in more:
            mons = [pairs + table[m >> shift & mask]
                    for pairs, m in zip(mons, keys)]
        res._terms = dict(zip(mons, map(terms.__getitem__, keys)))
        return res


def _packed_mul_into(out: dict, part: dict, factor: tuple) -> dict:
    """out += part·factor on packed monomials of one packing, part a
    {monomial: coefficient} dict and factor grouped by coefficient as
    ((c, monomials), …) (`_Packing.pack_factor`); returns out.  Zero terms
    of part are skipped, and cancelled terms stay in out with coefficient
    0, so a fold need not filter its partial sums."""
    get = out.get
    for m1, c1 in part.items():
        if c1:
            for c, keys in factor:
                c *= c1
                for m in keys:
                    m += m1
                    out[m] = get(m, 0) + c
    return out


# ---- variable builders (out-of-convention indices collapse to 0 or 1) ----


def x_var(i: int) -> Polynomial:
    if i < 1:
        raise ValueError(f"x index must be ≥ 1: {i}")
    return Polynomial.variable(("x", i))


def q_var(i: int) -> Polynomial:
    if i < 1:
        raise ValueError(f"q index must be ≥ 1: {i}")
    return Polynomial.variable(("q", i))


def g_var(i: int, j: int) -> Polynomial:
    """g_i[j]; identified with 0 when i < 1 or j < 0."""
    if i < 1 or j < 0:
        return Polynomial.zero()
    return Polynomial.variable(("g", i, j))


def c_var(k: int, l: int) -> Polynomial:
    """c_k(l); c_0(l) = 1 and c_k(l) = 0 when k < 0, k > l or l < 0."""
    if k == 0:
        return Polynomial.constant(1)
    if k < 0 or l < 0 or k > l:
        return Polynomial.zero()
    return Polynomial.variable(("c", k, l))


def sigma_var(i: int, j: int) -> Polynomial:
    if i < 1 or j < 1:
        raise ValueError(f"sigma indices must be ≥ 1: ({i}, {j})")
    return Polynomial.variable(("sigma", i, j))


# ---- exact linear expansion: a public reference no library path runs ------


class SolveError(Exception):
    """Base class for linear-expansion failures."""


class NoSolutionError(SolveError):
    """Target is not in the span of the generators."""


class NonIntegralError(SolveError):
    """The target is in the span, but only with a scale t > 1 that does not
    divide every coefficient."""


class EchelonSystem:
    """Fraction-free integer row echelon with transformation tracking.

    The M distinct monomials of the generators are ranked once, at build, in
    decreasing monomial order, and rows are dicts keyed by rank: a row's
    leading monomial is its smallest key.  Keys M + j are bookkeeping columns
    recording the combination of input generators each row equals, so a
    smallest key ≥ M means the polynomial part has vanished.  The bookkeeping
    columns participate in content stripping, which keeps every entry an
    integer.  Reduction of a target returns integers only: a scale t and the
    coefficients of t·target.  Neither `reduce` nor `solve` mutates the
    system, so threads may share one.
    """

    def __init__(self, generators):
        self.num_generators = len(generators)
        self.pivots = {}
        self.dependent_indices = []
        mons = set()
        for gen in generators:
            for coeff in gen._terms.values():
                if coeff.__class__ is not int:
                    raise ValueError("generators must have integer coefficients")
            mons.update(gen._terms)
        # rank → monomial and monomial → rank; a pivot only ever holds
        # generator monomials, so these are all the sort keys elimination needs
        self._monomials = sorted(mons, key=mon_sort_key)
        self._rank = rank = {mon: r for r, mon in enumerate(self._monomials)}
        width = len(rank)
        for j, gen in enumerate(generators):
            row = {rank[mon]: coeff for mon, coeff in gen._terms.items()}
            row[width + j] = 1
            lead = self._eliminate(row)
            if lead is None:
                self.dependent_indices.append(j)
            else:
                self._install(lead, row)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @staticmethod
    def _strip_content(row, sign_key=None, leftover=None):
        """Divide `row`, and the `leftover` that shares its scale, by their
        common content; with `sign_key`, also make row[sign_key] positive."""
        content = 0
        for v in row.values():
            content = gcd(content, v)
            if content == 1:
                break
        if content > 1 and leftover:
            for v in leftover.values():
                content = gcd(content, v)
                if content == 1:
                    break
        if sign_key is not None and row.get(sign_key, 1) < 0:
            content = -content
        if content not in (0, 1):
            for k in row:
                row[k] //= content
            if leftover:
                for k in leftover:
                    leftover[k] //= content

    def _eliminate(self, row, leftover=None):
        """Reduce `row` against the current pivots; return its pivot rank or
        None when the polynomial part vanishes.

        Without `leftover`, the first lead with no pivot stops the loop.
        With a `leftover` dict (monomial → coefficient), such a lead moves
        there and elimination goes on until the polynomial part vanishes;
        the leftover is scaled with the row and shares its content."""
        width = len(self._monomials)
        pivots = self.pivots
        while True:
            lead = min(row)
            if lead >= width:
                return None
            pivot = pivots.get(lead)
            if pivot is None:
                if leftover is None:
                    return lead
                leftover[self._monomials[lead]] = row.pop(lead)
                continue
            a = row[lead]
            b = pivot[lead]
            if b != 1:
                for k in row:
                    row[k] *= b
                if leftover:
                    for k in leftover:
                        leftover[k] *= b
            for k, v in pivot.items():
                s = row.get(k, 0) - a * v
                if s:
                    row[k] = s
                else:
                    del row[k]
            self._strip_content(row, leftover=leftover)

    def _install(self, lead, row):
        self._strip_content(row, sign_key=lead)
        self.pivots[lead] = row

    def reduce(self, target: Polynomial):
        """Express a multiple of target over the generators.

        Returns (t, coeffs, leftover) in integers: t ≥ 1, coeffs is a dict
        generator-index → nonzero int, and t·target = Σ coeffs[j]·gen_j +
        leftover.  The leftover holds no pivot monomial; it is the zero
        polynomial exactly when target is in the span.  A target monomial
        that no generator holds can meet no pivot, so it goes to the leftover
        at once; it is scaled with the row and shares its content.
        """
        rank = self._rank
        width = len(self._monomials)
        row = {}
        leftover_terms = {}
        for mon, coeff in target._terms.items():
            if coeff.__class__ is not int:
                raise ValueError("target must have integer coefficients")
            r = rank.get(mon)
            if r is None:
                leftover_terms[mon] = coeff
            else:
                row[r] = coeff
        t_key = width + self.num_generators
        row[t_key] = 1
        self._eliminate(row, leftover_terms)
        # elimination keeps poly(row) + leftover = t·target + Σ row[M + j]·gen_j,
        # and the polynomial part of the row is now empty
        t = row.pop(t_key)
        coeffs = {k - width: -v for k, v in row.items()}
        return t, coeffs, Polynomial(leftover_terms)

    def solve(self, target: Polynomial) -> tuple:
        """Integer coefficients c with target = Σ c_j·generator_j, one int
        per generator: the canonical echelon solution.

        Raises NoSolutionError when the target is outside the span and
        NonIntegralError when the scale t of `reduce` does not divide every
        coefficient.  Dependent generators, listed in `dependent_indices`,
        receive coefficient 0.
        """
        t, coeffs, leftover = self.reduce(target)
        if not leftover.is_zero():
            raise NoSolutionError(
                f"target not in generator span; leftover leading term {leftover.terms()[0]}"
            )
        out = []
        for j in range(self.num_generators):
            c, r = divmod(coeffs.get(j, 0), t)
            if r:
                raise NonIntegralError(
                    f"coefficient of generator {j} is {coeffs[j]}/{t}")
            out.append(c)
        return tuple(out)


def solve_linear_expansion(target: Polynomial, generators) -> tuple:
    """Integer coefficients c with target = Σ c_i·generators[i], as a tuple
    of ints; see `EchelonSystem.solve` for the errors.  The dependent
    generators are on `EchelonSystem(generators).dependent_indices`."""
    return EchelonSystem(list(generators)).solve(target)
