"""Exact Schubert calculus on complete and partial flag manifolds.

Classical, quantum, and universal Schubert polynomials; quantum cohomology
products and Gromov–Witten structure constants; everything in exact integer
arithmetic.

The ring layer loads on first use.  `import qschubert` imports `perm`,
`poly`, `schubert` and `universal`; the names of `qring` (QuantumClass,
QuantumRing, RingError, quantum_product, gromov_witten, …) and of `partial`
(PartialRing, partial_ring, partial_quantum_product, partial_gw, …) import
their module the first time one of them is read, and are then bound here
like the others.  The deferral serves a process that imports `qschubert`
and never multiplies classes, such as the set-up of the `basis-cold`
benchmark workload: it pays for every module it imports, and without
bytecode caches compiles it.  The CLI does not defer: `qschubert.cli`
imports `qring` and `partial` when it loads, so every `qschubert` command
loads the ring layer, one that only builds Schubert polynomials too.
"""
from importlib import import_module

from .perm import (
    FlagShape,
    all_permutations,
    compose,
    dual,
    hyperquot_dim,
    identity,
    lemma_es_check,
    length,
    longest_element,
    rank_fn,
    reduced_word,
    sn_elements,
    transposition,
    validate,
)
from .poly import (
    EchelonSystem,
    NoSolutionError,
    NonIntegralError,
    Polynomial,
    SolveError,
    VerificationError,
    c_var,
    g_var,
    q_var,
    sigma_var,
    solve_linear_expansion,
    x_var,
)
from .schubert import (
    EDecomposition,
    divided_difference,
    e_decomposition,
    elementary_poly,
    schubert_poly,
)
from .universal import (
    g_from_c,
    kernel_chern_check,
    path_poly,
    path_poly_range,
    quantum_e,
    quantum_schubert,
    specialize_classical,
    specialize_quantum,
    universal_schubert_c,
    universal_schubert_g,
)
__version__ = "0.1.0"

# the names of the ring layer, by the module that defines them
_LAZY = dict.fromkeys((
    "QuantumClass",
    "QuantumRing",
    "RingError",
    "gromov_witten",
    "quantum_product",
    "quantum_ring",
), "qring") | dict.fromkeys((
    "PartialRing",
    "index_sets",
    "kernel_chern_partial_check",
    "kernel_chern_partial_report",
    "partial_gw",
    "partial_quantum_product",
    "partial_quantum_schubert",
    "partial_ring",
    "partial_universal_schubert_c",
    "tilde_E",
), "partial")

__all__ = [
    "FlagShape",
    "all_permutations",
    "compose",
    "dual",
    "hyperquot_dim",
    "identity",
    "lemma_es_check",
    "length",
    "longest_element",
    "rank_fn",
    "reduced_word",
    "sn_elements",
    "transposition",
    "validate",
    "EchelonSystem",
    "NoSolutionError",
    "NonIntegralError",
    "Polynomial",
    "SolveError",
    "VerificationError",
    "c_var",
    "g_var",
    "q_var",
    "sigma_var",
    "solve_linear_expansion",
    "x_var",
    "EDecomposition",
    "divided_difference",
    "e_decomposition",
    "elementary_poly",
    "schubert_poly",
    "g_from_c",
    "kernel_chern_check",
    "path_poly",
    "path_poly_range",
    "quantum_e",
    "quantum_schubert",
    "specialize_classical",
    "specialize_quantum",
    "universal_schubert_c",
    "universal_schubert_g",
    *_LAZY,
]


def __getattr__(name):
    """A name of the ring layer: import its module, and bind the name here
    so that later reads are plain lookups."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())
