"""Exact enumeration of monomial A-graded ideals, flip graphs and triangulations.

Everything runs over exact integer and rational arithmetic.  The central
objects: a pointed integer grading matrix, its Graver basis, the monomial
ideals sharing the Hilbert function of its toric ideal, the flip graph
connecting them, and the triangulations supported on their radicals.
"""

from .errors import (
    AgradedError,
    BadLength,
    CertificateError,
    ExponentOverflow,
    FormatError,
    GradingError,
    GuardExceeded,
    IncompleteGraph,
    IncompleteInput,
    InputError,
    NonHomogeneousInput,
    NotAGraded,
    NotApplicable,
    NotFlippable,
    NotFlippableComplex,
    NotPointed,
    RankDeficient,
    UnknownName,
)
from .grading import GradingMatrix, kernel_lattice, validate_grading
from .lp import lp_strict_feasible
from .monomials import (
    MonomialIdeal,
    fiber,
    k_polynomial,
    minimalize,
)
from .binomials import (
    Binomial,
    MarkedGB,
    buchberger,
    canonical_pair,
    initial_ideal,
    toric_ideal,
)
from .graver import GraverBasis, graver_basis, graver_oracle, is_circuit, lawrence_lifting
from .ideals import (
    AGradedContext,
    FlipMove,
    brute_force_enumerate,
    curve_binomial_families,
    curve_monomial_ideal,
    curve_parametric_family,
    curve_rows,
    definition_flip_ideal,
    flip,
    is_agraded,
    is_coherent,
    is_weakly_agraded,
    neighbors,
    special_ideals,
)
from .flipgraph import (
    FlipGraph,
    census,
    classify_labels,
    explore,
    from_json,
    to_dot,
    to_json,
    with_coherence,
)
from .triangulations import (
    BISTELLAR,
    SAME_RADICAL,
    VIOLATION,
    bistellar_flip,
    circuit_flip_spec,
    complex_of_radical,
    edge_transition,
    is_triangulation,
)
from .verify import verify_all

__version__ = "0.1.0"
