"""Grading matrices with positivity certificates and kernel lattices.

A grading matrix is a d x n integer matrix A of rank d whose kernel meets
the nonnegative orthant only in 0.  That is witnessed by an integer vector
c with c^T A strictly positive, found by exact LP.  The certificate makes
every degree fiber finite, which is what all completions and enumerations
in this package rely on.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import BadLength, GradingError, NotPointed, RankDeficient, certify
from .linalg import (
    dot, gram_determinant, integer_kernel_basis, lll_reduce, mat_vec, rank,
)
from .lp import lp_strict_feasible


@dataclass(frozen=True)
class GradingMatrix:
    """Validated d x n integer grading matrix."""

    rows: tuple
    positive_certificate: tuple  # integer vector c with c^T A > 0 componentwise

    @property
    def d(self):
        return len(self.rows)

    @property
    def n(self):
        return len(self.rows[0])

    # derived values, computed once; they are not fields, so hashing and
    # equality see only rows and certificate
    @cached_property
    def certificate_weights(self):
        """The strictly positive integer row c^T A."""
        return tuple(dot(self.positive_certificate, col) for col in self.columns)

    @cached_property
    def columns(self):
        return tuple(tuple(row[j] for row in self.rows) for j in range(self.n))

    @cached_property
    def nonnegative(self):
        return all(all(x >= 0 for x in row) for row in self.rows)

    def degree(self, u):
        """A . u as a length-d integer tuple; BadLength unless u has n entries."""
        if len(u) != len(self.rows[0]):
            raise BadLength(f"{tuple(u)} needs {self.n} entries")
        return mat_vec(self.rows, u)

    def __repr__(self):
        return f"GradingMatrix({list(map(list, self.rows))})"


def _freeze(entries):
    rows = tuple(tuple(row) for row in entries)
    if not all(isinstance(x, int) for row in rows for x in row):
        raise GradingError("a grading matrix needs integer entries")
    if not rows or not rows[0]:
        raise GradingError("empty matrix")
    if any(len(row) != len(rows[0]) for row in rows):
        raise GradingError("ragged matrix")
    return rows


def validate_grading(entries):
    """Build a GradingMatrix, or raise RankDeficient / NotPointed.

    The positivity certificate c is the primitive integer vector that
    ``lp_strict_feasible`` returns for (c^T A)_i >= 1 over all columns i.
    """
    rows = _freeze(entries)
    d = len(rows)
    if rank(rows) != d:
        raise RankDeficient(f"matrix has rank below {d}")
    columns = [tuple(row[j] for row in rows) for j in range(len(rows[0]))]
    witness = lp_strict_feasible(columns, nvars=d)
    if witness is None:
        raise NotPointed("kernel meets the nonnegative orthant nontrivially")
    matrix = GradingMatrix(rows, witness)
    certify(all(w > 0 for w in matrix.certificate_weights),
            "positivity certificate is not strictly positive")
    return matrix


@lru_cache(maxsize=None)
def kernel_lattice(matrix):
    """LLL-reduced basis (delta = 3/4) of the integer kernel of a GradingMatrix.

    A tuple of n - d integer vectors, a Z-basis of the saturated lattice
    ker(A) in Z^n, in the order the reduction leaves them, not sorted.
    ``linalg.lll_reduce`` reduces the saturated basis of
    ``integer_kernel_basis``.  Short, nearly orthogonal vectors make a
    cheaper start for ``binomials.toric_ideal``: its Lawrence saturations
    (the Graver route) run about 3x faster.  The order LLL leaves is kept,
    because the saturation vector of ``toric_ideal`` is built greedily in
    basis order; sorting the reduced basis gave back most of the gain.

    Certified: every vector has degree zero, there are n - d of them, and
    their Gram determinant equals that of the saturated basis.  Since the
    reduced vectors lie in ker_Z(A), equal determinants make them a basis
    of the same lattice.
    """
    saturated = integer_kernel_basis(matrix.rows, matrix.n)
    basis = lll_reduce(saturated)
    certify(all(not any(matrix.degree(v)) for v in basis), "kernel vector of nonzero degree")
    certify(len(basis) == matrix.n - matrix.d, "kernel basis of the wrong rank")
    certify(gram_determinant(basis) == gram_determinant(saturated) > 0,
            "reduced kernel basis spans another lattice")
    return tuple(basis)


def positive_combination(matrix, vec):
    """Certificate pairing c . vec of a degree vector (may be negative)."""
    return dot(matrix.positive_certificate, vec)
