"""Grading matrices with positivity certificates and kernel lattices.

A grading matrix is a d x n integer matrix A of rank d whose kernel meets
the nonnegative orthant only in 0.  That is witnessed by a rational vector
c with c^T A strictly positive, found by exact LP.  The certificate makes
every degree fiber finite, which is what all completions and enumerations
in this package rely on.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import GradingError, NotPointed, RankDeficient, certify
from .linalg import dot, integer_kernel_basis, mat_vec, primitive, rank
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

    @cached_property
    def _degrees(self):
        return {}

    def degree(self, u):
        """A . u as a length-d integer tuple, memoised per matrix."""
        u = tuple(u)
        deg = self._degrees.get(u)
        if deg is None:
            deg = self._degrees[u] = mat_vec(self.rows, u)
        return deg

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

    The positivity certificate c is found by solving (c^T A)_i >= 1 for all
    columns i exactly, then scaled to a primitive integer vector.
    """
    rows = _freeze(entries)
    d = len(rows)
    if rank(rows) != d:
        raise RankDeficient(f"matrix has rank below {d}")
    columns = [tuple(row[j] for row in rows) for j in range(len(rows[0]))]
    witness = lp_strict_feasible(columns, nvars=d)
    if witness is None:
        raise NotPointed("kernel meets the nonnegative orthant nontrivially")
    cert = primitive(witness)
    matrix = GradingMatrix(rows, cert)
    certify(all(w > 0 for w in matrix.certificate_weights),
            "positivity certificate is not strictly positive")
    return matrix


@dataclass(frozen=True)
class KernelBasis:
    """Z-basis of the saturated kernel lattice ker(A) in Z^n."""

    vectors: tuple


@lru_cache(maxsize=None)
def kernel_lattice(matrix):
    """Saturated integer kernel basis of a GradingMatrix."""
    basis = integer_kernel_basis(matrix.rows, matrix.n)
    certify(all(not any(matrix.degree(v)) for v in basis), "kernel vector of nonzero degree")
    certify(len(basis) == matrix.n - matrix.d, "kernel basis of the wrong rank")
    return KernelBasis(tuple(basis))


def positive_combination(matrix, vec):
    """Certificate pairing c . vec of a degree vector (may be negative)."""
    return dot(matrix.positive_certificate, vec)
