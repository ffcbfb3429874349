"""Exact linear algebra over the integers and rationals.

Everything works on small dense matrices given as sequences of row
sequences.  All arithmetic uses Python ints and fractions.Fraction; no
floating point is used anywhere in this package.
"""

from fractions import Fraction
from math import gcd

from .errors import InputError


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def mat_vec(rows, v):
    return tuple(dot(row, v) for row in rows)


def _gauss_jordan(rows, ncols):
    """Gauss-Jordan elimination over the rationals on the first ncols columns.

    Returns (reduced rows, pivot columns, signed product of the pivots); the
    product is the determinant when the matrix is square and of full rank.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    det = Fraction(1)
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            det = -det
        det *= m[r][c]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots, det


def rank(rows):
    """Rank over the rationals."""
    return len(_gauss_jordan(rows, len(rows[0]) if rows else 0)[1])


def det(rows):
    """Determinant over the rationals (exact)."""
    _, pivots, value = _gauss_jordan(rows, len(rows))
    return value if len(pivots) == len(rows) else Fraction(0)


def primitive(vec):
    """Scale a rational vector to a primitive integer vector.

    The result has coprime entries and positive first nonzero entry.
    """
    fracs = [Fraction(x) for x in vec]
    if all(f == 0 for f in fracs):
        return tuple(0 for _ in fracs)
    scale = 1
    for f in fracs:
        scale = scale * f.denominator // gcd(scale, f.denominator)
    ints = [int(f * scale) for f in fracs]
    g = 0
    for x in ints:
        g = gcd(g, x)
    ints = [x // g for x in ints]
    lead = next(x for x in ints if x)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def solve_linear(rows, rhs):
    """Solve the square system rows . x = rhs exactly (rows invertible)."""
    m, pivots, _ = _gauss_jordan([list(row) + [b] for row, b in zip(rows, rhs)], len(rows))
    if len(pivots) != len(rows):
        raise InputError("singular system")
    return tuple(row[-1] for row in m)


def rational_nullspace(rows, ncols):
    """Basis of the rational nullspace {x : rows . x = 0} in Q^ncols."""
    m, pivots, _ = _gauss_jordan(rows, ncols)
    basis = []
    for c in range(ncols):
        if c in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[c] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = -m[i][c]
        basis.append(tuple(vec))
    return basis


def integer_kernel_basis(rows, ncols):
    """Z-basis of the saturated integer kernel lattice of a row matrix.

    Column-reduces with unimodular column operations, mirroring them on an
    identity matrix; the mirror columns over the zero columns of the reduced
    matrix form the basis.  Unimodularity makes the lattice saturated.
    """
    m = [list(row) for row in rows]
    u = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def swap(j, k):
        for row in m:
            row[j], row[k] = row[k], row[j]
        for row in u:
            row[j], row[k] = row[k], row[j]

    def addmul(j, k, q):
        # column j += q * column k
        for row in m:
            row[j] += q * row[k]
        for row in u:
            row[j] += q * row[k]

    col = 0
    for r in range(len(m)):
        piv = next((j for j in range(col, ncols) if m[r][j]), None)
        if piv is None:
            continue
        swap(col, piv)
        for j in range(col + 1, ncols):
            while m[r][j]:
                q = m[r][j] // m[r][col]
                addmul(j, col, -q)
                if m[r][j]:
                    swap(col, j)
        col += 1
    basis = []
    for j in range(col, ncols):
        vec = tuple(u[i][j] for i in range(ncols))
        lead = next((x for x in vec if x), None)
        if lead is not None and lead < 0:
            vec = tuple(-x for x in vec)
        basis.append(vec)
    return sorted(basis)
