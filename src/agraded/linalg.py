"""Exact linear algebra over the integers.

Everything works on small dense integer matrices given as sequences of row
sequences; no floating point is used anywhere in this package.  ``pivot``
is the one row-elimination step: a fraction-free (Edmonds/Bareiss) pivot
that keeps every row over one common denominator with exact integer
division.  Gauss-Jordan elimination here and the simplex of ``lp`` both run
on it and hand back integer numerators over that denominator; only the
oracle ``solve_linear`` turns them into Fractions.
``integer_kernel_basis`` is the one kernel routine: a Z-basis of the
saturated kernel lattice, so a kernel line comes back as one primitive
vector spanning it.
"""

from fractions import Fraction
from operator import mul

from .errors import InputError


def dot(u, v):
    return sum(map(mul, u, v))


def mat_vec(rows, v):
    return tuple(dot(row, v) for row in rows)


def integer_rows(rows):
    """The rows as lists of ints of one length.

    InputError on rows of unequal length, which ``zip`` would cut, and on
    any entry other than an int, which ``//`` would floor.
    """
    rows = [list(row) for row in rows]
    if any(len(row) != len(rows[0]) for row in rows):
        raise InputError("exact elimination needs rows of one length")
    if not all(isinstance(x, int) for row in rows for x in row):
        raise InputError("exact elimination needs integer entries")
    return rows


def pivot(rows, r, c, den):
    """Fraction-free pivot on p = rows[r][c]; returns p, the new denominator.

    The integer rows stand for rows / den.  Each row other than r becomes
    (p * row - row[c] * rows[r]) // den; the division is exact because every
    entry is a minor of the starting integer matrix (Edmonds 1967).
    """
    p = rows[r][c]
    prow = rows[r]
    for i, row in enumerate(rows):
        if i != r:
            f = row[c]
            rows[i] = [(p * a - f * b) // den for a, b in zip(row, prow)]
    return p


def _gauss_jordan(rows, ncols):
    """Fraction-free Gauss-Jordan elimination on the first ncols columns.

    Returns (rows, pivot columns, den): the rows are den times the reduced
    row echelon form.
    """
    m = integer_rows(rows)
    pivots = []
    den = 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        den = pivot(m, r, c, den)
        pivots.append(c)
    return m, pivots, den


def rank(rows):
    """Rank over the rationals."""
    return len(_gauss_jordan(rows, len(rows[0]) if rows else 0)[1])


def solve_linear(rows, rhs):
    """Solve the square system rows . x = rhs exactly (rows invertible).

    Oracle: the kernel-lattice tests solve for lattice coordinates with it.
    """
    m, pivots, den = _gauss_jordan([list(row) + [b] for row, b in zip(rows, rhs)], len(rows))
    if len(pivots) != len(rows):
        raise InputError("singular system")
    return tuple(Fraction(row[-1], den) for row in m)


def gram_determinant(vectors):
    """det(B B^T) of the rows B, by fraction-free elimination.

    A Gram matrix of independent rows is positive definite, so every
    leading minor is positive, no row swap is needed and the last pivot is
    the determinant; 0 for dependent rows, 1 for none.
    """
    gram = [[dot(u, v) for v in vectors] for u in vectors]
    den = 1
    for r in range(len(gram)):
        if not gram[r][r]:
            return 0
        den = pivot(gram, r, r, den)
    return den


def lll_reduce(vectors):
    """LLL reduction (delta = 3/4) of linearly independent integer vectors.

    Cohen's integral LLL (A Course in Computational Algebraic Number
    Theory, Alg. 2.6.7): Gram-Schmidt data are kept as integers, d[i] the
    Gram determinant of the first i vectors and lam[k][j] = d[j+1] mu[k][j],
    updated on each size reduction and swap with exact divisions.  The
    vectors come back in the order the reduction leaves them.
    """
    b = [list(v) for v in vectors]
    n = len(b)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]

    def reduce(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = round(Fraction(lam[k][l], d[l + 1]))  # nearest, ties to even
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swap(k):
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        mu = lam[k][k - 1]
        new = (d[k - 1] * d[k + 1] + mu * mu) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - mu * t) // d[k]
            lam[i][k - 1] = (new * t + mu * lam[i][k]) // d[k + 1]
        d[k] = new

    k, kmax = 1, 0
    if n:
        d[1] = dot(b[0], b[0])
    while k < n:
        if k > kmax:  # Gram-Schmidt data of the new vector b[k]
            kmax = k
            for j in range(k + 1):
                u = dot(b[k], b[j])
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                else:
                    d[k + 1] = u
            if not d[k + 1]:
                raise InputError("LLL needs linearly independent vectors")
        reduce(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            swap(k)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return [tuple(v) for v in b]


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
