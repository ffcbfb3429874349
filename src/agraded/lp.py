"""Exact rational linear feasibility.

Two exact phase-one simplex solvers cover every system in this package:

* ``lp_strict_feasible`` decides row . w >= 1 for all rows of a system with
  few variables and many rows.  By Gordan duality this holds iff the origin
  is outside the convex hull of the rows, so the simplex runs on the tiny
  dual system {sum y_j r_j = 0, sum y_j = 1, y >= 0}; the dual prices of
  the phase-one optimum, read off its final cost row, yield an exact
  primal witness, and a zero optimum leaves a y that certifies
  infeasibility.
* ``nonneg_feasible`` decides E z = b with z >= 0 directly (used with the
  substitution x = 1 + z for systems whose variables are all >= 1).

Both run Bland's rule over Fractions, so they terminate and are exact; all
witnesses, and the certificate behind a None from ``lp_strict_feasible``,
are re-checked before being returned, and one that fails its check raises
CertificateError.
"""

from fractions import Fraction

from .errors import InputError, certify

ZERO = Fraction(0)
ONE = Fraction(1)


def _phase1(columns, rhs):
    """Minimise the artificial sum for {A y = b, y >= 0}.

    ``columns`` lists the columns of A; ``rhs`` must be componentwise
    nonnegative.  Returns (optimum, y, pi) where y is the final basic
    solution over the original variables and pi the dual price vector.
    """
    m = len(rhs)
    nvars = len(columns)
    tableau = [
        [Fraction(columns[j][i]) for j in range(nvars)]
        + [ONE if k == i else ZERO for k in range(m)]
        + [Fraction(rhs[i])]
        for i in range(m)
    ]
    basis = [nvars + i for i in range(m)]
    width = nvars + m
    cost = [ZERO] * (width + 1)
    for row in tableau:
        for j in range(width + 1):
            cost[j] -= row[j]
    for k in range(m):
        cost[nvars + k] = ZERO

    while True:
        enter = next((j for j in range(width) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        certify(leave is not None, "phase-one ratio test cannot fail")
        piv = tableau[leave][enter]
        inv = 1 / piv
        tableau[leave] = [a * inv for a in tableau[leave]]
        for i in range(m):
            if i != leave and tableau[i][enter]:
                f = tableau[i][enter]
                tableau[i] = [a - f * b for a, b in zip(tableau[i], tableau[leave])]
        if cost[enter]:
            f = cost[enter]
            cost = [a - f * b for a, b in zip(cost, tableau[leave])]
        basis[leave] = enter

    optimum = -cost[-1]
    y = [ZERO] * nvars
    for i, b in enumerate(basis):
        if b < nvars:
            y[b] = tableau[i][-1]
    # dual prices: the cost row holds the reduced costs c_j - pi . A_j, and
    # artificial column k has cost 1 and column e_k
    pi = tuple(ONE - cost[nvars + k] for k in range(m))
    return optimum, tuple(y), pi


def lp_strict_feasible(rows, nvars=None):
    """Witness w with row . w >= 1 for every row, or None if infeasible.

    The empty system is feasible with w = 0 (nvars then required).
    """
    rows = [tuple(Fraction(a) for a in row) for row in rows]
    if nvars is None:
        if not rows:
            raise InputError("empty system needs an explicit dimension")
        nvars = len(rows[0])
    if not rows:
        return tuple(ZERO for _ in range(nvars))
    columns = [row + (ONE,) for row in rows]  # dual variable per row
    rhs = [ZERO] * nvars + [ONE]
    optimum, y, pi = _phase1(columns, rhs)
    if optimum == 0:
        certify(all(x >= 0 for x in y) and sum(y) == 1
                and not any(sum(x * row[i] for x, row in zip(y, rows)) for i in range(nvars)),
                "infeasibility certificate is not a convex combination giving 0")
        return None
    witness = tuple(-pi[i] / optimum for i in range(nvars))
    certify(all(sum(a * w for a, w in zip(row, witness)) >= 1 for row in rows),
            "strict-feasibility witness fails a row")
    return witness


def nonneg_feasible(eq_rows, rhs):
    """Some z >= 0 with eq_rows . z = rhs, or None."""
    if not eq_rows:
        raise InputError("need at least one equation")
    eq_rows = [tuple(Fraction(a) for a in row) for row in eq_rows]
    rhs = [Fraction(b) for b in rhs]
    flipped = [row if b >= 0 else tuple(-a for a in row) for row, b in zip(eq_rows, rhs)]
    flipped_rhs = [b if b >= 0 else -b for b in rhs]
    columns = list(zip(*flipped)) if flipped else []
    optimum, z, _ = _phase1(columns, flipped_rhs)
    if optimum != 0:
        return None
    certify(all(sum(a * x for a, x in zip(row, z)) == b for row, b in zip(eq_rows, rhs))
            and all(x >= 0 for x in z), "nonnegative solution fails its system")
    return z
