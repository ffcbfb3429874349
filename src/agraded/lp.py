"""Exact rational linear feasibility: one phase-one simplex.

``lp_strict_feasible`` decides row . w >= 1 for all rows of an integer
system with few variables and many rows.  By Gordan duality this holds iff
the origin is outside the convex hull of the rows, so the simplex runs on
the tiny dual system {sum y_j r_j = 0, sum y_j = 1, y >= 0}.  The dual
prices of the phase-one optimum, read off its final cost row, yield an
exact primal witness; a zero optimum leaves a y that certifies
infeasibility.  Both answers are re-checked in integers, once their
denominators are cleared, and one that fails its check raises
CertificateError.

The tableau is integer: ``linalg.pivot`` keeps it over one common positive
denominator, and Bland's rule makes the simplex terminate.
"""

from fractions import Fraction

from .errors import InputError, certify
from .linalg import clear_denominators, dot, integer_rows, pivot


def _phase1(columns, rhs):
    """Minimise the artificial sum for {A y = b, y >= 0}.

    ``columns`` lists the integer columns of A; ``rhs`` must be
    componentwise nonnegative.  Returns (optimum, y, pi) as Fractions, where
    y is the final basic solution over the original variables and pi the
    dual price vector.
    """
    m = len(rhs)
    nvars = len(columns)
    width = nvars + m
    tableau = [
        [col[i] for col in columns] + [int(k == i) for k in range(m)] + [rhs[i]]
        for i in range(m)
    ]
    # the cost row, last, holds the reduced costs of the artificial sum
    tableau.append([-sum(col) for col in columns] + [0] * m + [-sum(rhs)])
    basis = [nvars + i for i in range(m)]
    den = 1  # every pivot entry is positive, so den stays positive

    while True:
        cost = tableau[m]
        enter = next((j for j in range(width) if cost[j] < 0), None)
        if enter is None:
            break
        leave = best = None  # best = (rhs, a) of the least ratio rhs / a so far
        for i in range(m):
            a, b = tableau[i][enter], tableau[i][-1]
            if a > 0 and (best is None or b * best[1] < best[0] * a or (
                    b * best[1] == best[0] * a and basis[i] < basis[leave])):
                leave, best = i, (b, a)
        certify(leave is not None, "phase-one ratio test cannot fail")
        den = pivot(tableau, leave, enter, den)
        basis[leave] = enter

    optimum = Fraction(-cost[-1], den)
    y = [Fraction(0)] * nvars
    for i, b in enumerate(basis):
        if b < nvars:
            y[b] = Fraction(tableau[i][-1], den)
    # dual prices: the cost row holds the reduced costs c_j - pi . A_j, and
    # artificial column k has cost 1 and column e_k
    pi = tuple(1 - Fraction(cost[nvars + k], den) for k in range(m))
    return optimum, tuple(y), pi


def lp_strict_feasible(rows, nvars=None):
    """Witness w with row . w >= 1 for every row, or None if infeasible.

    The rows must have integer entries, nvars of them each (InputError
    otherwise).  The empty system is feasible with w = 0 (nvars then
    required).
    """
    rows = [tuple(row) for row in integer_rows(rows)]
    if nvars is None:
        if not rows:
            raise InputError("empty system needs an explicit dimension")
        nvars = len(rows[0])
    elif rows and len(rows[0]) != nvars:
        raise InputError(f"rows of {len(rows[0])} entries for {nvars} variables")
    if not rows:
        return tuple(Fraction(0) for _ in range(nvars))
    columns = [row + (1,) for row in rows]  # dual variable per row
    rhs = [0] * nvars + [1]
    optimum, y, pi = _phase1(columns, rhs)
    if optimum == 0:
        ys, scale = clear_denominators(y)
        certify(all(x >= 0 for x in ys) and sum(ys) == scale
                and not any(sum(x * row[i] for x, row in zip(ys, rows)) for i in range(nvars)),
                "infeasibility certificate is not a convex combination giving 0")
        return None
    witness = tuple(-pi[i] / optimum for i in range(nvars))
    ints, scale = clear_denominators(witness)
    certify(all(dot(row, ints) >= scale for row in rows),
            "strict-feasibility witness fails a row")
    return witness
