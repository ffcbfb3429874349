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

There is one checker per kind of certificate, and it returns a bool, so a
caller may also test a certificate it did not get from the simplex:
``is_witness`` (row . w >= scale for every row, with w and scale integers)
and ``is_farkas`` (Gordan multipliers {row: y}: a nonempty dict of rows of
the system with positive integer y and sum y * row = 0).  The simplex
passes its own answers through them under ``certify``, so they run under
``python -O``; ``lp_strict_feasible`` hands back the checked multipliers
through its ``farkas`` dict.  ``inherited_answer`` tries certificates
of neighbouring systems with the same two checkers, a witness once moved
across the wall of the row whose sign differs (``moved_witness``);
``ideals.is_coherent`` runs the simplex only when none of them holds.

The tableau is integer: ``linalg.pivot`` keeps it over one common positive
denominator, and Bland's rule makes the simplex terminate.
"""

from fractions import Fraction
from math import gcd

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


def is_witness(rows, ints, scale=1):
    """Whether row . ints >= scale for every row, so ints / scale is a witness.

    For an integer vector and scale 1 this is row . ints > 0 on every row.
    """
    return all(dot(row, ints) >= scale for row in rows)


def is_farkas(rows, multipliers):
    """Whether {row: y} proves that no w has row . w > 0 on every row.

    Gordan: it does iff the dict is nonempty, each of its rows is in
    ``rows`` (best a set), each y is a positive integer and sum y * row = 0.
    """
    if not (multipliers and all(type(y) is int and y > 0 for y in multipliers.values())
            and all(row in rows for row in multipliers)):
        return False
    weighted = [[y * x for x in row] for row, y in multipliers.items()]
    return not any(map(sum, zip(*weighted)))


def moved_witness(w, d):
    """A witness w moved across the wall of its row v = +-d, for the row -v.

    v is the sign of d with w . v > 0.  The result is
    (v . v) w - (w . v + 1) v divided by the gcd of its entries, the
    projection of w onto the wall v . w = 0 pushed a little past it:
    its product with -v is v . v / gcd > 0.  It is a candidate only.
    """
    v = d if dot(w, d) > 0 else tuple(-x for x in d)
    vv, wv = dot(v, v), dot(w, v) + 1
    moved = [vv * x - wv * y for x, y in zip(w, v)]
    g = gcd(*moved) or 1
    return tuple(x // g for x in moved)


def inherited_answer(rows, inherited):
    """(flag, certificate) from the first certificate that holds for the rows, or None.

    ``inherited`` lists (certificate, d), each from a system that shares
    the rows of ``rows`` (a set) up to the sign of its row +-d and other
    rows: an integer witness w, tried as ``moved_witness(w, d)`` with
    ``is_witness``, or multipliers {row: y}, tried as they are with
    ``is_farkas``.  A certificate that fails is passed over.
    """
    for certificate, d in inherited:
        if isinstance(certificate, dict):
            if is_farkas(rows, certificate):
                return False, certificate
            continue
        moved = moved_witness(certificate, d)
        if is_witness(rows, moved):
            return True, moved
    return None


def lp_strict_feasible(rows, nvars, farkas=None):
    """Witness w with row . w >= 1 for every row, or None if infeasible.

    The rows must have integer entries, nvars of them each (InputError
    otherwise).  The empty system is feasible with w = 0 in nvars
    variables.  If the system is infeasible and ``farkas`` is a dict, the
    checked multipliers {row: y} of ``is_farkas`` are added to it.
    """
    rows = [tuple(row) for row in integer_rows(rows)]
    if rows and len(rows[0]) != nvars:
        raise InputError(f"rows of {len(rows[0])} entries for {nvars} variables")
    if not rows:
        return tuple(Fraction(0) for _ in range(nvars))
    columns = [row + (1,) for row in rows]  # dual variable per row
    rhs = [0] * nvars + [1]
    optimum, y, pi = _phase1(columns, rhs)
    if optimum == 0:
        multipliers = {}
        for x, row in zip(clear_denominators(y)[0], rows):
            if x:
                multipliers[row] = multipliers.get(row, 0) + x
        certify(is_farkas(set(rows), multipliers),
                "infeasibility certificate is not a positive combination giving 0")
        if farkas is not None:
            farkas.update(multipliers)
        return None
    witness = tuple(-pi[i] / optimum for i in range(nvars))
    certify(is_witness(rows, *clear_denominators(witness)),
            "strict-feasibility witness fails a row")
    return witness
