"""Exact linear feasibility in integers: one phase-one simplex.

``lp_strict_feasible`` decides row . w >= 1 for all rows of an integer
system with few variables and many rows.  By Gordan duality this holds iff
the origin is outside the convex hull of the rows, so the simplex runs on
the tiny dual system {sum y_j r_j = 0, sum y_j = 1, y >= 0}.  The dual
prices of the phase-one optimum, read off its final cost row, yield an
exact primal witness; a zero optimum leaves a y that certifies
infeasibility.  The tableau is integer throughout, so both answers come
out as integer numerators over its one denominator; divided by the gcd of
their entries they are the primitive integer certificates the simplex
returns.  Both are re-checked in integers, and one that fails its check
raises CertificateError.

There is one checker per kind of certificate, and it returns a bool, so a
caller may also test a certificate it did not get from the simplex:
``is_witness`` (row . w > 0 for every row, with w an integer vector) and
``is_farkas`` (Gordan multipliers {row: y}: a nonempty dict of rows of
the system with positive integer y and sum y * row = 0).  The simplex
passes its own answers through them under ``certify``, so they run under
``python -O``; ``lp_strict_feasible`` hands back the checked multipliers
through its ``farkas`` dict.  ``inherited_answer`` tries certificates
of neighbouring systems with the same two checkers, a witness once moved
across the wall of the row whose sign differs (``moved_witness``);
``ideals.is_coherent`` runs the simplex only when none of them holds.

``linalg.pivot`` keeps the tableau over one common positive denominator,
and Bland's rule makes the simplex terminate.
"""

from math import gcd

from .errors import InputError, certify
from .linalg import dot, integer_rows, pivot


def _phase1(columns, rhs):
    """Minimise the artificial sum for {A y = b, y >= 0}.

    ``columns`` lists the integer columns of A; ``rhs`` must be
    componentwise nonnegative.  Returns (den, optimum, y, pi): the final
    tableau's positive common denominator and, as integer numerators over
    it, the optimum, the final basic solution y over the original variables
    and the dual price vector pi.
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

    y = [0] * nvars
    for i, b in enumerate(basis):
        if b < nvars:
            y[b] = tableau[i][-1]
    # dual prices: the cost row holds the reduced costs c_j - pi . A_j, and
    # artificial column k has cost 1 and column e_k
    pi = tuple(den - cost[nvars + k] for k in range(m))
    return den, -cost[-1], tuple(y), pi


def _primitive(ints):
    """An integer vector divided by the gcd of its entries (0 stays 0)."""
    g = gcd(*ints) or 1
    return tuple(x // g for x in ints)


def is_witness(rows, w):
    """Whether row . w >= 1 for every row, w an integer vector: row . w > 0."""
    return all(dot(row, w) >= 1 for row in rows)


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
    return _primitive([vv * x - wv * y for x, y in zip(w, v)])


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
    """Primitive integer w with row . w >= 1 for every row, or None if infeasible.

    The rows must have integer entries, nvars of them each (InputError
    otherwise).  w is -pi / optimum of the phase-one dual prices, scaled to
    coprime integers; an integer w with row . w > 0 meets every integer row
    at 1 or more.  The empty system is feasible with w = 0 in nvars
    variables.  If the system is infeasible and ``farkas`` is a dict, the
    checked multipliers {row: y} of ``is_farkas`` are added to it: the
    phase-one y scaled to coprime integers, summed over repeated rows.
    """
    rows = [tuple(row) for row in integer_rows(rows)]
    if rows and len(rows[0]) != nvars:
        raise InputError(f"rows of {len(rows[0])} entries for {nvars} variables")
    if not rows:
        return (0,) * nvars
    columns = [row + (1,) for row in rows]  # dual variable per row
    rhs = [0] * nvars + [1]
    _, optimum, y, pi = _phase1(columns, rhs)
    if optimum == 0:
        multipliers = {}
        for x, row in zip(_primitive(y), rows):
            if x:
                multipliers[row] = multipliers.get(row, 0) + x
        certify(is_farkas(set(rows), multipliers),
                "infeasibility certificate is not a positive combination giving 0")
        if farkas is not None:
            farkas.update(multipliers)
        return None
    # the optimum is positive and over the same denominator as pi
    witness = _primitive([-p for p in pi[:nvars]])
    certify(is_witness(rows, witness), "strict-feasibility witness fails a row")
    return witness
