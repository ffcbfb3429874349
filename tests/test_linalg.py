"""Fraction-free elimination and the integer simplex against Fraction oracles."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from agraded import InputError, lp, lp_strict_feasible
from agraded.fixtures import named_matrix
from agraded.linalg import integer_kernel_basis, mat_vec, pivot, rank, solve_linear
from agraded.triangulations import _interiors_meet


def det(rows):
    """Exact determinant of a square integer matrix, as a Fraction.

    Fraction-free elimination with ``pivot``: after the last pivot the
    common denominator is the determinant up to the sign of the row swaps
    (Bareiss).  The package itself needs no determinant.
    """
    m = [list(row) for row in rows]
    den = sign = 1
    for c in range(len(m)):
        piv = next((i for i in range(c, len(m)) if m[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        den = pivot(m, c, c, den)
    return Fraction(sign * den)


# -- oracles: the Fraction elimination loops the integer pivot replaced -------

def fraction_gauss_jordan(rows, ncols):
    """Gauss-Jordan over Fractions: (reduced rows, pivots, signed pivot product)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    value = Fraction(1)
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            value = -value
        value *= m[r][c]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots, value


def oracle_rank(rows):
    return len(fraction_gauss_jordan(rows, len(rows[0]) if rows else 0)[1])


def oracle_det(rows):
    _, pivots, value = fraction_gauss_jordan(rows, len(rows))
    return value if len(pivots) == len(rows) else Fraction(0)


def oracle_solve(rows, rhs):
    m, pivots, _ = fraction_gauss_jordan([list(row) + [b] for row, b in zip(rows, rhs)], len(rows))
    if len(pivots) != len(rows):
        return None
    return tuple(row[-1] for row in m)


def oracle_nullspace(rows, ncols):
    m, pivots, _ = fraction_gauss_jordan(rows, ncols)
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


def fraction_phase1(columns, rhs):
    """Bland's-rule phase one over a Fraction tableau with a separate cost row."""
    m = len(rhs)
    nvars = len(columns)
    tableau = [
        [Fraction(columns[j][i]) for j in range(nvars)]
        + [Fraction(int(k == i)) for k in range(m)]
        + [Fraction(rhs[i])]
        for i in range(m)
    ]
    basis = [nvars + i for i in range(m)]
    width = nvars + m
    cost = [Fraction(0)] * (width + 1)
    for row in tableau:
        for j in range(width + 1):
            cost[j] -= row[j]
    for k in range(m):
        cost[nvars + k] = Fraction(0)
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
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        inv = 1 / tableau[leave][enter]
        tableau[leave] = [a * inv for a in tableau[leave]]
        for i in range(m):
            if i != leave and tableau[i][enter]:
                f = tableau[i][enter]
                tableau[i] = [a - f * b for a, b in zip(tableau[i], tableau[leave])]
        if cost[enter]:
            f = cost[enter]
            cost = [a - f * b for a, b in zip(cost, tableau[leave])]
        basis[leave] = enter
    y = [Fraction(0)] * nvars
    for i, b in enumerate(basis):
        if b < nvars:
            y[b] = tableau[i][-1]
    pi = tuple(1 - cost[nvars + k] for k in range(m))
    return -cost[-1], tuple(y), pi


def oracle_primitive(vec):
    """A rational vector scaled by a positive factor to coprime integers; 0 stays 0."""
    fracs = [Fraction(x) for x in vec]
    scale = lcm(*(f.denominator for f in fracs))
    ints = [int(f * scale) for f in fracs]
    g = gcd(*ints) or 1
    return tuple(x // g for x in ints)


def same(a, b):
    """Equal values of equal types, through nested tuples and lists."""
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    return type(a) is type(b) and a == b


# -- properties --------------------------------------------------------------

entries = st.integers(-4, 4)


@st.composite
def matrices(draw, square=False):
    nrows = draw(st.integers(1, 4))
    ncols = nrows if square else draw(st.integers(1, 5))
    return [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rank_and_nullspace_match_fraction_oracle(rows):
    ncols = len(rows[0])
    assert same(rank(rows), oracle_rank(rows))
    kernel, oracle = integer_kernel_basis(rows, ncols), oracle_nullspace(rows, ncols)
    assert len(kernel) == len(oracle)
    assert all(not any(mat_vec(rows, vec)) for vec in kernel)
    assert oracle_rank(kernel + oracle) == len(oracle)  # one span


@settings(max_examples=300, deadline=None)
@given(matrices(square=True), st.lists(entries, min_size=4, max_size=4))
def test_det_and_solve_match_fraction_oracle(rows, rhs):
    rhs = rhs[:len(rows)]
    assert same(det(rows), oracle_det(rows))
    expected = oracle_solve(rows, rhs)
    if expected is None:
        with pytest.raises(InputError):
            solve_linear(rows, rhs)
    else:
        assert same(solve_linear(rows, rhs), expected)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.tuples(
    st.lists(st.lists(st.integers(-3, 3), min_size=m, max_size=m), min_size=1, max_size=6),
    st.lists(st.integers(0, 3), min_size=m, max_size=m))))
def test_phase1_matches_fraction_tableau(system):
    columns, rhs = system
    den, optimum, y, pi = lp._phase1(columns, rhs)
    assert type(den) is int and den > 0
    assert all(type(x) is int for x in (optimum, *y, *pi))
    over = [Fraction(optimum, den), tuple(Fraction(x, den) for x in y),
            tuple(Fraction(x, den) for x in pi)]
    assert same(tuple(over), fraction_phase1(columns, rhs))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=6))))
@example((1, [(1,), (-1,)]))
@example((2, [(1, 0), (1, 0), (-1, 0)]))  # a repeated row sums its multipliers
def test_certificates_are_the_primitive_fraction_answers(system):
    """The witness is the primitive multiple of -pi / optimum, the multipliers that of y."""
    nvars, rows = system
    optimum, y, pi = fraction_phase1([row + (1,) for row in rows], [0] * nvars + [1])
    farkas = {}
    witness = lp_strict_feasible(rows, nvars, farkas)
    if optimum:
        assert same(witness, oracle_primitive([-p / optimum for p in pi[:nvars]]))
        assert not farkas
    else:
        multipliers = Counter()
        for x, row in zip(oracle_primitive(y), rows):
            if x:
                multipliers[row] += x
        assert witness is None and farkas == multipliers


def certificate(rows, nvars):
    """The simplex's certificate as is_coherent hands it on: integer witness or multipliers."""
    farkas = {}
    witness = lp_strict_feasible(sorted(rows), nvars, farkas)
    return farkas if witness is None else witness


@pytest.mark.parametrize("seed", range(3))
def test_inherited_certificates_never_change_a_flag(seed):
    """A neighbour shares rows and the row d with the other sign, plus noise.

    The flag from the first inherited certificate that holds, else from
    the simplex, is the simplex's flag; a stranger's certificate and the
    wrong sign of d are tried too.
    """
    rng = random.Random(seed)
    decided = Counter()
    for _ in range(200):
        n = rng.randint(2, 4)

        def row():
            return tuple(rng.randint(-3, 3) for _ in range(n))

        shared = {row() for _ in range(rng.randint(1, 6))}
        d = row()
        neighbour = shared | {d}
        rows = ({r for r in shared if rng.random() < 0.8} | {row() for _ in range(rng.randint(0, 2))}
                | {tuple(-x for x in d)})
        stranger = {row() for _ in range(rng.randint(1, 5))}
        inherited = [(certificate(stranger, n), row()),
                     (certificate(neighbour, n), rng.choice([d, tuple(-x for x in d)]))]
        rng.shuffle(inherited)
        simplex = lp_strict_feasible(sorted(rows), n) is not None
        answer = lp.inherited_answer(rows, inherited)
        flag = simplex if answer is None else answer[0]
        assert flag is simplex
        if answer is not None:
            decided[flag] += 1
            check = lp.is_witness if flag else lp.is_farkas
            assert check(rows, answer[1])
    assert decided[True] >= 10 and decided[False] >= 10


@pytest.mark.parametrize("certificate, holds", [
    ({(1, 0): 1, (-1, 0): 1}, True),
    ({(1, 0): 2, (-1, 0): 2}, True),
    ({}, False),                                   # empty: sums to 0 but proves nothing
    ({(1, 0): 1, (-1, 0): 2}, False),              # the weighted sum is (-1, 0)
    ({(1, 0): 0, (-1, 0): 0}, False),              # zero multipliers
    ({(1, 0): -1, (-1, 0): -1}, False),            # negative multipliers
    ({(1, 0): 1, (-1, 0): 1, (0, 1): 0}, False),   # a zero multiplier beside good ones
    ({(2, 0): 1, (-2, 0): 1}, False),              # rows the system lacks
    ({(1, 0): Fraction(1), (-1, 0): 1}, False),    # not an integer
], ids=["unit", "scaled", "empty", "nonzero-sum", "zero", "negative", "one-zero",
        "foreign-rows", "fraction"])
def test_farkas_check(certificate, holds):
    assert lp.is_farkas({(1, 0), (-1, 0), (0, 1)}, certificate) is holds


def test_witness_check():
    rows = [(1, 0), (1, 1)]
    assert lp.is_witness(rows, (1, 0))
    assert not lp.is_witness(rows, (1, -1))      # fails the row (1, 1) only
    # moved across the wall of (1, 0), the witness (1, 0) marks (-1, 0)
    assert lp.moved_witness((1, 0), (1, 0)) == lp.moved_witness((1, 0), (-1, 0)) == (-1, 0)


def test_non_integer_entries_rejected():
    with pytest.raises(InputError):
        lp_strict_feasible([(Fraction(1, 2), 0)], nvars=2)
    with pytest.raises(InputError):
        rank([(Fraction(1, 2), 0)])


# -- _interiors_meet against plane geometry, no LP ----------------------------

def _det3(p, q, r):
    return (p[0] * (q[1] * r[2] - q[2] * r[1]) - p[1] * (q[0] * r[2] - q[2] * r[0])
            + p[2] * (q[0] * r[1] - q[1] * r[0]))


def _triangles_meet(sigma, tau):
    """Open triangles in one plane meet iff none of their edge lines weakly separates them."""
    for tri in (sigma, tau):
        for p, q in combinations(tri, 2):
            side_s = [_det3(p, q, x) for x in sigma]
            side_t = [_det3(p, q, x) for x in tau]
            if (min(side_s) >= 0 >= max(side_t)) or (max(side_s) <= 0 <= min(side_t)):
                return False
    return True


def test_interiors_meet_matches_plane_geometry():
    """The veronese6 columns lie on x + y + z = 2, so open cones meet iff open triangles do."""
    m = named_matrix("veronese6")
    cols = m.columns
    assert all(sum(c) == 2 for c in cols)
    facets = [f for f in combinations(range(m.n), 3) if _det3(*(cols[i] for i in f))]
    answers = [
        (_interiors_meet(m, s, t), _triangles_meet([cols[i] for i in s], [cols[i] for i in t]))
        for s in facets for t in facets
    ]
    assert len(answers) == 289
    assert sum(oracle for _, oracle in answers) == 217
    assert all(got == oracle for got, oracle in answers)


@pytest.mark.parametrize("call", [
    lambda: lp_strict_feasible([(1, 2, 3)], nvars=2),
    lambda: lp_strict_feasible([(1, 2), (1,)], nvars=2),
    lambda: rank([[1, 2], [3]]),
    lambda: solve_linear([[1, 2], [3]], [1, 2]),
], ids=["lp-rows-longer-than-nvars", "lp-ragged", "rank-ragged", "solve-ragged"])
def test_rows_of_the_wrong_length_rejected(call):
    # zip used to cut such rows: the first returned the witness (6, -1),
    # which fails the row, and the last (0, 1)
    with pytest.raises(InputError):
        call()
