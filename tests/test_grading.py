"""Grading validation, kernel lattices, exact LP feasibility."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from agraded import (
    BadLength,
    GradingError,
    NotPointed,
    RankDeficient,
    kernel_lattice,
    lawrence_lifting,
    lp_strict_feasible,
    validate_grading,
)
from agraded.fixtures import named_matrix
from agraded.ideals import graver_split_rows
from agraded.linalg import dot, integer_kernel_basis, lll_reduce, mat_vec, rank, solve_linear


def test_positive_row_certificate():
    m = validate_grading([[1, 3, 7]])
    assert all(w > 0 for w in m.certificate_weights)
    # c^T A > 0 is assertable directly
    assert mat_vec((m.positive_certificate,), (0,)) == (0,)
    for col in m.columns:
        assert dot(m.positive_certificate, col) > 0


def test_derived_fields_are_cached_outside_hash_and_equality():
    m = validate_grading([[1, 3, 7]])
    assert m.columns is m.columns and m.certificate_weights is m.certificate_weights
    assert m.nonnegative
    fresh = validate_grading([[1, 3, 7]])
    assert m == fresh and hash(m) == hash(fresh)
    assert m.degree([1, 2, 0]) == m.degree((1, 2, 0)) == (7,)
    assert m.degree((0, 0, -1)) == (-7,)
    assert m == fresh and hash(m) == hash(fresh)


def test_degree_of_a_vector_of_the_wrong_length_raises():
    with pytest.raises(BadLength):
        named_matrix("g137").degree((1, 0, 0, 5))


CATALOGUE_CERTIFICATES = {
    "g12": (1,), "g137": (1,), "g134": (1,), "g345-13-14": (1,), "veronese6": (1, 1, 1),
    "g123789": (1,), "g123789-10": (1,), "g123789-10-11": (1,), "g36-8-10-15": (1,),
}


def test_catalogue_positive_certificates():
    """Every matrix of matrices.json keeps its recorded positivity certificate."""
    from agraded.fixtures import _load

    assert {name: named_matrix(name).positive_certificate
            for name in _load("matrices")} == CATALOGUE_CERTIFICATES


@pytest.mark.parametrize("rows, certificate", [
    ([[1, 1, 1, 1], [0, 1, -1, 3]], (4, -1)),
    ([[2, -1, 3], [1, 1, 0]], (1, 4)),
    ([[1, 0, -1, 2], [0, 1, 3, -1]], (1, 1)),
    ([[3, -2, 1, 0], [1, 1, -1, 2], [0, 2, 1, 1]], (3, 1, 7)),
    ([[-1, -2, -3]], (-1,)),
])
def test_positive_certificate_is_the_primitive_simplex_witness(rows, certificate):
    assert validate_grading(rows).positive_certificate == certificate


def test_not_pointed_rejected():
    with pytest.raises(NotPointed):
        validate_grading([[1, -1]])


def test_rank_deficient_rejected():
    with pytest.raises(RankDeficient):
        validate_grading([[1, 2], [2, 4]])


@pytest.mark.parametrize("rows", [[[1, Fraction(5, 2), 7]], [[1, 2.9, 7]], [[1, 2.0, 7]], [["1", 2]]])
def test_non_integer_entries_rejected(rows):
    with pytest.raises(GradingError, match="integer entries"):
        validate_grading(rows)


def test_curve_matrix_accepted():
    m = validate_grading([[1, 1, 1, 1, 1], [0, 1, 6, 7, 9]])
    assert m.d == 2 and m.n == 5
    assert all(w > 0 for w in m.certificate_weights)


def test_certificate_keeps_the_sign_of_the_lp_witness():
    # the LP witness starts negative; flipping it to a positive first entry
    # would make every certificate weight negative
    m = validate_grading([[0, 2, 2, 0, 1], [0, 0, 2, 2, 1], [1, 1, 1, 1, 1]])
    assert m.positive_certificate == (-1, -1, 5)
    assert m.certificate_weights == (5, 3, 1, 3, 3)


def _kernel_window_oracle(matrix, basis, window):
    """Every integer kernel vector in the window must be a Z-combination.

    Solves the last d coordinates from the first n-d over the window and
    checks exact reduction to zero against the basis by elimination.
    """
    from itertools import product

    import agraded.linalg as linalg

    n = matrix.n
    d = matrix.d
    free = n - d
    cols = matrix.columns
    square = [[cols[free + j][r] for j in range(d)] for r in range(d)]
    if linalg.rank(square) < d:
        pytest.skip("trailing block not invertible; oracle needs a permutation")
    vectors = []
    for head in product(range(-window, window + 1), repeat=free):
        rhs = [-sum(cols[i][r] * head[i] for i in range(free)) for r in range(d)]
        tail = linalg.solve_linear(square, rhs)
        if all(t.denominator == 1 and abs(t) <= window for t in tail):
            vec = tuple(head) + tuple(int(t) for t in tail)
            if any(vec):
                vectors.append(vec)
    assert vectors, "window too small to exercise the oracle"
    k = len(basis)
    transpose = [[basis[i][r] for i in range(k)] for r in range(n)]
    chosen = []
    for r in range(n):
        if linalg.rank([transpose[i] for i in chosen] + [transpose[r]]) > len(chosen):
            chosen.append(r)
        if len(chosen) == k:
            break
    square_b = [transpose[r] for r in chosen]
    for vec in vectors:
        assert matrix.degree(vec) == (0,) * d
        coords = linalg.solve_linear(square_b, [vec[r] for r in chosen])
        for r in range(n):
            assert sum(Fraction(basis[i][r]) * coords[i] for i in range(k)) == vec[r]
        assert all(x.denominator == 1 for x in coords), (
            f"{vec} needs non-integer coordinates; lattice not saturated"
        )


def test_kernel_12():
    m = validate_grading([[1, 2]])
    basis = kernel_lattice(m)
    assert basis == ((2, -1),)


def test_kernel_137_saturated():
    m = validate_grading([[1, 3, 7]])
    basis = kernel_lattice(m)
    assert len(basis) == 2
    for v in basis:
        assert m.degree(v) == (0,)
    _kernel_window_oracle(m, basis, 10)


def test_kernel_curve1_saturated():
    m = validate_grading([[1, 1, 1, 1, 1], [0, 1, 6, 7, 9]])
    basis = kernel_lattice(m)
    assert len(basis) == 3
    for v in basis:
        assert m.degree(v) == (0, 0)
    _kernel_window_oracle(m, basis, 10)


def assert_lll_reduced(basis):
    """Size-reduced (|mu| <= 1/2) and Lovasz (delta = 3/4) in the given order, by Fractions."""
    def norm(v):
        return sum(x * x for x in v)

    star = []
    for b in basis:
        v = [Fraction(x) for x in b]
        mu = []
        for s in star:
            mu.append(sum(Fraction(x) * y for x, y in zip(b, s)) / norm(s))
            v = [x - mu[-1] * y for x, y in zip(v, s)]
        assert all(abs(m) <= Fraction(1, 2) for m in mu)
        if star:
            assert norm(v) >= (Fraction(3, 4) - mu[-1] ** 2) * norm(star[-1])
        star.append(v)


def integer_coordinates(basis, vec):
    """The integer coordinates of vec in the lattice basis, or None.

    Solves on coordinates where the basis has full rank with ``solve_linear``
    and checks the solution on every coordinate.
    """
    chosen = []
    for r in range(len(vec)):
        if rank([[b[i] for i in chosen + [r]] for b in basis]) > len(chosen):
            chosen.append(r)
    if len(chosen) < len(basis):
        return None
    square = [[b[r] for b in basis] for r in chosen]
    coords = solve_linear(square, [vec[r] for r in chosen]) if basis else ()
    if any(c.denominator != 1 for c in coords):
        return None
    if any(sum(c * b[r] for c, b in zip(coords, basis)) != vec[r] for r in range(len(vec))):
        return None
    return coords


@pytest.mark.parametrize("lifted", [False, True], ids=["g123789", "lawrence-g123789"])
def test_kernel_lattice_is_lll_reduced_in_the_order_returned(lifted):
    # toric_ideal builds its saturation vector in basis order, so the order is pinned
    m = named_matrix("g123789")
    basis = kernel_lattice(lawrence_lifting(m) if lifted else m)
    assert len(basis) == 5
    assert_lll_reduced(basis)


@st.composite
def small_matrices(draw):
    d = draw(st.integers(1, 2))
    n = draw(st.integers(d, 6))
    return [draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)) for _ in range(d)]


@settings(max_examples=200, deadline=None)
@given(small_matrices())
@example([[1, 2]])  # corank 1
@example([[1, 0], [0, 1]])  # corank 0
@example([[2, 3, 0], [0, 1, 1]])  # corank 1, two rows
def test_lll_basis_and_the_saturated_basis_generate_each_other(rows):
    n = len(rows[0])
    saturated = integer_kernel_basis(rows, n)
    reduced = lll_reduce(saturated)
    assert len(reduced) == len(saturated) == n - rank(rows)
    assert_lll_reduced(reduced)
    for vec in reduced:
        assert integer_coordinates(saturated, vec) is not None
    for vec in saturated:
        assert integer_coordinates(reduced, vec) is not None


def test_lp_empty_and_contradictory():
    assert lp_strict_feasible([], nvars=3) == (0, 0, 0)
    assert lp_strict_feasible([(1,), (-1,)], nvars=1) is None


def test_lp_witness_exact():
    rows = [(1, 0), (0, 1), (1, 1), (2, -1)]
    w = lp_strict_feasible(rows, nvars=2)
    assert w is not None
    for row in rows:
        value = sum(Fraction(a) * x for a, x in zip(row, w))
        assert value >= 1


def test_masked_marking_system_infeasible(ctx345, ideal_masked):
    rows = graver_split_rows(ideal_masked, ctx345)
    assert lp_strict_feasible(rows, nvars=5) is None


# fake phase-one results (den, optimum, y, pi), integer numerators over den

def _wrong_dual(columns, rhs):
    """A phase-one result whose zero dual prices certify nothing."""
    return 1, 1, (), (0,) * len(rhs)


def _wrong_primal(columns, rhs):
    """An optimum of 0 whose y >= 0 sums to 1 but does not combine the rows to 0."""
    return 1, 0, (1,) + (0,) * (len(columns) - 1), (0,) * len(rhs)


def _failing_dual(columns, rhs):
    """Dual prices whose witness (-1, 1) meets the row (1, 0) at -1."""
    return 1, 1, (), (1, -1, 0)


def test_lp_witness_recheck_raises(monkeypatch):
    from agraded import CertificateError, lp

    for fake in (_wrong_dual, _wrong_primal, _failing_dual):
        monkeypatch.setattr(lp, "_phase1", fake)
        with pytest.raises(CertificateError):
            lp_strict_feasible([(1, 0), (0, 1)], nvars=2)


def test_lp_witness_recheck_runs_under_optimize():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    script = (
        "import sys\n"
        "from agraded import CertificateError, lp\n"
        "lp._phase1 = lambda columns, rhs: (1, 1, (), (0,) * len(rhs))\n"
        "try:\n"
        "    lp.lp_strict_feasible([(1, 0), (0, 1)], nvars=2)\n"
        "except CertificateError:\n"
        "    print('raised', sys.flags.optimize)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60, check=True).stdout
    assert out.split() == ["raised", "1"]
