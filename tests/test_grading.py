"""Grading validation, kernel lattices, exact LP feasibility."""

from fractions import Fraction

import pytest

from agraded import (
    GradingError,
    NotPointed,
    RankDeficient,
    kernel_lattice,
    lp_strict_feasible,
    validate_grading,
)
from agraded.ideals import graver_split_rows
from agraded.linalg import dot, mat_vec


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
    # degree is memoised per matrix, keyed on the tuple of its argument;
    # the memo is not a field, so equality and hashing do not see it
    assert m.degree([1, 2, 0]) == m.degree((1, 2, 0)) == (7,)
    assert m.degree((1, 2, 0)) is m.degree([1, 2, 0])
    assert m.degree((0, 0, -1)) == (-7,)
    assert m == fresh and hash(m) == hash(fresh)


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
    basis = kernel_lattice(m).vectors
    assert basis == ((2, -1),)


def test_kernel_137_saturated():
    m = validate_grading([[1, 3, 7]])
    basis = kernel_lattice(m).vectors
    assert len(basis) == 2
    for v in basis:
        assert m.degree(v) == (0,)
    _kernel_window_oracle(m, basis, 10)


def test_kernel_curve1_saturated():
    m = validate_grading([[1, 1, 1, 1, 1], [0, 1, 6, 7, 9]])
    basis = kernel_lattice(m).vectors
    assert len(basis) == 3
    for v in basis:
        assert m.degree(v) == (0, 0)
    _kernel_window_oracle(m, basis, 10)


def test_lp_empty_and_contradictory():
    assert lp_strict_feasible([], nvars=3) == (0, 0, 0)
    assert lp_strict_feasible([(1,), (-1,)]) is None


def test_lp_witness_exact():
    rows = [(1, 0), (0, 1), (1, 1), (2, -1)]
    w = lp_strict_feasible(rows)
    assert w is not None
    for row in rows:
        value = sum(Fraction(a) * x for a, x in zip(row, w))
        assert value >= 1


def test_masked_marking_system_infeasible(ctx345, ideal_masked):
    rows = graver_split_rows(ideal_masked, ctx345)
    assert lp_strict_feasible(rows, nvars=5) is None


def _wrong_dual(columns, rhs):
    """A phase-one result whose zero dual prices certify nothing."""
    return 1, (), (0,) * len(rhs)


def _wrong_primal(columns, rhs):
    """An optimum of 0 whose y >= 0 sums to 1 but does not combine the rows to 0."""
    return 0, (1,) + (0,) * (len(columns) - 1), (0,) * len(rhs)


def _half_dual(columns, rhs):
    """Dual prices whose witness (1/2, 1/2) meets every row at 1/2 only."""
    return Fraction(1), (), (Fraction(-1, 2),) * (len(rhs) - 1) + (Fraction(0),)


def test_lp_witness_recheck_raises(monkeypatch):
    from agraded import CertificateError, lp

    for fake in (_wrong_dual, _wrong_primal, _half_dual):
        monkeypatch.setattr(lp, "_phase1", fake)
        with pytest.raises(CertificateError):
            lp_strict_feasible([(1, 0), (0, 1)])


def test_lp_witness_recheck_runs_under_optimize():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    script = (
        "import sys\n"
        "from agraded import CertificateError, lp\n"
        "lp._phase1 = lambda columns, rhs: (1, (), (0,) * len(rhs))\n"
        "try:\n"
        "    lp.lp_strict_feasible([(1, 0), (0, 1)])\n"
        "except CertificateError:\n"
        "    print('raised', sys.flags.optimize)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60, check=True).stdout
    assert out.split() == ["raised", "1"]
