"""Graver bases: production route, oracle, circuits."""

import random
from functools import reduce
from itertools import combinations, permutations
from math import gcd

import pytest

from agraded import (
    BadLength,
    graver_basis,
    graver_oracle,
    is_circuit,
    lawrence_lifting,
    validate_grading,
)
from agraded.binomials import buchberger, canonical_pair, toric_ideal
from agraded.fixtures import as_pairs, expected, named_matrix
from agraded.grading import positive_combination
from agraded.monomials import exp_sub, guard_mask, minimal_packed, pack, unpack


def weight_of(matrix, pair):
    return positive_combination(matrix, matrix.degree(pair[0]))


def lex_graver(matrix):
    """The Graver basis read off the lex reduced basis of the Lawrence lifting.

    Every reduced Groebner basis of the lifting's toric ideal is its Graver
    basis as mirror pairs x^u y^v - x^v y^u (Sturmfels, GBCP Thm 7.1); this
    route runs a full completion and so checks ``graver_basis`` independently.
    """
    lifted = lawrence_lifting(matrix)
    n = matrix.n
    gb = buchberger(toric_ideal(lifted), (0,) * (2 * n), lifted)
    assert gb.monomials.is_zero()
    pairs = set()
    for b in gb.binomials:
        u, v = b.lead[:n], b.trail[:n]
        assert b.lead[n:] == v and b.trail[n:] == u  # a mirror pair
        pairs.add(canonical_pair(u, v))
    return tuple(sorted(pairs))


def two_orientation_graver(matrix):
    """The minimal pairs of the Lawrence generators by one sweep over both orientations.

    Oracle of the half-norm sweep of ``graver_basis``: both packed
    orientations (w+, w-) and (w-, w+) of every generator go into one
    ``minimal_packed`` sweep, which compares each with all smaller ones.
    """
    n = matrix.n
    packed = set()
    for b in toric_ideal(lawrence_lifting(matrix)):
        w = exp_sub(b.lead[:n], b.trail[:n])
        plus = tuple(max(x, 0) for x in w)
        minus = tuple(max(-x, 0) for x in w)
        packed |= {pack(plus + minus), pack(minus + plus)}
    return tuple(sorted({canonical_pair(uv[:n], uv[n:]) for uv in
                         (unpack(p, 2 * n) for p in minimal_packed(packed, guard_mask(2 * n)))}))


@pytest.mark.parametrize("name", ["g137", "g134", "veronese6", "g36-8-10-15", "g345-13-14"])
def test_graver_basis_matches_the_lex_route(name):
    m = named_matrix(name)
    assert graver_basis(m).elements == lex_graver(m)


@pytest.mark.parametrize("name", ["g137", "g134", "veronese6", "g36-8-10-15", "g345-13-14"])
def test_half_norm_sweep_matches_the_two_orientation_sweep(name):
    m = named_matrix(name)
    assert graver_basis(m).elements == two_orientation_graver(m)


def test_corank_one_single_element():
    m = validate_grading([[1, 2]])
    assert graver_basis(m).elements == (((2, 0), (0, 1)),)
    assert graver_oracle(m, 10).elements == (((2, 0), (0, 1)),)


def test_graver_137_exact():
    m = named_matrix("g137")
    exp = as_pairs(expected("graver-137")["graver"])
    assert set(graver_basis(m).elements) == exp
    assert set(graver_oracle(m, 30).elements) == exp


def test_graver_134_exact():
    m = named_matrix("g134")
    exp = as_pairs(expected("graver-134")["graver"])
    assert set(graver_basis(m).elements) == exp
    assert set(graver_oracle(m, 30).elements) == exp


def test_graver_345_oracle_is_weight_filter(ctx345):
    m = ctx345.A
    basis = set(ctx345.graver.elements)
    bound = 60
    oracle = set(graver_oracle(m, bound).elements)
    filtered = {p for p in basis if weight_of(m, p) <= bound}
    assert oracle == filtered
    listed = as_pairs(expected("graver-345-13-14")["graver_minus_flips"])
    listed.add((( 2, 1, 1, 1, 0), (0, 0, 0, 0, 2)))
    assert listed <= oracle


def test_oracle_matches_basis_at_fixture_bounds(ctx_veronese, ctx_corank4):
    for ctx, bound in ((ctx_veronese, 16), (ctx_corank4, 40)):
        m = ctx.A
        basis = set(ctx.graver.elements)
        filtered = {p for p in basis if weight_of(m, p) <= bound}
        assert set(graver_oracle(m, bound).elements) == filtered


def test_conformal_minimality_pairwise(ctx137):
    def conformally_below(p, q):
        (u0, v0), (u1, v1) = p, q
        direct = all(x <= y for x, y in zip(u0, u1)) and all(
            x <= y for x, y in zip(v0, v1)
        )
        swapped = all(x <= y for x, y in zip(v0, u1)) and all(
            x <= y for x, y in zip(u0, v1)
        )
        return direct or swapped

    for basis in (ctx137.graver, graver_basis(named_matrix("g36-8-10-15"))):
        for p in basis:
            for q in basis:
                if p != q:
                    assert not conformally_below(p, q)


def test_disjoint_supports_and_kernel(ctx345):
    for u, v in ctx345.graver:
        assert ctx345.A.degree(u) == ctx345.A.degree(v)
        assert all(x == 0 or y == 0 for x, y in zip(u, v))


def test_lawrence_certificate():
    m = named_matrix("g137")
    lifted = lawrence_lifting(m)
    assert lifted.d == 4 and lifted.n == 6
    assert all(w == 1 for w in lifted.certificate_weights)


def test_is_circuit_12():
    m = validate_grading([[1, 2]])
    assert is_circuit(m, ((2, 0), (0, 1))) == (2, -1)


def test_circuits_137():
    m = named_matrix("g137")
    circ = is_circuit(m, ((3, 0, 0), (0, 1, 0)))
    assert circ is not None
    # full-support element: minimal dependence fails on three columns in rank 1
    assert is_circuit(m, ((2, 0, 1), (0, 3, 0))) is None


def test_is_circuit_rejects_a_short_pair():
    with pytest.raises(BadLength):
        is_circuit(named_matrix("g137"), ((3, 0), (0, 1)))


def test_is_circuit_rejects_a_long_pair():
    with pytest.raises(BadLength):
        is_circuit(named_matrix("g137"), ((3, 0, 0, 1), (0, 1, 0, 1)))


def oracle_circuit(matrix, t):
    """t if its support columns are minimally dependent and t is primitive, else None.

    The definition, by leaving out each support column in turn.
    """
    from test_linalg import oracle_rank

    cols = [matrix.columns[i] for i, x in enumerate(t) if x]
    if not cols or oracle_rank(cols) == len(cols):
        return None
    if any(oracle_rank(cols[:k] + cols[k + 1:]) < len(cols) - 1 for k in range(len(cols))):
        return None
    return t if reduce(gcd, t) == 1 else None


def as_pair(t):
    return tuple(max(x, 0) for x in t), tuple(max(-x, 0) for x in t)


@pytest.mark.parametrize("name", ["g137", "veronese6", "g36-8-10-15"])
def test_is_circuit_matches_its_definition(name):
    """Graver pairs, their negatives, sums and differences of two; zero and multiples give None."""
    m = named_matrix(name)
    graver = [exp_sub(u, v) for u, v in graver_basis(m)]
    vectors = set(graver) | {tuple(-x for x in t) for t in graver}
    for s, t in combinations(graver, 2):
        vectors.add(tuple(a + b for a, b in zip(s, t)))
        vectors.add(tuple(a - b for a, b in zip(s, t)))
    circuits = 0
    for t in sorted(vectors):
        got = is_circuit(m, as_pair(t))
        assert got == oracle_circuit(m, t), t
        circuits += got is not None
    assert 0 < circuits < len(vectors)
    zero = (0,) * m.n
    assert is_circuit(m, (zero, zero)) is None
    for t in graver:
        for k in (2, 3):
            assert is_circuit(m, as_pair(tuple(k * x for x in t))) is None


def test_all_circuits_lie_in_graver(ctx_veronese, ctx137):
    """Independent circuit enumeration from the matrix columns alone."""
    from agraded.binomials import canonical_pair
    from agraded.linalg import rank
    from test_linalg import oracle_nullspace, oracle_primitive

    for ctx in (ctx_veronese, ctx137):
        m = ctx.A
        basis = set(ctx.graver.elements)
        cols = m.columns
        found = 0
        for size in range(2, m.n + 1):
            for subset in combinations(range(m.n), size):
                sub = [cols[i] for i in subset]
                if rank(sub) != size - 1:
                    continue
                if any(rank(sub[:k] + sub[k + 1:]) != size - 1 for k in range(size)):
                    continue
                null = oracle_nullspace(list(zip(*sub)), size)
                assert len(null) == 1
                t = oracle_primitive(null[0])
                vec = [0] * m.n
                for i, x in zip(subset, t):
                    vec[i] = x
                plus = tuple(x if x > 0 else 0 for x in vec)
                minus = tuple(-x if x < 0 else 0 for x in vec)
                assert canonical_pair(plus, minus) in basis
                assert is_circuit(m, (plus, minus)) is not None
                found += 1
        assert found > 0


def _graver_of_permuted(matrix, perm, oracle=lex_graver):
    """graver_basis of the matrix with columns ``perm``, mapped back.

    The permuted basis is first pinned to the oracle, by default the lex route.
    """
    permuted = validate_grading([[row[j] for j in perm] for row in matrix.rows])
    basis = graver_basis(permuted).elements
    assert basis == oracle(permuted)

    def back(w):
        u = [0] * matrix.n
        for j, x in zip(perm, w):
            u[j] = x
        return tuple(u)

    return tuple(sorted(canonical_pair(back(u), back(v)) for u, v in basis))


@pytest.mark.parametrize("name,perms", [
    ("g137", list(permutations(range(3)))),
    ("g36-8-10-15", [(2, 3, 1, 4, 0)]),
    ("g345-13-14", [(4, 0, 3, 1, 2)]),
])
def test_graver_basis_is_column_order_free(name, perms):
    m = named_matrix(name)
    for perm in perms:
        assert _graver_of_permuted(m, perm) == graver_basis(m).elements


@pytest.mark.parametrize("name", ["g36-8-10-15", "g345-13-14"])
@pytest.mark.parametrize("seed", range(5))
def test_half_norm_sweep_on_permuted_columns(name, seed):
    m = named_matrix(name)
    perm = random.Random(seed).sample(range(m.n), m.n)
    assert _graver_of_permuted(m, perm, two_orientation_graver) == graver_basis(m).elements
