"""Monomial ideals, term orders, fibers and K-polynomials."""

from fractions import Fraction
from itertools import product

import pytest

from agraded import (
    MonomialIdeal,
    fiber,
    k_polynomial,
    minimalize,
    validate_grading,
)
from agraded.fixtures import named_ideal
from agraded.linalg import dot
from agraded.monomials import (
    FIELD_LIMIT,
    BadLength,
    ExponentOverflow,
    degree_code,
    divides,
    guard_mask,
    pack,
    packed_colon,
    unpack,
    weight_rank,
)


def box_fiber(matrix, b):
    """The degree-b fiber by brute force, in lexicographic order: every u in the
    box 0 <= u_j <= c.b / w_j with A.u = b.  Shares no code with ``fiber_walk``."""
    cb = sum(c * x for c, x in zip(matrix.positive_certificate, b))
    box = [range(cb // w + 1) for w in matrix.certificate_weights]
    return tuple(u for u in product(*box) if matrix.degree(u) == tuple(b))


def hilbert_value(numerator, matrix, b):
    """Independent Hilbert-function oracle: convolve with the free series."""
    total = 0
    for k, coeff in numerator.items():
        shifted = tuple(x - y for x, y in zip(b, k))
        total += coeff * len(fiber(matrix, shifted))
    return total


def test_ideal_hash_is_cached_and_follows_the_generators():
    import dataclasses

    ideal = minimalize([(2, 0, 1), (0, 3, 0), (2, 1, 1)])
    twin = MonomialIdeal((pack((0, 3, 0)), pack((2, 0, 1))), 3)  # built separately
    assert ideal == twin and hash(ideal) == hash(twin) == hash(ideal.packed)
    other = dataclasses.replace(ideal, packed=(pack((1, 0, 0)),))
    assert hash(other) == hash((pack((1, 0, 0)),)) and other != ideal
    assert other == minimalize([(1, 0, 0)]) and ideal < other
    assert repr(ideal) == "MonomialIdeal([[0, 3, 0], [2, 0, 1]])"
    assert {ideal: 1}[twin] == 1


def ranker(weight):
    """The term order of a weight on exponent tuples, through ``weight_rank``."""
    rank = weight_rank(weight, len(weight))
    return lambda u: rank(pack(u))


def test_compare_basics():
    key = ranker((1, 1, 2, 0, 2))
    assert key((1, 2, 0, 0, 1)) == key([1, 2, 0, 0, 1])
    # c^2 e beats d^3 under this weight
    assert key((0, 0, 2, 0, 1)) > key((0, 0, 0, 3, 0))
    mask = ranker((0, 0, 1, 20, 22))
    # a e^2 beats c d^2 under the masking weight
    assert mask((1, 0, 0, 0, 2)) > mask((0, 0, 1, 2, 0))


def test_compare_is_total_with_lex_ties():
    key = ranker((1, 1))
    assert key((2, 0)) > key((1, 1))  # tie broken by x1 priority
    assert max([(1, 1), (2, 0)], key=key) == (2, 0)


def test_minimalize():
    assert minimalize([(2,), (3,)]) == MonomialIdeal((pack((2,)),), 1)
    assert minimalize([]) == MonomialIdeal((), 0)
    _, J = named_ideal("deficient-20")
    assert len(J.gens) == 20  # the listed generators are already minimal
    assert minimalize(J.gens) == J


@pytest.mark.parametrize("gens", [
    [(1, 0, 0), (0, 0, 0, 0, 1)],
    [(0, 1), (0, 0, 1)],  # both pack to 1
    [(1, 1), (2, 0), (1,)],
])
def test_minimalize_rejects_generators_of_two_lengths(gens):
    with pytest.raises(BadLength):
        minimalize(gens)


def colon(ideal, m):
    """(ideal : x^m), by ``packed_colon`` of each generator."""
    n = len(m)
    guard = guard_mask(n)
    pm = pack(m)
    return minimalize(unpack(packed_colon(pack(g), pm, guard), n) for g in ideal.gens)


def test_colon():
    assert colon(minimalize([(2,)]), (1,)) == MonomialIdeal((pack((1,)),), 1)
    _, J = named_ideal("deficient-20")
    assert colon(J, (0,) * 6) == J


def test_colon_matches_membership_oracle():
    # (M : y) on M = <xy, y^2> compared against the raw definition
    M = minimalize([(1, 1), (0, 2)])
    quotient = colon(M, (0, 1))
    assert quotient == minimalize([(1, 0), (0, 1)])
    for a in range(4):
        for b in range(4):
            u = (a, b)
            shifted = (a, b + 1)
            assert quotient.contains(u) == M.contains(shifted)


def test_radical():
    assert minimalize([(2,)]).radical() == MonomialIdeal((pack((1,)),), 1)
    _, J = named_ideal("deficient-20")
    rad = J.radical()
    assert rad == minimalize([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0),
                              (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0),
                              (0, 0, 0, 0, 1, 0)])
    assert (0, 0, 0, 0, 1, 0) in rad.gens  # x5 from the pure power x5^6
    assert rad.radical() == rad


def test_fiber_small():
    m12 = validate_grading([[1, 2]])
    assert fiber(m12, (2,)) == ((0, 1), (2, 0))
    m137 = validate_grading([[1, 3, 7]])
    assert fiber(m137, (7,)) == ((0, 0, 1), (1, 2, 0), (4, 1, 0), (7, 0, 0))
    assert fiber(m137, (-3,)) == ()


@pytest.mark.parametrize("rows,degrees", [
    ([[1, 2]], [(b,) for b in range(-2, 12)]),
    ([[1, 3, 7]], [(b,) for b in range(-3, 30)]),
    ([[1, 1, 1], [0, 1, -1]], [(b1, b2) for b1 in range(-1, 7) for b2 in range(-7, 8)]),
], ids=["g12", "g137", "negative-entry"])
def test_fiber_matches_the_box(rows, degrees):
    m = validate_grading(rows)
    for b in degrees:
        assert fiber(m, b) == box_fiber(m, b)


@pytest.mark.parametrize("b", [(4,), (4, 7, 9), ()], ids=["short", "long", "empty"])
def test_fiber_of_a_degree_without_d_entries_raises(b):
    """A degree is not truncated or padded to the d rows of A."""
    with pytest.raises(BadLength):
        fiber(validate_grading([[1, 1, 1, 1, 1], [0, 1, 3, 4, 6]]), b)


def test_fiber_raises_at_once_on_an_exponent_of_2_31():
    with pytest.raises(ExponentOverflow):
        fiber(validate_grading([[1]]), (FIELD_LIMIT,))
    with pytest.raises(ExponentOverflow):
        fiber(validate_grading([[1, 1]]), (FIELD_LIMIT,))


def test_fiber_matches_degree():
    m = validate_grading([[1, 1, 1, 1, 1], [0, 1, 6, 7, 9]])
    b = (3, 9)
    monos = fiber(m, b)
    assert monos and all(m.degree(u) == b for u in monos)


def test_kpolynomial_basics():
    m12 = validate_grading([[1, 2]])
    assert k_polynomial(minimalize([]), m12) == {(0,): 1}
    left = k_polynomial(minimalize([(2, 0)]), m12)
    right = k_polynomial(minimalize([(0, 1)]), m12)
    assert left == right == {(0,): 1, (2,): -1}


def test_kpolynomial_of_unit_ideal():
    m12 = validate_grading([[1, 2]])
    assert k_polynomial(minimalize([(0, 0)]), m12) == {}


def test_kpolynomial_counts_standard_monomials():
    from agraded import initial_ideal

    m = validate_grading([[1, 3, 7]])
    ideal = initial_ideal(m, (1, 0, 0))
    numerator = k_polynomial(ideal, m)
    for value in range(0, 51):
        b = (value,)
        standard = [u for u in fiber(m, b) if not ideal.contains(u)]
        assert hilbert_value(numerator, m, b) == len(standard)
        assert len(standard) <= 1


def test_kpolynomial_memo_leaves_out_the_ideal_asked_for():
    m = validate_grading([[1, 1, 1], [0, 2, 5]])
    ideal = minimalize([(3, 0, 0), (1, 2, 0), (0, 1, 2), (0, 4, 1), (2, 0, 2)])
    memo = {}
    first = k_polynomial(ideal, m, memo=memo)
    assert memo and tuple(sorted(map(pack, ideal.gens))) not in memo
    size = len(memo)
    assert k_polynomial(ideal, m, memo=memo) == first
    assert len(memo) == size  # a repeat is answered from the entries below it


def test_kpolynomial_subtract_and_shift():
    p = {(1,): 2, (0,): 1}
    q = {(1,): 2}
    assert kpoly_sub(p, q) == {(0,): 1}
    assert kpoly_shift(p, (3,)) == {(4,): 2, (3,): 1}
    assert kpoly_sub(p, p) == {}


# -- oracle: the K-polynomial recursion on exponent tuples ------------------------

def kpoly_sub(p, q):
    """p - q on {degree tuple: coefficient} dicts, without zero terms."""
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0) - v
    return {k: v for k, v in out.items() if v}


def kpoly_shift(p, by):
    """t^by p on a {degree tuple: coefficient} dict."""
    return {tuple(x + y for x, y in zip(k, by)): v for k, v in p.items()}


def k_polynomial_oracle(ideal, matrix, memo=None):
    """The generator recursion N(<G, m>) = N(<G>) - t^{A.m} N(<G> : m) on
    tuples: tuple colons, tuple minimalization, dict arithmetic and the
    pivot of largest total degree, as ``k_polynomial`` ran before it moved
    to packed generators and degree codes."""
    memo = {} if memo is None else memo
    d = matrix.d

    def rec(gens):
        if not gens:
            return {(0,) * d: 1}
        if gens == ((0,) * len(gens[0]),):
            return {}
        if gens not in memo:
            m = max(gens, key=lambda g: (sum(g), g))
            rest = tuple(g for g in gens if g != m)
            colon = {tuple(max(x - y, 0) for x, y in zip(g, m)) for g in rest}
            colon = tuple(sorted(g for g in colon
                                 if not any(h != g and divides(h, g) for h in colon)))
            memo[gens] = kpoly_sub(rec(rest), kpoly_shift(rec(colon), matrix.degree(m)))
        return memo[gens]

    return rec(ideal.gens)


NEGATIVE_ENTRY = [[1, 1, 1], [-1, 0, 1]]


def test_kpolynomial_at_the_field_limit_decodes_exactly():
    m = validate_grading(NEGATIVE_ENTRY)
    top = FIELD_LIMIT - 1
    for gens in ([(top, 0, 0)], [(0, 0, top)], [(top, top, top)], [(top, 0, 1), (1, 0, top)]):
        ideal = minimalize(gens)
        numerator = k_polynomial(ideal, m)
        assert numerator == k_polynomial_oracle(ideal, m)
    assert k_polynomial(minimalize([(top, 0, 0)]), m) == {(0, 0): 1, (top, -top): -1}


def test_degree_code_outside_the_bound_raises():
    m = validate_grading(NEGATIVE_ENTRY)
    code = degree_code(m)
    top = FIELD_LIMIT - 1
    for u in [(top, 0, 0), (0, top, 0), (0, 0, top), (top, top, top), (top, 5, 0)]:
        assert code.degree[code.code[pack(u)]] == m.degree(u)
    # row 0 reaches 3 (2**31 - 1) and row 1 2 (2**31 - 1) on packed monomials
    for degree in [(3 * top + 1, 0), (0, 2 * top + 1), (-1, -2 * top - 1)]:
        raw = sum(b << (code.bits * k) for k, b in enumerate(degree))
        with pytest.raises(ExponentOverflow):
            code.degree[raw]
    with pytest.raises(ExponentOverflow):  # a digit past the last row
        code.degree[1 << (2 * code.bits)]


def test_degree_code_encode_inverts_degree():
    """``encode`` and ``degree`` are inverse on the box |b_k| <= L_k, and agree with ``code``."""
    m = validate_grading(NEGATIVE_ENTRY)
    code = degree_code(m)
    top = FIELD_LIMIT - 1
    assert code.limits == [3 * top, 2 * top]
    for b in [(0, 0), (5, -7), (3 * top, 2 * top), (-3 * top, -2 * top), (3 * top, -2 * top)]:
        assert code.degree[code.encode(b)] == b
    for u in [(top, 0, 0), (0, 0, top), (top, top, top), (top, 5, 0), (1, 2, 3)]:
        assert code.encode(m.degree(u)) == code.code[pack(u)]
    for b in [(3 * top + 1, 0), (0, 2 * top + 1), (-1, -2 * top - 1)]:
        with pytest.raises(ExponentOverflow):
            code.encode(b)
    for b in [(), (1,), (1, 2, 3)]:
        with pytest.raises(BadLength):
            code.encode(b)


def test_packed_nf_multiplies_coefficients():
    from agraded.monomials import guard_mask, pack, packed_nf

    guard = guard_mask(2)
    reducers = ((pack((2, 0)), pack((0, 1)), Fraction(3, 7)),)  # x^2 -> 3/7 y
    assert packed_nf(pack((3, 0)), 2, (), reducers, guard) == (pack((1, 1)), Fraction(6, 7))
    assert packed_nf(pack((4, 0)), 1, (), reducers, guard) == (pack((0, 2)), Fraction(9, 49))
    assert packed_nf(pack((0, 3)), 5, (), reducers, guard) == (pack((0, 3)), 5)
    # a monomial reducer removes the term once a rewrite reaches it
    assert packed_nf(pack((4, 0)), 1, (pack((0, 2)),), reducers, guard) is None
