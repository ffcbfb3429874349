"""Monomial ideals, term orders, fibers and K-polynomials."""

from fractions import Fraction

from agraded import (
    KPolynomial,
    MonomialIdeal,
    TermOrder,
    fiber,
    k_polynomial,
    minimalize,
    validate_grading,
)
from agraded.fixtures import named_ideal
from agraded.linalg import dot


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
    twin = MonomialIdeal(((0, 3, 0), (2, 0, 1)))  # built separately
    assert ideal == twin and hash(ideal) == hash(twin) == hash(ideal.gens)
    other = dataclasses.replace(ideal, gens=((1, 0, 0),))
    assert hash(other) == hash(((1, 0, 0),)) and other != ideal
    assert other == MonomialIdeal(((1, 0, 0),)) and ideal < other
    assert repr(ideal) == "MonomialIdeal([[0, 3, 0], [2, 0, 1]])"
    assert {ideal: 1}[twin] == 1


def test_compare_basics():
    order = TermOrder((1, 1, 2, 0, 2))
    assert order.compare((1, 2, 0, 0, 1), (1, 2, 0, 0, 1)) == 0
    # c^2 e beats d^3 under this weight
    assert order.compare((0, 0, 2, 0, 1), (0, 0, 0, 3, 0)) == 1
    mask = TermOrder((0, 0, 1, 20, 22))
    # a e^2 beats c d^2 under the masking weight
    assert mask.compare((1, 0, 0, 0, 2), (0, 0, 1, 2, 0)) == 1


def test_compare_is_total_with_lex_ties():
    order = TermOrder((1, 1))
    assert order.compare((2, 0), (1, 1)) == 1  # tie broken by x1 priority
    assert order.compare((1, 1), (2, 0)) == -1


def test_minimalize():
    assert minimalize([(2,), (3,)]) == MonomialIdeal(((2,),))
    assert minimalize([]) == MonomialIdeal(())
    _, J = named_ideal("deficient-20")
    assert len(J.gens) == 20  # the listed generators are already minimal
    assert minimalize(J.gens) == J


def test_colon():
    assert minimalize([(2,)]).colon((1,)) == MonomialIdeal(((1,),))
    _, J = named_ideal("deficient-20")
    assert J.colon((0,) * 6) == J


def test_colon_matches_membership_oracle():
    # (M : y) on M = <xy, y^2> compared against the raw definition
    M = minimalize([(1, 1), (0, 2)])
    quotient = M.colon((0, 1))
    assert quotient == minimalize([(1, 0), (0, 1)])
    for a in range(4):
        for b in range(4):
            u = (a, b)
            shifted = (a, b + 1)
            assert quotient.contains(u) == M.contains(shifted)


def test_radical():
    assert minimalize([(2,)]).radical() == MonomialIdeal(((1,),))
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


def test_fiber_matches_degree():
    m = validate_grading([[1, 1, 1, 1, 1], [0, 1, 6, 7, 9]])
    b = (3, 9)
    monos = fiber(m, b)
    assert monos and all(m.degree(u) == b for u in monos)


def test_kpolynomial_basics():
    m12 = validate_grading([[1, 2]])
    one = KPolynomial.one(1)
    assert k_polynomial(minimalize([]), m12) == one
    left = k_polynomial(minimalize([(2, 0)]), m12)
    right = k_polynomial(minimalize([(0, 1)]), m12)
    assert left == right == KPolynomial({(0,): 1, (2,): -1})


def test_kpolynomial_of_unit_ideal():
    m12 = validate_grading([[1, 2]])
    assert k_polynomial(minimalize([(0, 0)]), m12).is_zero()


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


def test_kpolynomial_pivot_independence():
    import random

    m = validate_grading([[1, 1, 1], [0, 2, 5]])
    gens = [(3, 0, 0), (1, 2, 0), (0, 1, 2), (0, 4, 1), (2, 0, 2)]
    ideal = minimalize(gens)
    reference = k_polynomial(ideal, m)
    for seed in range(6):
        rng = random.Random(seed)
        chooser = lambda gs: rng.choice(gs)
        assert k_polynomial(ideal, m, memo={}, pivot=chooser) == reference


def test_kpolynomial_subtract_and_shift():
    p = KPolynomial({(1,): 2, (0,): 1})
    q = KPolynomial({(1,): 2})
    assert (p - q) == KPolynomial({(0,): 1})
    assert p.shifted((3,)) == KPolynomial({(4,): 2, (3,): 1})
    assert (p - p).is_zero()


def test_packed_nf_multiplies_coefficients():
    from agraded.monomials import guard_mask, pack, packed_nf

    guard = guard_mask(2)
    reducers = ((pack((2, 0)), pack((0, 1)), Fraction(3, 7)),)  # x^2 -> 3/7 y
    assert packed_nf(pack((3, 0)), 2, (), reducers, guard) == (pack((1, 1)), Fraction(6, 7))
    assert packed_nf(pack((4, 0)), 1, (), reducers, guard) == (pack((0, 2)), Fraction(9, 49))
    assert packed_nf(pack((0, 3)), 5, (), reducers, guard) == (pack((0, 3)), 5)
    # a monomial reducer removes the term once a rewrite reaches it
    assert packed_nf(pack((4, 0)), 1, (pack((0, 2)),), reducers, guard) is None
