"""Buchberger completion, toric ideals, initial ideals, wall ideals."""

from fractions import Fraction

import pytest

from agraded import (
    Binomial,
    NonHomogeneousInput,
    PreconditionViolated,
    TermOrder,
    buchberger,
    curve_binomial_families,
    curve_monomial_ideal,
    initial_ideal,
    minimalize,
    toric_ideal,
    validate_grading,
    wall_initial,
)
from agraded.binomials import wall_recovers_source
from agraded.fixtures import named_ideal, named_matrix


def test_single_binomial_is_its_own_basis():
    m = validate_grading([[1, 2]])
    gb = buchberger([Binomial((2, 0), (0, 1))], TermOrder((1, 0)), m)
    assert gb.monomials.is_zero()
    assert gb.binomials == (Binomial((2, 0), (0, 1)),)


def test_non_homogeneous_rejected():
    m = validate_grading([[1, 2]])
    with pytest.raises(NonHomogeneousInput):
        buchberger([Binomial((1, 0), (0, 1))], TermOrder((1, 0)), m)


def test_curve_families_are_fixed_points():
    order = TermOrder((1, 1, 2, 0, 2))
    for j in (1, 2, 3):
        m = validate_grading([[1, 1, 1, 1, 1], [0, 1, 3 + 3 * j, 4 + 3 * j, 6 + 3 * j]])
        fams = curve_binomial_families(j)
        gens = fams["p"] + fams["q"] + fams["r"] + fams["s"]
        gb = buchberger(gens, order, m)
        assert gb.monomials.is_zero()
        assert {b.pair() for b in gb.binomials} == {b.pair() for b in gens}
        assert gb.lead_ideal() == curve_monomial_ideal(j)


def test_reducedness_invariant():
    m = validate_grading([[1, 3, 7]])
    gb = buchberger(toric_ideal(m), TermOrder((1, 0, 0)), m)
    leads = [b.lead for b in gb.binomials] + list(gb.monomials.gens)
    from agraded.monomials import divides

    for i, b in enumerate(gb.binomials):
        for j, lead in enumerate(leads):
            if i != j or lead != b.lead:
                assert not divides(lead, b.lead)
        for lead in leads:
            assert not divides(lead, b.trail)


def test_determinism():
    m = validate_grading([[1, 3, 7]])
    first = buchberger(toric_ideal(m), TermOrder((1, 0, 0)), m)
    second = buchberger(toric_ideal(m), TermOrder((1, 0, 0)), m)
    assert first == second


def test_toric_ideal_12():
    m = validate_grading([[1, 2]])
    assert toric_ideal(m) == (Binomial((2, 0), (0, 1)),)


def test_initial_ideals_12():
    m = validate_grading([[1, 2]])
    assert initial_ideal(m, (1, 0)) == minimalize([(2, 0)])
    assert initial_ideal(m, (0, 1)) == minimalize([(0, 1)])


def test_initial_ideal_masked_weight_differs(ctx345, ideal_masked):
    ideal = initial_ideal(ctx345.A, (0, 0, 1, 20, 22))
    assert ideal != ideal_masked  # the masked ideal is not any initial ideal


def test_initial_numerator_independent_of_weight(ctx137):
    from agraded import k_polynomial

    weights = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (5, 2, 1), (1, 3, 7)]
    numerators = {
        k_polynomial(initial_ideal(ctx137.A, w), ctx137.A) for w in weights
    }
    assert len(numerators) == 1


def test_saturated_lattice_basis_gives_agraded_initial(ctx137):
    from agraded import is_agraded

    ideal = initial_ideal(ctx137.A, (1, 3, 7))
    assert is_agraded(ideal, ctx137)


def test_wall_initial_corank1():
    m = validate_grading([[1, 2]])
    I = minimalize([(2, 0)])
    assert wall_initial(I, (2, 0), (0, 1), "b_leads") == minimalize([(0, 1)])
    assert wall_initial(I, (2, 0), (0, 1), "a_leads") == I
    assert wall_recovers_source(I, (2, 0), (0, 1))


def test_wall_initial_preconditions():
    m = validate_grading([[1, 2]])
    I = minimalize([(2, 0)])
    with pytest.raises(PreconditionViolated):
        wall_initial(I, (3, 0), (0, 1), "b_leads")  # not a minimal generator
    with pytest.raises(PreconditionViolated):
        wall_initial(I, (2, 0), (4, 0), "b_leads")  # inside the ideal


def test_exponents_beyond_the_packed_field_raise():
    from agraded.monomials import ExponentOverflow, MonomialIdeal, divides, pack

    for bad in [(2 ** 31, 0), (0, -1)]:
        with pytest.raises(ExponentOverflow):
            pack(bad)
    with pytest.raises(ExponentOverflow):
        minimalize([(2 ** 31, 0), (0, 1)])
    # an entry of 2**31 used to spill into the guard bit, making the wall
    # ideal the unit ideal where the source ideal is the answer
    big = MonomialIdeal(((0, 1), (2 ** 31, 0)))
    with pytest.raises(ExponentOverflow):
        wall_initial(big, (0, 1), (1, 0), "a_leads")
    with pytest.raises(ExponentOverflow):
        wall_recovers_source(big, (0, 1), (1, 0))
    # packed membership refuses where tuple divisibility answers
    assert divides((2 ** 31, 0), (2 ** 31, 1))
    with pytest.raises(ExponentOverflow):
        MonomialIdeal(((2 ** 31, 0),)).contains((2 ** 31, 1))


def test_wall_rewrite_beyond_the_packed_field_raises():
    from agraded.monomials import ExponentOverflow

    # every input fits, but the S-monomial x1^(2**31) does not
    I = minimalize([(0, 1), (2 ** 31 - 1, 0)])
    with pytest.raises(ExponentOverflow):
        wall_initial(I, (0, 1), (1, 0), "a_leads")
    with pytest.raises(ExponentOverflow):
        wall_recovers_source(I, (0, 1), (1, 0))


# -- oracle: the wall-ideal completion on tuples, without the product criterion

def oracle_wall_initial(ideal, a, b, direction):
    """Initial ideal of the wall ideal of (ideal, x^a - x^b), on tuples.

    Every monomial of the completion forms its S-monomial with the marked
    binomial, which is brought to normal form by tuple divisibility.
    """
    from agraded.monomials import divides, exp_add

    lead, trail = (a, b) if direction == "a_leads" else (b, a)
    mons = [g for g in ideal.gens if g != a]
    queue = list(mons)
    while queue:
        m = queue.pop(0)
        u = exp_add(tuple(max(x - y, 0) for x, y in zip(m, lead)), trail)
        while not any(divides(g, u) for g in mons):
            if not divides(lead, u):
                mons.append(u)
                queue.append(u)
                break
            u = exp_add(tuple(x - y for x, y in zip(u, lead)), trail)
    return minimalize(mons + [lead])


@pytest.mark.parametrize("ctx_name", ["ctx137", "ctx_veronese", "ctx_corank4"])
def test_wall_tests_match_the_tuple_oracle(ctx_name, request):
    from agraded import explore

    ctx = request.getfixturevalue(ctx_name)
    tried = rejected = 0
    for ideal in explore(ctx).vertices:
        for a in ideal.gens:
            b = ctx.standard_monomial(ideal, ctx.A.degree(a))
            recovered = oracle_wall_initial(ideal, a, b, "a_leads")
            assert wall_initial(ideal, a, b, "a_leads") == recovered
            assert wall_recovers_source(ideal, a, b) == (recovered == ideal)
            assert wall_initial(ideal, a, b, "b_leads") == oracle_wall_initial(ideal, a, b, "b_leads")
            tried += 1
            rejected += recovered != ideal
    assert 0 < rejected < tried


def test_coprime_generator_overflows_before_a_later_one_rejects():
    from agraded.monomials import ExponentOverflow

    # x2^(2**31 - 1) is coprime to the lead x3^2, but its S-monomial
    # x2^(2**31) is not packable; the later generator x1 x3 rejects
    I = minimalize([(0, 0, 2), (0, 2 ** 31 - 1, 0), (1, 0, 1)])
    a, b = (0, 0, 2), (0, 1, 0)
    assert oracle_wall_initial(I, a, b, "a_leads") != I
    with pytest.raises(ExponentOverflow):
        wall_recovers_source(I, a, b)
    with pytest.raises(ExponentOverflow):
        wall_initial(I, a, b, "a_leads")


def test_wall_initial_curve_flip(curve_ctx):
    from agraded.ideals import definition_flip_ideal

    ctx = curve_ctx[1]
    M1 = curve_monomial_ideal(1)
    a, b = (5, 0, 1, 0, 0), (0, 6, 0, 0, 0)  # the unique high-degree strand flip
    target = wall_initial(M1, a, b, "b_leads")
    assert wall_initial(M1, a, b, "a_leads") == M1
    assert target == definition_flip_ideal(M1, a, b, ctx.graver)
    # flipping back returns the original ideal
    back = wall_initial(target, b, a, "b_leads")
    assert back == M1


def test_wall_initial_deficient_ideal(ctx123789, ideal_J):
    a, b = (0, 1, 0, 0, 0, 1), (0, 0, 1, 0, 1, 0)
    target = wall_initial(ideal_J, a, b, "b_leads")
    assert wall_initial(ideal_J, a, b, "a_leads") == ideal_J
    assert wall_initial(target, b, a, "b_leads") == ideal_J


def test_coefficient_arithmetic_in_completion():
    m = validate_grading([[1, 2]])
    order = TermOrder((1, 0))
    gens = [Binomial((2, 0), (0, 1), Fraction(3, 7))]
    gb = buchberger(gens, order, m)
    assert gb.binomials == (Binomial((2, 0), (0, 1), Fraction(3, 7)),)
