"""Buchberger completion, toric ideals, initial ideals, and the wall ideals of flips."""

from fractions import Fraction

import pytest

from agraded import (
    BadLength,
    Binomial,
    InputError,
    NonHomogeneousInput,
    NotApplicable,
    NotFlippable,
    buchberger,
    curve_binomial_families,
    curve_monomial_ideal,
    flip,
    initial_ideal,
    minimalize,
    toric_ideal,
    validate_grading,
)
from agraded.ideals import wall_initial, wall_recovers_source
from agraded.fixtures import named_ideal, named_matrix
from agraded.monomials import pack, unpack


def test_single_binomial_is_its_own_basis():
    m = validate_grading([[1, 2]])
    gb = buchberger([Binomial((2, 0), (0, 1))], (1, 0), m)
    assert gb.monomials.is_zero()
    assert gb.binomials == (Binomial((2, 0), (0, 1)),)


def test_coefficients_stay_exact():
    m = validate_grading([[1, 1, 1]])
    gens = [Binomial((2, 0, 0), (0, 1, 1), 3), Binomial((1, 1, 0), (0, 0, 2), 2)]
    gb = buchberger(gens, (0, 0, 0), m)
    assert gb.binomials == (
        Binomial((0, 3, 1), (0, 0, 4), Fraction(4, 3)),
        Binomial((1, 0, 2), (0, 2, 1), Fraction(3, 2)),
        Binomial((1, 1, 0), (0, 0, 2), 2),
        Binomial((2, 0, 0), (0, 1, 1), 3),
    )
    assert all(type(b.coeff) is Fraction for b in gb.binomials)
    # integer inputs: x - 2y and x - 3z give y - 3/2 z and x - 3z; x - 3y
    # and x - z give y - 1/3 z, and x - 3y reduces to x - (3 * 1/3) z = x - z
    for (c2, c3), (want_y, want_x) in [((2, 3), (Fraction(3, 2), 3)), ((3, 1), (Fraction(1, 3), 1))]:
        gens = [Binomial((1, 0, 0), (0, 1, 0), c2), Binomial((1, 0, 0), (0, 0, 1), c3)]
        assert buchberger(gens, (0, 0, 0), m).binomials == (
            Binomial((0, 1, 0), (0, 0, 1), want_y), Binomial((1, 0, 0), (0, 0, 1), want_x))
    # an input whose trail is the larger term enters re-marked
    flipped, = buchberger([Binomial((1, 0), (0, 1), 2)], (0, 1),
                          validate_grading([[1, 1]])).binomials
    assert flipped == Binomial((0, 1), (1, 0), Fraction(1, 2))
    assert type(flipped.coeff) is Fraction
    for bad in (0.5, "2"):
        with pytest.raises(InputError):
            Binomial((1, 0), (0, 1), bad)
    # one monomial twice, and a zero coefficient
    for bad in (((1, 0), (1, 0)), ((1, 0), (0, 1), 0)):
        with pytest.raises(InputError):
            Binomial(*bad)


def test_non_homogeneous_rejected():
    m = validate_grading([[1, 2]])
    with pytest.raises(NonHomogeneousInput):
        buchberger([Binomial((1, 0), (0, 1))], (1, 0), m)


def test_generators_and_weights_of_another_length_rejected():
    m = validate_grading([[1, 1, 1]])
    lex = (0, 0, 0)
    for gens in ([Binomial((1, 0), (0, 1))], [(1, 0)], [Binomial((1, 0, 0, 0), (0, 1, 0, 0))]):
        with pytest.raises(BadLength):
            buchberger(gens, lex, m)
    with pytest.raises(BadLength):
        buchberger([Binomial((1, 0, 0), (0, 1, 0))], (0, 0), m)
    g137 = named_matrix("g137")
    for weight in [(1,), (1, 0, 0, 99)]:
        with pytest.raises(BadLength):
            initial_ideal(g137, weight)


def test_weights_with_entries_other_than_ints_rejected():
    g137 = named_matrix("g137")
    for weight in [(1.5, 0, 0), ("1", 0, 0), (Fraction(1, 2), 0, 0)]:
        with pytest.raises(InputError, match="integer entries"):
            initial_ideal(g137, weight)
    # bools are ints, as for the rows of exact elimination
    assert initial_ideal(g137, (True, False, False)) == initial_ideal(g137, (1, 0, 0))


def test_curve_families_are_fixed_points():
    weight = (1, 1, 2, 0, 2)
    for j in (1, 2, 3):
        m = validate_grading([[1, 1, 1, 1, 1], [0, 1, 3 + 3 * j, 4 + 3 * j, 6 + 3 * j]])
        fams = curve_binomial_families(j)
        gens = fams["p"] + fams["q"] + fams["r"] + fams["s"]
        gb = buchberger(gens, weight, m)
        assert gb.monomials.is_zero()
        assert {b.pair() for b in gb.binomials} == {b.pair() for b in gens}
        assert gb.lead_ideal() == curve_monomial_ideal(j)


def test_reducedness_invariant():
    m = validate_grading([[1, 3, 7]])
    gb = buchberger(toric_ideal(m), (1, 0, 0), m)
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
    first = buchberger(toric_ideal(m), (1, 0, 0), m)
    second = buchberger(toric_ideal(m), (1, 0, 0), m)
    assert first == second


def test_toric_ideal_12():
    m = validate_grading([[1, 2]])
    assert toric_ideal(m) == (Binomial((2, 0), (0, 1)),)


# -- oracle: the toric saturation by every variable

def oracle_toric_ideal(matrix):
    """Generators of the toric ideal, saturating by x_1, ..., x_n in turn.

    Starts from the unreduced ``integer_kernel_basis``, so it shares no code
    with the LLL-reduced ``kernel_lattice`` of the production route.
    """
    from agraded.binomials import binomial_from_vector
    from agraded.linalg import integer_kernel_basis
    from agraded.monomials import exp_sub

    gens = tuple(binomial_from_vector(v) for v in integer_kernel_basis(matrix.rows, matrix.n))
    n = matrix.n
    for i in range(n):
        gb = buchberger(gens, tuple(-1 if j == i else 0 for j in range(n)), matrix)
        assert gb.monomials.is_zero()
        new = []
        for b in gb.binomials:
            common = min(b.lead[i], b.trail[i])
            strip = tuple(common if j == i else 0 for j in range(n))
            new.append(Binomial(exp_sub(b.lead, strip), exp_sub(b.trail, strip)))
        gens = tuple(new)
    return gens


@pytest.mark.parametrize("name,lifted", [
    ("g137", False), ("veronese6", False), ("g36-8-10-15", False),
    ("g137", True), ("veronese6", True),
])
def test_toric_ideal_matches_the_every_variable_oracle(name, lifted):
    from agraded import lawrence_lifting

    m = lawrence_lifting(named_matrix(name)) if lifted else named_matrix(name)
    oracle = oracle_toric_ideal(m)
    for weight in ((0,) * m.n, m.certificate_weights):
        assert buchberger(toric_ideal(m), weight, m) == buchberger(oracle, weight, m)


@pytest.mark.parametrize("name,vectors", [
    ("g137", ((3, -1, 0), (-2, 3, -1))),
    ("g134", ((3, -1, 0), (-2, 2, -1))),
    ("veronese6", ((-3, -1, 7, 1, -1, -3), (1, -1, -1, 0, 1, 0), (1, 0, -2, 0, 0, 1))),
    ("g36-8-10-15", ((32, -1, -10, 2, -2), (-24, 1, 7, -2, 2), (-15, 0, 5, -1, 1),
                     (45, 0, -15, 0, -1))),
])
def test_toric_ideal_from_a_scrambled_lattice_basis(name, vectors, monkeypatch):
    # for these bases J : x_D^inf is not I_L without the added x^{u+} - x^{u-}
    import agraded.binomials

    m = named_matrix(name)
    weight = (0,) * m.n
    want = buchberger(oracle_toric_ideal(m), weight, m)
    monkeypatch.setattr(agraded.binomials, "kernel_lattice", lambda _: vectors)
    assert buchberger(toric_ideal.__wrapped__(m), weight, m) == want


def test_toric_ideal_corank_zero_and_untouched_columns():
    assert toric_ideal(validate_grading([[1, 0], [0, 1]])) == ()
    # x1 occurs in no kernel vector, so u may vanish there
    assert toric_ideal(validate_grading([[1, 0, 0], [0, 1, 2]])) == (
        Binomial((0, 2, 0), (0, 0, 1)),
    )


def test_toric_ideal_beyond_the_packed_field_raises():
    from agraded.monomials import ExponentOverflow

    for rows in ([[1, 2 ** 31]], [[1, 1, 1], [0, 1, 2 ** 31]]):
        with pytest.raises(ExponentOverflow):
            toric_ideal(validate_grading(rows))


# On x + y + z-graded inputs both weights give lex order, but under the
# second every ranked term of completion is a negative integer
overflow_orders = pytest.mark.parametrize("weight", [(0, 0, 0), (-1, -1, -1)],
                                          ids=["zero", "negative"])


@overflow_orders
def test_s_polynomial_beyond_the_packed_field_raises(weight):
    from agraded.monomials import ExponentOverflow

    # every input fits, but the S-polynomial of the two has the trail z^(2**31)
    N = 2 ** 31 - 1
    gens = [Binomial((N, 0, 0), (0, 0, N)), Binomial((1, 0, 1), (0, 2, 0))]
    with pytest.raises(ExponentOverflow, match="S-polynomial"):
        buchberger(gens, weight, validate_grading([[1, 1, 1]]))


@overflow_orders
def test_rewrite_beyond_the_packed_field_raises_during_completion(weight):
    from agraded.monomials import ExponentOverflow

    # x z^N is reduced on entry: x -> y rewrites it to y z^N, which fits,
    # and y -> z to z^(2**31)
    N = 2 ** 31 - 1
    gens = [Binomial((1, 0, 0), (0, 1, 0)), Binomial((0, 1, 0), (0, 0, 1)), (1, 0, N)]
    with pytest.raises(ExponentOverflow, match="rewritten") as raised:
        buchberger(gens, weight, validate_grading([[1, 1, 1]]))
    assert [entry.name for entry in raised.traceback[-2:]] == ["buchberger", "packed_step"]


def test_s_polynomial_whose_trails_coincide_vanishes():
    # x2 (x1 - 3 x4) and x3 (x1 - 3 x4): the S-pair's terms 3 x2 x3 x4 cancel
    # at formation, and x2 x3 x4 is irreducible, so a zero entry kept there
    # would join the basis as a monomial
    gens = [Binomial((1, 1, 0, 0), (0, 1, 0, 1), 3), Binomial((1, 0, 1, 0), (0, 0, 1, 1), 3)]
    gb = buchberger(gens, (0, 0, 0, 0), validate_grading([[1, 1, 1, 1]]))
    assert gb.monomials.is_zero()
    assert gb.binomials == tuple(sorted(gens, key=lambda b: (b.lead, b.trail)))


def test_packed_step_matches_the_tuple_oracle():
    import random

    from agraded.monomials import (
        FIELD_LIMIT, IRREDUCIBLE, ExponentOverflow, divides, guard_mask, pack, packed_step,
    )

    rng = random.Random(14)
    guard = guard_mask(3)

    def mono():
        return tuple(rng.randint(0, 3) for _ in range(3))

    for _ in range(300):
        mons = [mono() for _ in range(rng.randint(0, 2))]
        bins = [(mono(), mono(), rng.randint(1, 5)) for _ in range(rng.randint(0, 3))]
        u = tuple(rng.randint(0, 6) for _ in range(3))
        if any(divides(g, u) for g in mons):
            want = None
        else:
            want = next(((pack(tuple(x - y + z for x, y, z in zip(u, lead, trail))), k)
                         for lead, trail, k in bins if divides(lead, u)), IRREDUCIBLE)
        got = packed_step(pack(u), [pack(g) for g in mons],
                          [(pack(lead), pack(trail), k) for lead, trail, k in bins], guard)
        assert got == want
    # x -> z^(2**31 - 1) rewrites x z to z^(2**31)
    with pytest.raises(ExponentOverflow):
        packed_step(pack((1, 0, 1)), [], [(pack((1, 0, 0)), pack((0, 0, FIELD_LIMIT - 1)), 1)], guard)


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
    first, *rest = [k_polynomial(initial_ideal(ctx137.A, w), ctx137.A) for w in weights]
    assert all(numerator == first for numerator in rest)


def test_saturated_lattice_basis_gives_agraded_initial(ctx137):
    from agraded import is_agraded

    ideal = initial_ideal(ctx137.A, (1, 3, 7))
    assert is_agraded(ideal, ctx137)


# -- wall ideals: ``flip`` and its two kernels

def context(rows):
    from agraded import AGradedContext

    return AGradedContext(validate_grading(rows))


def kernel_args(ideal, a, b):
    """(rest, pa, pb, n) as ``flip`` passes them to the wall kernels."""
    packed = ideal.packed
    i = packed.index(pack(a))
    rest = packed[:i] + packed[i + 1:]
    return rest, pack(a), pack(b), len(a)


def test_wall_initial_corank1(ctx12):
    I = minimalize([(2, 0)])
    assert flip(I, (pack((2, 0)), pack((0, 1))), ctx12).target == minimalize([(0, 1)])
    rest, pa, pb, n = kernel_args(I, (2, 0), (0, 1))
    assert wall_recovers_source(rest, pa, pb, n)
    assert wall_initial(rest, pa, pb, n) == minimalize([(0, 1)])


def test_wall_initial_preconditions(ctx12):
    I = minimalize([(2, 0)])
    with pytest.raises(NotApplicable):
        flip(I, (pack((3, 0)), pack((0, 1))), ctx12)  # not a minimal generator
    with pytest.raises(NotApplicable):
        flip(I, (pack((2, 0)), pack((4, 0))), ctx12)  # inside the ideal
    # sides that are not packed monomials of two fields: wider, a guard bit, negative
    for bad in [pack((0, 1, 0, 0)), 1 << 31, -1]:
        for pair in [(pack((2, 0)), bad), (bad, pack((2, 0)))]:
            with pytest.raises(InputError):
                flip(I, pair, ctx12)


def test_exponents_beyond_the_packed_field_raise():
    from agraded.monomials import ExponentOverflow, divides, pack

    for bad in [(2 ** 31, 0), (0, -1)]:
        with pytest.raises(ExponentOverflow):
            pack(bad)
    # an entry of 2**31 would spill into the guard bit, making the wall
    # ideal the unit ideal where the source ideal is the answer: such an
    # ideal is refused when it is built, so no flip or membership test sees it
    for gens in [[(2 ** 31, 0), (0, 1)], [(0, 1), (2 ** 31, 0)], [(2 ** 31, 0)]]:
        with pytest.raises(ExponentOverflow):
            minimalize(gens)
    # packed membership refuses where tuple divisibility answers
    assert divides((2 ** 31, 0), (2 ** 31, 1))
    with pytest.raises(ExponentOverflow):
        minimalize([(1, 0)]).contains((2 ** 31, 1))
    # a packed flip side with an exponent of 2**31 sets a guard bit and is refused
    with pytest.raises(InputError):
        flip(minimalize([(0, 1)]), (2 ** 31 << 32, pack((0, 1))), context([[1, 1]]))


def test_wall_rewrite_beyond_the_packed_field_raises():
    from agraded.monomials import ExponentOverflow

    # every input fits, but the S-monomial x1^(2**31) does not
    I = minimalize([(0, 1), (2 ** 31 - 1, 0)])
    a, b = (0, 1), (1, 0)
    rest, pa, pb, n = kernel_args(I, a, b)
    with pytest.raises(ExponentOverflow):
        wall_recovers_source(rest, pa, pb, n)
    with pytest.raises(ExponentOverflow):
        wall_initial(rest, pb, pa, n)  # marks x^a
    with pytest.raises(ExponentOverflow):
        flip(I, (pack(a), pack(b)), context([[1, 1]]))


# -- oracle: the wall-ideal completion on tuples, without the product criterion

def oracle_wall_initial(ideal, a, b, direction):
    """Initial ideal of the wall ideal of (ideal, x^a - x^b), on tuples.

    Every monomial of the completion forms its S-monomial with the marked
    binomial, which is brought to normal form by tuple divisibility.
    """
    from agraded.monomials import divides

    lead, trail = (a, b) if direction == "a_leads" else (b, a)
    mons = [g for g in ideal.gens if g != a]
    queue = list(mons)
    while queue:
        m = queue.pop(0)
        u = tuple(max(x - y, 0) + z for x, y, z in zip(m, lead, trail))
        while not any(divides(g, u) for g in mons):
            if not divides(lead, u):
                mons.append(u)
                queue.append(u)
                break
            u = tuple(x - y + z for x, y, z in zip(u, lead, trail))
    return minimalize(mons + [lead])


@pytest.mark.parametrize("ctx_name", ["ctx137", "ctx_veronese", "ctx_corank4"])
def test_wall_tests_match_the_tuple_oracle(ctx_name, request):
    from agraded import explore

    ctx = request.getfixturevalue(ctx_name)
    tried = rejected = 0
    for ideal in explore(ctx).vertices:
        for a in ideal.gens:
            b = unpack(ctx.standard_monomial(ideal, ctx.A.degree(a)), ctx.A.n)
            recovered = oracle_wall_initial(ideal, a, b, "a_leads")
            marked = oracle_wall_initial(ideal, a, b, "b_leads")
            try:
                move = flip(ideal, (pack(a), pack(b)), ctx)
            except NotFlippable:
                assert recovered != ideal
                assert wall_initial(*kernel_args(ideal, a, b)) == marked
                rejected += 1
            else:
                assert recovered == ideal
                assert move.target == marked
            tried += 1
    assert 0 < rejected < tried


def test_coprime_generator_overflows_before_a_later_one_rejects():
    from agraded.monomials import ExponentOverflow

    # x2^(2**31 - 1) is coprime to the lead x3^2, but its S-monomial
    # x2^(2**31) is not packable; the later generator x1 x3 rejects
    I = minimalize([(0, 0, 2), (0, 2 ** 31 - 1, 0), (1, 0, 1)])
    a, b = (0, 0, 2), (0, 1, 0)
    assert oracle_wall_initial(I, a, b, "a_leads") != I
    rest, pa, pb, n = kernel_args(I, a, b)
    with pytest.raises(ExponentOverflow):
        wall_recovers_source(rest, pa, pb, n)
    with pytest.raises(ExponentOverflow):
        wall_initial(rest, pb, pa, n)  # marks x^a
    with pytest.raises(ExponentOverflow):
        flip(I, (pack(a), pack(b)), context([[1, 2, 1]]))


def test_wall_initial_curve_flip(curve_ctx):
    from agraded.ideals import definition_flip_ideal

    ctx = curve_ctx[1]
    M1 = curve_monomial_ideal(1)
    a, b = (5, 0, 1, 0, 0), (0, 6, 0, 0, 0)  # the unique high-degree strand flip
    target = flip(M1, (pack(a), pack(b)), ctx).target
    assert target == definition_flip_ideal(M1, a, b, ctx.graver)
    # flipping back returns the original ideal
    back = flip(target, (pack(b), pack(a)), ctx).target
    assert back == M1


def test_wall_initial_deficient_ideal(ctx123789, ideal_J):
    a, b = (0, 1, 0, 0, 0, 1), (0, 0, 1, 0, 1, 0)
    target = flip(ideal_J, (pack(a), pack(b)), ctx123789).target
    assert flip(target, (pack(b), pack(a)), ctx123789).target == ideal_J


def test_coefficient_arithmetic_in_completion():
    m = validate_grading([[1, 2]])
    gens = [Binomial((2, 0), (0, 1), Fraction(3, 7))]
    gb = buchberger(gens, (1, 0), m)
    assert gb.binomials == (Binomial((2, 0), (0, 1), Fraction(3, 7)),)
