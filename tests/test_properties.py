"""Property-based invariants for the combinatorial core."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from agraded import MonomialIdeal, explore, fiber, k_polynomial, minimalize, validate_grading
from agraded.monomials import FIELD_LIMIT, degree_code, divides, pack, unpack
from test_monomials import colon


exponents3 = st.tuples(
    st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)
)
gensets3 = st.lists(exponents3, min_size=0, max_size=8)
# small entries mixed with entries at the top of the packed field range
wide_entries = st.one_of(st.integers(0, 5), st.integers(FIELD_LIMIT - 3, FIELD_LIMIT - 1))
wide3 = st.tuples(wide_entries, wide_entries, wide_entries)
wide_gensets3 = st.lists(wide3, min_size=0, max_size=8)


def tuple_minimalize(gens):
    """The tuple sweep minimalize replaced, kept as its oracle."""
    items = sorted(set(tuple(g) for g in gens), key=lambda g: (sum(g), g))
    keep = []
    for g in items:
        if not any(divides(h, g) for h in keep):
            keep.append(g)
    return MonomialIdeal(tuple(sorted(keep)))


@given(wide3)
def test_pack_roundtrip(u):
    assert unpack(pack(u), 3) == u


@given(wide_gensets3, wide3)
def test_packed_contains_matches_divides(gens, u):
    ideal = MonomialIdeal(tuple(gens))
    assert ideal.contains(u) == any(divides(g, u) for g in gens)


@given(st.one_of(gensets3, wide_gensets3))
def test_packed_minimalize_matches_tuple_sweep(gens):
    assert minimalize(gens) == tuple_minimalize(gens)


def outside_in_fiber(ideal, matrix, b, fibers):
    """The elements of the degree-b fiber outside the ideal, by tuple divides."""
    if b not in fibers:
        fibers[b] = fiber(matrix, b)
    return [u for u in fibers[b] if not any(divides(h, u) for h in ideal.gens)]


@pytest.mark.parametrize("name,multi", [
    pytest.param(name, multi, id=name + ("-all-ideals" if multi else ""))
    for name, multi in [("g137", False), ("veronese6", False), ("g36-8-10-15", False),
                        ("veronese6", True), ("g36-8-10-15", True)]
])
def test_standard_monomial_is_the_fiber_element_outside(name, multi):
    """Every vertex of an explored graph, at the degree of each generator.

    The values come from the cache that explore filled, so this pins the
    carried values as well as the backtracked ones, from the reference
    ideal and from every ideal at once.
    """
    from agraded import AGradedContext, brute_force_enumerate
    from agraded.fixtures import named_matrix

    ctx = AGradedContext(named_matrix(name))
    start = brute_force_enumerate(AGradedContext(ctx.A)) if multi else None
    fibers = {}
    for ideal in explore(ctx, start=start).vertices:
        for g in ideal.gens:
            b = ctx.A.degree(g)
            assert outside_in_fiber(ideal, ctx.A, b, fibers) == [ctx.standard_monomial(ideal, b)]


def test_carry_repeats_the_trade_where_one_lands_inside():
    """Carries where s - b + a still lies in the target, found on g36-8-10-15.

    For each flip M -> M' over (a, b) of the graph and each degree beta of
    a generator of M' that M has cached, trading x^b for x^a once leaves a
    multiple of x^b, which lies inside M', when x^{2b} divides std_M(beta).
    The carry repeats the trade; it must store the fiber element outside
    M' there.
    """
    from agraded import AGradedContext, flip
    from agraded.fixtures import named_matrix

    matrix = named_matrix("g36-8-10-15")
    graph = explore(AGradedContext(matrix), guard=250)  # its vertex count
    degree = degree_code(matrix).degree
    fibers = {}
    cases = 0
    for i, j, label in graph.edges:
        for source in (graph.vertices[i], graph.vertices[j]):
            ctx = AGradedContext(matrix)
            move = flip(source, label, ctx)
            a, b, target = move.a, move.b, move.target
            cached = {ctx.A.degree(g) for g in source.gens}
            for beta in cached:
                ctx.standard_monomial(source, beta)
            ctx.carry(move)
            carried = {degree[k]: c for k, c in ctx._standard.get(target, {}).items()}
            for beta in {ctx.A.degree(g) for g in target.gens} & cached:
                s = ctx.standard_monomial(source, beta)
                if not divides(b, s):
                    continue
                once = tuple(x - y + z for x, y, z in zip(s, b, a))
                if target.contains(once):
                    cases += 1
                    assert outside_in_fiber(target, matrix, beta, fibers) == [carried[beta]]
    assert cases == 72  # over both directions of the 553 edges


def test_carry_stores_nothing_inside_the_target():
    """A move whose target contains the candidate leaves that degree uncached."""
    from agraded import AGradedContext, FlipMove, neighbors
    from agraded.fixtures import named_matrix

    ctx = AGradedContext(named_matrix("g137"))
    source = ctx.reference_ideal
    move = neighbors(source, ctx)[0]
    ctx.carry(move)
    carried = dict(ctx._standard[move.target])
    beta, c = next(iter(carried.items()))
    # the same trade into a target that also holds the candidate
    wrong = minimalize(move.target.gens + (c,))
    fresh = AGradedContext(ctx.A)
    for g in source.gens:
        fresh.standard_monomial(source, fresh.A.degree(g))
    fresh.carry(FlipMove(source, move.a, move.b, wrong))
    assert beta not in fresh._standard.get(wrong, {})


def test_packed_forms_and_the_wall_kernels_on_g36_8_10_15():
    """Stored packed forms equal packing afresh, and the early exit is exact.

    Every vertex and flip target of the graph and every brute-force ideal
    keeps ``pack`` of its generators.  On every flip candidate the wall
    test that stops at the first survivor agrees with the full completion
    marked the same way.
    """
    from agraded import AGradedContext, brute_force_enumerate, flip
    from agraded.fixtures import named_matrix
    from agraded.ideals import wall_initial, wall_recovers_source
    from test_binomials import kernel_args

    ctx = AGradedContext(named_matrix("g36-8-10-15"))
    ideals = list(brute_force_enumerate(ctx))
    rejected = 0
    for ideal in explore(ctx, guard=250).vertices:  # its vertex count
        ideals.append(ideal)
        for a in ideal.gens:
            b = ctx.standard_monomial(ideal, ctx.A.degree(a))
            rest, pa, pb, n, known = kernel_args(ideal, a, b)
            known[pa] = a
            recovered = wall_recovers_source(rest, pa, pb, n)
            assert recovered == (wall_initial(rest, pb, pa, n, known) == ideal)
            if recovered:
                ideals.append(flip(ideal, (a, b), ctx).target)
            else:
                rejected += 1
    assert rejected
    for ideal in ideals:
        assert ideal.packed == tuple(map(pack, ideal.gens))


def oracle_wall_initial_formula(rest, pa, pb, n, known):
    """``wall_initial`` as it was before the merge: every survivor, one minimal sweep."""
    from agraded.ideals import _wall_survivors
    from agraded.monomials import guard_mask, ideal_from_packed

    survivors = list(_wall_survivors(rest, pb, pa, guard_mask(n)))
    return ideal_from_packed([*rest, *survivors, pb], n, known)


@pytest.mark.parametrize("name, seed", [("g36-8-10-15", 0), ("g36-8-10-15", 1), ("veronese6", 2)])
def test_seeded_random_flip_walks(name, seed):
    """The merged wall ideal, the flips and the packed carry along random walks.

    From the reference ideal, each step takes a random generator x^a and
    the standard monomial x^b of its degree.  With both markings, the
    merged ``wall_initial`` equals the sweep over every survivor, and it
    keeps the packed form of its generators.  An accepted flip equals
    ``definition_flip_ideal``; the walk moves to its target, where
    ``carry`` stores only degrees whose standard monomial a fresh context
    computes to the same value, with their packed forms.
    """
    import random

    from agraded import AGradedContext, NotFlippable, flip
    from agraded.fixtures import named_matrix
    from agraded.ideals import definition_flip_ideal, wall_initial
    from test_binomials import kernel_args

    rng = random.Random(seed)
    ctx = AGradedContext(named_matrix(name))
    fresh = AGradedContext(ctx.A)
    ideal = ctx.reference_ideal
    accepted = rejected = carried = 0
    for _ in range(150):
        a = rng.choice(ideal.gens)
        b = ctx.standard_monomial(ideal, ctx.A.degree(a))
        rest, pa, pb, n, known = kernel_args(ideal, a, b)
        merged = wall_initial(rest, pa, pb, n, known)
        assert merged == oracle_wall_initial_formula(rest, pa, pb, n, known)
        assert merged.packed == tuple(map(pack, merged.gens))
        known[pa] = a
        assert wall_initial(rest, pb, pa, n, known) == oracle_wall_initial_formula(
            rest, pb, pa, n, known)
        try:
            move = flip(ideal, (a, b), ctx)
        except NotFlippable:
            rejected += 1
            continue
        accepted += 1
        assert move.target == definition_flip_ideal(ideal, a, b, ctx.graver)
        for g in ideal.gens:
            ctx.standard_monomial(ideal, ctx.A.degree(g))
        ctx._standard.pop(move.target, None)
        ctx.carry(move)
        for code, c in ctx._standard.get(move.target, {}).items():
            assert c == fresh.standard_monomial(move.target, degree_code(ctx.A).degree[code])
            assert ctx.pack(c) == pack(c)
            carried += 1
        ideal = move.target
    assert accepted and rejected and carried


def test_not_flippable_keeps_its_message():
    from agraded import NotFlippable

    exc = NotFlippable((0, 0, 2, 0, 1), (0, 0, 0, 3, 0))
    assert str(exc) == "wall of (0, 0, 2, 0, 1) - (0, 0, 0, 3, 0) does not re-mark to the source"
    assert exc.args == ((0, 0, 2, 0, 1), (0, 0, 0, 3, 0))


@given(st.one_of(gensets3, wide_gensets3))
def test_minimalize_keeps_the_packed_generators(gens):
    ideal = minimalize(gens)
    assert ideal.packed == tuple(map(pack, ideal.gens))


@given(gensets3)
def test_minimalize_idempotent(gens):
    once = minimalize(gens)
    assert minimalize(once.gens) == once


@given(gensets3, st.randoms(use_true_random=False))
def test_minimalize_order_insensitive(gens, rng):
    shuffled = list(gens)
    rng.shuffle(shuffled)
    assert minimalize(shuffled) == minimalize(gens)


@given(gensets3)
def test_minimal_generators_form_antichain(gens):
    ideal = minimalize(gens)
    for g in ideal.gens:
        for h in ideal.gens:
            if g != h:
                assert not divides(g, h)


@given(gensets3, exponents3)
def test_colon_definition(gens, m):
    ideal = minimalize(gens)
    quotient = colon(ideal, m)
    for a in range(4):
        for b in range(4):
            for c in range(4):
                u = (a, b, c)
                shifted = tuple(x + y for x, y in zip(u, m))
                assert quotient.contains(u) == ideal.contains(shifted)


@given(gensets3)
def test_colon_by_one_is_identity(gens):
    ideal = minimalize(gens)
    assert colon(ideal, (0, 0, 0)) == ideal


@given(gensets3)
def test_radical_idempotent(gens):
    ideal = minimalize(gens)
    rad = ideal.radical()
    assert rad.radical() == rad
    for g in rad.gens:
        assert all(e <= 1 for e in g)


KPOLY_MATRICES = {
    "one-row": [[1, 2, 3]],
    "two-row": [[1, 1, 1], [0, 2, 5]],
    "negative-entry": [[1, 1, 1], [-1, 0, 1]],
}


@pytest.mark.parametrize("rows", list(KPOLY_MATRICES.values()), ids=list(KPOLY_MATRICES))
@settings(max_examples=60, deadline=None)
@given(st.one_of(gensets3, wide_gensets3))
def test_packed_kpolynomial_matches_the_tuple_oracle(rows, gens):
    from test_monomials import k_polynomial_oracle

    matrix = validate_grading(rows)
    ideal = minimalize(gens)
    assert k_polynomial(ideal, matrix) == k_polynomial_oracle(ideal, matrix)


@settings(max_examples=20, deadline=None)
@given(gensets3)
def test_kpolynomial_counts_standard_monomials(gens):
    from agraded import fiber

    matrix = validate_grading([[1, 2, 3]])
    ideal = minimalize(gens)
    numerator = k_polynomial(ideal, matrix)
    for value in range(9):
        b = (value,)
        count = sum(
            coeff * len(fiber(matrix, tuple(x - y for x, y in zip(b, k))))
            for k, coeff in numerator.items()
        )
        standard = [u for u in fiber(matrix, b) if not ideal.contains(u)]
        assert count == len(standard)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=2, max_size=3, unique=True))
def test_random_rank_one_pipelines(weights):
    """End-to-end sanity on random small one-row matrices."""
    from agraded import (
        brute_force_enumerate,
        explore,
        graver_basis,
        graver_oracle,
        is_agraded,
        AGradedContext,
    )
    from agraded.grading import positive_combination

    matrix = validate_grading([sorted(weights)])
    ctx = AGradedContext(matrix)
    basis = set(ctx.graver.elements)
    top = max(positive_combination(matrix, matrix.degree(u)) for u, _ in basis)
    assert set(graver_oracle(matrix, top).elements) == basis
    ideals = brute_force_enumerate(ctx)
    graph = explore(ctx, start=ideals)
    assert set(graph.vertices) == set(ideals)
    assert all(is_agraded(v, ctx) for v in graph.vertices)
    for i, j, label in graph.edges:
        assert label in basis


def tuple_remainder(poly, gb):
    """Remainder of {exponent: coefficient} on division by a marked basis, on tuples.

    The largest term is reduced by the first lead that divides it (a
    monomial removes it) or moved to the remainder; independent of the
    packed kernels.
    """
    poly, rest = dict(poly), {}
    while poly:
        u = max(poly, key=gb.order.key)
        c = poly.pop(u)
        if any(divides(m, u) for m in gb.monomials.gens):
            continue
        for b in gb.binomials:
            if divides(b.lead, u):
                v = tuple(x - y + z for x, y, z in zip(u, b.lead, b.trail))
                poly[v] = poly.get(v, 0) + c * b.coeff
                if not poly[v]:
                    del poly[v]
                break
        else:
            rest[u] = c
    return rest


def s_polynomials(gb):
    """The S-polynomials of every pair of a marked basis, as {exponent: coefficient}."""
    marked = [(b.lead, {b.lead: 1, b.trail: -b.coeff}) for b in gb.binomials]
    marked += [(m, {m: 1}) for m in gb.monomials.gens]
    for i, (a, f) in enumerate(marked):
        for b, g in marked[:i]:
            l = tuple(map(max, a, b))
            s = {}
            for lead, poly, sign in ((a, f, 1), (b, g, -1)):
                for u, c in poly.items():
                    v = tuple(x + y - z for x, y, z in zip(u, l, lead))
                    s[v] = s.get(v, 0) + sign * c
            yield {v: c for v, c in s.items() if c}


def assert_reduced_groebner_basis(gens, gb):
    """Reduced, every generator reduces to zero, and Buchberger's criterion, on tuples."""
    from agraded import Binomial

    leads = [b.lead for b in gb.binomials] + list(gb.monomials.gens)
    for i, g in enumerate(leads):
        assert not any(divides(h, g) for j, h in enumerate(leads) if j != i)
        assert not any(divides(g, b.trail) for b in gb.binomials)
    for g in gens:
        poly = {g.lead: 1, g.trail: -g.coeff} if isinstance(g, Binomial) else {g: 1}
        assert tuple_remainder(poly, gb) == {}
    for spoly in s_polynomials(gb):
        assert tuple_remainder(spoly, gb) == {}


nonzero_integers = st.integers(1, 4).flatmap(lambda a: st.sampled_from((a, -a)))
nonzero_rationals = st.one_of(nonzero_integers,
                              st.builds(Fraction, nonzero_integers, st.integers(1, 4)))
small3 = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.just(1), st.integers(1, 3), st.integers(1, 3)),
       st.tuples(st.integers(-2, 3), st.integers(-2, 3), st.integers(-2, 3)),
       st.lists(st.tuples(small3, small3, nonzero_rationals), min_size=1, max_size=4),
       st.lists(small3, max_size=2),
       st.randoms(use_true_random=False))
def test_buchberger_mixed_generators(weights, order_weight, pairs, mons, rng):
    """Reduced, order-independent, a Groebner basis, and every generator reduces to zero."""
    from agraded import Binomial, TermOrder, buchberger
    from agraded.monomials import guard_mask, packed_nf

    matrix = validate_grading([weights])
    bins = []
    for u, v, c in pairs:
        # x1 has degree 1: pad the lighter side to make the binomial homogeneous
        gap = matrix.degree(v)[0] - matrix.degree(u)[0]
        u = (u[0] + max(gap, 0),) + u[1:]
        v = (v[0] + max(-gap, 0),) + v[1:]
        if u != v:
            bins.append(Binomial(u, v, c))
    gens = bins + mons
    order = TermOrder(order_weight)
    gb = buchberger(gens, order, matrix)
    rng.shuffle(gens)
    assert buchberger(gens, order, matrix) == gb

    assert all(type(b.coeff) is Fraction for b in gb.binomials)
    assert_reduced_groebner_basis(gens, gb)
    guard = guard_mask(3)
    pmons = [pack(m) for m in gb.monomials.gens]
    pbins = [(pack(b.lead), pack(b.trail), b.coeff) for b in gb.binomials]
    for b in bins:
        assert (packed_nf(pack(b.lead), 1, pmons, pbins, guard)
                == packed_nf(pack(b.trail), b.coeff, pmons, pbins, guard))
    for m in mons:
        assert packed_nf(pack(m), 1, pmons, pbins, guard) is None


@pytest.mark.parametrize("gens, binomials, monomials", [
    ([((2, 1, 0), (0, 0, 3)), ((1, 1, 0), (0, 1, 1))],
     [((0, 1, 2), (0, 0, 3)), ((1, 0, 3), (0, 0, 4)), ((1, 1, 0), (0, 1, 1))], []),
    ([((1, 2, 0), (0, 0, 3)), (0, 2, 0)], [], [(0, 0, 3), (0, 2, 0)]),
    ([((1, 2, 0), (0, 0, 3)), ((1, 2, 0), (0, 1, 2)), (1, 2, 0)],
     [], [(0, 0, 3), (0, 1, 2), (1, 2, 0)]),
])
def test_buchberger_drops_a_superseded_input(gens, binomials, monomials):
    """A later generator whose lead divides an earlier lead, properly or not, retires it.

    Lex order on x + y + z-homogeneous generators: x y divides x^2 y, y^2
    divides x y^2, and the last case repeats the lead x y^2 three times.
    """
    from agraded import Binomial, TermOrder, buchberger

    matrix = validate_grading([[1, 1, 1]])
    order = TermOrder((0, 0, 0))
    gens = [Binomial(*g) if len(g) == 2 else g for g in gens]
    gb = buchberger(gens, order, matrix)
    assert [(b.lead, b.trail) for b in gb.binomials] == binomials
    assert list(gb.monomials.gens) == monomials
    assert buchberger(gens[::-1], order, matrix) == gb
    assert_reduced_groebner_basis(gens, gb)


def test_buchberger_chain_criterion_with_a_retired_partner():
    """The chain criterion takes the true lcm with a partner that is no longer active.

    x - z retires x z^2 - x y, whose pairs stay queued.  Taking the lcm
    with a retired partner for different from every lcm drops a pair that
    is needed and loses the monomials y z^2 and y^2 z.
    """
    from agraded import Binomial, TermOrder, buchberger

    matrix = validate_grading([[1, 2, 1]])
    order = TermOrder((1, 1, 1))
    gens = [Binomial((1, 0, 2), (1, 1, 0)), Binomial((0, 0, 1), (1, 0, 0)), (2, 0, 2)]
    gb = buchberger(gens, order, matrix)
    assert [(b.lead, b.trail) for b in gb.binomials] == [((0, 0, 3), (0, 1, 1)),
                                                          ((1, 0, 0), (0, 0, 1))]
    assert gb.monomials.gens == ((0, 1, 2), (0, 2, 1))
    assert_reduced_groebner_basis(gens, gb)


def test_buchberger_every_lawrence_saturation_of_g36_8_10_15(monkeypatch):
    """Each toric saturation of the Lawrence lifting is a reduced Groebner basis.

    The lifting saturates by five of its ten variables; every ``buchberger``
    call ``toric_ideal`` makes is recorded and checked on tuples, so the
    basis pruning is tested on inputs where many leads are superseded.
    """
    from agraded import binomials, lawrence_lifting
    from agraded.fixtures import named_matrix

    calls = []
    original = binomials.buchberger

    def recorded(gens, order, matrix):
        gb = original(gens, order, matrix)
        calls.append((gens, gb))
        return gb

    monkeypatch.setattr(binomials, "buchberger", recorded)
    binomials.toric_ideal.__wrapped__(lawrence_lifting(named_matrix("g36-8-10-15")))  # uncached
    assert len(calls) == 5
    for gens, gb in calls:
        assert_reduced_groebner_basis(gens, gb)
