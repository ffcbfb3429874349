"""Property-based invariants for the combinatorial core."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from agraded import MonomialIdeal, explore, fiber, k_polynomial, minimalize, validate_grading
from agraded.grading import positive_combination
from agraded.monomials import FIELD_LIMIT, degree_code, divides, fiber_walk, pack, unpack
from test_monomials import box_fiber, colon


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
    return tuple(sorted(keep))


@given(wide3)
def test_pack_roundtrip(u):
    assert unpack(pack(u), 3) == u


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    *[st.tuples(*[st.integers(0, FIELD_LIMIT - 1)] * n)] * 2)))
def test_packed_order_is_lexicographic_order(pair):
    """Ascending packed integers are lexicographic exponent tuples."""
    u, v = pair
    assert (pack(u) < pack(v)) == (u < v)
    assert (pack(u) == pack(v)) == (u == v)


@st.composite
def ranked_cases(draw):
    """(weights, u, v, a, b): a divides u; u - a + b may leave the field range."""
    n = draw(st.integers(1, 6))
    entries = st.one_of(st.integers(0, 5), st.integers(0, FIELD_LIMIT - 1))
    vectors = st.tuples(*[entries] * n)
    weights = draw(st.tuples(*[st.integers(-5, 5)] * n))
    u, v, a, b = (draw(vectors) for _ in range(4))
    return weights, u, v, tuple(map(min, a, u)), b


@given(ranked_cases())
def test_ranked_integers_order_and_rewrite_as_the_term_order(case):
    """weight_rank compares as the pairs (w.u, u), keeps pack(u) in its low bits
    and is additive, so packed_step on ranked reducers returns ranked rewrites."""
    from agraded.monomials import (
        FIELD_BITS, ExponentOverflow, guard_mask, packed_step, weight_rank,
    )

    weights, u, v, a, b = case
    n = len(u)
    K = weight_rank(weights, n)
    key = term_order(weights)
    assert (K(pack(u)) < K(pack(v))) == (key(u) < key(v))
    assert K(pack(u)) & ((1 << FIELD_BITS * n) - 1) == pack(u)
    w = tuple(x - y + z for x, y, z in zip(u, a, b))
    guard = guard_mask(n)
    reducers = [(K(pack(a)), K(pack(b)), 3)]
    if max(w) < FIELD_LIMIT:
        assert K(pack(u)) - K(pack(a)) + K(pack(b)) == K(pack(w))
        assert packed_step(K(pack(u)), [], reducers, guard) == (K(pack(w)), 3)
    else:
        with pytest.raises(ExponentOverflow):
            packed_step(K(pack(u)), [], reducers, guard)


@given(wide_gensets3, wide3)
def test_packed_contains_matches_divides(gens, u):
    ideal = MonomialIdeal(tuple(map(pack, gens)), 3)  # unsorted, not minimal
    assert ideal.contains(u) == any(divides(g, u) for g in gens)


@given(st.one_of(gensets3, wide_gensets3))
def test_packed_minimalize_matches_tuple_sweep(gens):
    assert minimalize(gens).gens == tuple_minimalize(gens)


@given(st.lists(st.one_of(gensets3, wide_gensets3), max_size=8))
def test_ideals_order_and_hash_as_their_generator_tuples(gensets):
    ideals = [minimalize(gens) for gens in gensets]
    assert sorted(ideals) == sorted(ideals, key=lambda ideal: ideal.gens)
    for ideal in ideals:
        assert minimalize(ideal.gens) == ideal
        for other in ideals:
            assert (ideal == other) == (ideal.gens == other.gens)
            if ideal == other:
                assert hash(ideal) == hash(other)


walk_matrices = [validate_grading(rows) for rows in
                 ([[1, 3, 7]], [[1, 1, 1], [0, 1, -1]], [[1, 1, 1], [0, 1, 3]])]


@given(st.sampled_from(walk_matrices), gensets3, exponents3)
def test_fiber_walk_outside_an_ideal_matches_the_box(matrix, gens, u):
    """The walk yields, in order, the box elements of deg u that no generator divides."""
    ideal = minimalize(gens)
    b = matrix.degree(u)
    expected = [v for v in box_fiber(matrix, b) if not any(divides(g, v) for g in ideal.gens)]
    assert list(fiber_walk(matrix, b, ideal.packed)) == list(map(pack, expected))


@pytest.mark.parametrize("gen", [(2, 0, 0), (1, 0, 0), (0, 0, 1), (1, 1, 2), (3, 0, 1)],
                         ids=["first-2", "first-1", "last-1", "last-2", "first-and-last"])
@pytest.mark.parametrize("matrix", walk_matrices, ids=["g137", "signed", "twisted-cubic"])
def test_fiber_walk_buckets_by_the_last_nonzero_coordinate(matrix, gen):
    """A generator whose last nonzero coordinate is the first or the last one
    caps that coordinate, and the walk still matches the box."""
    for u in [(4, 0, 0), (0, 0, 4), (2, 3, 5), (5, 1, 3)]:
        b = matrix.degree(u)
        expected = [v for v in box_fiber(matrix, b) if not divides(gen, v)]
        assert list(fiber_walk(matrix, b, (pack(gen),))) == list(map(pack, expected))


def test_standard_monomial_on_the_unit_ideal_raises():
    from agraded import AGradedContext, NotAGraded

    ctx = AGradedContext(walk_matrices[0])
    unit = minimalize([(0, 0, 0)])
    assert list(fiber_walk(ctx.A, (7,), unit.packed)) == []
    with pytest.raises(NotAGraded):
        ctx.standard_monomial(unit, (7,))


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

    The values come from ``generator_standards``, the cache that explore
    filled, so this pins the carried values as well as the backtracked
    ones, from the reference ideal and from every ideal at once.
    """
    from agraded import AGradedContext, brute_force_enumerate
    from agraded.fixtures import named_matrix

    ctx = AGradedContext(named_matrix(name))
    start = brute_force_enumerate(AGradedContext(ctx.A)) if multi else None
    fibers = {}
    for ideal in explore(ctx, start=start).vertices:
        for g, s in zip(ideal.gens, ctx.generator_standards(ideal)):
            b = ctx.A.degree(g)
            assert outside_in_fiber(ideal, ctx.A, b, fibers) == [unpack(s, ctx.A.n)]


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
            move = flip(source, tuple(map(pack, label)), ctx)
            a, b, target = move.a, move.b, move.target
            cached = {ctx.A.degree(g) for g in source.gens}
            ctx.generator_standards(source)
            ctx.carry(move)
            carried = {degree[k]: unpack(c, matrix.n)
                       for k, c in ctx._standard.get(target, {}).items()}
            for beta in {ctx.A.degree(g) for g in target.gens} & cached:
                s = unpack(ctx.standard_monomial(source, beta), matrix.n)
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
    wrong = minimalize(move.target.gens + (unpack(c, move.target.n),))
    fresh = AGradedContext(ctx.A)
    fresh.generator_standards(source)
    fresh.carry(FlipMove(source, move.pa, move.pb, wrong))
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
            b = unpack(ctx.standard_monomial(ideal, ctx.A.degree(a)), ctx.A.n)
            rest, pa, pb, n = kernel_args(ideal, a, b)
            recovered = wall_recovers_source(rest, pa, pb, n)
            assert recovered == (wall_initial(rest, pb, pa, n) == ideal)
            if recovered:
                ideals.append(flip(ideal, (pa, pb), ctx).target)
            else:
                rejected += 1
    assert rejected
    for ideal in ideals:
        assert ideal.packed == tuple(map(pack, ideal.gens))


def oracle_wall_initial_formula(rest, pa, pb, n):
    """``wall_initial`` as it was before the merge: every survivor, one minimal sweep."""
    from agraded.ideals import _wall_survivors
    from agraded.monomials import guard_mask

    survivors = list(_wall_survivors(rest, pb, pa, guard_mask(n)))
    return minimalize(unpack(p, n) for p in [*rest, *survivors, pb])


@pytest.mark.parametrize("name, seed", [("g36-8-10-15", 0), ("g36-8-10-15", 1), ("veronese6", 2)])
def test_seeded_random_flip_walks(name, seed):
    """The merged wall ideal, the flips and the packed carry along random walks.

    From the reference ideal, each step takes a random generator x^a and
    the standard monomial x^b of its degree.  With both markings, the
    merged ``wall_initial`` equals the sweep over every survivor, and it
    keeps the packed form of its generators, in ascending order.  An
    accepted flip equals ``definition_flip_ideal``; the walk moves to its
    target, where ``carry`` stores only degrees whose standard monomial a
    fresh context computes to the same packed value.
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
        b = unpack(ctx.standard_monomial(ideal, ctx.A.degree(a)), ctx.A.n)
        rest, pa, pb, n = kernel_args(ideal, a, b)
        merged = wall_initial(rest, pa, pb, n)
        assert merged == oracle_wall_initial_formula(rest, pa, pb, n)
        assert merged.packed == tuple(map(pack, merged.gens))
        assert all(p < q for p, q in zip(merged.packed, merged.packed[1:]))
        back = wall_initial(rest, pb, pa, n)
        assert back == oracle_wall_initial_formula(rest, pb, pa, n)
        assert all(p < q for p, q in zip(back.packed, back.packed[1:]))
        try:
            move = flip(ideal, (pa, pb), ctx)
        except NotFlippable:
            rejected += 1
            continue
        accepted += 1
        assert move.target == definition_flip_ideal(ideal, a, b, ctx.graver)
        ctx.generator_standards(ideal)
        ctx._standard.pop(move.target, None)
        ctx.carry(move)
        for code, c in ctx._standard.get(move.target, {}).items():
            assert c == fresh.standard_monomial(move.target, degree_code(ctx.A).degree[code])
            carried += 1
        ideal = move.target
    assert accepted and rejected and carried


@pytest.mark.parametrize("name", ["g36-8-10-15", "g345-13-14"])
def test_wall_certificates_never_change_an_answer(name):
    """Certificates made on unrelated ideals change no verdict and no target.

    One shared context visits every ``explore`` vertex and every
    brute-force ideal in a seeded shuffled order, so the certificates a
    wall test reads come from ideals far from the one at hand.  For each
    generator x^a and the standard monomial x^b of its degree, ``flip``
    agrees with the certificate-free ``wall_recovers_source`` and
    ``wall_initial``, and an accepted target equals
    ``definition_flip_ideal``.  Some visits meet a stale certificate, one
    whose divisor is not a generator of the ideal at hand.
    """
    import random

    from agraded import AGradedContext, NotFlippable, brute_force_enumerate, flip
    from agraded.fixtures import named_matrix
    from agraded.ideals import definition_flip_ideal, wall_initial, wall_recovers_source
    from test_binomials import kernel_args

    census = AGradedContext(named_matrix(name))
    ideals = sorted(set(explore(census).vertices) | set(brute_force_enumerate(census)))
    random.Random(0).shuffle(ideals)
    ctx = AGradedContext(census.A)
    accepted = rejected = stale = 0
    for ideal in ideals:
        members = set(ideal.packed)
        for a, s in zip(ideal.gens, census.generator_standards(ideal)):
            b = unpack(s, ideal.n)
            rest, pa, pb, n = kernel_args(ideal, a, b)
            certs = ctx._walls.get((pa, pb), {})
            stale += sum(certs[m] not in members for m in rest if m in certs)
            if not wall_recovers_source(rest, pa, pb, n):
                with pytest.raises(NotFlippable):
                    flip(ideal, (pa, pb), ctx)
                rejected += 1
                continue
            target = flip(ideal, (pa, pb), ctx).target
            assert target == wall_initial(rest, pa, pb, n)
            assert target == definition_flip_ideal(ideal, a, b, census.graver)
            accepted += 1
    assert accepted and rejected and stale


@pytest.mark.parametrize("name, vertices", [("g137", 7), ("veronese6", 29), ("g36-8-10-15", 250)],
                         ids=["g137", "veronese6", "g36-8-10-15"])
def test_the_packed_flip_step_after_a_full_explore(name, vertices):
    """The packed standard monomials, moves and refusals at every vertex.

    After ``explore``, which carries most cache entries from a neighbour,
    the packed std(deg g) that ``generator_standards`` gives for each
    generator g is what ``standard_monomial`` gives, the first element of
    ``fiber_walk`` outside the ideal.  The sides ``a`` and ``b`` of every
    move pack back to ``pa`` and ``pb``, and ``label`` is their canonical
    pair.  ``flip`` refuses a side with a guard bit set, one wider than n
    fields and a negative one with a plain InputError (exit 2), and each
    NotFlippable names the unpacked pair.
    """
    from agraded import AGradedContext, InputError, NotFlippable, canonical_pair, flip, neighbors
    from agraded.fixtures import named_matrix

    ctx = AGradedContext(named_matrix(name))
    A, n = ctx.A, ctx.A.n
    rejected = 0
    for ideal in explore(ctx, guard=vertices).vertices:  # its vertex count
        standards = ctx.generator_standards(ideal)
        for g, s in zip(ideal.gens, standards):
            b = A.degree(g)
            assert s == ctx.standard_monomial(ideal, b)
            assert s == next(fiber_walk(A, b, ideal.packed))
        for move in neighbors(ideal, ctx):
            assert (pack(move.a), pack(move.b)) == (move.pa, move.pb)
            assert move.label == canonical_pair(move.a, move.b)
        for pa, pb in zip(ideal.packed, standards):
            for bad in (pb | 1 << 31, pb | 1 << 32 * n, -pb, -1):
                for pair in ((pa, bad), (bad, pa)):
                    with pytest.raises(InputError, match="not a packed monomial") as refused:
                        flip(ideal, pair, ctx)
                    assert type(refused.value) is InputError
            try:
                flip(ideal, (pa, pb), ctx)
            except NotFlippable as exc:
                rejected += 1
                assert str(exc) == (f"wall of {unpack(pa, n)} - {unpack(pb, n)} "
                                    "does not re-mark to the source")
    assert rejected


def test_not_flippable_keeps_its_message():
    from agraded import NotFlippable

    pa, pb = pack((0, 0, 2, 0, 1)), pack((0, 0, 0, 3, 0))
    exc = NotFlippable(pa, pb, 5)
    assert str(exc) == "wall of (0, 0, 2, 0, 1) - (0, 0, 0, 3, 0) does not re-mark to the source"
    assert exc.args == (pa, pb, 5)


@given(st.one_of(gensets3, wide_gensets3))
def test_minimalize_keeps_the_packed_generators(gens):
    """The packed generators are packed afresh and strictly ascending."""
    ideal = minimalize(gens)
    assert ideal.packed == tuple(map(pack, ideal.gens))
    assert all(p < q for p, q in zip(ideal.packed, ideal.packed[1:]))


@given(gensets3)
def test_minimalize_idempotent(gens):
    once = minimalize(gens)
    assert minimalize(once.gens) == once


@given(gensets3, st.randoms(use_true_random=False))
def test_minimalize_order_insensitive(gens, rng):
    shuffled = list(gens)
    rng.shuffle(shuffled)
    assert minimalize(shuffled) == minimalize(gens)


@given(st.one_of(gensets3, wide_gensets3), st.one_of(gensets3, wide_gensets3),
       st.one_of(exponents3, wide3))
def test_intersection_holds_what_both_ideals_hold(gens, others, u):
    """x^u lies in I and J iff it lies in I.intersect(J), whose generators are the lcms."""
    I, J = minimalize(gens), minimalize(others)
    meet = I.intersect(J)
    assert meet == minimalize(tuple(map(max, g, h)) for g in I.gens for h in J.gens)
    for v in (u, *meet.gens):
        assert meet.contains(v) == (I.contains(v) and J.contains(v))


def test_intersection_refuses_ideals_of_two_widths():
    """x3^5 is not dropped: ideals in 2 and 3 variables do not intersect."""
    from agraded import BadLength

    with pytest.raises(BadLength):
        minimalize([(1, 0)]).intersect(minimalize([(0, 1, 5)]))
    zero = minimalize([])
    assert zero.intersect(minimalize([(0, 1, 5)])) == zero
    assert minimalize([(1, 0)]).intersect(zero) == zero


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


@pytest.mark.parametrize("rows", list(KPOLY_MATRICES.values()), ids=list(KPOLY_MATRICES))
@settings(max_examples=40, deadline=None)
@given(gensets3, st.integers(0, 70))
def test_kpolynomial_below_a_weight_needs_only_the_generators_below_it(rows, gens, w):
    """The lemma behind the prune of ``brute_force_enumerate``: the terms of
    certificate weight < W of the K-polynomial depend only on the minimal
    generators of weight < W."""
    from test_monomials import k_polynomial_oracle

    matrix = validate_grading(rows)

    def weight(b):
        return positive_combination(matrix, b)

    def below(numerator):
        return {k: c for k, c in numerator.items() if weight(k) < w}

    ideal = minimalize(gens)
    lighter = minimalize(g for g in ideal.gens if weight(matrix.degree(g)) < w)
    assert below(k_polynomial_oracle(ideal, matrix)) == below(k_polynomial_oracle(lighter, matrix))


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


def term_order(weight):
    """The sort key (weight.u, u) of the term order of a weight, on tuples."""
    return lambda u: (sum(x * y for x, y in zip(weight, u)), tuple(u))


def tuple_remainder(poly, gb, weight):
    """Remainder of {exponent: coefficient} on division by a marked basis, on tuples.

    Terms compare by ``term_order(weight)``.  The largest term is reduced
    by the first lead that divides it (a monomial removes it) or moved to
    the remainder; independent of the packed kernels.
    """
    poly, rest = dict(poly), {}
    while poly:
        u = max(poly, key=term_order(weight))
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


def assert_reduced_groebner_basis(gens, gb, weight):
    """Reduced, every generator reduces to zero, and Buchberger's criterion, on tuples."""
    from agraded import Binomial

    leads = [b.lead for b in gb.binomials] + list(gb.monomials.gens)
    for i, g in enumerate(leads):
        assert not any(divides(h, g) for j, h in enumerate(leads) if j != i)
        assert not any(divides(g, b.trail) for b in gb.binomials)
    for g in gens:
        poly = {g.lead: 1, g.trail: -g.coeff} if isinstance(g, Binomial) else {g: 1}
        assert tuple_remainder(poly, gb, weight) == {}
    for spoly in s_polynomials(gb):
        assert tuple_remainder(spoly, gb, weight) == {}


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
    from agraded import Binomial, buchberger
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
    gb = buchberger(gens, order_weight, matrix)
    rng.shuffle(gens)
    assert buchberger(gens, order_weight, matrix) == gb

    assert all(type(b.coeff) is Fraction for b in gb.binomials)
    assert_reduced_groebner_basis(gens, gb, order_weight)
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
    ([((2, 1, 0), (0, 0, 3)), ((1, 1, 0), (0, 1, 1)), ((2, 1, 0), (0, 0, 3))],
     [((0, 1, 2), (0, 0, 3)), ((1, 0, 3), (0, 0, 4)), ((1, 1, 0), (0, 1, 1))], []),
    ([((1, 0, 0), (0, 1, 0)), ((0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 0, 1))],
     [((0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 0, 1))], []),
])
def test_buchberger_drops_a_superseded_input(gens, binomials, monomials):
    """A later generator whose lead divides an earlier lead, properly or not, retires it.

    Lex order on x + y + z-homogeneous generators: x y divides x^2 y, y^2
    divides x y^2, and the third case repeats the lead x y^2 three times.
    In the fourth a generator is listed twice, and in the last x - z
    reduces to zero on entry, after x - y and y - z (in reverse order x - y
    does).
    """
    from agraded import Binomial, buchberger

    matrix = validate_grading([[1, 1, 1]])
    weight = (0, 0, 0)
    gens = [Binomial(*g) if len(g) == 2 else g for g in gens]
    gb = buchberger(gens, weight, matrix)
    assert [(b.lead, b.trail) for b in gb.binomials] == binomials
    assert list(gb.monomials.gens) == monomials
    assert buchberger(gens[::-1], weight, matrix) == gb
    assert_reduced_groebner_basis(gens, gb, weight)


def test_buchberger_chain_criterion_with_a_retired_partner():
    """Pairs of a partner that is no longer active are still reduced.

    x - z retires x z^2 - x y, whose pairs stay queued.  Dropping such a
    pair, as a chain criterion that misreads the lcm with a retired partner
    would, loses the monomials y z^2 and y^2 z.
    """
    from agraded import Binomial, buchberger

    matrix = validate_grading([[1, 2, 1]])
    weight = (1, 1, 1)
    gens = [Binomial((1, 0, 2), (1, 1, 0)), Binomial((0, 0, 1), (1, 0, 0)), (2, 0, 2)]
    gb = buchberger(gens, weight, matrix)
    assert [(b.lead, b.trail) for b in gb.binomials] == [((0, 0, 3), (0, 1, 1)),
                                                          ((1, 0, 0), (0, 0, 1))]
    assert gb.monomials.gens == ((0, 1, 2), (0, 2, 1))
    assert_reduced_groebner_basis(gens, gb, weight)


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

    def recorded(gens, weight, matrix):
        gb = original(gens, weight, matrix)
        calls.append((gens, gb, weight))
        return gb

    monkeypatch.setattr(binomials, "buchberger", recorded)
    binomials.toric_ideal.__wrapped__(lawrence_lifting(named_matrix("g36-8-10-15")))  # uncached
    assert len(calls) == 5
    for gens, gb, weight in calls:
        assert_reduced_groebner_basis(gens, gb, weight)
