"""A-gradedness, flips, coherence, special ideals, enumeration."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from agraded import (
    AGradedContext,
    BadLength,
    Binomial,
    ExponentOverflow,
    GuardExceeded,
    IncompleteInput,
    MonomialIdeal,
    NonHomogeneousInput,
    NotApplicable,
    NotFlippable,
    brute_force_enumerate,
    curve_binomial_families,
    curve_monomial_ideal,
    curve_parametric_family,
    explore,
    flip,
    is_agraded,
    is_coherent,
    is_weakly_agraded,
    minimalize,
    neighbors,
    special_ideals,
    validate_grading,
)
from agraded.fixtures import as_pairs, expected, named_ideal, named_matrix
from agraded.grading import positive_combination
from agraded.ideals import definition_flip_ideal
from agraded.monomials import divides


def test_agraded_examples(ctx12, ctx123789, ideal_J, curve_ctx):
    assert is_agraded(ideal_J, ctx123789)
    assert not is_agraded(minimalize([(2, 0), (0, 1)]), ctx12)
    for j in (1, 2, 3):
        assert is_agraded(curve_monomial_ideal(j), curve_ctx[j])


def test_weakly_agraded(ctx12):
    assert not is_weakly_agraded(minimalize([]), ctx12)
    both = minimalize([(2, 0), (0, 1)])
    assert is_weakly_agraded(both, ctx12)  # weak, though not A-graded
    assert not is_agraded(both, ctx12)
    for ideal in brute_force_enumerate(ctx12):
        assert is_weakly_agraded(ideal, ctx12)


def assert_definition_flips(moves, ctx):
    """Each move's target equals the flip built from the Graver basis."""
    for move in moves:
        assert definition_flip_ideal(move.source, move.a, move.b, ctx.graver) == move.target


def test_flip_corank1(ctx12):
    move = flip(minimalize([(2, 0)]), ((2, 0), (0, 1)), ctx12)
    assert move.target == minimalize([(0, 1)])
    back = flip(move.target, ((2, 0), (0, 1)), ctx12)
    assert back.target == move.source
    assert_definition_flips((move, back), ctx12)


def test_every_graph_edge_matches_definition_flip(ctx137, ctx_veronese, ctx_corank4):
    for ctx in (ctx137, ctx_veronese, ctx_corank4):
        graph = explore(ctx)
        moves = [flip(graph.vertices[i], label, ctx) for i, _, label in graph.edges]
        assert [m.target for m in moves] == [graph.vertices[j] for _, j, _ in graph.edges]
        assert_definition_flips(moves, ctx)


def test_flip_not_applicable(ctx12):
    with pytest.raises(NotApplicable):
        flip(minimalize([(2, 0)]), ((4, 0), (0, 2)), ctx12)


def test_flip_rejects_a_pair_of_unequal_degree(ctx12):
    # x2^2 lies outside <x1^2>, but has degree 4 against 2
    with pytest.raises(NonHomogeneousInput):
        flip(minimalize([(2, 0)]), ((2, 0), (0, 2)), ctx12)
    with pytest.raises(NonHomogeneousInput):
        flip(minimalize([(2, 0)]), ((0, 2), (2, 0)), ctx12)


def test_flip_orients_the_pair(ctx_veronese):
    graph = explore(ctx_veronese)
    for ideal in graph.vertices[:20]:
        for move in neighbors(ideal, ctx_veronese):
            assert flip(ideal, (move.b, move.a), ctx_veronese) == move
            assert flip(ideal, Binomial(move.b, move.a), ctx_veronese) == move
            assert flip(ideal, [list(move.b), list(move.a)], ctx_veronese) == move


def test_curve_flips_exactly_qrs(curve_ctx):
    for j in (1, 2, 3):
        ctx = curve_ctx[j]
        ideal = curve_monomial_ideal(j)
        fams = curve_binomial_families(j)
        flippable = {b.pair() for b in fams["q"] + fams["r"] + fams["s"]}
        blocked = {b.pair() for b in fams["p"]}
        moves = neighbors(ideal, ctx)
        if j == 1:
            assert_definition_flips(moves, ctx)
        assert {m.label for m in moves} == flippable
        assert len(moves) == 2 * j + 4
        for b in fams["p"]:
            with pytest.raises(NotFlippable):
                flip(ideal, b.pair(), ctx)
        assert not flippable & blocked


def test_not_flippable_direct_ideal_stays_weak(curve_ctx):
    """The direct flip construction is weakly A-graded even when rejected."""
    ctx = curve_ctx[1]
    ideal = curve_monomial_ideal(1)
    for b in curve_binomial_families(1)["p"]:
        a, t = b.lead, b.trail
        assert a in ideal.gens and not ideal.contains(t)
        direct = definition_flip_ideal(ideal, a, t, ctx.graver)
        assert is_weakly_agraded(direct, ctx)
        assert not is_agraded(direct, ctx)


def test_masked_ideal_flips(ctx345, ideal_masked):
    moves = neighbors(ideal_masked, ctx345)
    assert_definition_flips(moves, ctx345)
    assert {m.label for m in moves} == as_pairs(expected("coherence-mask")["flips"])
    coherent, witness = is_coherent(ideal_masked, ctx345)
    assert not coherent and witness is None


def test_coherent_reference_everywhere(ctx137, ctx345, ctx_veronese):
    for ctx in (ctx137, ctx345, ctx_veronese):
        coherent, witness = is_coherent(ctx.reference_ideal, ctx)
        assert coherent
        # the witness re-marks every minimal generator above its partner
        for g in ctx.reference_ideal.gens:
            std = ctx.standard_monomial(ctx.reference_ideal, ctx.A.degree(g))
            assert sum(Fraction(a - b) * w for a, b, w in zip(g, std, witness)) >= 1


def test_corank4_neighbors(ctx_corank4, ideal_corank4):
    rec = expected("corank4-deficiency")
    moves = neighbors(ideal_corank4, ctx_corank4)
    assert_definition_flips(moves, ctx_corank4)
    assert sorted(m.label for m in moves) == sorted(as_pairs(rec["labels"]))
    targets = sorted(m.target for m in moves)
    assert targets == sorted(named_ideal(nm)[1] for nm in rec["neighbors"])
    assert len(moves) == 3 < ctx_corank4.A.n - ctx_corank4.A.d


def test_extended_ideals_flip_count(ideal_J):
    for name in ("extended-n7", "extended-n8"):
        rec = expected(name)
        from agraded.fixtures import named_matrix

        matrix = named_matrix(rec["matrix"])
        ctx = AGradedContext(matrix)
        pad = matrix.n - 6
        gens = [g + (0,) * pad for g in ideal_J.gens]
        gens += [tuple(1 if i == 6 + k else 0 for i in range(matrix.n)) for k in range(pad)]
        ideal = minimalize(gens)
        assert is_agraded(ideal, ctx)
        moves = neighbors(ideal, ctx)
        assert len(moves) == matrix.n - 3 == rec["flip_count"]


def test_flip_involution_on_fixture(ctx_veronese):
    ideals = brute_force_enumerate(ctx_veronese)
    for ideal in ideals[:8]:
        for move in neighbors(ideal, ctx_veronese):
            back = flip(move.target, move.label, ctx_veronese)
            assert back.target == ideal


def test_every_generator_pairs_into_graver(ctx_veronese):
    """Minimal generators always sit opposite the standard monomial of
    their degree inside some Graver pair."""
    basis = set(ctx_veronese.graver.elements)
    for ideal in brute_force_enumerate(ctx_veronese)[:10]:
        for g in ideal.gens:
            std = ctx_veronese.standard_monomial(ideal, ctx_veronese.A.degree(g))
            pair = (g, std) if g > std else (std, g)
            assert pair in basis


def test_special_ideals_12(ctx12):
    ideals = brute_force_enumerate(ctx12)
    meet, pair_ideal = special_ideals(ctx12, ideals)
    assert meet == pair_ideal == minimalize([(2, 1)])


def test_special_ideals_incomplete(ctx12):
    with pytest.raises(IncompleteInput):
        special_ideals(ctx12, brute_force_enumerate(ctx12), expected_count=3)


def test_special_ideals_veronese(ctx_veronese):
    rec = expected("veronese-29")
    ideals = brute_force_enumerate(ctx_veronese)
    meet, pair_ideal = special_ideals(ctx_veronese, ideals, expected_count=29)
    listed = [tuple(g) for g in rec["pair_products"]]
    assert pair_ideal == minimalize(listed)
    # the raw products match the listed generators one for one
    products = sorted(tuple(x + y for x, y in zip(u, v)) for u, v in ctx_veronese.graver)
    assert products == sorted(listed)
    special = tuple(map(tuple, rec["special_pair"]))
    assert not pair_ideal.contains(special[0])
    assert not pair_ideal.contains(special[1])
    for g in pair_ideal.gens:
        assert meet.contains(g)


def test_brute_force_counts(ctx12, ctx_veronese):
    assert len(brute_force_enumerate(ctx12)) == 2
    assert len(brute_force_enumerate(ctx_veronese)) == 29


def test_brute_force_guard(ctx_veronese):
    with pytest.raises(GuardExceeded):
        brute_force_enumerate(ctx_veronese, guard=3)
    # the guard counts leaves (76 here), not the 29 ideals that pass
    with pytest.raises(GuardExceeded):
        brute_force_enumerate(ctx_veronese, guard=29)
    assert len(brute_force_enumerate(ctx_veronese, guard=76)) == 29


def oracle_brute_force_leaves(ctx):
    """The side-choice DFS on exponent tuples, keeping a tuple of chosen
    generators, a tuple of forbidden sides and a set of forbidden degrees,
    as ``brute_force_enumerate`` ran before its bitmasks; returns the
    leaves in visiting order."""
    pairs = sorted(
        ctx.graver,
        key=lambda p: (positive_combination(ctx.A, ctx.A.degree(p[0])), p),
    )

    def add_gen(chosen, g):
        return tuple(c for c in chosen if not divides(g, c)) + (g,)

    leaves = []
    stack = [(0, (), (), frozenset())]
    while stack:
        idx, chosen, forbidden, fdegs = stack.pop()
        while idx < len(pairs):
            u, v = pairs[idx]
            if any(divides(g, u) or divides(g, v) for g in chosen):
                idx += 1
                continue
            u_out = any(divides(u, f) for f in forbidden)
            v_out = any(divides(v, f) for f in forbidden)
            if u_out and v_out:
                idx = None
                break
            if u_out:
                chosen = add_gen(chosen, v)
            elif v_out:
                chosen = add_gen(chosen, u)
            else:
                degree = ctx.A.degree(u)
                if degree not in fdegs:
                    stack.append((idx + 1, add_gen(chosen, v), forbidden + (u,),
                                  fdegs | {degree}))
                chosen = add_gen(chosen, u)
            idx += 1
        if idx is not None:
            leaves.append(MonomialIdeal(tuple(sorted(chosen))))
    return leaves


@pytest.mark.parametrize("name", ["g137", "veronese6", "g36-8-10-15"])
def test_bitset_dfs_matches_the_tuple_dfs(name, monkeypatch):
    from agraded import ideals
    from test_monomials import k_polynomial_oracle

    ctx = AGradedContext(named_matrix(name))
    visited = []
    real = ideals.is_agraded

    def recording(ideal, ctx):
        verdict = real(ideal, ctx)
        visited.append((ideal, verdict))
        return verdict

    monkeypatch.setattr(ideals, "is_agraded", recording)
    found = brute_force_enumerate(ctx)
    leaves = oracle_brute_force_leaves(ctx)
    assert [ideal for ideal, _ in visited] == leaves
    memo = {}
    reference = k_polynomial_oracle(ctx.reference_ideal, ctx.A, memo)
    assert [verdict for _, verdict in visited] == [
        k_polynomial_oracle(leaf, ctx.A, memo) == reference for leaf in leaves]
    assert found == tuple(sorted(ideal for ideal, verdict in visited if verdict))
    assert not ctx._kpoly_memo  # released when the enumeration returns


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=3, max_size=4, unique=True), st.booleans())
def test_bitset_dfs_matches_the_tuple_dfs_on_small_matrices(entries, homogenize):
    from agraded import ideals

    assume(homogenize or math.gcd(*entries) == 1)
    entries = sorted(entries)
    rows = [[1] * len(entries), entries] if homogenize else [entries]
    ctx = AGradedContext(validate_grading(rows))
    visited = []
    real = ideals.is_agraded
    ideals.is_agraded = lambda ideal, ctx: visited.append(ideal) or real(ideal, ctx)
    try:
        brute_force_enumerate(ctx)
    finally:
        ideals.is_agraded = real
    assert visited == oracle_brute_force_leaves(ctx)


def test_parametric_family_bad_length():
    with pytest.raises(BadLength):
        curve_parametric_family(2, [1])


def test_parametric_family_zero_scalars(curve_ctx):
    from agraded import TermOrder, buchberger

    ctx = curve_ctx[1]
    gens = curve_parametric_family(1, [0])
    assert all(not hasattr(g, "coeff") for g in gens)  # degenerates to monomials
    gb = buchberger(gens, TermOrder((1, 1, 2, 0, 2)), ctx.A)
    assert gb.lead_ideal() == curve_monomial_ideal(1)


def test_parametric_family_rational_scalars(curve_ctx):
    from agraded import TermOrder, buchberger

    for j, mus in ((1, [Fraction(1)]), (2, [Fraction(3, 7), Fraction(-2)])):
        ctx = curve_ctx[j]
        gb = buchberger(curve_parametric_family(j, mus), TermOrder((1, 1, 2, 0, 2)), ctx.A)
        assert gb.lead_ideal() == curve_monomial_ideal(j)


def test_standard_monomial_rejects_bad_degrees(ctx345):
    """A degree of the wrong length, or one that needs an exponent of 2**31, caches nothing."""
    ctx = AGradedContext(ctx345.A)
    ideal = ctx.reference_ideal
    for b in [(13, 99), ()]:
        with pytest.raises(BadLength):
            ctx.standard_monomial(ideal, b)
    # 2**40 is past the degree-code bound; 2**35 is inside it, but its
    # standard monomial would end in the solved exponent 2454267017
    for b in [(2**40,), (2**35,)]:
        with pytest.raises(ExponentOverflow):
            ctx.standard_monomial(ideal, b)
    assert not ctx._standard.get(ideal)
    assert ctx.standard_monomial(ideal, (13,)) == (0, 0, 0, 1, 0)


def test_warm_cache_admits_no_bad_pair(ctx_corank4):
    """After ``explore`` every vertex has its standard monomials cached, and
    ``flip`` skips two checks for a cached x^b; it still rejects bad pairs.

    At every vertex of g36-8-10-15 and for every generator x^a: the cache
    holds the one fiber element outside the ideal, the first two and the
    last fiber element inside raise NotApplicable, each cached standard
    monomial of another degree raises NonHomogeneousInput, and
    ``neighbors`` gives the moves that ``flip`` accepts on a cold context,
    which match ``definition_flip_ideal``.
    """
    from agraded import fiber

    ctx = AGradedContext(ctx_corank4.A)
    graph = explore(ctx, guard=250)  # its vertex count
    cold = AGradedContext(ctx.A)
    codes = ctx.degree_codes
    fibers = {}
    inside = other = 0
    for ideal in graph.vertices:
        known = ctx._standard[ideal]
        expected = []
        for a, pa in zip(ideal.gens, ideal.packed):
            if codes[pa] not in fibers:
                fibers[codes[pa]] = fiber(ctx.A, ctx.A.degree(a))
            fib = fibers[codes[pa]]
            assert [u for u in fib if not ideal.contains(u)] == [known[codes[pa]]]
            within = [u for u in fib if u != known[codes[pa]]]
            for u in {*within[:2], *within[-1:]}:
                inside += 1
                with pytest.raises(NotApplicable):
                    flip(ideal, (a, u), ctx)
            for code, b in known.items():
                if code != codes[pa]:
                    other += 1
                    with pytest.raises(NonHomogeneousInput):
                        flip(ideal, (a, b), ctx)
            try:
                expected.append(flip(ideal, (a, known[codes[pa]]), cold))
            except NotFlippable:
                pass
        moves = neighbors(ideal, ctx)
        assert moves == tuple(expected)
        for move in moves:
            assert move.target == definition_flip_ideal(ideal, move.a, move.b, ctx.graver)
    assert inside and other
    assert not cold._standard


def test_standard_monomial_unique(ctx123789, ideal_J):
    from agraded import fiber

    for g in ideal_J.gens[:6]:
        b = ctx123789.A.degree(g)
        std = ctx123789.standard_monomial(ideal_J, b)
        outside = [u for u in fiber(ctx123789.A, b) if not ideal_J.contains(u)]
        assert outside == [std]
