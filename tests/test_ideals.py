"""A-gradedness, flips, coherence, special ideals, enumeration."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from agraded import (
    AGradedContext,
    BadLength,
    ExponentOverflow,
    GuardExceeded,
    IncompleteInput,
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
    lp,
    minimalize,
    neighbors,
    special_ideals,
    validate_grading,
)
from agraded.fixtures import as_pairs, expected, named_ideal, named_matrix
from agraded.grading import positive_combination
from agraded.ideals import definition_flip_ideal
from agraded.monomials import divides, pack, unpack


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
    move = flip(minimalize([(2, 0)]), (pack((2, 0)), pack((0, 1))), ctx12)
    assert move.target == minimalize([(0, 1)])
    back = flip(move.target, (pack((2, 0)), pack((0, 1))), ctx12)
    assert back.target == move.source
    assert_definition_flips((move, back), ctx12)


def test_every_graph_edge_matches_definition_flip(ctx137, ctx_veronese, ctx_corank4):
    for ctx in (ctx137, ctx_veronese, ctx_corank4):
        graph = explore(ctx)
        moves = [flip(graph.vertices[i], tuple(map(pack, label)), ctx)
                 for i, _, label in graph.edges]
        assert [m.target for m in moves] == [graph.vertices[j] for _, j, _ in graph.edges]
        assert_definition_flips(moves, ctx)


def test_flip_not_applicable(ctx12):
    with pytest.raises(NotApplicable):
        flip(minimalize([(2, 0)]), (pack((4, 0)), pack((0, 2))), ctx12)


def test_flip_rejects_a_pair_of_unequal_degree(ctx12):
    # x2^2 lies outside <x1^2>, but has degree 4 against 2
    with pytest.raises(NonHomogeneousInput):
        flip(minimalize([(2, 0)]), (pack((2, 0)), pack((0, 2))), ctx12)
    with pytest.raises(NonHomogeneousInput):
        flip(minimalize([(2, 0)]), (pack((0, 2)), pack((2, 0))), ctx12)


def test_flip_orients_the_pair(ctx_veronese):
    graph = explore(ctx_veronese)
    for ideal in graph.vertices[:20]:
        for move in neighbors(ideal, ctx_veronese):
            assert flip(ideal, (move.pb, move.pa), ctx_veronese) == move
            assert flip(ideal, [move.pb, move.pa], ctx_veronese) == move


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
                flip(ideal, tuple(map(pack, b.pair())), ctx)
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
    coherent, farkas = is_coherent(ideal_masked, ctx345)
    assert not coherent and lp.is_farkas(coherence_rows(ideal_masked, ctx345), farkas)


def coherence_rows(ideal, ctx):
    return {tuple(a - b for a, b in zip(g, unpack(std, ideal.n)))
            for g, std in zip(ideal.gens, ctx.generator_standards(ideal))}


def bad_farkas(kind, farkas, rows):
    """The multipliers with one defect; every other check still holds."""
    bad = dict(farkas)
    if kind == "foreign-row":  # a canceling pair of rows outside the system
        bad[(1, 0, 0, 0, 0)] = bad[(-1, 0, 0, 0, 0)] = 1
    elif kind == "zero-y":
        bad[min(rows - set(farkas))] = 0
    elif kind == "negative-y":
        bad = {row: -y for row, y in farkas.items()}
    else:  # nonzero sum
        row = min(farkas)
        bad[row] += 1
    return bad


@pytest.mark.parametrize("kind", ["witness", "foreign-row", "zero-y", "negative-y", "nonzero-sum"])
def test_a_bad_inherited_certificate_is_refused(monkeypatch, ctx345, ideal_masked, kind):
    """The simplex decides after a certificate that fails its check, and only then."""
    from agraded import ideals

    runs = []
    solve = ideals.lp_strict_feasible
    monkeypatch.setattr(ideals, "lp_strict_feasible",
                        lambda *args, **kwargs: runs.append(1) or solve(*args, **kwargs))
    if kind == "witness":
        ideal = ctx345.reference_ideal
        flag, witness = is_coherent(ideal, ctx345, [])
        assert flag and all(type(x) is int for x in witness)
        # moved across the wall of its own row r, the witness fails r
        row = min(coherence_rows(ideal, ctx345))
        inherited = [(witness, row)]
    else:
        ideal = ideal_masked
        flag, farkas = is_coherent(ideal, ctx345, [])
        assert not flag
        assert is_coherent(ideal, ctx345, [(farkas, None)]) == (False, farkas)
        inherited = [(bad_farkas(kind, farkas, coherence_rows(ideal, ctx345)), None)]
        assert len(runs) == 1
    runs.clear()
    assert is_coherent(ideal, ctx345, inherited)[0] is flag
    assert len(runs) == 1
    assert is_coherent(ideal, ctx345)[0] is flag


def test_coherent_reference_everywhere(ctx137, ctx345, ctx_veronese):
    for ctx in (ctx137, ctx345, ctx_veronese):
        coherent, witness = is_coherent(ctx.reference_ideal, ctx)
        assert coherent
        # the witness re-marks every minimal generator above its partner
        for g in ctx.reference_ideal.gens:
            std = unpack(ctx.standard_monomial(ctx.reference_ideal, ctx.A.degree(g)), ctx.A.n)
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
            back = flip(move.target, tuple(map(pack, move.label)), ctx_veronese)
            assert back.target == ideal


def test_every_generator_pairs_into_graver(ctx_veronese):
    """Minimal generators always sit opposite the standard monomial of
    their degree inside some Graver pair."""
    basis = set(ctx_veronese.graver.elements)
    for ideal in brute_force_enumerate(ctx_veronese)[:10]:
        for g in ideal.gens:
            std = unpack(ctx_veronese.standard_monomial(ideal, ctx_veronese.A.degree(g)),
                         ctx_veronese.A.n)
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


def test_trivial_kernel_gives_the_zero_ideal_alone():
    # no Graver pair: the brute force's one leaf is the zero ideal, which is
    # MonomialIdeal((), 0) however it is built
    ctx = AGradedContext(validate_grading([[1, 0], [0, 1]]))
    zero = minimalize([])
    assert ctx.reference_ideal == zero and is_agraded(zero, ctx)
    assert brute_force_enumerate(ctx) == explore(ctx).vertices == (zero,)


def test_brute_force_guard(ctx_veronese):
    # the guard counts K-polynomial tests: 76 leaves and 11 prefixes here,
    # not the 29 ideals that pass
    with pytest.raises(GuardExceeded, match="more than 86 K-polynomial tests"):
        brute_force_enumerate(ctx_veronese, guard=86)
    assert len(brute_force_enumerate(ctx_veronese, guard=87)) == 29


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
            leaves.append(minimalize(chosen))
    return leaves


def skipped_oracle_leaves(visited, leaves):
    """The oracle leaves missing from ``visited``, asserting that ``visited``
    is an in-order subsequence of ``leaves``."""
    skipped = []
    rest = iter(leaves)
    for ideal in visited:
        for leaf in rest:
            if leaf == ideal:
                break
            skipped.append(leaf)
        else:
            raise AssertionError(f"{ideal} is not a later oracle leaf")
    skipped.extend(rest)
    return skipped


def check_pruned_dfs_against_the_tuple_dfs(ctx):
    """Run ``brute_force_enumerate`` recording its leaf tests, and check it
    against the unpruned tuple DFS: its leaves are an in-order subsequence
    of the oracle leaves, each verdict and each skipped leaf agrees with
    ``k_polynomial_oracle``, and both keep the same ideals.  Returns the
    number of leaves visited and the oracle leaves skipped."""
    from agraded import ideals
    from test_monomials import k_polynomial_oracle

    visited = []
    real = ideals.is_agraded

    def recording(ideal, ctx):
        verdict = real(ideal, ctx)
        visited.append((ideal, verdict))
        return verdict

    ideals.is_agraded = recording
    try:
        found = brute_force_enumerate(ctx)
    finally:
        ideals.is_agraded = real
    leaves = oracle_brute_force_leaves(ctx)
    skipped = skipped_oracle_leaves([ideal for ideal, _ in visited], leaves)
    memo = {}
    reference = k_polynomial_oracle(ctx.reference_ideal, ctx.A, memo)

    def agraded(leaf):
        return k_polynomial_oracle(leaf, ctx.A, memo) == reference

    assert [verdict for _, verdict in visited] == [agraded(ideal) for ideal, _ in visited]
    assert not any(agraded(leaf) for leaf in skipped)
    assert found == tuple(sorted(leaf for leaf in leaves if agraded(leaf)))
    assert not ctx._kpoly_memo  # released when the enumeration returns
    return len(visited), skipped


# leaves visited and oracle leaves skipped
PRUNED_DFS_COUNTS = {"g137": (7, 0), "veronese6": (76, 0), "g36-8-10-15": (283, 518)}


@pytest.mark.parametrize("name", PRUNED_DFS_COUNTS)
def test_bitset_dfs_matches_the_tuple_dfs(name):
    count, skipped = check_pruned_dfs_against_the_tuple_dfs(AGradedContext(named_matrix(name)))
    assert (count, len(skipped)) == PRUNED_DFS_COUNTS[name]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=3, max_size=4, unique=True), st.booleans())
def test_bitset_dfs_matches_the_tuple_dfs_on_small_matrices(entries, homogenize):
    assume(homogenize or math.gcd(*entries) == 1)
    entries = sorted(entries)
    rows = [[1] * len(entries), entries] if homogenize else [entries]
    check_pruned_dfs_against_the_tuple_dfs(AGradedContext(validate_grading(rows)))


def test_the_prune_fires_on_g36_8_10_15():
    """Each oracle leaf the prune skips has a pair weight W at which its
    generators of weight < W, truncated below W, already differ from the
    reference, and the leaf's own K-polynomial agrees with them below W."""
    from test_monomials import k_polynomial_oracle

    ctx = AGradedContext(named_matrix("g36-8-10-15"))
    _, skipped = check_pruned_dfs_against_the_tuple_dfs(ctx)
    memo = {}
    reference = k_polynomial_oracle(ctx.reference_ideal, ctx.A, memo)

    def weight(u):
        return positive_combination(ctx.A, ctx.A.degree(u))

    def below(numerator, w):
        return {k: c for k, c in numerator.items() if positive_combination(ctx.A, k) < w}

    pair_weights = sorted({weight(u) for u, _ in ctx.graver})
    for leaf in skipped[::25]:
        numerator = k_polynomial_oracle(leaf, ctx.A, memo)
        for w in pair_weights:
            prefix = minimalize(g for g in leaf.gens if weight(g) < w)
            truncated = below(k_polynomial_oracle(prefix, ctx.A, memo), w)
            assert truncated == below(numerator, w)
            if truncated != below(reference, w):
                break
        else:
            raise AssertionError(f"no prefix of {leaf} disagrees with the reference")


def test_parametric_family_bad_length():
    with pytest.raises(BadLength):
        curve_parametric_family(2, [1])


def test_parametric_family_zero_scalars(curve_ctx):
    from agraded import buchberger

    ctx = curve_ctx[1]
    gens = curve_parametric_family(1, [0])
    assert all(not hasattr(g, "coeff") for g in gens)  # degenerates to monomials
    gb = buchberger(gens, (1, 1, 2, 0, 2), ctx.A)
    assert gb.lead_ideal() == curve_monomial_ideal(1)


def test_parametric_family_rational_scalars(curve_ctx):
    from agraded import buchberger

    for j, mus in ((1, [Fraction(1)]), (2, [Fraction(3, 7), Fraction(-2)])):
        ctx = curve_ctx[j]
        gb = buchberger(curve_parametric_family(j, mus), (1, 1, 2, 0, 2), ctx.A)
        assert gb.lead_ideal() == curve_monomial_ideal(j)


def test_standard_monomial_rejects_bad_degrees(ctx345):
    """A degree of the wrong length, or one that needs an exponent of 2**31, raises.

    ``standard_monomial`` is the uncached search: no answer is cached.
    """
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
    assert ctx.standard_monomial(ideal, (13,)) == pack((0, 0, 0, 1, 0))
    assert not ctx._standard.get(ideal)


FIVE_VARIABLES = minimalize([(1, 0, 0, 0, 0)])


@pytest.mark.parametrize("call", [
    lambda ctx: is_weakly_agraded(FIVE_VARIABLES, ctx),
    lambda ctx: is_agraded(FIVE_VARIABLES, ctx),
    lambda ctx: is_coherent(FIVE_VARIABLES, ctx),
    lambda ctx: neighbors(FIVE_VARIABLES, ctx),
    lambda ctx: is_agraded(minimalize([(1, 0)]), ctx),
    lambda ctx: is_agraded(minimalize([(0, 0, 0, 1)]), ctx),
    lambda ctx: FIVE_VARIABLES.contains((0, 0, 1)),
    lambda ctx: flip(FIVE_VARIABLES, (FIVE_VARIABLES.packed[0], pack((0, 0, 1))), ctx),
    lambda ctx: flip(minimalize([(0, 1)]), (pack((0, 1)), pack((1, 2, 0))), ctx),
    lambda ctx: ctx.standard_monomial(FIVE_VARIABLES, (7,)),
], ids=["weakly-agraded-5", "agraded-5", "coherent-5", "neighbors-5", "agraded-2", "agraded-4",
        "contains-3-in-5", "flip-5", "flip-2", "standard-monomial-5"])
def test_an_ideal_in_another_number_of_variables_is_rejected(ctx137, call):
    """A = (1 3 7) has three variables: an ideal in 2, 4 or 5 raises, it is not answered."""
    with pytest.raises(BadLength):
        call(ctx137)


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
            assert [pack(u) for u in fib if not ideal.contains(u)] == [known[codes[pa]]]
            within = [pack(u) for u in fib if pack(u) != known[codes[pa]]]
            for u in {*within[:2], *within[-1:]}:
                inside += 1
                with pytest.raises(NotApplicable):
                    flip(ideal, (pa, u), ctx)
            for code, b in known.items():
                if code != codes[pa]:
                    other += 1
                    with pytest.raises(NonHomogeneousInput):
                        flip(ideal, (pa, b), ctx)
            try:
                expected.append(flip(ideal, (pa, known[codes[pa]]), cold))
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
        assert outside == [unpack(std, ctx123789.A.n)]
