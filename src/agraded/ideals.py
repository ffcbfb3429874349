"""A-graded monomial ideals: tests, flips, coherence, enumeration.

A monomial ideal is A-graded when its quotient has exactly one standard
monomial in every degree of the column monoid and none elsewhere.  The
certificate used throughout is exact K-polynomial equality against a fixed
initial ideal of the toric ideal; both series share the same denominator,
so numerator equality is Hilbert-function equality.

Flips are the local moves of the flip graph: a minimal generator x^a trades
places with the unique standard monomial x^b of its degree when both
markings of the wall ideal reproduce the expected sides; ``flip`` tests
both with one completion loop on the ideal's packed generators.  Every
flip label is automatically a Graver pair: a conformal decomposition of
(a, b) would contradict either the minimality of x^a or the standardness
of x^b.

A flip step stays in packed integers from the candidate to the target, whose
packed generators are the whole ideal, and to the standard monomials, packed
from ``fiber_walk`` to a cache per ideal under the integer ``DegreeCode`` of
their degree.  Exponent tuples are built only where a move leaves the search
(``FlipMove.a``, ``.b`` and ``.label``, and the rows of ``is_coherent``).
``flip`` checks every candidate, since pairs also come from files: the
field range, x^a a minimal generator, x^b outside and of equal degree code
(known if x^b is cached as std(deg a): only such monomials are cached),
then the wall marked toward x^a.  ``wall_initial`` merges the target's
minimal generators instead of sorting them out; this is exact because the
source's other generators are minimal, each survivor of the completion is
irreducible modulo everything found before it, and x^b lies outside the
source.

Wall tests repeat across ideals: a census meets few oriented walls (lead,
trail), and most of its S-monomials (x^m : x^lead) x^trail again and again.
So the context keeps a certificate per wall and generator m: the monomial
x^d that divided the S-monomial when it was last computed, or m itself
when the product criterion skipped it.  That is a fact about four
integers, true for every ideal; when d is a generator of the ideal at hand,
the reduction is known to give zero and x^m costs one dict probe
(``_wall_survivors`` says why the skip is exact).  Verdicts, targets and
every ExponentOverflow are those of the certificate-free kernels.
"""

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .binomials import Binomial, canonical_pair, initial_ideal
from .errors import (
    BadLength,
    ExponentOverflow,
    GuardExceeded,
    IncompleteInput,
    InputError,
    NonHomogeneousInput,
    NotAGraded,
    NotApplicable,
    NotFlippable,
    certify,
)
from .grading import positive_combination
from .graver import graver_basis
from .lp import inherited_answer, lp_strict_feasible
from .monomials import (
    FIELD_BITS,
    IRREDUCIBLE,
    MonomialIdeal,
    _Lazy,
    degree_code,
    exp_sub,
    fiber_walk,
    guard_mask,
    k_polynomial,
    minimalize,
    pack,
    packed_colon,
    packed_divisor,
    packed_member,
    packed_nf,
    packed_step,
    unpack,
)


@dataclass(frozen=True)
class FlipMove:
    source: MonomialIdeal
    pa: int  # packed minimal generator of source
    pb: int  # the packed standard monomial it trades with
    target: MonomialIdeal

    # exponent tuples, unpacked where a move leaves the flip search
    a = property(lambda self: unpack(self.pa, self.source.n))
    b = property(lambda self: unpack(self.pb, self.source.n))
    label = property(lambda self: canonical_pair(self.a, self.b))


class AGradedContext:
    """Shared caches for one grading matrix.

    Everything heavy (toric ideal, Graver basis, reference numerator,
    standard monomials, K-polynomials) is computed once on demand and reused.
    The values handed out are immutable, but the caches are not: the
    K-polynomial memo, the packed standard monomials of each ideal
    (``_standard``, written by ``generator_standards`` and ``carry``) and
    the wall certificates (``_walls``) grow in place, and
    ``brute_force_enumerate`` clears the memo.  The reference ideal is the
    initial ideal for the weights c^T A.
    """

    def __init__(self, matrix):
        self.A = matrix
        # sorted packed generators -> {degree code: coefficient}, for every
        # ideal the K-polynomial recursion met below the ideals asked for;
        # brute_force_enumerate releases it when it returns
        self._kpoly_memo = {}
        # ideal -> {degree code: packed standard monomial}; ``carry`` hands
        # the source's integer objects on to the target
        self._standard = {}
        # oriented wall (packed lead, packed trail) -> {packed m: packed d}, the
        # certificates of ``_wall_survivors``: when m was last reduced on that
        # wall, x^d divided (x^m : x^lead) x^trail, or d = m and the product
        # criterion skipped x^m.  Both are facts about (lead, trail, m, d), so
        # they hold for every ideal with that wall.
        self._walls = defaultdict(dict)
        # (ideal, set of its packed generators) for the ideal asked last;
        # ``neighbors`` flips one ideal many times in a row
        self._last_generators = (None, frozenset())

    @cached_property
    def graver(self):
        return graver_basis(self.A)

    @cached_property
    def reference_ideal(self):
        return initial_ideal(self.A, self.A.certificate_weights)

    @cached_property
    def reference_codes(self):
        """The K-polynomial of the reference ideal, as ``k_codes`` gives it."""
        return self.k_codes(self.reference_ideal)

    @cached_property
    def degree_codes(self):
        """Packed monomial -> additive code of its degree (``DegreeCode.code``)."""
        return degree_code(self.A).code

    def k_codes(self, ideal):
        """The K-polynomial of an ideal as a {degree code: coefficient} dict."""
        ideal.check_width(self.A.n)
        return k_polynomial(ideal, self.A, memo=self._kpoly_memo, codes=True)

    def _generator_set(self, ideal):
        """The packed generators of an ideal as a set, kept for the last ideal asked."""
        held, members = self._last_generators
        if held is not ideal:
            members = frozenset(ideal.packed)
            self._last_generators = (ideal, members)
        return members

    def standard_monomial(self, ideal, b):
        """The unique monomial of degree b outside an A-graded ideal, packed; the uncached search.

        The first that ``fiber_walk`` yields outside the packed generators,
        the lexicographically smallest.  Raises BadLength unless the ideal
        has n fields and b has d entries, ExponentOverflow when b is past the
        ``DegreeCode`` bound or the search reaches an exponent of 2**31,
        InputError when c.b < 0, and NotAGraded when no monomial of degree b
        lies outside the ideal.
        """
        ideal.check_width(self.A.n)
        b = tuple(b)
        degree_code(self.A).encode(b)  # for its checks; the search needs no code
        if positive_combination(self.A, b) < 0:
            raise InputError(f"degree {b} is outside the monoid")
        found = next(fiber_walk(self.A, b, ideal.packed), None)
        if found is None:
            raise NotAGraded(f"no standard monomial in degree {b}")
        return found

    def generator_standards(self, ideal):
        """The packed std(deg g) of each minimal generator g: the cache's one entrance."""
        ideal.check_width(self.A.n)
        known = self._standard.setdefault(ideal, {})
        codes = self.degree_codes
        for p in ideal.packed:
            code = codes[p]
            if code not in known:
                known[code] = self.standard_monomial(ideal, degree_code(self.A).degree[code])
        return [known[codes[p]] for p in ideal.packed]

    def carry(self, move):
        """Seed the standard-monomial cache of a flip target from its source.

        For the degree (code) beta of each generator of M' = ``move.target``
        that M = ``move.source`` has cached as s = std_M(beta), the candidate
        c is s with x^b traded for x^a for as long as x^b divides it; the
        loop ends because a Graver pair has disjoint supports.  c has
        degree beta, since deg a = deg b, and an A-graded M' has exactly
        one standard monomial in degree beta, so c is that monomial iff it
        lies outside M'.  One packed membership test decides, and c is
        stored only then; otherwise, or when M has not cached beta, the
        degree is left to ``generator_standards``.  When no trade happened, c
        is s, which lies outside M, so no generator that M' shares with M
        divides it: c is tested against the generators of M' that M lacks
        alone.  The trades and the test run on the cached packed integers.

        For a flip the test always passes.  Modulo the wall ideal, the
        monomials of degree beta that trades of x^a and x^b join to s form
        the only chain that is not zero, and the marking with x^b leading
        leaves standard exactly its member without x^b, which is c.  A
        single trade is not enough when x^{2b} divides s.
        """
        source = self._standard.get(move.source)
        if not source:
            return
        target = move.target
        guard = guard_mask(self.A.n)
        pb = move.pb
        shift = move.pa - pb
        known = self._standard.setdefault(target, {})
        source_gens = self._generator_set(move.source)
        lacking = [p for p in target.packed if p not in source_gens]
        for p in target.packed:
            beta = self.degree_codes[p]
            c = source.get(beta)
            if c is None or beta in known:
                continue
            pc = c
            while ((pc | guard) - pb) & guard == guard:  # x^b divides x^c
                pc += shift
                if pc & guard:
                    raise ExponentOverflow(f"a trade of {move.b} for {move.a} reached 2**31")
            if not packed_member(pc, lacking if pc == c else target.packed, guard):
                known[beta] = pc


def is_agraded(ideal, ctx):
    """Exact K-polynomial equality with the toric reference.

    The two numerators are compared as degree-code dicts, undecoded.
    """
    return ctx.k_codes(ideal) == ctx.reference_codes


def _graver_sides_in(ideal, graver):
    """(u, v, whether x^u, whether x^v lies in the ideal) for each Graver pair {u, v}.

    Plain packed divisibility, with the sides packed once per Graver basis
    (``GraverBasis.packed``).  BadLength unless the generators of the ideal
    have as many entries as the sides.
    """
    if not graver.elements:
        return
    n = len(graver.elements[0][0])
    ideal.check_width(n)
    packed, guard = ideal.packed, guard_mask(n)
    for (u, v), (pu, pv) in zip(graver, graver.packed):
        yield u, v, packed_member(pu, packed, guard), packed_member(pv, packed, guard)


def is_weakly_agraded(ideal, ctx):
    """Whether every Graver pair has at least one side in the ideal."""
    return all(in_u or in_v for _, _, in_u, in_v in _graver_sides_in(ideal, ctx.graver))


def definition_flip_ideal(ideal, a, b, graver):
    """Flip target built directly from the Graver basis.

    Generated by x^b and every Graver-pair side other than x^a that lies in
    the ideal while its partner does not.

    Oracle: the tests check every flip of the wall-ideal route against it.
    """
    a, b = tuple(a), tuple(b)
    gens = [b]
    for u, v, in_u, in_v in _graver_sides_in(ideal, graver):
        if in_u != in_v and (side := u if in_u else v) != a:
            gens.append(side)
    return minimalize(gens)


def flip(ideal, pair, ctx):
    """Flip an ideal over a Graver pair of two packed monomials in n fields, or raise.

    The checks, in order:
    - BadLength unless the ideal is zero or has n fields (``check_width``);
    - InputError unless both sides are packed monomials of n fields: a side
      that is negative, has a bit at or above field n, or has a guard bit
      set is refused, since pairs also come from outside the program;
    - the pair is oriented so that x^a is a minimal generator, found by one
      scan of the packed generators (NotApplicable if neither side is one);
    - NotApplicable if x^b lies in the ideal, NonHomogeneousInput if the degree
      codes differ; both pass, unchecked, for an x^b cached as std(deg a);
    - NotFlippable unless re-marking the wall ideal toward x^a reproduces
      the ideal, in which case the opposite marking is the A-graded target.
    The two wall kernels below take these checks as given.  Both read and
    extend the context's certificates of their oriented wall
    (``_wall_survivors``), so a generator whose S-monomial was divisible,
    on an earlier ideal, by a generator of this ideal costs one dict probe;
    the verdict and the target are those of the certificate-free kernels.
    """
    pa, pb = pair
    n = ctx.A.n
    if ideal.n != n:  # one comparison on the hot path; the zero ideal passes
        ideal.check_width(n)
    guard = guard_mask(n)
    for p in (pa, pb):
        if p >> FIELD_BITS * n or p & guard:  # p >> ... is -1 for a negative p
            raise InputError(f"flip side {p:#x} is not a packed monomial of {n} fields")
    packed = ideal.packed
    if pa not in packed:
        if pb not in packed:
            raise NotApplicable(
                f"neither {unpack(pa, n)} nor {unpack(pb, n)} is a minimal generator")
        pa, pb = pb, pa
    i = packed.index(pa)
    codes = ctx.degree_codes
    if ctx._standard.get(ideal, {}).get(codes[pa]) != pb:
        if packed_member(pb, packed, guard):
            raise NotApplicable(f"{unpack(pb, n)} lies in the ideal")
        if codes[pa] != codes[pb]:
            raise NonHomogeneousInput(f"{unpack(pa, n)} and {unpack(pb, n)} have different degrees")
    rest = packed[:i] + packed[i + 1:]
    generators = ctx._generator_set(ideal)
    if not wall_recovers_source(rest, pa, pb, n, (ctx._walls[pa, pb], generators)):
        raise NotFlippable(pa, pb, n)
    return FlipMove(ideal, pa, pb, wall_initial(rest, pa, pb, n, (ctx._walls[pb, pa], generators)))


def _wall_survivors(rest, plead, ptrail, guard, first=False, certificates=None):
    """Completion of the wall ideal <rest, x^lead - x^trail>, all packed.

    Only S-pairs of a monomial x^m with the binomial arise.  Each
    S-monomial (x^m : x^lead) x^trail that survives reduction joins the
    monomials, forms its own S-pair and is returned (``first``: only one).
    An S-monomial that leaves the packed field range raises
    ExponentOverflow, also for an x^m coprime to x^lead, which Buchberger's
    product criterion would skip.

    Certificates.  ``certificates`` is None (none are read or kept) or the
    pair (certs, generators) that ``flip`` passes: the dict of this oriented
    wall in ``AGradedContext._walls``, shared by every ideal, and the set of
    packed generators of the ideal at hand.  certs maps m to d when, as m was
    last reduced here, x^d was the first monomial to divide the S-monomial
    (x^m : x^lead) x^trail, or d = m and the product criterion skipped x^m
    (kept only when m + trail stays in range).  Both facts depend on (lead,
    trail, m, d) alone.  An x^m whose d is a generator of the ideal is
    skipped after one dict probe, and the skip is exact.  d was a monomial
    reduced by, a member of ``rest`` or a survivor, and neither is x^lead or
    x^trail: by ``flip``'s checks one of them is the generator the wall
    replaces and the other lies outside the ideal, so ``rest`` holds
    neither; x^lead divides no survivor; and a survivor has the degree of an
    S-monomial, above deg trail, since no x^m divides x^lead.  So a d among
    the generators lies in ``rest``, divides the S-monomial, and
    ``packed_nf`` would return None.  Survivors, their order and every
    ExponentOverflow are unchanged.  Any other x^m is reduced as without
    certificates, and the divisor found, if any, becomes its certificate.
    """
    packed = list(rest)
    wall = ((plead, ptrail, 1),)
    certs, generators = certificates if certificates is not None else ({}, ())
    for pm in packed:  # survivors are appended, and visited in turn
        if certs.get(pm) in generators:
            continue
        pc = packed_colon(pm, plead, guard)
        pu = pc + ptrail
        if pu & guard:
            raise ExponentOverflow("a rewritten exponent reached 2**31")
        if (d := pm if pc == pm else packed_divisor(pu, packed, guard)) is not None:
            certs[pm] = d
            continue
        # no monomial divides x^pu, so the binomial makes its first rewrite
        step = packed_step(pu, (), wall, guard)
        nf = (pu, 1) if step is IRREDUCIBLE else packed_nf(step[0], 1, packed, wall, guard)
        if nf is not None:
            packed.append(nf[0])
            if first:
                break
    return packed[len(rest):]


def wall_recovers_source(rest, pa, pb, n, certificates=None):
    """Whether marking x^a in the wall ideal <rest, x^a - x^b> gives the source.

    ``rest`` holds the packed minimal generators of the source other than
    pa, in n fields.  It does iff no S-monomial survives, so the test stops
    at the first survivor, the common case for rejected candidates.
    ``certificates``, as ``flip`` passes them for the wall (pa, pb), are
    read and extended as ``_wall_survivors`` says; without them the test
    runs certificate-free.
    """
    return not _wall_survivors(rest, pa, pb, guard_mask(n), True, certificates)


def wall_initial(rest, pa, pb, n, certificates=None):
    """The flip target: the wall ideal <rest, x^a - x^b> with x^b marked.

    ``rest`` holds the packed minimal generators of the source other than
    pa, in n fields.  The target's packed minimal generators are collected,
    not sorted out of everything: x^b, the survivors of the completion that no
    later survivor divides, and the generators of ``rest`` that neither x^b
    nor a survivor divides.  Nothing else can fail to be minimal:
    - ``rest`` is minimal, and no element of it divides x^b, which lies
      outside the source;
    - a survivor is irreducible modulo ``rest``, the earlier survivors and
      the binomial with lead x^b, so none of these divides it;
    - a survivor x^s does not divide x^b either: deg s - deg b is the
      degree of a monomial, so x^s | x^b would give deg s = deg b for a
      pointed grading, hence s = b, which x^b would divide.
    One sort of the integers gives the canonical order, and nothing is
    unpacked.  ``certificates``, as ``flip`` passes them for the wall
    (pb, pa), are read and extended as ``_wall_survivors`` says; without
    them the completion runs certificate-free.
    """
    guard = guard_mask(n)
    survivors = []
    for s in _wall_survivors(rest, pb, pa, guard, certificates=certificates):
        survivors = [t for t in survivors if ((t | guard) - s) & guard != guard]
        survivors.append(s)
    lower = [pb, *survivors]
    packed = lower + [p for p in rest if packed_divisor(p, lower, guard) is None]
    packed.sort()
    return MonomialIdeal(tuple(packed), n)


def neighbors(ideal, ctx, reverse=None):
    """All flips out of an A-graded monomial ideal, in generator order.

    Candidates pair each packed minimal generator with the packed standard
    monomial of its degree, looked up by degree code; no other Graver pair
    can satisfy the flip preconditions, and each candidate is itself a
    Graver pair.  ``flip`` validates each, finding x^b cached.

    ``reverse`` is for ``explore`` only: it maps packed generators of
    ``ideal`` to moves already known to leave through them, the reverses of
    flips into ``ideal``.  Flips are symmetric, so such a move is used as it
    is instead of testing its wall ideal again; the standard monomial of
    every generator is still looked up, so the cache fills as without it.
    """
    moves = []
    for pa, pb in zip(ideal.packed, ctx.generator_standards(ideal)):
        if reverse and pa in reverse:
            moves.append(reverse[pa])
            continue
        try:
            moves.append(flip(ideal, (pa, pb), ctx))
        except NotFlippable:
            continue
    return tuple(moves)


def is_coherent(ideal, ctx, inherited=()):
    """Initial-ideal test by exact LP.  Returns (flag, certificate).

    A monomial A-graded ideal is an initial ideal of the toric ideal iff
    some w satisfies w.(g - std(deg g)) >= 1 over its minimal generators:
    the candidate reduced basis pairing each generator with the standard
    monomial of its degree is marked consistently by such a w, which makes
    the ideal contain, hence equal, the corresponding initial ideal.  Any
    witness also splits every Graver pair toward its ideal side.  The
    certificate is a primitive integer witness w if the flag is true, and
    Gordan multipliers {row: y} if it is false.

    ``inherited`` is for ``with_coherence``: the certificates of decided
    flip neighbours, each as (certificate, a - b) for the flip label
    (a, b) of the shared edge.  They are tried in order before the
    simplex, by ``lp.inherited_answer`` with the simplex's own checks: a
    neighbour's witness moved across the shared wall must mark every row
    of this ideal, and a neighbour's multipliers must sum rows of this
    ideal to 0.  A certificate that fails is passed over; if none holds,
    the simplex decides.
    """
    n = ctx.A.n
    rows = {exp_sub(g, unpack(s, n)) for g, s in zip(ideal.gens, ctx.generator_standards(ideal))}
    answer = inherited_answer(rows, inherited)
    if answer is not None:
        return answer
    farkas = {}
    witness = lp_strict_feasible(sorted(rows), ctx.A.n, farkas=farkas)
    return (True, witness) if witness is not None else (False, farkas)


def graver_split_rows(ideal, ctx):
    """The full marking system w.(u - v) >= 1 over split Graver pairs.

    One row per Graver pair with exactly one side in the ideal, oriented
    toward the ideal side; feasibility of this larger system is equivalent
    to the minimal-generator system used by is_coherent.

    Oracle: the tests solve this textbook marking system independently of
    is_coherent.
    """
    rows = []
    for u, v, in_u, in_v in _graver_sides_in(ideal, ctx.graver):
        if in_u and not in_v:
            rows.append(exp_sub(u, v))
        elif in_v and not in_u:
            rows.append(exp_sub(v, u))
    return sorted(set(rows))


def special_ideals(ctx, all_ideals, expected_count=None):
    """The intersection of all monomial A-graded ideals and the pair ideal.

    ``all_ideals`` must be the complete enumeration; when
    ``expected_count`` is given a mismatch raises IncompleteInput.  Returns
    (intersection, pair_ideal); the pair ideal, generated by the products
    of the two sides of each Graver pair, is always contained in the
    intersection.
    """
    all_ideals = sorted(set(all_ideals))
    if expected_count is not None and len(all_ideals) != expected_count:
        raise IncompleteInput(
            f"got {len(all_ideals)} ideals, expected {expected_count}"
        )
    if not all_ideals:
        raise IncompleteInput("empty enumeration")
    meet = all_ideals[0]
    for ideal in all_ideals[1:]:
        meet = meet.intersect(ideal)
    pair_ideal = minimalize(
        tuple(x + y for x, y in zip(u, v)) for u, v in ctx.graver
    )
    certify(all(meet.contains(g) for g in pair_ideal.gens),
            "the pair ideal is not inside the intersection")
    return meet, pair_ideal


def brute_force_enumerate(ctx, guard=None):
    """All monomial A-graded ideals by side choices over the Graver basis.

    Depth-first over the pairs (u, v) in increasing certificate weight, then
    tuple order: each pair must have a side inside the ideal, so a pair with
    a side already inside is passed over, and otherwise the search branches
    on x^u going in, or x^u staying standard and x^v going in.  A degree has
    one standard monomial, so once it has one only the first branch
    remains.  Every leaf is kept only if it passes ``is_agraded``, the exact
    K-polynomial test, as it is found.  No ideal is found twice: at each
    branch x^u is a generator in one subtree and standard in the other.

    Branch and bound.  The K-polynomial of a monomial ideal is the
    inclusion-exclusion sum over subsets S of its generators of
    (-1)^|S| t^{A.lcm S} (the Taylor resolution; Bayer-Stillman; Bigatti,
    "Computation of Hilbert-Poincare series", JPAA 1997).  lcm S is
    divisible by every member of S and c.A is positive, so a subset with a
    generator of certificate weight >= W adds only terms of weight >= W:
    the terms below W depend only on the generators below W.  Pairs come in
    increasing weight, so on reaching a branch at a pair of weight W the
    chosen sides of weight < W, the prefix, are the generators below W of
    every leaf underneath.  An A-graded leaf has the reference K-polynomial,
    so when the prefix's K-polynomial, truncated below W, differs from the
    reference's truncated the same way, no leaf underneath is A-graded, and
    the path is dropped with the sibling it would push.  The prune is exact:
    the leaves left still pass ``is_agraded``, and the result is unchanged.
    The prefix changes only with W, so a path tests each weight once, and
    the prefix's K-polynomial is kept in the memo, where every leaf below
    meets it on its own recursion chain.  ``guard`` bounds the K-polynomial
    tests, leaves and prefixes together.

    The distinct sides are numbered in tuple order, and the chosen sides and
    the degrees with a standard side are bitmasks.  Divisibility among the
    sides is tested once, with packed integers, into ``below[i]`` (the sides
    that divide side i), so a step of the search is a few AND operations.
    Weights are positive, so no side divides another of no larger weight:
    the chosen sides stay minimal, and their numbers, sorted, are the sorted
    minimal generators.  Each path also keeps those numbers as a list in the
    order chosen, so an ideal is built without decoding the mask.  A path
    chooses sides in increasing weight and tests weight W before it chooses
    a side of weight W, so at a test the list is the prefix.  A standard
    side x^u need not be recorded.  A later pair (w, u) takes x^w by the
    degree rule, and a later pair (u, y) has y > v, so y - v, or a conformal
    piece of it of smaller weight, is an earlier pair, which put x^y inside
    (x^v inside would have passed over (u, v)).  The K-polynomial memo is
    released when the enumeration returns.

    Oracle: it finds every ideal without flips, and the prune reads only
    K-polynomials, so it stays flip-free, and the census and the
    verify-paper entries check the flip graph against it.
    """
    A = ctx.A

    def weight(u):
        return positive_combination(A, A.degree(u))

    pairs = sorted(ctx.graver, key=lambda p: (weight(p[0]), p))
    sides = sorted({side for pair in pairs for side in pair})
    index = {side: i for i, side in enumerate(sides)}
    packed = [pack(side) for side in sides]
    mask = guard_mask(A.n)
    below = [sum(1 << j for j, pj in enumerate(packed) if ((pi | mask) - pj) & mask == mask)
             for pi in packed]
    degree_ids = {}
    steps = [(index[u], index[v], 1 << degree_ids.setdefault(A.degree(u), len(degree_ids)),
              weight(u)) for u, v in pairs]

    degrees = degree_code(A).degree
    code_weight = _Lazy(lambda k: positive_combination(A, degrees[k]))
    reference = ctx.reference_codes
    reference_below = _Lazy(lambda w: {k: c for k, c in reference.items() if code_weight[k] < w})
    memo = ctx._kpoly_memo

    def ideal_of(path):
        chosen = tuple(map(packed.__getitem__, sorted(path)))
        return MonomialIdeal(chosen, A.n if chosen else 0)  # the zero ideal has n = 0

    def prefix_agrees(path, w):
        prefix = ideal_of(path)
        codes = memo[prefix.packed] = ctx.k_codes(prefix)
        return {k: c for k, c in codes.items() if code_weight[k] < w} == reference_below[w]

    tests = 0

    def count_test():
        nonlocal tests
        tests += 1
        if guard is not None and tests > guard:
            raise GuardExceeded(f"more than {guard} K-polynomial tests")

    found = []
    # frames: (next pair, chosen sides as a mask and as a list in the order
    # chosen, degrees whose standard side is fixed, weight of the last
    # prefix test on the path); nothing lies below the lowest weight, so the
    # first test is at the next one
    stack = [(0, 0, [], 0, steps[0][3] if steps else 0)]
    try:
        while stack:
            start, chosen, path, fixed, tested = stack.pop()
            for idx in range(start, len(steps)):
                iu, iv, deg, w = steps[idx]
                if chosen & (below[iu] | below[iv]):
                    continue
                if w != tested:
                    count_test()
                    if not prefix_agrees(path, w):
                        break  # drops this path and the sibling it would push
                    tested = w
                # branch: u in the ideal, or u standard and v in
                if not fixed & deg:
                    stack.append((idx + 1, chosen | 1 << iv, path + [iv], fixed | deg, tested))
                chosen |= 1 << iu
                path.append(iu)
            else:
                count_test()
                ideal = ideal_of(path)
                if is_agraded(ideal, ctx):
                    found.append(ideal)
    finally:
        memo.clear()
    return tuple(sorted(found))


# -- the two-by-five curve family ---------------------------------------------

def curve_rows(j):
    """Two-by-five matrix whose toric variety is a monomial curve in P^4."""
    if j < 1:
        raise BadLength("family index must be >= 1")
    return [[1, 1, 1, 1, 1], [0, 1, 3 + 3 * j, 4 + 3 * j, 6 + 3 * j]]


def curve_monomial_ideal(j):
    """The distinguished initial ideal of the family, j flips above minimum."""
    return minimalize([b.lead for fam in curve_binomial_families(j).values() for b in fam])


def curve_binomial_families(j):
    """The four binomial families attached to the curve ideal.

    Returned as a dict with keys "p", "q", "r", "s"; the "q", "r" and "s"
    binomials are exactly the flips of the distinguished initial ideal,
    while the "p" ones are not flippable.
    """
    p = [
        Binomial((0, 0, 2, 0, 1), (0, 0, 0, 3, 0)),
        Binomial((0, 1, 1, 0, 0), (1, 0, 0, 1, 0)),
        Binomial((2, 0, 0, 0, 1), (0, 2, 0, 1, 0)),
        Binomial((1, 0, 1, 0, 1), (0, 1, 0, 2, 0)),
        Binomial((1, 0, 0, 0, j + 2), (0, 0, j, 3, 0)),
    ]
    q = [
        Binomial((0, 1, 0, 0, j + 1), (0, 0, j + 1, 1, 0)),
        Binomial((2, 0, j + 1, 0, 0), (0, 3, 0, 0, j)),
        Binomial((0, 4, 0, 0, j), (3, 0, j, 1, 0)),
        Binomial((0, 0, j + 2, 0, 0), (1, 0, 0, 0, j + 1)),
    ]
    r = [
        Binomial((5 + 3 * t, 0, j - t, 0, 0), (0, 6 + 3 * t, 0, 0, j - 1 - t))
        for t in range(j)
    ]
    s = [
        Binomial((0, 7 + 3 * t, 0, 0, j - 1 - t), (6 + 3 * t, 0, j - 1 - t, 1, 0))
        for t in range(j)
    ]
    return {"p": p, "q": q, "r": r, "s": s}


def curve_parametric_family(j, coefficients):
    """Mixed generators with scalar coefficients on the high-degree strand.

    ``coefficients`` holds j rationals; zero entries degenerate the
    corresponding binomials to monomials.  For every choice the generators
    are a Groebner basis under the weight (1, 1, 2, 0, 2) with initial
    ideal curve_monomial_ideal(j).
    """
    coefficients = [Fraction(c) for c in coefficients]
    if len(coefficients) != j:
        raise BadLength(f"need exactly {j} coefficients")
    fams = curve_binomial_families(j)
    gens = [b.lead for b in fams["p"]] + [b.lead for b in fams["q"]]
    for b, mu in zip(fams["r"], coefficients):
        gens.append(b.lead if mu == 0 else Binomial(b.lead, b.trail, mu))
    gens += [b.lead for b in fams["s"]]
    return gens
