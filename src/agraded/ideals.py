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

A flip step stays in packed integers from the candidate to the carried
standard monomials, cached per ideal under the integer ``DegreeCode`` of their
degree.  ``flip`` checks every candidate, since pairs also come from files:
lengths, x^a a minimal generator, x^b outside and of equal degree code (known
if x^b is cached as std(deg a): only such monomials are cached), then the wall
marked toward x^a.  ``wall_initial`` merges the target's minimal generators
instead of sorting them out; this is exact because the source's other
generators are minimal, each survivor of the completion is irreducible modulo
everything found before it, and x^b lies outside the source.
"""

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
from .lp import lp_strict_feasible
from .monomials import (
    FIELD_BITS,
    FIELD_LIMIT,
    MonomialIdeal,
    degree_code,
    exp_sub,
    guard_mask,
    ideal_with_packed,
    k_polynomial,
    minimalize,
    pack,
    packed_colon,
    packed_member,
    packed_nf,
    unpack,
)


@dataclass(frozen=True)
class FlipMove:
    source: MonomialIdeal
    a: tuple  # minimal generator of source
    b: tuple  # the standard monomial it trades with
    target: MonomialIdeal

    @property
    def label(self):
        return canonical_pair(self.a, self.b)


class AGradedContext:
    """Shared caches for one grading matrix.

    Everything heavy (toric ideal, Graver basis, reference numerator,
    standard monomials, K-polynomials) is computed once on demand and reused;
    all cached values are immutable.  The reference ideal is the initial
    ideal for the certificate weights c^T A.
    """

    def __init__(self, matrix):
        self.A = matrix
        # sorted packed generators -> {degree code: coefficient}, for every
        # ideal the K-polynomial recursion met below the ideals asked for;
        # brute_force_enumerate releases it when it returns
        self._kpoly_memo = {}
        # ideal -> {degree code: standard monomial}.  A matrix has few distinct
        # degrees and standard monomials, shared across thousands of ideals, so
        # both are interned: a cache entry costs a dict slot, not an int and tuple.
        self._standard = {}
        self._interned = {}
        # monomial -> its packed form, for the monomials flips trade
        self._packed = {}

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
        return k_polynomial(ideal, self.A, memo=self._kpoly_memo, codes=True)

    def pack(self, u):
        """``pack(u)``, made once per distinct monomial of this context."""
        p = self._packed.get(u)
        if p is None:
            p = self._packed[u] = pack(u)
        return p

    def standard_monomial(self, ideal, b):
        """The unique monomial of degree b outside an A-graded ideal.

        Cached under ``DegreeCode.encode(b)`` (BadLength unless b has d entries).
        Backtracks over exponents in lexicographic order; the last coordinate
        is solved for, not searched.  A generator whose last nonzero coordinate
        is j bounds coordinate j once the earlier coordinates are decided: when
        its prefix divides the partial exponent, every value from its own j-th
        entry on is divisible, so each node tests each such generator once, on
        packed prefixes.  An exponent of 2**31 or more raises ExponentOverflow.
        """
        b = tuple(b)
        code = degree_code(self.A).encode(b)
        cached = self._standard.get(ideal, {}).get(code)
        if cached is not None:
            return cached
        n = self.A.n
        weights = self.A.certificate_weights
        budget = positive_combination(self.A, b)
        if budget < 0:
            raise InputError(f"degree {b} is outside the monoid")
        cols = self.A.columns
        nonneg = self.A.nonnegative
        guard = guard_mask(n)
        steps = [1 << (FIELD_BITS * j) for j in range(n)]
        # per level j: (packed g[:j], g[j]) of the generators with last nonzero j
        buckets = [[] for _ in range(n)]
        for p in ideal.packed:
            top = max(p.bit_length() - 1, 0) // FIELD_BITS
            buckets[top].append((p & (steps[top] - 1), p >> (FIELD_BITS * top)))
        last = n - 1
        u = [0] * n

        def rec(j, pu, residual, budget):
            if nonneg and any(x < 0 for x in residual):
                return False
            stop = budget // weights[j] + 1
            q = pu | guard
            for pg, e in buckets[j]:
                if e < stop and (q - pg) & guard == guard:
                    stop = e  # larger values stay divisible
            col = cols[j]
            if j == last:
                # c.residual == budget, so only k = budget / w can leave residual 0
                k = budget // weights[j]
                if k < stop and all(r == k * c for r, c in zip(residual, col)):
                    u[j] = k
                    return True
                return False
            step = steps[j]
            for k in range(min(stop, FIELD_LIMIT)):
                u[j] = k
                if rec(j + 1, pu + k * step,
                       tuple(r - k * c for r, c in zip(residual, col)),
                       budget - k * weights[j]):
                    return True
            u[j] = 0
            if stop > FIELD_LIMIT:
                raise ExponentOverflow(f"degree {b} needs an exponent of 2**31 or more")
            return False

        if not rec(0, 0, b, budget):
            raise NotAGraded(f"no standard monomial in degree {b}")
        intern = self._interned.setdefault
        found = tuple(u)
        self.pack(found)  # the solved last coordinate may reach 2**31
        found = intern(found, found)
        self._standard.setdefault(ideal, {})[intern(code, code)] = found
        return found

    def generator_standards(self, ideal):
        """std(deg g) for each minimal generator g, by its packed degree code."""
        known = self._standard.setdefault(ideal, {})
        return [known.get(self.degree_codes[p]) or self.standard_monomial(ideal, self.A.degree(g))
                for g, p in zip(ideal.gens, ideal.packed)]

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
        degree is left to ``standard_monomial``.  The trades and the test
        run on packed integers; c is unpacked, and its packed form kept,
        only when a trade happened.

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
        n = self.A.n
        guard = guard_mask(n)
        pb = self.pack(move.b)
        shift = self.pack(move.a) - pb
        known = self._standard.setdefault(target, {})
        intern = self._interned.setdefault
        for p in target.packed:
            beta = self.degree_codes[p]
            c = source.get(beta)
            if c is None or beta in known:
                continue
            pc = start = self.pack(c)
            while ((pc | guard) - pb) & guard == guard:  # x^b divides x^c
                pc += shift
                if pc & guard:
                    raise ExponentOverflow(f"a trade of {move.b} for {move.a} reached 2**31")
            if packed_member(pc, target.packed, guard):
                continue
            if pc != start:
                c = unpack(pc, n)
                c = intern(c, c)
                self._packed.setdefault(c, pc)
            known[intern(beta, beta)] = c


def is_agraded(ideal, ctx):
    """Exact K-polynomial equality with the toric reference.

    The two numerators are compared as degree-code dicts, undecoded.
    """
    return ctx.k_codes(ideal) == ctx.reference_codes


def is_weakly_agraded(ideal, ctx):
    """Whether every Graver pair has at least one side in the ideal."""
    return all(
        ideal.contains(u) or ideal.contains(v) for u, v in ctx.graver
    )


def definition_flip_ideal(ideal, a, b, graver):
    """Flip target built directly from the Graver basis.

    Generated by x^b and every Graver-pair side other than x^a that lies in
    the ideal while its partner does not.

    Oracle: the tests check every flip of the wall-ideal route against it.
    """
    a, b = tuple(a), tuple(b)
    gens = [b]
    for u, v in graver:
        for side, partner in ((u, v), (v, u)):
            if side != a and ideal.contains(side) and not ideal.contains(partner):
                gens.append(side)
    return minimalize(gens)


def flip(ideal, pair, ctx):
    """Flip an ideal over a Graver pair, or raise.

    The checks, in order; those after the orientation run on packed integers:
    - BadLength unless both sides have n entries;
    - the pair is oriented so that x^a is a minimal generator, found by one
      scan of the generators (NotApplicable if neither side is one);
    - NotApplicable if x^b lies in the ideal, NonHomogeneousInput if the degree
      codes differ; both pass, unchecked, for an x^b cached as std(deg a);
    - NotFlippable unless re-marking the wall ideal toward x^a reproduces
      the ideal, in which case the opposite marking is the A-graded target.
    x^b is packed once per context (``AGradedContext.pack``).  The two wall
    kernels below take these checks as given.
    """
    if isinstance(pair, Binomial):
        u, v = pair.lead, pair.trail
    else:
        u, v = map(tuple, pair)
    n = ctx.A.n
    if not len(u) == len(v) == n:
        raise BadLength(f"{u} and {v} need {n} entries each")
    gens = ideal.gens
    try:
        i = gens.index(u)
        a, b = u, v
    except ValueError:
        if v not in gens:
            raise NotApplicable(f"neither {u} nor {v} is a minimal generator") from None
        i = gens.index(v)
        a, b = v, u
    packed = ideal.packed
    pa, pb = packed[i], ctx.pack(b)
    codes = ctx.degree_codes
    if ctx._standard.get(ideal, {}).get(codes[pa]) != b:
        if packed_member(pb, packed, guard_mask(n)):
            raise NotApplicable(f"{b} lies in the ideal")
        if codes[pa] != codes[pb]:
            raise NonHomogeneousInput(f"{a} and {b} have different degrees")
    rest = packed[:i] + packed[i + 1:]
    if not wall_recovers_source(rest, pa, pb, n):
        raise NotFlippable(a, b)
    known = dict(zip(packed, gens))
    known[pb] = b
    return FlipMove(ideal, a, b, wall_initial(rest, pa, pb, n, known))


def _wall_survivors(rest, plead, ptrail, guard, first=False):
    """Completion of the wall ideal <rest, x^lead - x^trail>, all packed.

    Only S-pairs of a monomial x^m with the binomial arise.  Each
    S-monomial (x^m : x^lead) x^trail that survives reduction joins the
    monomials, forms its own S-pair and is returned (``first``: only one).
    Buchberger's product criterion skips an x^m coprime to x^lead unless
    m + trail leaves the packed field range: that S-monomial still goes to
    ``packed_nf``, which raises ExponentOverflow.
    """
    packed = list(rest)
    wall = ((plead, ptrail, 1),)
    for pm in packed:  # survivors are appended, and visited in turn
        pc = packed_colon(pm, plead, guard)
        if pc == pm and not (pm + ptrail) & guard:
            continue
        nf = packed_nf(pc + ptrail, 1, packed, wall, guard)
        if nf is not None:
            packed.append(nf[0])
            if first:
                break
    return packed[len(rest):]


def wall_recovers_source(rest, pa, pb, n):
    """Whether marking x^a in the wall ideal <rest, x^a - x^b> gives the source.

    ``rest`` holds the packed minimal generators of the source other than
    pa, in n fields.  It does iff no S-monomial survives, so the test stops
    at the first survivor, the common case for rejected candidates.
    """
    return not _wall_survivors(rest, pa, pb, guard_mask(n), first=True)


def wall_initial(rest, pa, pb, n, known):
    """The flip target: the wall ideal <rest, x^a - x^b> with x^b marked.

    ``known`` maps pb and the packed ``rest`` to the exponent tuples that
    the result reuses.  Its minimal generators are merged, not sorted out
    of everything: x^b, the survivors of the completion that no later
    survivor divides, and the generators of ``rest`` that neither x^b nor
    a survivor divides.  Nothing else can fail to be minimal:
    - ``rest`` is minimal, and no element of it divides x^b, which lies
      outside the source;
    - a survivor is irreducible modulo ``rest``, the earlier survivors and
      the binomial with lead x^b, so none of these divides it;
    - a survivor x^s does not divide x^b either: deg s - deg b is the
      degree of a monomial, so x^s | x^b would give deg s = deg b for a
      pointed grading, hence s = b, which x^b would divide.
    One sort by exponent tuple gives the canonical order.
    """
    guard = guard_mask(n)
    survivors = []
    for s in _wall_survivors(rest, pb, pa, guard):
        survivors = [t for t in survivors if ((t | guard) - s) & guard != guard]
        survivors.append(s)
    lower = [pb, *survivors]
    pairs = [(known[pb], pb)]
    for p in rest:
        q = p | guard
        for pl in lower:
            if (q - pl) & guard == guard:
                break
        else:
            pairs.append((known[p], p))
    pairs += [(unpack(s, n), s) for s in survivors]
    pairs.sort()
    return ideal_with_packed(tuple(g for g, _ in pairs), tuple(p for _, p in pairs))


def neighbors(ideal, ctx, reverse=None):
    """All flips out of an A-graded monomial ideal, in generator order.

    Candidates pair each minimal generator with the unique standard
    monomial of its degree, looked up by degree code; no other Graver pair
    can satisfy the flip preconditions, and each candidate is itself a
    Graver pair.  ``flip`` validates each, finding x^b cached.

    ``reverse`` is for ``explore`` only: it maps generators of ``ideal`` to
    moves already known to leave through them, the reverses of flips into
    ``ideal``.  Flips are symmetric, so such a move is used as it is
    instead of testing its wall ideal again; the standard monomial of
    every generator is still looked up, so the cache fills as without it.
    """
    moves = []
    for a, b in zip(ideal.gens, ctx.generator_standards(ideal)):
        if reverse and a in reverse:
            moves.append(reverse[a])
            continue
        try:
            moves.append(flip(ideal, (a, b), ctx))
        except NotFlippable:
            continue
    return tuple(moves)


def is_coherent(ideal, ctx):
    """Initial-ideal test by exact LP.  Returns (flag, witness-or-None).

    A monomial A-graded ideal is an initial ideal of the toric ideal iff
    some w satisfies w.(g - std(deg g)) >= 1 over its minimal generators:
    the candidate reduced basis pairing each generator with the standard
    monomial of its degree is marked consistently by such a w, which makes
    the ideal contain, hence equal, the corresponding initial ideal.  Any
    witness also splits every Graver pair toward its ideal side.
    """
    rows = {exp_sub(g, std) for g, std in zip(ideal.gens, ctx.generator_standards(ideal))}
    witness = lp_strict_feasible(sorted(rows), nvars=ctx.A.n)
    return (witness is not None), witness


def graver_split_rows(ideal, ctx):
    """The full marking system w.(u - v) >= 1 over split Graver pairs.

    One row per Graver pair with exactly one side in the ideal, oriented
    toward the ideal side; feasibility of this larger system is equivalent
    to the minimal-generator system used by is_coherent.

    Oracle: the tests solve this textbook marking system independently of
    is_coherent.
    """
    rows = []
    for u, v in ctx.graver:
        in_u = ideal.contains(u)
        in_v = ideal.contains(v)
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
    ``guard`` bounds the number of leaves visited.

    The distinct sides are numbered in tuple order, and the chosen sides and
    the degrees with a standard side are bitmasks.  Divisibility among the
    sides is tested once, with packed integers, into ``below[i]`` (the sides
    that divide side i), so a step of the search is a few AND operations.
    Weights are positive, so no side divides another of no larger weight:
    the chosen sides stay minimal, and a leaf's set bits, read in ascending
    order, are its sorted minimal generators.  A standard side x^u need not
    be recorded.  A later pair (w, u) takes x^w by the degree rule, and a
    later pair (u, y) has y > v, so y - v, or a conformal piece of it of
    smaller weight, is an earlier pair, which put x^y inside (x^v inside
    would have passed over (u, v)).  The K-polynomial memo is released when
    the enumeration returns.

    Oracle: it finds every ideal without flips, so the census and the
    verify-paper entries check the flip graph against it.
    """
    pairs = sorted(
        ctx.graver,
        key=lambda p: (positive_combination(ctx.A, ctx.A.degree(p[0])), p),
    )
    sides = sorted({side for pair in pairs for side in pair})
    index = {side: i for i, side in enumerate(sides)}
    packed = [pack(side) for side in sides]
    mask = guard_mask(ctx.A.n)
    below = [sum(1 << j for j, pj in enumerate(packed) if ((pi | mask) - pj) & mask == mask)
             for pi in packed]
    degree_ids = {}
    steps = [(index[u], index[v], 1 << degree_ids.setdefault(ctx.A.degree(u), len(degree_ids)))
             for u, v in pairs]

    leaves = 0
    found = []
    # frames: (next pair, chosen sides, degrees whose standard side is fixed)
    stack = [(0, 0, 0)]
    try:
        while stack:
            start, chosen, fixed = stack.pop()
            for idx in range(start, len(steps)):
                iu, iv, deg = steps[idx]
                if chosen & (below[iu] | below[iv]):
                    continue
                # branch: u in the ideal, or u standard and v in
                if not fixed & deg:
                    stack.append((idx + 1, chosen | 1 << iv, fixed | deg))
                chosen |= 1 << iu
            leaves += 1
            if guard is not None and leaves > guard:
                raise GuardExceeded(f"more than {guard} leaves")
            bits = []
            while chosen:
                low = chosen & -chosen
                bits.append(low.bit_length() - 1)
                chosen ^= low
            ideal = ideal_with_packed(tuple(sides[j] for j in bits), tuple(packed[j] for j in bits))
            if is_agraded(ideal, ctx):
                found.append(ideal)
    finally:
        ctx._kpoly_memo.clear()
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
