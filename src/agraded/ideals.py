"""A-graded monomial ideals: tests, flips, coherence, enumeration.

A monomial ideal is A-graded when its quotient has exactly one standard
monomial in every degree of the column monoid and none elsewhere.  The
certificate used throughout is exact K-polynomial equality against a fixed
initial ideal of the toric ideal; both series share the same denominator,
so numerator equality is Hilbert-function equality.

Flips are the local moves of the flip graph: a minimal generator x^a trades
places with the unique standard monomial x^b of its degree when both
markings of the wall ideal reproduce the expected sides.  Every flip label
is automatically a Graver pair: a conformal decomposition of (a, b) would
contradict either the minimality of x^a or the standardness of x^b.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .binomials import (
    Binomial,
    canonical_pair,
    initial_ideal,
    wall_initial,
    wall_recovers_source,
)
from .errors import (
    BadLength,
    ExponentOverflow,
    FlipError,
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
    exp_sub,
    guard_mask,
    ideal_from_packed,
    k_polynomial,
    minimalize,
    pack,
    packed_generators,
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
        # canonical generators -> K-polynomial, for every ideal the
        # K-polynomial recursion met, so it answers repeated ideals too
        self._kpoly_memo = {}
        # ideal -> {degree: standard monomial}.  A matrix has few distinct
        # degrees and standard monomials, shared across thousands of ideals,
        # so both are interned: a cache entry costs a dict slot, not tuples.
        self._standard = {}
        self._interned = {}

    @cached_property
    def graver(self):
        return graver_basis(self.A)

    @cached_property
    def reference_ideal(self):
        return initial_ideal(self.A, self.A.certificate_weights)

    @cached_property
    def reference_numerator(self):
        return self.k_polynomial(self.reference_ideal)

    def k_polynomial(self, ideal):
        return k_polynomial(ideal, self.A, memo=self._kpoly_memo)

    def standard_monomial(self, ideal, b):
        """The unique monomial of degree b outside an A-graded ideal.

        Backtracks over exponents in lexicographic order; the last
        coordinate is solved for, not searched.  A generator whose last
        nonzero coordinate is j bounds coordinate j once the earlier
        coordinates are decided: when its prefix divides the partial
        exponent, every value from its own j-th entry on is divisible, so
        each node tests each such generator once, on packed prefixes.
        """
        b = tuple(b)
        known = self._standard.get(ideal)
        if known is not None:
            cached = known.get(b)
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
        for p in packed_generators(ideal):
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
        found = intern(found, found)
        self._standard.setdefault(ideal, {})[intern(b, b)] = found
        return found

    def carry(self, move):
        """Seed the standard-monomial cache of a flip target from its source.

        For the degree beta of each generator of M' = ``move.target`` that
        M = ``move.source`` has cached as s = std_M(beta), the candidate c
        is s with x^b traded for x^a for as long as x^b divides it; the
        loop ends because a Graver pair has disjoint supports.  c has
        degree beta, since deg a = deg b, and an A-graded M' has exactly
        one standard monomial in degree beta, so c is that monomial iff it
        lies outside M'.  One packed membership test decides, and c is
        stored only then; otherwise, or when M has not cached beta, the
        degree is left to ``standard_monomial``.

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
        a, b = move.a, move.b
        known = self._standard.setdefault(target, {})
        intern = self._interned.setdefault
        for g in target.gens:
            beta = self.A.degree(g)
            c = source.get(beta)
            if c is None or beta in known:
                continue
            while all(x >= y for x, y in zip(c, b)):
                c = tuple(x - y + z for x, y, z in zip(c, b, a))
            if not target.contains(c):
                known[intern(beta, beta)] = intern(c, c)


def is_agraded(ideal, ctx):
    """Exact K-polynomial equality with the toric reference."""
    return ctx.k_polynomial(ideal) == ctx.reference_numerator


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

    The pair is oriented so that one side is a minimal generator and the
    other lies outside (NotApplicable otherwise).  The move is accepted iff
    re-marking the wall ideal toward the generator side reproduces the
    ideal, in which case the opposite marking is the A-graded target.
    """
    if isinstance(pair, Binomial):
        u, v = pair.lead, pair.trail
    else:
        u, v = (tuple(x) for x in pair)
    a, b = (u, v) if u in ideal.gens else (v, u)
    if a not in ideal.gens or ideal.contains(b):
        raise NotApplicable(f"{u} / {v} does not match a generator/standard split")
    if ctx.A.degree(a) != ctx.A.degree(b):
        raise NonHomogeneousInput(f"{a} and {b} have different degrees")
    if not wall_recovers_source(ideal, a, b):
        raise NotFlippable(f"wall of {a} - {b} does not re-mark to the source")
    return FlipMove(ideal, a, b, wall_initial(ideal, a, b, "b_leads"))


def neighbors(ideal, ctx, reverse=None):
    """All flips out of an A-graded monomial ideal, in generator order.

    Candidates pair each minimal generator with the unique standard
    monomial of its degree; no other Graver pair can satisfy the flip
    preconditions, and each candidate is itself a Graver pair.

    ``reverse`` is for ``explore`` only: it maps generators of ``ideal`` to
    moves already known to leave through them, the reverses of flips into
    ``ideal``.  Flips are symmetric, so such a move is used as it is
    instead of testing its wall ideal again; the standard monomial of
    every generator is still looked up, so the cache fills as without it.
    """
    moves = []
    for a in ideal.gens:
        b = ctx.standard_monomial(ideal, ctx.A.degree(a))
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
    rows = []
    for g in ideal.gens:
        std = ctx.standard_monomial(ideal, ctx.A.degree(g))
        rows.append(exp_sub(g, std))
    witness = lp_strict_feasible(sorted(set(rows)), nvars=ctx.A.n)
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

    Depth-first over the pairs in increasing degree: each pair must have a
    side inside the ideal, so branch on which one, recording the rejected
    side as permanently standard.  Choices implied by divisibility are
    forced and two standard monomials of equal degree prune the branch.
    Every leaf is kept only if it passes ``is_agraded``, the exact
    K-polynomial test.  ``guard`` bounds the number of leaves visited.

    Oracle: it finds every ideal without flips, so the census and the
    verify-paper entries check the flip graph against it.
    """
    pairs = sorted(
        ctx.graver,
        key=lambda p: (positive_combination(ctx.A, ctx.A.degree(p[0])), p),
    )
    degrees = [ctx.A.degree(u) for u, _ in pairs]
    n = ctx.A.n
    mask = guard_mask(n)
    sides = {}
    packed_pairs = []
    for u, v in pairs:
        pu, pv = pack(u), pack(v)
        sides[pu], sides[pv] = u, v
        packed_pairs.append((pu, pv))

    def add_gen(chosen, g):
        # keep the chosen set minimal; the span is unchanged
        return tuple(c for c in chosen if ((c | mask) - g) & mask != mask) + (g,)

    leaves = 0
    candidates = set()
    # frames: (pair index, chosen gens, forbidden monomials | mask, forbidden
    # degrees); every monomial is packed
    stack = [(0, (), (), frozenset())]
    while stack:
        idx, chosen, forbidden, fdegs = stack.pop()
        while idx < len(pairs):
            pu, pv = packed_pairs[idx]
            qu, qv = pu | mask, pv | mask
            u_in = any((qu - g) & mask == mask for g in chosen)
            v_in = any((qv - g) & mask == mask for g in chosen)
            if u_in or v_in:
                idx += 1
                continue
            u_out = any((f - pu) & mask == mask for f in forbidden)
            v_out = any((f - pv) & mask == mask for f in forbidden)
            if u_out and v_out:
                idx = None
                break
            if u_out:
                chosen = add_gen(chosen, pv)
            elif v_out:
                chosen = add_gen(chosen, pu)
            else:
                # branch: u in the ideal, or u standard and v forced in
                if degrees[idx] not in fdegs:
                    stack.append(
                        (idx + 1, add_gen(chosen, pv), forbidden + (qu,),
                         fdegs | {degrees[idx]})
                    )
                chosen = add_gen(chosen, pu)
            idx += 1
        if idx is None:
            continue
        leaves += 1
        if guard is not None and leaves > guard:
            raise GuardExceeded(f"more than {guard} leaves")
        candidates.add(ideal_from_packed(chosen, n, sides))
    return tuple(ideal for ideal in sorted(candidates) if is_agraded(ideal, ctx))


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
