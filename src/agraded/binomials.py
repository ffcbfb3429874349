"""Binomials with marked leading terms, Buchberger completion, toric ideals.

The engine handles ideals generated by monomials and binomials x^u - c x^v
whose two terms have the same degree under a pointed grading.  Every degree
fiber is then finite, so completion and normal forms terminate for any
weight order, including weights with negative entries; ties are broken
lexicographically.  Working polynomials always have at most two terms.

Divisibility tests dominate the running time, so everything here works on
the packed integers of ``monomials`` (one 32-bit field per coordinate with
a guard bit, exponents below 2**31), where "divides" is a three-operation
integer test independent of the number of variables.  Exponents that leave
the field range raise ExponentOverflow instead of spilling into the guard
bits.  ``buchberger`` has one entrance: each input generator, like each
S-polynomial, is a dict {ranked term: coefficient} whose largest term is
reduced before what is left joins the basis, so the leads of the active
elements form an antichain throughout.  Basis elements are packed (lead,
trail, coeff) triples, trail None for a monomial, until the reduced basis
is unpacked into Binomials.  Binomial terms are ranked integers
(``monomials.weight_rank``): the weight of the term above the packed
monomial in one integer, so terms compare by (w.u, then lex, x1 first)
under the weight w, and an S-polynomial term is the one integer
rank(l) - lead + trail.
Coefficients are ints until a division needs a Fraction.  One kernel,
``monomials.packed_step``, rewrites a packed monomial once by packed
monomials and binomials: completion rewrites the largest term of each
polynomial one step at a time, and the end of ``buchberger`` brings each
trail to normal form with ``packed_nf``, a loop over that kernel.  The wall
ideals of flips, whose only binomial is x^a - x^b, are completed by the
flip itself in ``ideals``.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heappush, heappop
from numbers import Rational

from .errors import BadLength, ExponentOverflow, InputError, NonHomogeneousInput, certify
from .grading import kernel_lattice
from .linalg import dot
from .monomials import (
    FIELD_BITS,
    FIELD_LIMIT,
    IRREDUCIBLE,
    MonomialIdeal,
    exp_sub,
    guard_mask,
    minimal_packed,
    minimalize,
    pack,
    packed_nf,
    packed_step,
    support,
    unpack,
    weight_rank,
)


@dataclass(frozen=True)
class Binomial:
    """The element x^lead - coeff * x^trail with a nonzero rational coefficient.

    The coefficient is stored as a Fraction; one that is not rational (a
    float or a string, say) raises InputError.
    """

    lead: tuple
    trail: tuple
    coeff: Fraction = Fraction(1)

    def __post_init__(self):
        if not isinstance(self.coeff, Fraction):  # keeps shared Fractions shared
            if not isinstance(self.coeff, Rational):
                raise InputError(f"coefficient {self.coeff!r} is not rational")
            object.__setattr__(self, "coeff", Fraction(self.coeff))
        if self.lead == self.trail:
            raise InputError("binomial needs two distinct monomials")
        if self.coeff == 0:
            raise InputError("zero coefficient; use a bare exponent instead")

    def pair(self):
        """Coefficient-free unordered pair, lexicographically larger side first."""
        return canonical_pair(self.lead, self.trail)

    def __repr__(self):
        c = "" if self.coeff == 1 else f" {self.coeff} *"
        return f"Binomial({list(self.lead)} -{c} {list(self.trail)})"


def binomial_from_vector(v):
    """Binomial x^{v+} - x^{v-} of an integer kernel vector."""
    plus = tuple(x if x > 0 else 0 for x in v)
    minus = tuple(-x if x < 0 else 0 for x in v)
    return Binomial(plus, minus)


def canonical_pair(u, v):
    """The unordered pair {u, v} as tuples, lexicographically larger side first."""
    u, v = tuple(u), tuple(v)
    return (u, v) if u > v else (v, u)


@dataclass(frozen=True)
class MarkedGB:
    """Reduced Groebner basis split into binomial and monomial parts."""

    binomials: tuple
    monomials: MonomialIdeal

    def lead_ideal(self):
        return minimalize(tuple(b.lead for b in self.binomials) + self.monomials.gens)


def buchberger(gens, weight, matrix):
    """Reduced Groebner basis of monomial/binomial generators.

    The term order is the weight tuple refined by lex, x1 first: x^u is
    the larger term iff (weight.u, u) is.  Raises InputError unless every
    weight entry is an int (bools count), BadLength unless the weight and
    every generator have ``matrix.n`` entries, and NonHomogeneousInput if
    a binomial pairs monomials of different degree.

    Every polynomial is a dict {ranked term: coefficient} of at most two
    terms, the ranked integers of ``weight_rank`` under the weight: comparing
    two compares the terms, and their low bits are the packed monomials, so
    the S-polynomial term rank(l) - lead + trail and every rewrite of
    ``packed_step`` stay ranked.  There is one entrance: the input
    generators, in input order, then the S-polynomials of the queued pairs.
    Each has its largest term rewritten one step at a time, taking the
    largest again after each step, until that term is irreducible; the two
    terms cancel where their rewrite paths meet.  What is left joins
    ``elements`` as a (lead, trail, coeff) triple, trail None for a
    monomial, and ``leads`` keeps its plain packed lead.  No active lead
    divides the new lead, so the leads of ``active``, the elements whose
    lead no later lead divides, form an antichain at all times.

    A new element pairs only with the active ones, then drops those whose
    lead its lead divides from ``active`` and from ``pmons``/``pbins``, the
    reducers of ``packed_step`` (plain packed monomials and ranked
    binomials), which are rebuilt only then and otherwise extended; their
    queued pairs are still reduced.  Two criteria of Gebauer and Moeller
    (1988) prune the pairs: of its new pairs only one per minimal lcm
    (``minimal_packed``) is queued, unless the leads are coprime.  Queued
    pairs are never dropped: a chain-criterion scan of the queue per new
    lead cost more than the reductions it saved.  S-pairs of two monomials
    vanish; those of a monomial with a binomial are monomials.  Pairs are
    processed by increasing positivity weight of the lcm (the generators
    are homogeneous, so this is a normal degree-by-degree selection even
    when the weight has negative entries).

    The active elements end as a minimal Groebner basis.  Bringing each
    trail to normal form with ``packed_nf`` makes it the reduced basis,
    which is unique for the order; a binomial whose trail reduces to zero
    becomes its lead monomial.  No element has to be left out of the
    reducers: the trail and its rewrites have the degree of the lead, so
    under a pointed grading the lead divides one of them only if equal to
    it, and they all lie below the lead in the order.
    """
    n = matrix.n
    weight = tuple(weight)
    if not all(isinstance(x, int) for x in weight):
        raise InputError(f"weight {weight} needs integer entries")
    if len(weight) != n:
        raise BadLength(f"weight {weight} needs {n} entries")
    weights = matrix.certificate_weights
    guard = guard_mask(n)
    shift = FIELD_BITS * n
    mask = (1 << shift) - 1
    rank = weight_rank(weight, n)

    pending = []
    for g in gens:
        if isinstance(g, Binomial):
            if len(g.lead) != n or len(g.trail) != n:
                raise BadLength(f"{g} needs {n} entries on each side")
            if matrix.degree(g.lead) != matrix.degree(g.trail):
                raise NonHomogeneousInput(f"{g} is not homogeneous")
            c = g.coeff
            pending.append({rank(pack(g.lead)): 1,
                            rank(pack(g.trail)): -c.numerator if c.denominator == 1 else -c})
        elif len(g) != n:
            raise BadLength(f"monomial {tuple(g)} needs {n} entries")
        else:
            pending.append({rank(pack(g)): 1})
    pending.reverse()  # popped from the end, in input order
    elements = []
    leads = []
    active = []  # indices of the elements whose lead no later lead divides
    pmons = []
    pbins = []
    queue = []
    counter = 0

    def push_pairs(k):
        nonlocal counter, active, pmons, pbins
        plk = leads[k]
        ptk = elements[k][1]
        # lcm(x^lead_i, x^lead_k) = x^lead_k (x^lead_i : x^lead_k), with the
        # arithmetic of packed_colon in place: a call per partner costs more
        lcms = dict(zip(active, [plk + (d & ((d & guard) >> (FIELD_BITS - 1)) * (FIELD_LIMIT - 1))
                                 for d in [(leads[i] | guard) - plk for i in active]]))
        # the lowest-index partner of each lcm (built in reverse, so it wins);
        # of the pairs with new element k only those with a minimal lcm are kept
        first = {pl: i for i, pl in reversed(lcms.items())
                 if ptk is not None or elements[i][1] is not None}
        for pl in minimal_packed(first, guard):
            i = first[pl]
            if pl == leads[i] + plk:
                continue  # coprime leads
            counter += 1
            l = unpack(pl, n)
            # the heap weight and the ranked lcm (weight_rank) from one unpack
            heappush(queue, (dot(weights, l), pl, counter, i, k,
                             dot(weight, l) << shift | pl))
        # drop the elements whose lead x^lead_k divides; their queued pairs stay
        kept = [i for i in active if lcms[i] != leads[i]]
        if len(kept) < len(active):
            active = kept + [k]
            pmons = [leads[i] for i in active if elements[i][1] is None]
            pbins = [elements[i] for i in active if elements[i][1] is not None]
        else:
            active.append(k)
            if ptk is None:
                pmons.append(plk)
            else:
                pbins.append(elements[k])

    while pending or queue:
        if pending:
            work = pending.pop()
        else:
            _, _, _, i, j, kl = heappop(queue)
            # S-pair: the x^l heads cancel; a monomial contributes nothing
            # else, and two trails that coincide may cancel too
            work = {}
            for (plead, ptrail, coeff), sign in ((elements[i], 1), (elements[j], -1)):
                if ptrail is not None:
                    t = kl - plead + ptrail
                    if t & guard:
                        raise ExponentOverflow("an S-polynomial exponent reached 2**31")
                    c = work.pop(t, 0) + sign * coeff
                    if c:
                        work[t] = c
        # rewrite the largest term one step at a time, until the largest
        # term is irreducible or the polynomial vanishes; rewrite paths that
        # meet merge, and may cancel, there
        while work:
            u = max(work)
            step = packed_step(u, pmons, pbins, guard)
            if step is IRREDUCIBLE:
                break
            c = work.pop(u)
            if step is not None:
                v, k = step
                c = work.pop(v, 0) + c * k
                if c:
                    work[v] = c
        else:
            continue  # reduced to zero
        c = work.pop(u)
        leads.append(u & mask)
        if work:
            (v, cv), = work.items()
            k = Fraction(-cv, c)
            elements.append((u, v, k.numerator if k.denominator == 1 else k))
        else:
            elements.append((leads[-1], None, None))
        push_pairs(len(elements) - 1)

    mons = [unpack(p, n) for p in pmons]
    bins = []
    for plead, ptrail, coeff in sorted(pbins, key=lambda e: e[0] & mask):
        nf = packed_nf(ptrail, coeff, pmons, pbins, guard)
        if nf is None:
            mons.append(unpack(plead & mask, n))
        else:
            bins.append(Binomial(unpack(plead & mask, n), unpack(nf[0] & mask, n), nf[1]))
    return MarkedGB(tuple(bins), minimalize(mons))


@lru_cache(maxsize=None)
def toric_ideal(matrix):
    """Generating binomials of the saturated lattice ideal I_L of L = ker(A).

    The ideal J of a lattice basis has J : (x_1...x_n)^inf = I_L.  Lemma
    (Hosten-Sturmfels, GRIN): let u in L be nonzero wherever a basis vector
    is, D = {i : u_i < 0}, and J' = (J + <x^{u+} - x^{u-}>) : (prod_D x_i)^inf.
    Then J' = I_L.  Proof: for a binomial f of I_L, x^m f lies in J for an m
    on coordinates some basis vector touches (the others occur in no
    generator), so x^m divides x_D^N x^{k u+} for some k and N.  Since
    x^{k u+} - x^{k u-} is a multiple of x^{u+} - x^{u-}, x_D^N x^{k u-} f
    lies in J'; x^{k u-} uses only D, for which J' is saturated, so f does.

    The lattice basis is the LLL-reduced ``kernel_lattice``, in the order
    the reduction leaves it.  u is the greedy sum of the basis vectors b in
    that order, each added as k b with the smallest k in 1..n+1 that keeps
    the most coordinates nonzero (each coordinate forbids at most one k),
    negated if that makes fewer entries negative; a Lawrence lifting thus
    saturates by n of its 2n variables.  So u, the saturated set D and the
    cost of the saturations follow the basis and its order, and so does
    the generating set returned, one of many that generate I_L.
    Saturating by x_i: a Groebner basis under an order making x_i cheapest
    (weight -e_i), then strip each element's common x_i power; x_i divides a
    lead only if it divides the whole binomial, so the stripping is exact.
    """
    basis = kernel_lattice(matrix)
    n = matrix.n
    u = (0,) * n
    for b in basis:
        u = max((tuple(x + k * y for x, y in zip(u, b)) for k in range(1, n + 2)),
                key=lambda v: sum(map(bool, v)))
    if sum(x < 0 for x in u) > sum(x > 0 for x in u):
        u = tuple(-x for x in u)
    certify(not any(matrix.degree(u)) and all(u[i] for b in basis for i in support(b)),
            "the saturation vector is a full-support kernel vector")
    gens = tuple(binomial_from_vector(v) for v in basis)
    if len(basis) > 1:  # in corank one u is +-b, already a generator
        gens += (binomial_from_vector(u),)
    for i in (i for i in range(n) if u[i] < 0):
        gb = buchberger(gens, tuple(-1 if j == i else 0 for j in range(n)), matrix)
        certify(gb.monomials.is_zero(), "toric saturation stays binomial")
        new = []
        for b in gb.binomials:
            certify(b.coeff == 1, "toric saturation keeps unit coefficients")
            common = min(b.lead[i], b.trail[i])
            if common:
                strip = tuple(common if j == i else 0 for j in range(n))
                b = Binomial(exp_sub(b.lead, strip), exp_sub(b.trail, strip))
            new.append(b)
        gens = tuple(new)
    return tuple(sorted(gens, key=lambda b: b.pair()))


def initial_ideal(matrix, weight):
    """Monomial initial ideal of the toric ideal for a weight vector.

    Non-generic weights are refined by the lexicographic tie-break, so the
    result is always a monomial ideal.  The weight must have n int entries
    (InputError, BadLength), as for ``buchberger``.
    """
    return buchberger(toric_ideal(matrix), weight, matrix).lead_ideal()

