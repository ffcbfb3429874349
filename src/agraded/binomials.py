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
bits.  One routine, ``monomials.packed_nf``, rewrites a term c x^u by
packed monomials and (lead, trail, coeff) binomials: completion brings the
leading term of each S-polynomial to normal form with it, the reduced-basis
sweep brings each trail to normal form with it, and the wall ideals pass
their one binomial x^a - x^b as the only binomial reducer.
"""

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heappush, heappop

from .errors import InputError, NonHomogeneousInput, PreconditionViolated, certify
from .grading import kernel_lattice
from .linalg import dot
from .monomials import (
    MonomialIdeal,
    TermOrder,
    cheapest_variable_order,
    exp_add,
    exp_sub,
    guard_mask,
    ideal_from_packed,
    minimalize,
    pack,
    packed_colon,
    packed_generators,
    packed_nf,
    support_mask,
    unpack,
)


@dataclass(frozen=True)
class Binomial:
    """The element x^lead - coeff * x^trail with a nonzero coefficient."""

    lead: tuple
    trail: tuple
    coeff: Fraction = Fraction(1)

    def __post_init__(self):
        if self.lead == self.trail:
            raise InputError("binomial needs two distinct monomials")
        if self.coeff == 0:
            raise InputError("zero coefficient; use a bare exponent instead")

    def oriented(self, order):
        """Re-mark so that the lead is the larger term under the order."""
        if order.compare(self.lead, self.trail) >= 0:
            return self
        return Binomial(self.trail, self.lead, 1 / self.coeff)

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
    order: TermOrder

    def lead_ideal(self):
        return minimalize(tuple(b.lead for b in self.binomials) + self.monomials.gens)


def _canonicalize(terms, order):
    """Turn a reduced term dict into None (zero), an exponent, or a Binomial."""
    if not terms:
        return None
    if len(terms) == 1:
        (u, _), = terms.items()
        return u
    certify(len(terms) == 2, "a working polynomial has more than two terms")
    (u, cu), (v, cv) = terms.items()
    if order.compare(u, v) < 0:
        u, v, cu, cv = v, u, cv, cu
    return Binomial(u, v, -cv / cu)


def buchberger(gens, order, matrix):
    """Reduced Groebner basis of monomial/binomial generators.

    Raises NonHomogeneousInput if a binomial pairs monomials of different
    degree.  The basis is one list of (packed lead, Binomial) elements, with
    None for a monomial, and the reducers passed to ``packed_nf`` are kept
    beside it.  S-pairs of two monomials vanish; those of a monomial with a
    binomial are monomials.  Pairs are processed by increasing positivity
    weight of the lcm (the generators are homogeneous, so this is a normal
    degree-by-degree selection even when the order's own weight has
    negative entries), pruned with the Gebauer-Moeller criteria.  During
    completion only the leading term is reduced; ``_finalize`` then turns
    the Groebner basis into the reduced one, which is unique for the order.
    """
    weights = matrix.certificate_weights
    n = matrix.n
    guard = guard_mask(n)
    pmons = []
    bins = []
    for g in gens:
        if isinstance(g, Binomial):
            if matrix.degree(g.lead) != matrix.degree(g.trail):
                raise NonHomogeneousInput(f"{g} is not homogeneous")
            bins.append(g.oriented(order))
        else:
            pmons.append(pack(g))
    pbins = [(pack(b.lead), pack(b.trail), b.coeff) for b in bins]
    elements = [(p, None) for p in pmons] + [(p[0], b) for p, b in zip(pbins, bins)]
    queue = []
    alive = {}
    counter = 0

    def packed_lcm(pa, pb):
        return pb + packed_colon(pa, pb, guard)

    def push_pairs(k):
        nonlocal counter
        plk, bk = elements[k]
        # drop superseded old pairs (chain criterion)
        for (i, j), plij in list(alive.items()):
            if ((plij | guard) - plk) & guard == guard:
                if packed_lcm(elements[i][0], plk) != plij and packed_lcm(
                    elements[j][0], plk
                ) != plij:
                    del alive[(i, j)]
        # group candidate partners by their lcm with the new lead; packed
        # integer comparison is divisor-compatible, so ascending order lets
        # one sweep keep exactly the minimal lcms
        by_lcm = {}
        for i in range(k):
            if bk is None and elements[i][1] is None:
                continue
            by_lcm.setdefault(packed_lcm(elements[i][0], plk), []).append(i)
        minimal = []
        for pl in sorted(by_lcm):
            gl = pl | guard
            if not any((gl - pl2) & guard == guard for pl2 in minimal):
                minimal.append(pl)
        for pl in minimal:
            i = min(by_lcm[pl])
            if pl == elements[i][0] + plk:
                continue  # coprime leads
            alive[(i, k)] = pl
            counter += 1
            l = unpack(pl, n)
            heappush(queue, (dot(weights, l), pl, counter, i, k))

    for idx in range(len(elements)):
        push_pairs(idx)

    while queue:
        _, pl, _, i, j = heappop(queue)
        if alive.pop((i, j), None) is None:
            continue
        l = unpack(pl, n)
        # S-pair: the x^l heads cancel; a monomial contributes nothing else
        work = {}
        for (_, b), sign in ((elements[i], 1), (elements[j], -1)):
            if b is not None:
                t = exp_add(exp_sub(l, b.lead), b.trail)
                work[t] = work.get(t, 0) + sign * b.coeff
        # bring the largest term to normal form until the largest term is
        # irreducible or the polynomial vanishes; the other term is rewritten
        # only if it becomes the largest
        irreducible = set()
        while work:
            u = order.max(work)
            if u in irreducible:
                break
            nf = packed_nf(pack(u), work.pop(u), pmons, pbins, guard)
            if nf is not None:
                v = unpack(nf[0], n)
                c = work.pop(v, 0) + nf[1]
                if c:
                    work[v] = c
                    irreducible.add(v)
        red = _canonicalize(work, order)
        if red is None:
            continue
        if isinstance(red, Binomial):
            elements.append((pack(red.lead), red))
            pbins.append((elements[-1][0], pack(red.trail), red.coeff))
        else:
            elements.append((pack(red), None))
            pmons.append(elements[-1][0])
        push_pairs(len(elements) - 1)

    return _finalize(elements, order, n)


def _finalize(elements, order, n):
    """The reduced basis from a Groebner basis of (packed lead, Binomial) elements.

    One sweep in ascending order of packed leads, a linear extension of
    divisibility, keeps each element whose lead no kept lead divides.
    Among equal leads a monomial (None) comes first, then the binomial with
    the smallest (pair, coeff).  The kept elements still form a Groebner
    basis, so normal forms modulo them are unique: each trail is replaced
    by its normal form, and a binomial whose trail reduces to zero becomes
    its lead monomial.  No element has to be left out of the reducers: the
    trail and its rewrites have the degree of the lead, so under a pointed
    grading the lead divides one of them only if equal to it, and they all
    lie below the lead in the order.
    """
    guard = guard_mask(n)
    keep = []
    for plead, b in sorted(elements, key=lambda e: (e[0], 0) if e[1] is None
                           else (e[0], 1, e[1].pair(), e[1].coeff)):
        q = plead | guard
        if not any((q - h) & guard == guard for h, _ in keep):
            keep.append((plead, b))
    kept = [b for _, b in keep if b is not None]
    pmons = [p for p, b in keep if b is None]
    pbins = [(pack(b.lead), pack(b.trail), b.coeff) for b in kept]
    mons = [unpack(p, n) for p in pmons]
    bins = []
    for b, (_, ptrail, coeff) in zip(kept, pbins):
        nf = packed_nf(ptrail, coeff, pmons, pbins, guard)
        if nf is None:
            mons.append(b.lead)
        else:
            bins.append(Binomial(b.lead, unpack(nf[0], n), nf[1]))
    return MarkedGB(
        tuple(sorted(bins, key=lambda b: (b.lead, b.trail))),
        minimalize(mons),
        order,
    )


@lru_cache(maxsize=None)
def toric_ideal(matrix):
    """Generating binomials of the saturated lattice ideal of ker(A).

    Starts from a saturated integer kernel basis and saturates the binomial
    ideal variable by variable: recompute a Groebner basis under an order
    that makes x_i cheapest (weight -e_i), then strip the common x_i power
    from each element.  Under such an order x_i divides a lead only if it
    divides the whole binomial, which makes the stripping exact, and the
    variable saturations compose, so a single pass suffices.
    """
    basis = kernel_lattice(matrix).vectors
    gens = tuple(binomial_from_vector(v) for v in basis)
    n = matrix.n
    for i in range(n):
        order = cheapest_variable_order(n, i)
        gb = buchberger(gens, order, matrix)
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
    result is always a monomial ideal.
    """
    order = TermOrder(tuple(weight))
    gb = buchberger(toric_ideal(matrix), order, matrix)
    return gb.lead_ideal()


# -- wall ideals -------------------------------------------------------------

def wall_initial(ideal, a, b, direction):
    """Initial ideal of the wall ideal of (ideal, x^a - x^b).

    The wall ideal is generated by the minimal generators of ``ideal``
    except x^a, together with x^a - x^b.  ``direction`` marks the lead:
    "a_leads" or "b_leads".  Completion only ever forms S-pairs of a
    monomial with the binomial, which are monomials, so the result does not
    depend on any further order choice.

    Buchberger's product criterion skips a monomial x^m coprime to the
    lead: its S-monomial (x^m : lead) trail = x^m trail reduces to zero.
    When m + trail leaves the packed field range it still goes to
    ``packed_nf``, which raises ExponentOverflow as without the criterion.
    """
    a, b = tuple(a), tuple(b)
    n = len(a)
    guard = guard_mask(n)
    known = dict(zip(packed_generators(ideal), ideal.gens))
    pa, pb = pack(a), pack(b)
    if pa not in known:
        raise PreconditionViolated("x^a must be a minimal generator")
    if ideal.contains(b):
        raise PreconditionViolated("x^b must lie outside the ideal")
    if direction not in ("a_leads", "b_leads"):
        raise InputError(f"bad direction {direction!r}")
    lead, plead, ptrail = (a, pa, pb) if direction == "a_leads" else (b, pb, pa)
    lead_support = support_mask(lead)
    del known[pa]
    packed = list(known)
    wall = ((plead, ptrail, 1),)
    queue = deque(packed)
    while queue:
        pm = queue.popleft()
        if not pm & lead_support and not (pm + ptrail) & guard:
            continue
        nf = packed_nf(packed_colon(pm, plead, guard) + ptrail, 1, packed, wall, guard)
        if nf is not None:
            packed.append(nf[0])
            queue.append(nf[0])
    known[plead] = lead
    packed.append(plead)
    return ideal_from_packed(packed, n, known)


def wall_recovers_source(ideal, a, b):
    """Whether re-marking the wall ideal toward x^a reproduces ``ideal``.

    Equivalent to wall_initial(ideal, a, b, "a_leads") == ideal, but exits
    as soon as one S-monomial survives reduction, which is the common case
    for rejected candidates.  It skips generators by the product criterion
    of ``wall_initial``.
    """
    guard = guard_mask(len(a))
    pa, pb = pack(a), pack(b)
    lead_support = support_mask(a)
    packed = [p for p in packed_generators(ideal) if p != pa]
    wall = ((pa, pb, 1),)
    for pm in packed:
        if not pm & lead_support and not (pm + pb) & guard:
            continue
        if packed_nf(packed_colon(pm, pa, guard) + pb, 1, packed, wall, guard) is not None:
            return False
    return True
