"""Binomials with marked leading terms, Buchberger completion, toric ideals.

The engine handles ideals generated by monomials and binomials x^u - c x^v
whose two terms have the same degree under a pointed grading.  Every degree
fiber is then finite, so completion and normal forms terminate for any
weight order, including weights with negative entries; ties are broken
lexicographically.  Working polynomials always have at most two terms.

Divisibility tests dominate the running time, so the completion and the
wall-ideal closure work on the packed integers of ``monomials`` (one 32-bit
field per coordinate with a guard bit, exponents below 2**31), where
"divides" is a three-operation integer test independent of the number of
variables.  Exponents that leave the field range raise ExponentOverflow
instead of spilling into the guard bits.
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


def _normal_form(terms, pmons, bins, pbins, order, guard, skip=None):
    """Fully reduce a <=2 term polynomial given as {exponent: coefficient}.

    ``pmons`` are the packed monomial reducers and ``pbins`` the packed
    leads of the binomial reducers ``bins``; ``skip`` names one binomial
    index to ignore (for interreduction against the others).
    """
    out = {}
    work = dict(terms)
    while work:
        u = order.max(work)
        c = work.pop(u)
        if c == 0:
            continue
        pu = pack(u) | guard
        if any((pu - pm) & guard == guard for pm in pmons):
            continue
        hit = False
        for idx, pb in enumerate(pbins):
            if idx != skip and (pu - pb) & guard == guard:
                g = bins[idx]
                v = exp_add(exp_sub(u, g.lead), g.trail)
                work[v] = work.get(v, 0) + c * g.coeff
                hit = True
                break
        if not hit:
            out[u] = c
    return out


def _canonicalize(terms, order):
    """Turn a reduced term dict into None (zero), an exponent, or a Binomial."""
    terms = {u: c for u, c in terms.items() if c}
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
    degree.  S-pairs of two monomials vanish; those of a monomial with a
    binomial are monomials.  Pairs are processed by increasing positivity
    weight of the lcm (the generators are homogeneous, so this is a normal
    degree-by-degree selection even when the order's own weight has
    negative entries), pruned with the Gebauer-Moeller criteria.  During
    completion only leading terms are reduced; trails are brought to normal
    form by the final interreduction, so the output is the reduced basis,
    unique for the order.
    """
    weights = matrix.certificate_weights
    guard = guard_mask(matrix.n)
    mons = []
    bins = []
    for g in gens:
        if isinstance(g, Binomial):
            if matrix.degree(g.lead) != matrix.degree(g.trail):
                raise NonHomogeneousInput(f"{g} is not homogeneous")
            bins.append(g.oriented(order))
        else:
            mons.append(tuple(g))

    elements = [("m", m) for m in mons] + [("b", b) for b in bins]
    packed_leads = [pack(m) for m in mons] + [pack(b.lead) for b in bins]
    n = matrix.n
    queue = []
    alive = {}
    counter = 0

    def packed_lcm(pa, pb):
        return pb + packed_colon(pa, pb, guard)

    def push_pairs(k):
        nonlocal counter
        plk = packed_leads[k]
        # drop superseded old pairs (chain criterion)
        for (i, j), plij in list(alive.items()):
            if ((plij | guard) - plk) & guard == guard:
                if packed_lcm(packed_leads[i], plk) != plij and packed_lcm(
                    packed_leads[j], plk
                ) != plij:
                    del alive[(i, j)]
        # group candidate partners by their lcm with the new lead; packed
        # integer comparison is divisor-compatible, so ascending order lets
        # one sweep keep exactly the minimal lcms
        by_lcm = {}
        for i in range(k):
            if elements[i][0] == "m" and elements[k][0] == "m":
                continue
            by_lcm.setdefault(packed_lcm(packed_leads[i], plk), []).append(i)
        minimal = []
        for pl in sorted(by_lcm):
            gl = pl | guard
            if not any((gl - pl2) & guard == guard for pl2 in minimal):
                minimal.append(pl)
        for pl in minimal:
            i = min(by_lcm[pl])
            if pl == packed_leads[i] + plk:
                continue  # coprime leads
            alive[(i, k)] = pl
            counter += 1
            l = unpack(pl, n)
            heappush(queue, (dot(weights, l), pl, counter, i, k))

    for idx in range(len(elements)):
        push_pairs(idx)

    cur_mons = list(mons)
    cur_bins = list(bins)
    packed_mons = [pack(m) for m in mons]
    packed_bins = [pack(b.lead) for b in bins]

    def reduce_lead(terms):
        # rewrite the maximal term until it is irreducible or the poly dies
        work = dict(terms)
        while work:
            u = order.max(work)
            c = work[u]
            if c == 0:
                del work[u]
                continue
            pu = pack(u) | guard
            hit = False
            for pm in packed_mons:
                if (pu - pm) & guard == guard:
                    del work[u]
                    hit = True
                    break
            if hit:
                continue
            for idx, pb in enumerate(packed_bins):
                if (pu - pb) & guard == guard:
                    g = cur_bins[idx]
                    del work[u]
                    v = exp_add(exp_sub(u, g.lead), g.trail)
                    work[v] = work.get(v, 0) + c * g.coeff
                    hit = True
                    break
            if not hit:
                break
        return work

    while queue:
        _, pl, _, i, j = heappop(queue)
        if alive.pop((i, j), None) is None:
            continue
        l = unpack(pl, n)
        # S-pair: the x^l heads cancel; a monomial contributes nothing else
        terms = {}
        for el, sign in ((elements[i], 1), (elements[j], -1)):
            kind, val = el
            if kind == "m":
                continue
            t = exp_add(exp_sub(l, val.lead), val.trail)
            terms[t] = terms.get(t, 0) + sign * val.coeff
        red = _canonicalize(reduce_lead(terms), order)
        if red is None:
            continue
        if isinstance(red, Binomial):
            elements.append(("b", red))
            packed_leads.append(pack(red.lead))
            cur_bins.append(red)
            packed_bins.append(packed_leads[-1])
        else:
            elements.append(("m", red))
            packed_leads.append(pack(red))
            cur_mons.append(red)
            packed_mons.append(packed_leads[-1])
        push_pairs(len(elements) - 1)

    return _finalize(cur_mons, cur_bins, order)


def _finalize(mons, bins, order):
    """Minimalize leads and interreduce trails into the reduced basis."""
    mons = list(dict.fromkeys(mons))
    bins = list(dict.fromkeys(bins))
    guard = guard_mask(len(mons[0] if mons else bins[0].lead)) if (mons or bins) else 0
    while True:
        changed = False
        # keep one element per minimal lead: monomials beat binomials, ties
        # among binomials keep the smallest pair (the difference of two
        # equal-lead binomials was produced as their S-pair during completion)
        items = [(m, None) for m in mons] + [(b.lead, b) for b in bins]
        packed = [pack(lead) | guard for lead, _ in items]
        keep = []
        for idx, (lead, payload) in enumerate(items):
            pl = packed[idx]
            dominated = False
            for jdx, (other_lead, other_payload) in enumerate(items):
                if idx == jdx or (pl - (packed[jdx] ^ guard)) & guard != guard:
                    continue
                if other_lead == lead:
                    if payload is None:
                        dominated = other_payload is None and jdx < idx
                    elif other_payload is None:
                        dominated = True
                    else:
                        key = (payload.pair(), payload.coeff)
                        other_key = (other_payload.pair(), other_payload.coeff)
                        dominated = other_key < key or (other_key == key and jdx < idx)
                else:
                    dominated = True
                if dominated:
                    break
            if dominated:
                changed = True
            else:
                keep.append((lead, payload))
        mons = [lead for lead, p in keep if p is None]
        pmons = [pack(m) for m in mons]
        kept_bins = [p for _, p in keep if p is not None]
        pbins = [pack(b.lead) for b in kept_bins]
        bins = []
        for i, b in enumerate(kept_bins):
            reduced = _canonicalize(
                _normal_form(
                    {b.lead: Fraction(1), b.trail: -b.coeff},
                    pmons, kept_bins, pbins, order, guard, skip=i,
                ),
                order,
            )
            if reduced is None:
                changed = True
            elif isinstance(reduced, Binomial):
                if reduced != b:
                    changed = True
                bins.append(reduced)
            else:
                mons.append(reduced)
                pmons.append(pack(reduced))
                changed = True
        if not changed:
            break
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
    """
    a, b = tuple(a), tuple(b)
    n = len(a)
    guard = guard_mask(n)
    known = dict(zip(packed_generators(ideal), ideal.gens))
    pa, pb = pack(a), pack(b)
    if pa not in known:
        raise PreconditionViolated("x^a must be a minimal generator")
    qb = pb | guard
    if any((qb - p) & guard == guard for p in known):
        raise PreconditionViolated("x^b must lie outside the ideal")
    if direction not in ("a_leads", "b_leads"):
        raise InputError(f"bad direction {direction!r}")
    lead, plead, ptrail = (a, pa, pb) if direction == "a_leads" else (b, pb, pa)
    del known[pa]
    packed = list(known)
    queue = deque(packed)
    while queue:
        pm = queue.popleft()
        nf = packed_nf(packed_colon(pm, plead, guard) + ptrail, packed, guard, plead, ptrail)
        if nf is not None:
            packed.append(nf)
            queue.append(nf)
    known[plead] = lead
    packed.append(plead)
    return ideal_from_packed(packed, n, known)


def wall_recovers_source(ideal, a, b):
    """Whether re-marking the wall ideal toward x^a reproduces ``ideal``.

    Equivalent to wall_initial(ideal, a, b, "a_leads") == ideal, but exits
    as soon as one S-monomial survives reduction, which is the common case
    for rejected candidates.
    """
    a, b = tuple(a), tuple(b)
    n = len(a)
    guard = guard_mask(n)
    pa, pb = pack(a), pack(b)
    packed = [p for p in packed_generators(ideal) if p != pa]
    for pm in packed:
        if packed_nf(packed_colon(pm, pa, guard) + pb, packed, guard, pa, pb) is not None:
            return False
    return True
