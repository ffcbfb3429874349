"""Monomials as exponent vectors, term orders, monomial ideals, K-polynomials.

Monomials are plain integer tuples (the exponent of x^u).  Monomial ideals
are kept in canonical form: the tuple of minimal generators, sorted, so two
ideals are equal iff their representations are identical.  The K-polynomial
of an ideal is the numerator of the multigraded Hilbert series of the
quotient over the common denominator prod_i (1 - t^{deg x_i}); equality of
K-polynomials is therefore equality of Hilbert functions.

Divisibility tests dominate the running time of every enumeration, so the
hot loops (ideal membership, minimalization, wall ideals, standard
monomials, Buchberger completion, the brute-force search) mirror exponent
vectors into packed integers, and this module holds the only definition of
that representation.  Coordinate i occupies the 32-bit field starting at
bit 32 i; its top bit is a guard bit, so each exponent must satisfy
0 <= e < 2**31, and ``pack`` raises ExponentOverflow otherwise.  With the
guard bits G set on x^u, x^g divides x^u iff ((pack(u) | G) - pack(g)) & G
== G: a field with g_i > u_i borrows its guard bit away, and the guard
stops the borrow from reaching the next field.  A proper divisor packs to a
smaller integer, so ascending integer order is a linear extension of
divisibility.  ``support_mask(u)`` holds the value bits of the fields where
u is nonzero, so x^g and x^u are coprime iff pack(g) & support_mask(u) is
0.  The tuple function ``divides`` is the reference that the packed tests
are checked against.
"""

import struct
from dataclasses import dataclass
from functools import lru_cache

from .errors import ExponentOverflow
from .grading import positive_combination
from .linalg import dot


# -- exponent vector helpers -------------------------------------------------

def divides(g, u):
    """Tuple divisibility: the reference for the packed test below."""
    return all(a <= b for a, b in zip(g, u))

def exp_lcm(u, v):
    return tuple(max(a, b) for a, b in zip(u, v))

def exp_add(u, v):
    return tuple(a + b for a, b in zip(u, v))

def exp_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))

def support(u):
    return tuple(i for i, a in enumerate(u) if a)

def support_exp(u):
    return tuple(1 if a else 0 for a in u)


# -- packed exponent vectors -------------------------------------------------

FIELD_BITS = 32
FIELD_LIMIT = 1 << 31


@lru_cache(maxsize=None)
def _layout(n):
    """(struct of n little-endian 32-bit fields, guard mask of n fields)."""
    guard = 0
    for i in range(n):
        guard |= FIELD_LIMIT << (FIELD_BITS * i)
    return struct.Struct(f"<{n}I"), guard


def guard_mask(n):
    """The guard bits of n packed fields."""
    return _layout(n)[1]


def pack(u):
    """An exponent vector as one integer, coordinate i at bit 32 i.

    Raises ExponentOverflow unless every entry satisfies 0 <= e < 2**31.
    """
    layout, guard = _layout(len(u))
    try:
        p = int.from_bytes(layout.pack(*u), "little")
        if not p & guard:
            return p
    except struct.error:  # an entry is negative or at least 2**32
        pass
    raise ExponentOverflow(f"exponent vector {tuple(u)} leaves the range 0 <= e < 2**31")


def support_mask(u):
    """The value bits of the fields where u is nonzero."""
    return sum((FIELD_LIMIT - 1) << (FIELD_BITS * i) for i, e in enumerate(u) if e)


def unpack(p, n):
    """The exponent tuple of a packed vector with n fields and clear guard bits."""
    return _layout(n)[0].unpack(p.to_bytes(4 * n, "little"))


def packed_colon(pm, pl, guard):
    """The quotient x^m : x^l on packed vectors, i.e. fieldwise max(m - l, 0).

    Guard bits absorb borrows fieldwise; surviving guard bits mark the
    fields with m_i >= l_i, and spreading them down with a multiply masks
    exactly those fields of the difference.
    """
    diff = (pm | guard) - pl
    ok = diff & guard
    if ok == guard:
        return diff ^ guard
    return diff & ((ok >> (FIELD_BITS - 1)) * (FIELD_LIMIT - 1))


def packed_nf(pu, c, pmons, pbins, guard):
    """Normal form of the term c x^u modulo monomials and binomials, all packed.

    ``pmons`` are packed monomials and ``pbins`` (lead, trail, coeff)
    triples, each rewriting x^lead to coeff x^trail; the first reducer that
    divides wins.  Returns the pair (packed exponent, coefficient), or None
    when a monomial divides a rewrite of x^u.  Raises ExponentOverflow when
    x^u or a rewrite leaves the field range.
    """
    while True:
        if pu & guard:
            raise ExponentOverflow("a rewritten exponent reached 2**31")
        q = pu | guard
        for pm in pmons:
            if (q - pm) & guard == guard:
                return None
        for plead, ptrail, k in pbins:
            if (q - plead) & guard == guard:
                pu = pu - plead + ptrail
                c = c * k
                break
        else:
            return pu, c


def ideal_from_packed(packed, n, known=None):
    """Canonical MonomialIdeal spanned by packed monomials with n fields.

    One sweep in ascending integer order keeps exactly the minimal elements,
    since every proper divisor comes first; duplicates fall out as divisors.
    ``known`` maps packed integers to exponent tuples to reuse; the other
    kept elements are unpacked.
    """
    guard = guard_mask(n)
    keep = []
    for p in sorted(packed):
        q = p | guard
        for h in keep:
            if (q - h) & guard == guard:
                break
        else:
            keep.append(p)
    if known is None:
        known = {}
    return MonomialIdeal(tuple(sorted(
        known[p] if p in known else unpack(p, n) for p in keep)))


@dataclass(frozen=True)
class TermOrder:
    """Weight vector refined by lexicographic tie-break.

    Comparison is total on monomials of equal degree for any grading; the
    weight may have negative entries.  Ties are broken with x1 > x2 > ... > xn.
    """

    weight: tuple

    def compare(self, u, v):
        """-1, 0 or 1 as u is smaller, equal or larger than v."""
        if u == v:
            return 0
        wu = dot(self.weight, u)
        wv = dot(self.weight, v)
        if wu != wv:
            return 1 if wu > wv else -1
        return 1 if tuple(u) > tuple(v) else -1

    def max(self, terms):
        best = None
        for t in terms:
            if best is None or self.compare(t, best) > 0:
                best = t
        return best


def cheapest_variable_order(n, i):
    """Order making x_i as cheap as possible: weight -e_i, lex tie-break."""
    return TermOrder(tuple(-1 if j == i else 0 for j in range(n)))


# -- monomial ideals ---------------------------------------------------------

@dataclass(frozen=True, order=True)
class MonomialIdeal:
    """Canonical monomial ideal: sorted minimal generators."""

    gens: tuple

    def __hash__(self):
        # tuples do not cache their hash; the stored value is not a field
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(self.gens))
            return self._hash

    def contains(self, u):
        """Whether x^u lies in the ideal, by the packed divisibility test."""
        guard = guard_mask(len(u))
        q = pack(u) | guard
        for p in packed_generators(self):
            if (q - p) & guard == guard:
                return True
        return False

    def is_zero(self):
        return not self.gens

    def colon(self, m):
        """(self : x^m)."""
        n = len(m)
        guard = guard_mask(n)
        pm = pack(m)
        return ideal_from_packed([packed_colon(pack(g), pm, guard) for g in self.gens], n)

    def radical(self):
        """Squarefree ideal generated by the supports of the generators."""
        return minimalize(support_exp(g) for g in self.gens)

    def intersect(self, other):
        return minimalize(exp_lcm(g, h) for g in self.gens for h in other.gens)

    def __repr__(self):
        return f"MonomialIdeal({list(map(list, self.gens))})"


@lru_cache(maxsize=32)
def packed_generators(ideal):
    """The packed minimal generators of an ideal, in generator order.

    Memoised for the few most recently used ideals, so that the membership,
    wall-ideal and standard-monomial calls of one flip-graph step pack a
    vertex once; packed forms are not kept on every ideal, because
    enumerations hold thousands of ideals at a time.
    """
    return tuple(map(pack, ideal.gens))


def minimalize(gens):
    """Canonical MonomialIdeal spanned by the given generators.

    Generators passed as tuples are kept as the same objects, not copies.
    """
    known = {}
    for g in gens:
        g = tuple(g)
        known[pack(g)] = g
    if not known:
        return MonomialIdeal(())
    return ideal_from_packed(known, len(g), known)


# -- degree fibers -----------------------------------------------------------

def fiber(matrix, b):
    """All u >= 0 with A.u = b, sorted lexicographically.

    Backtracking bounded by the positivity certificate: c.(A u) = c.b caps
    every coordinate.  Empty when b is not a nonnegative combination.

    Oracle: the tests check ``AGradedContext.standard_monomial`` against
    it; no enumeration calls it.
    """
    b = tuple(b)
    n = matrix.n
    weights = matrix.certificate_weights
    budget = positive_combination(matrix, b)
    if budget < 0 or (budget == 0 and any(b)):
        return ()
    cols = matrix.columns
    nonneg = matrix.nonnegative
    out = []
    u = [0] * n

    def rec(j, residual, budget):
        if j == n:
            if all(x == 0 for x in residual):
                out.append(tuple(u))
            return
        if nonneg and any(x < 0 for x in residual):
            return
        col = cols[j]
        top = budget // weights[j]
        for k in range(top + 1):
            u[j] = k
            rec(j + 1, tuple(r - k * c for r, c in zip(residual, col)),
                budget - k * weights[j])
        u[j] = 0

    rec(0, b, budget)
    return tuple(sorted(out))


# -- K-polynomials -----------------------------------------------------------

class KPolynomial:
    """Sparse integer-coefficient function on Z^d degrees."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        self.terms = {k: v for k, v in dict(terms).items() if v}

    @classmethod
    def one(cls, d):
        return cls({(0,) * d: 1})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, KPolynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __sub__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) - v
        return KPolynomial(out)

    def shifted(self, by):
        """Multiply by t^by."""
        return KPolynomial({exp_add(k, by): v for k, v in self.terms.items()})

    def items(self):
        return sorted(self.terms.items())

    def __repr__(self):
        return f"KPolynomial({self.items()})"


def _largest_degree_pivot(gens):
    return max(gens, key=lambda g: (sum(g), g))


def k_polynomial(ideal, matrix, memo=None, pivot=None):
    """Hilbert-series numerator of the quotient by a monomial ideal.

    Uses the exact generator recursion
        N(<G, m>) = N(<G>) - t^{A.m} N(<G> : m)
    with base case N(<>) = 1, memoised on canonical generator tuples.  The
    result does not depend on the pivot choice; the default takes the
    generator of largest total degree.
    """
    if memo is None:
        memo = {}
    if pivot is None:
        pivot = _largest_degree_pivot
    d = matrix.d
    one = KPolynomial.one(d)

    def rec(gens):
        if not gens:
            return one
        if len(gens) == 1 and not any(gens[0]):
            return KPolynomial()
        val = memo.get(gens)
        if val is not None:
            return val
        m = pivot(gens)
        rest = tuple(g for g in gens if g != m)
        rest_ideal = MonomialIdeal(rest)
        colon = rest_ideal.colon(m)
        val = rec(rest) - rec(colon.gens).shifted(matrix.degree(m))
        memo[gens] = val
        return val

    return rec(ideal.gens)
