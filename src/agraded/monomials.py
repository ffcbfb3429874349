"""Monomials as exponent vectors, term orders, monomial ideals, K-polynomials.

Monomials are plain integer tuples (the exponent of x^u).  Monomial ideals
are kept in canonical form: the tuple of minimal generators, sorted, so two
ideals are equal iff their representations are identical.  The K-polynomial
of an ideal is the numerator of the multigraded Hilbert series of the
quotient over the common denominator prod_i (1 - t^{deg x_i}); equality of
K-polynomials is therefore equality of Hilbert functions.

Divisibility tests dominate the running time of every enumeration, so the
hot loops (ideal membership, minimalization, wall ideals, standard
monomials, Buchberger completion, the K-polynomial recursion and, through
divisibility tables over the Graver sides, the brute-force search) mirror
exponent vectors into packed integers, and this module holds the only
definition of that representation.  Coordinate i occupies the 32-bit field
starting at bit 32 i; its top bit is a guard bit, so each exponent must
satisfy 0 <= e < 2**31, and ``pack`` raises ExponentOverflow otherwise.  With the
guard bits G set on x^u, x^g divides x^u iff ((pack(u) | G) - pack(g)) & G
== G: a field with g_i > u_i borrows its guard bit away, and the guard
stops the borrow from reaching the next field.  A proper divisor packs to a
smaller integer, so ascending integer order is a linear extension of
divisibility.  Fields add and subtract independently while every entry
stays in range, so a product or quotient of monomials is one integer
operation.  The tuple function ``divides`` is the reference that the
packed tests are checked against.  Each MonomialIdeal keeps its packed
generators (``MonomialIdeal.packed``) once they are made, so no hot loop
packs an ideal again; keeping them costs 1.3% more peak RSS on the
flips-g123789 benchmark workload and 2.9% on census-g345 than a 32-entry
cache of packed forms did (``BENCH_15.json``).  Term orders rank monomials by
``TermOrder.key``, applied to exponent tuples.  The K-polynomial
recursion also keys its terms by an additive integer code of the degree
(``DegreeCode``), so that multiplying by t^{A.m} adds one integer to each
key.
"""

import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import mul

from .errors import BadLength, ExponentOverflow
from .grading import positive_combination
from .linalg import dot


# -- exponent vector helpers -------------------------------------------------

def divides(g, u):
    """Tuple divisibility: the reference for the packed test below."""
    return all(a <= b for a, b in zip(g, u))

def exp_lcm(u, v):
    return tuple(max(a, b) for a, b in zip(u, v))

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


IRREDUCIBLE = "irreducible"


def packed_step(pu, pmons, pbins, guard):
    """One rewrite of the packed monomial x^u modulo monomials and binomials.

    ``pmons`` are packed monomials and ``pbins`` (lead, trail, coeff)
    triples, each rewriting x^lead to coeff x^trail; the first reducer that
    divides wins.  Returns None when a monomial divides x^u, the pair
    (packed u - lead + trail, coeff) when a binomial does, and IRREDUCIBLE
    when no reducer does.  Raises ExponentOverflow when the rewrite leaves
    the field range.  This is the package's one term-rewriting kernel.
    """
    q = pu | guard
    for pm in pmons:
        if (q - pm) & guard == guard:
            return None
    for plead, ptrail, k in pbins:
        if (q - plead) & guard == guard:
            pv = pu - plead + ptrail
            if pv & guard:
                raise ExponentOverflow("a rewritten exponent reached 2**31")
            return pv, k
    return IRREDUCIBLE


def packed_nf(pu, c, pmons, pbins, guard):
    """Normal form of the term c x^u modulo monomials and binomials, all packed.

    ``packed_step`` rewrites x^u until no reducer divides it.  Returns the
    pair (packed exponent, coefficient), or None when a monomial divides a
    rewrite of x^u.  Raises ExponentOverflow when x^u or a rewrite leaves
    the field range.
    """
    if pu & guard:
        raise ExponentOverflow("a rewritten exponent reached 2**31")
    while (step := packed_step(pu, pmons, pbins, guard)) is not IRREDUCIBLE:
        if step is None:
            return None
        pu, k = step
        c = c * k
    return pu, c


def packed_member(pu, packed, guard):
    """Whether some packed monomial in ``packed`` divides the packed x^u."""
    q = pu | guard
    for p in packed:
        if (q - p) & guard == guard:
            return True
    return False


def minimal_packed(packed, guard):
    """The minimal elements of packed monomials, as a sorted tuple.

    One sweep in ascending integer order keeps exactly the minimal elements,
    since every proper divisor comes first; duplicates fall out as divisors.
    """
    keep = []
    for p in sorted(packed):
        if not packed_member(p, keep, guard):
            keep.append(p)
    return tuple(keep)


def ideal_from_packed(packed, n, known):
    """Canonical MonomialIdeal spanned by packed monomials with n fields.

    ``known`` maps packed integers to exponent tuples to reuse; the other
    minimal elements are unpacked.
    """
    pairs = sorted((known[p] if p in known else unpack(p, n), p)
                   for p in minimal_packed(packed, guard_mask(n)))
    return ideal_with_packed(tuple(g for g, _ in pairs), tuple(p for _, p in pairs))


def ideal_with_packed(gens, packed):
    """MonomialIdeal(gens), for sorted minimal gens, keeping packed as its packed form."""
    ideal = MonomialIdeal(gens)
    ideal.__dict__["packed"] = packed
    return ideal


@dataclass(frozen=True)
class TermOrder:
    """Weight vector refined by lexicographic tie-break.

    ``key(u) = (weight . u, u)`` ranks monomials: x^u is the larger term iff
    its key is.  The order is total, the weight may have negative entries,
    and ties are broken with x1 > x2 > ... > xn.
    """

    weight: tuple

    def key(self, u):
        """The sort key (weight . u, u) of the monomial x^u."""
        return dot(self.weight, u), tuple(u)


def cheapest_variable_order(n, i):
    """Order making x_i as cheap as possible: weight -e_i, lex tie-break."""
    return TermOrder(tuple(-1 if j == i else 0 for j in range(n)))


# -- monomial ideals ---------------------------------------------------------

@dataclass(frozen=True, order=True)
class MonomialIdeal:
    """Canonical monomial ideal: sorted minimal generators.

    ``packed`` and the hash are kept once made, outside the fields, so
    equality, ordering, hashing and ``repr`` see only ``gens``.
    """

    gens: tuple

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self):
        return hash(self.gens)  # tuples do not cache their hash

    @cached_property
    def packed(self):
        """The packed minimal generators, in generator order, made on first use."""
        return tuple(map(pack, self.gens))

    def contains(self, u):
        """Whether x^u lies in the ideal, by the packed divisibility test."""
        return packed_member(pack(u), self.packed, guard_mask(len(u)))

    def is_zero(self):
        return not self.gens

    def radical(self):
        """Squarefree ideal generated by the supports of the generators."""
        return minimalize(support_exp(g) for g in self.gens)

    def intersect(self, other):
        return minimalize(exp_lcm(g, h) for g in self.gens for h in other.gens)

    def __repr__(self):
        return f"MonomialIdeal({list(map(list, self.gens))})"


def minimalize(gens):
    """Canonical MonomialIdeal spanned by the given generators.

    Generators passed as tuples are kept as the same objects, not copies.
    """
    known = {}
    for g in map(tuple, gens):
        known[pack(g)] = g
    return ideal_from_packed(known, len(g) if known else 0, known)


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

    def items(self):
        return sorted(self.terms.items())

    def __repr__(self):
        return f"KPolynomial({self.items()})"


class _Lazy(dict):
    """A dict that computes and keeps the value of a missing key."""

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


class DegreeCode:
    """Additive integer codes of the degrees A.u of packed monomials.

    Every exponent of a packed monomial lies in 0 <= e < 2**31, so row k
    of its degree satisfies |b_k| <= L_k = (2**31 - 1) sum_j |A_kj|.  With
    ``bits`` one more than the bit length of the largest L_k, the code
    sum_k b_k 2**(bits k) of such a degree is read back as balanced digits
    in [-2**(bits - 1), 2**(bits - 1)), so it is injective on them, also
    when A has negative entries, and code(A.(u + v)) = code(A.u) +
    code(A.v).  A code outside that bound raises ExponentOverflow when it
    is decoded.

    Three lazy dicts are kept per matrix: ``code`` (packed monomial -> its
    degree code), ``rank`` (packed monomial -> (c.A.m) 2**(32 n) + packed
    value, which orders by certificate weight, then by packed value) and
    ``degree`` (degree code -> degree tuple).
    """

    def __init__(self, matrix):
        n = matrix.n
        self.limits = [sum(map(abs, row)) * (FIELD_LIMIT - 1) for row in matrix.rows]
        self.bits = max(self.limits).bit_length() + 1
        columns = [sum(a << (self.bits * k) for k, a in enumerate(col))
                   for col in matrix.columns]
        weights = matrix.certificate_weights
        self.code = _Lazy(lambda p: sum(map(mul, columns, unpack(p, n))))
        self.rank = _Lazy(lambda p: sum(map(mul, weights, unpack(p, n))) << (FIELD_BITS * n) | p)
        self.degree = _Lazy(self._decode)

    def encode(self, b):
        """The code of a degree tuple b, inverse to ``degree``; ExponentOverflow if |b_k| > L_k."""
        if len(b) != len(self.limits):
            raise BadLength(f"degree {tuple(b)} needs {len(self.limits)} entries")
        if any(abs(x) > limit for x, limit in zip(b, self.limits)):
            raise ExponentOverflow(f"degree {tuple(b)} needs an exponent of 2**31 or more")
        return sum(x << (self.bits * k) for k, x in enumerate(b))

    def _decode(self, code):
        half = 1 << (self.bits - 1)
        mask = (1 << self.bits) - 1
        digits = []
        rest = code
        for limit in self.limits:
            b = ((rest + half) & mask) - half
            if abs(b) > limit:
                raise ExponentOverflow(f"degree code {code} leaves the bound")
            digits.append(b)
            rest = (rest - b) >> self.bits
        if rest:
            raise ExponentOverflow(f"degree code {code} leaves the bound")
        return tuple(digits)


@lru_cache(maxsize=8)
def degree_code(matrix):
    """The DegreeCode of a grading matrix, kept for the few latest matrices."""
    return DegreeCode(matrix)


def k_polynomial(ideal, matrix, memo=None, codes=False):
    """Hilbert-series numerator of the quotient by a monomial ideal.

    Uses the exact generator recursion
        N(<G, m>) = N(<G>) - t^{A.m} N(<G> : m)
    with base cases N(<>) = 1 and N(<1>) = 0 (Bayer-Stillman; Bigatti,
    "Computation of Hilbert-Poincare series", JPAA 1997).  It runs on
    sorted tuples of packed minimal generators: a colon is ``packed_colon``
    of each generator plus one minimal sweep.  Terms are {degree code:
    coefficient} dicts (see ``DegreeCode``), so a shift by t^{A.m} adds one
    integer to every key; degrees are decoded only for the KPolynomial
    returned.  ``memo`` maps sorted packed generator tuples to code dicts,
    for every ideal the recursion meets below ``ideal``.  With ``codes``
    the {degree code: coefficient} dict is returned undecoded, for an
    exact comparison without building degree tuples; it may be shared
    with ``memo``, so it must not be changed.
    The pivot m is the generator of largest certificate weight c.A.m, ties
    broken by the packed value; the result does not depend on the pivot.
    """
    if memo is None:
        memo = {}
    coding = degree_code(matrix)
    rank = coding.rank.__getitem__
    shifts, degrees = coding.code, coding.degree
    guard = guard_mask(matrix.n)

    def rec(gens):
        # a loop walks gens -> rest -> ... to a base case or a memo hit, then
        # fills the chain in upwards, so that only the colons recurse
        chain = []
        while len(gens) > 1 or (gens and gens[0]):
            val = memo.get(gens)
            if val is not None:
                break
            m = max(gens, key=rank)
            i = gens.index(m)
            rest = gens[:i] + gens[i + 1:]
            chain.append((gens, m, rest))
            gens = rest
        else:  # the empty ideal has numerator 1, the unit ideal 0
            val = {} if gens else {0: 1}
        for gens, m, rest in reversed(chain):
            colon = rec(minimal_packed([packed_colon(g, m, guard) for g in rest], guard))
            shift = shifts[m]
            val = dict(val)
            for k, c in colon.items():
                k += shift
                c = val.get(k, 0) - c
                if c:
                    val[k] = c
                else:
                    del val[k]
            if gens is not top:
                memo[gens] = val
        return val

    # the ideal itself is left out of the memo: each brute-force leaf is
    # asked for once, and a repeat costs one colon over the entries kept
    top = tuple(sorted(ideal.packed))
    terms = rec(top)
    if codes:
        return terms
    return KPolynomial({degrees[k]: c for k, c in terms.items()})
