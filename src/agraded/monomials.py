"""Monomials, packed monomials, degree fibers, monomial ideals, K-polynomials.

Monomials are plain integer tuples (the exponent of x^u).  Monomial ideals
are kept in canonical form: the ascending tuple of their packed minimal
generators, so two ideals are equal iff their representations are
identical.  A term order is a weight tuple w: terms compare by (w.u, then
lex, x1 first), and ``weight_rank`` ranks a packed monomial by that order
as one integer.

Divisibility tests dominate the running time of every enumeration, so
monomials are packed into integers, and this module holds the only
definition of that representation.  Of n variables, x_i takes the 32-bit
field at bit 32 (n - i), so x1 is the most significant;
a field's top bit is a guard bit, so each exponent must satisfy
0 <= e < 2**31, and ``pack`` raises ExponentOverflow otherwise.  Ascending
integer order is then lexicographic order of exponent tuples: the
canonical generator order of a MonomialIdeal, the tie-break x1 > x2 > ...
of the term orders, and a linear extension of divisibility.  With the guard
bits G set on x^u, x^g divides x^u iff ((pack(u) | G) - pack(g)) & G == G:
a field with g_i > u_i borrows its guard bit away, and the guard stops the
borrow from reaching the next field.  Fields add and subtract
independently while every entry stays in range, so a product or quotient
of monomials is one integer operation.  The tuple function ``divides`` is
the reference that the packed tests are checked against.  A MonomialIdeal
stores only its packed minimal generators and their number of fields;
its exponent tuples (``MonomialIdeal.gens``) are unpacked on demand.

``fiber_walk`` is the one search over a degree fiber {u >= 0 : A.u = b}, in
packed monomials: ``AGradedContext.standard_monomial`` takes the first one
outside an ideal, and ``fiber`` and ``graver_oracle`` unpack the fibers they
list.  The K-polynomial of an ideal is the numerator of the multigraded
Hilbert series of the quotient over the common denominator prod_i (1 -
t^{deg x_i}), so equal K-polynomials mean equal Hilbert functions; its
recursion keys terms by an additive integer code of the degree
(``DegreeCode``), so multiplying by t^{A.m} adds one integer to each key.
"""

import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import mul, sub

from .errors import BadLength, ExponentOverflow
from .grading import positive_combination


# -- exponent vector helpers -------------------------------------------------

def divides(g, u):
    """Tuple divisibility: the reference for the packed test below."""
    return all(a <= b for a, b in zip(g, u))

def exp_lcm(u, v):
    return tuple(map(max, u, v))

def exp_sub(u, v):
    return tuple(map(sub, u, v))

def support(u):
    return tuple(i for i, a in enumerate(u) if a)

def support_exp(u):
    return tuple(1 if a else 0 for a in u)


# -- packed exponent vectors -------------------------------------------------

FIELD_BITS = 32
FIELD_LIMIT = 1 << 31


@lru_cache(maxsize=None)
def _layout(n):
    """(struct of n big-endian 32-bit fields, guard mask of n fields)."""
    guard = 0
    for i in range(n):
        guard |= FIELD_LIMIT << (FIELD_BITS * i)
    return struct.Struct(f">{n}I"), guard


def guard_mask(n):
    """The guard bits of n packed fields."""
    return _layout(n)[1]


def pack(u):
    """An exponent vector as one integer, x1 in the most significant field.

    Integers compare as the tuples do.  Raises ExponentOverflow unless
    every entry satisfies 0 <= e < 2**31.
    """
    layout, guard = _layout(len(u))
    try:
        p = int.from_bytes(layout.pack(*u), "big")
        if not p & guard:
            return p
    except struct.error:  # an entry is negative or at least 2**32
        pass
    raise ExponentOverflow(f"exponent vector {tuple(u)} leaves the range 0 <= e < 2**31")


def unpack(p, n):
    """The exponent tuple of a packed vector with n fields and clear guard bits, x1 first."""
    return _layout(n)[0].unpack(p.to_bytes(4 * n, "big"))


def weight_rank(weights, n):
    """The ranked integer p -> (weights . x^p) 2**(32 n) + p of packed monomials.

    Its low 32 n bits are p, also when it is negative, so the packed
    divisibility tests, ``packed_step`` and the guard-bit overflow test read
    a ranked integer as they read p.  Ranked integers compare as the pairs
    (weights . u, u) do, and they are additive: the rank of x^(u - a + b)
    is rank(u) - rank(a) + rank(b) while every field stays in range.
    """
    shift = FIELD_BITS * n
    return lambda p: sum(map(mul, weights, unpack(p, n))) << shift | p


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


def packed_divisor(pu, packed, guard):
    """The first packed monomial in ``packed`` that divides the packed x^u, or None.

    Packed 0 is the monomial 1, a divisor like any other: test the result
    with ``is not None``.
    """
    q = pu | guard
    for p in packed:
        if (q - p) & guard == guard:
            return p
    return None


def packed_member(pu, packed, guard):
    """Whether some packed monomial in ``packed`` divides the packed x^u."""
    return packed_divisor(pu, packed, guard) is not None


def minimal_packed(packed, guard):
    """The minimal elements of packed monomials, as a sorted tuple.

    One sweep in ascending integer order keeps exactly the minimal elements,
    since every proper divisor comes first; duplicates fall out as divisors.
    The result is in canonical generator order.
    """
    keep = []
    for p in sorted(packed):
        if packed_divisor(p, keep, guard) is None:
            keep.append(p)
    return tuple(keep)


# -- monomial ideals ---------------------------------------------------------

@dataclass(frozen=True, order=True)
class MonomialIdeal:
    """Canonical monomial ideal: its packed minimal generators, ascending, in n fields.

    ``MonomialIdeal(packed, n)`` trusts its arguments, as the kernels that
    make them do; ``minimalize`` is the checked constructor.  Ascending
    packed integers are lexicographic exponent tuples, so ideals of one n
    compare as their generator tuples do.  The zero ideal is
    ``MonomialIdeal((), 0)``.  ``gens`` unpacks the exponent tuples on each
    use.  The hash is kept once made, outside the fields.
    """

    packed: tuple
    n: int

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self):
        return hash(self.packed)  # tuples do not cache their hash

    @property
    def gens(self):
        """The minimal generators as exponent tuples, in canonical order."""
        return tuple(unpack(p, self.n) for p in self.packed)

    def contains(self, u):
        """Whether x^u lies in the ideal, by the packed divisibility test.

        BadLength unless u has n entries.
        """
        if self.packed and len(u) != self.n:
            raise BadLength(f"{tuple(u)} needs {self.n} entries")
        return packed_member(pack(u), self.packed, guard_mask(self.n))

    def is_zero(self):
        return not self.packed

    def radical(self):
        """Squarefree ideal generated by the supports of the generators."""
        return minimalize(support_exp(g) for g in self.gens)

    def intersect(self, other):
        return minimalize(exp_lcm(g, h) for g in self.gens for h in other.gens)

    def __repr__(self):
        return f"MonomialIdeal({list(map(list, self.gens))})"


def minimalize(gens):
    """Canonical MonomialIdeal spanned by the given exponent vectors.

    ``minimal_packed`` gives the canonical order.  BadLength unless all
    generators have one length, since packed fields of two widths would
    collide; ExponentOverflow unless every exponent lies in 0 <= e < 2**31.
    """
    packed = []
    n = None
    for g in gens:
        if n is None:
            n = len(g)
        elif len(g) != n:
            raise BadLength(f"generator {tuple(g)} needs {n} entries")
        packed.append(pack(g))
    n = n or 0
    return MonomialIdeal(minimal_packed(packed, guard_mask(n)), n)


# -- degree fibers -----------------------------------------------------------

def fiber_walk(matrix, b, outside=()):
    """The monomials x^u of degree A.u = b that no packed monomial of ``outside`` divides.

    Yields them packed in the matrix's n fields, in ascending order, which
    is lexicographic order, by backtracking over the coordinates; the last
    one is solved for, not searched.  c.(A u) = c.b caps every coordinate
    (nothing when c.b < 0), and when A >= 0 a negative residual ends a
    branch.  A monomial of ``outside`` whose last nonzero coordinate is j
    caps coordinate j at its own j-th entry once its prefix divides the
    partial exponent, so each node tests it once, on packed prefixes.
    Raises BadLength unless b has d entries, and ExponentOverflow when the
    walk reaches a coordinate of 2**31 or more.
    """
    b = tuple(b)
    if len(b) != matrix.d:
        raise BadLength(f"degree {b} needs {matrix.d} entries")
    budget = positive_combination(matrix, b)
    if budget < 0:
        return
    n = matrix.n
    weights = matrix.certificate_weights
    cols = matrix.columns
    nonneg = matrix.nonnegative
    guard = guard_mask(n)
    steps = [1 << (FIELD_BITS * (n - 1 - j)) for j in range(n)]
    # per level j: (packed g[:j], g[j]) of the monomials with last nonzero j,
    # the lowest nonzero field (the unit ideal's zero lands at n - 1, cap 0)
    buckets = [[] for _ in range(n)]
    for p in outside:
        low = max((p & -p).bit_length() - 1, 0) // FIELD_BITS
        e = p >> (FIELD_BITS * low) & (2 * FIELD_LIMIT - 1)
        buckets[n - 1 - low].append((p - e * steps[n - 1 - low], e))

    def walk(j, pu, residual, budget):
        if nonneg and any(x < 0 for x in residual):
            return
        stop = budget // weights[j] + 1
        q = pu | guard
        for pg, e in buckets[j]:
            if e < stop and (q - pg) & guard == guard:
                stop = e  # larger values stay divisible
        col = cols[j]
        if j == n - 1:
            # c.residual == budget, so only k = budget / w can leave residual 0
            k = budget // weights[j]
            if k < stop and all(r == k * c for r, c in zip(residual, col)):
                if k >= FIELD_LIMIT:
                    raise ExponentOverflow(f"degree {b} needs an exponent of 2**31 or more")
                yield pu + k
            return
        step = steps[j]
        for k in range(min(stop, FIELD_LIMIT)):
            yield from walk(j + 1, pu + k * step,
                            tuple(r - k * c for r, c in zip(residual, col)),
                            budget - k * weights[j])
        if stop > FIELD_LIMIT:
            raise ExponentOverflow(f"degree {b} needs an exponent of 2**31 or more")

    yield from walk(0, 0, b, budget)


def fiber(matrix, b):
    """All u >= 0 with A.u = b in lexicographic order: the whole ``fiber_walk``, unpacked.

    Oracle: the tests check ``AGradedContext.standard_monomial`` against
    it, and it against a box enumeration; no enumeration calls it.
    """
    return tuple(unpack(p, matrix.n) for p in fiber_walk(matrix, b))


# -- K-polynomials -----------------------------------------------------------

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
    degree code), ``rank`` (packed monomial -> its ``weight_rank`` under the
    certificate weights c.A, which orders by c.A.m, then by packed value)
    and ``degree`` (degree code -> degree tuple).
    """

    def __init__(self, matrix):
        n = matrix.n
        self.limits = [sum(map(abs, row)) * (FIELD_LIMIT - 1) for row in matrix.rows]
        self.bits = max(self.limits).bit_length() + 1
        columns = [sum(a << (self.bits * k) for k, a in enumerate(col))
                   for col in matrix.columns]
        self.code = _Lazy(lambda p: sum(map(mul, columns, unpack(p, n))))
        self.rank = _Lazy(weight_rank(matrix.certificate_weights, n))
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

    Returned as a {degree tuple: coefficient} dict of its nonzero terms.
    Uses the exact generator recursion
        N(<G, m>) = N(<G>) - t^{A.m} N(<G> : m)
    with base cases N(<>) = 1 and N(<1>) = 0 (Bayer-Stillman; Bigatti,
    "Computation of Hilbert-Poincare series", JPAA 1997).  It runs on
    ascending tuples of packed minimal generators, ``MonomialIdeal.packed``
    at the top: a colon is ``packed_colon`` of each generator plus one
    minimal sweep.  Terms are {degree code:
    coefficient} dicts (see ``DegreeCode``), so a shift by t^{A.m} adds one
    integer to every key; degrees are decoded only for the dict
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
    top = ideal.packed
    terms = rec(top)
    if codes:
        return terms
    return {degrees[k]: c for k, c in terms.items()}
