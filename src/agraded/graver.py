"""Graver bases via the Lawrence construction, with a brute-force oracle.

A Graver element is an unordered pair {u, v} of disjointly supported
exponent vectors with A.u = A.v such that no other kernel pair sits
conformally below it.  The production route reads the toric generators of
the Lawrence lifting, among which every Graver element occurs, as kernel
vectors and keeps the conformally minimal ones, in one sweep by 1-norm that
compares a candidate only with kept elements of at most half its norm.  The
oracle enumerates kernel pairs degree by degree and filters conformal
minimality directly; it is complete up to its weight bound and validates
the production route.
"""

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import combinations
from math import gcd

from .errors import InputError, NonHomogeneousInput, certify
from .grading import GradingMatrix, positive_combination
from .linalg import rank
from .monomials import (
    FIELD_BITS, FIELD_LIMIT, divides, exp_sub, fiber_walk, guard_mask, pack, packed_member, support,
    unpack,
)
# censusbench/tracer.py rebinds buchberger and toric_ideal in this namespace;
# buchberger is imported for that alone
from .binomials import binomial_from_vector, buchberger, canonical_pair, toric_ideal


@dataclass(frozen=True)
class GraverBasis:
    """Canonically ordered unordered pairs, larger side first."""

    elements: tuple

    def __iter__(self):
        return iter(self.elements)

    @cached_property
    def packed(self):
        """The pairs with both sides packed, in the order of ``elements``, made on first use."""
        return tuple((pack(u), pack(v)) for u, v in self.elements)

    def __len__(self):
        return len(self.elements)


def lawrence_lifting(matrix):
    """The (d+n) x 2n block matrix [[A, 0], [I, I]] as a GradingMatrix."""
    d, n = matrix.d, matrix.n
    rows = [tuple(row) + (0,) * n for row in matrix.rows]
    for i in range(n):
        unit = tuple(1 if j == i else 0 for j in range(n))
        rows.append(unit + unit)
    cert = (0,) * d + (1,) * n  # pairs to 1 on every column
    lifted = GradingMatrix(tuple(rows), cert)
    certify(all(w == 1 for w in lifted.certificate_weights), "Lawrence certificate is not 1")
    certify(rank(rows) == d + n, "Lawrence lifting is rank deficient")
    return lifted


@lru_cache(maxsize=None)
def graver_basis(matrix):
    """Complete Graver basis through the Lawrence lifting.

    Every binomial generating set of the lifting's toric ideal holds its
    Graver binomials x^u y^v - x^v y^u up to sign: they are indispensable
    (Sturmfels, GBCP Thm 7.1).  Each element x^a y^b - x^c y^d of
    ``toric_ideal`` is read as the kernel vector w = a - c (b - d = -w is
    certified), and every kernel vector lies conformally above a Graver
    element, so the w that no other element lies conformally below, up to
    sign, are the Graver basis.

    One sweep in ascending (1-norm, packed pair) order keeps them, each w
    as its canonical pair (w+, w-) or (w-, w+), larger side first, and
    tests a candidate w only against the kept elements g of 1-norm at most
    |w|_1 // 2, in both orientations.  That is exact: a w that is not
    minimal is a conformal sum g + (w - g) of two nonzero parts whose
    1-norms add up to |w|_1, so one part has at most half of it; that part
    lies conformally above a Graver element, which is in the generating set
    up to sign and is kept before w.  Conversely a w above a kept element
    of smaller norm is not minimal.
    """
    n = matrix.n
    shift = FIELD_BITS * n
    guard = guard_mask(2 * n)
    candidates = set()
    for b in toric_ideal(lawrence_lifting(matrix)):
        w = exp_sub(b.lead[:n], b.trail[:n])
        certify(exp_sub(b.trail[n:], b.lead[n:]) == w, "Lawrence element is not a kernel vector")
        g = binomial_from_vector(w)
        u, v = canonical_pair(g.lead, g.trail)
        candidates.add((sum(map(abs, w)), pack(u + v)))
    kept, norms = [], []
    for norm, p in sorted(candidates):
        below = kept[:bisect_right(norms, norm // 2)]
        mirror = p >> shift | (p & ((1 << shift) - 1)) << shift
        if not (packed_member(p, below, guard) or packed_member(mirror, below, guard)):
            kept.append(p)
            norms.append(norm)
    pairs = [(uv[:n], uv[n:]) for uv in (unpack(p, 2 * n) for p in sorted(kept))]
    certify(all(matrix.degree(u) == matrix.degree(v) for u, v in pairs), "Graver pair off the kernel")
    return GraverBasis(tuple(pairs))


def graver_oracle(matrix, bound):
    """All Graver elements of certificate weight at most ``bound``.

    Lists every monomial of weight <= bound as one ``fiber_walk``, of
    degree (bound,) under c^T A with a slack column of weight 1 appended;
    the slack, the last field, is solved for and shifted off.  It pairs
    disjointly supported monomials of the same degree under A and keeps
    the conformally minimal pairs.  Because conformal comparison never
    increases the weight, the result equals the weight filter of the full
    Graver basis; it is the whole basis whenever bound dominates the
    largest Graver weight.  InputError unless 0 < bound < 2**31.
    """
    if bound <= 0:
        raise InputError("bound must be positive")
    if bound >= FIELD_LIMIT:
        raise InputError("bound must be below 2**31")
    line = GradingMatrix((matrix.certificate_weights + (1,),), (1,))
    by_degree = {}
    for p in fiber_walk(line, (bound,)):
        mono = unpack(p >> FIELD_BITS, matrix.n)
        by_degree.setdefault(matrix.degree(mono), []).append(mono)

    candidates = {canonical_pair(a, b) for monos in by_degree.values()
                  for a, b in combinations(monos, 2)
                  if all(x == 0 or y == 0 for x, y in zip(a, b))}

    def weight_of(pair):
        return positive_combination(matrix, matrix.degree(pair[0]))

    minimal = []
    for u1, v1 in sorted(candidates, key=lambda p: (weight_of(p), p)):
        if not any(divides(u0, u1) and divides(v0, v1) or divides(v0, u1) and divides(u0, v1)
                   for u0, v0 in minimal):
            minimal.append((u1, v1))
    return GraverBasis(tuple(sorted(minimal)))


def is_circuit(matrix, pair):
    """The primitive vector t = u - v of a kernel pair (u, v) if it is a circuit, else None.

    A circuit's support columns are dependent with every proper subset
    independent, and t is primitive.  Its positive entries mark the
    support of u, its negative entries that of v.  One rank test decides
    the minimal dependence: t is a kernel vector with full support on its
    support columns, so when they have rank |supp| - 1 their
    one-dimensional kernel is spanned by t, and a dependent proper subset
    would give a kernel vector without full support.
    """
    u, v = pair
    if matrix.degree(u) != matrix.degree(v):
        raise NonHomogeneousInput(f"{u} and {v} have different degrees")
    t = exp_sub(u, v)
    supp = support(t)
    if not supp:
        return None
    cols = matrix.columns
    sub = [cols[i] for i in supp]  # rank is transpose-invariant
    if rank(sub) != len(supp) - 1:
        return None
    return t if reduce(gcd, t, 0) == 1 else None
