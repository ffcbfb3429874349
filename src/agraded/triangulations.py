"""Simplicial complexes of radicals, exact triangulation checks, bistellar flips.

A complex on the column indices of the grading matrix is a plain value:
the sorted tuple of its facets, each a sorted tuple of indices, with no
facet inside another (``make_complex``), so equal complexes are equal
tuples.  Triangulations are read as simplicial fans of the cone spanned by
the columns, so the columns need not be coplanar.  ``is_triangulation``
certifies one by local, exact tests: independent facets, a supporting
hyperplane under every ridge that only one facet has, and open facet cones
that pairwise do not meet.  A circuit is its primitive vector t
(``graver.is_circuit``), and its flip spec is the pair (c_plus, c_minus)
of its two one-sided triangulations.  One routine, ``_exchange``, swaps
one side for the other over their shared link.
"""

from collections import Counter
from functools import lru_cache
from itertools import combinations

from .errors import NotFlippableComplex, certify
from .graver import is_circuit
from .linalg import _gauss_jordan, dot, integer_kernel_basis, rank
from .lp import lp_strict_feasible
from .monomials import minimalize, support


def make_complex(facets):
    """The complex spanned by the given faces: the sorted tuple of its sorted facets.

    Repeated faces and faces inside other faces are dropped, so the facets
    form an antichain and equal complexes compare equal.
    """
    sets = sorted({tuple(sorted(set(f))) for f in facets}, key=lambda f: (-len(f), f))
    keep = []
    for f in sets:
        if not any(set(f) <= set(g) for g in keep):
            keep.append(f)
    return tuple(sorted(keep))


def complex_of_radical(ideal, n):
    """The facets of the complex on n vertices whose minimal non-faces are the supports of rad(I).

    Alexander duality: a set of vertices is a face iff its complement C
    meets every minimal non-face N, that is iff x^C lies in every prime
    <x_i : i in N>.  So the facets are the complements of the supports of
    the minimal generators of the intersection of those primes, taken over
    the generators of rad(I) from the unit ideal: the zero ideal gives the
    full simplex, and the unit ideal, whose one non-face is empty, no facet.

    Oracle: the tests check it against a scan of all 2**n vertex sets.
    """
    dual = minimalize([(0,) * n])
    for g in ideal.radical().gens:
        dual = dual.intersect(minimalize(tuple(int(j == i) for j in range(n)) for i in support(g)))
    return make_complex(tuple(i for i in range(n) if not h[i]) for h in dual.gens)


def is_triangulation(facets, matrix):
    """Exact check that the facets triangulate the cone of the columns.

    The pseudo-manifold test (De Loera, Rambau and Santos, *Triangulations*,
    ch. 4): every facet is d independent columns, every ridge (a facet less
    one index) that lies in only one facet spans a supporting hyperplane of
    the cone, and no point lies strictly inside two facet cones (exact LP).
    Then the facet cones cover the cone, and every other ridge lies in
    exactly two facets, one on each side.
    """
    d = matrix.d
    cols = matrix.columns
    if not facets:
        return False
    for f in facets:
        if len(f) != d or rank([cols[i] for i in f]) != d:
            return False
    ridges = Counter(f[:k] + f[k + 1:] for f in facets for k in range(d))
    if not all(_supporting(matrix, r) for r, count in ridges.items() if count == 1):
        return False
    return not any(_interiors_meet(matrix, a, b) for a, b in combinations(facets, 2))


@lru_cache(maxsize=None)
def _supporting(matrix, ridge):
    """Whether the hyperplane spanned by d - 1 independent columns supports the cone.

    It does iff all columns lie weakly on one side of it, so the sign and
    scale of its normal do not matter.  For d = 1 the ridge is empty, its
    hyperplane is the origin, and that supports the pointed cone.
    """
    (normal,) = integer_kernel_basis([matrix.columns[i] for i in ridge], matrix.d)
    sides = [dot(normal, col) for col in matrix.columns]
    return all(x >= 0 for x in sides) or all(x <= 0 for x in sides)


def _interiors_meet(matrix, sigma, tau):
    """Whether the open cones of two independent facets share a point.

    Elimination on [A_sigma | A_tau] gives den * A_sigma^-1 A_tau, and the
    open cones meet iff some t > 0 has A_sigma^-1 A_tau t > 0.  The rows
    count times the sign of den, not of the determinant: a row swap flips
    the determinant but not the rows.
    """
    d = matrix.d
    cols = matrix.columns
    block = [[cols[i][r] for i in sigma] + [cols[j][r] for j in tau] for r in range(d)]
    m, pivots, den = _gauss_jordan(block, d)
    certify(len(pivots) == d, "a facet of a triangulation must be independent")
    sign = 1 if den > 0 else -1
    rows = [tuple(sign * x for x in row[d:]) for row in m]
    rows += [tuple(int(k == i) for k in range(d)) for i in range(d)]
    return lp_strict_feasible(rows, nvars=d) is not None


# -- bistellar flips ----------------------------------------------------------

def circuit_flip_spec(t):
    """The pair (c_plus, c_minus) of one-sided triangulations of a circuit t.

    With T the support of t, c_plus is the sorted tuple of the maximal
    simplices T - i with t_i > 0, and c_minus that of those with t_i < 0.
    """
    supp = support(t)
    c_plus = tuple(sorted(tuple(i for i in supp if i != p) for p in supp if t[p] > 0))
    c_minus = tuple(sorted(tuple(i for i in supp if i != m) for m in supp if t[m] < 0))
    return c_plus, c_minus


def _exchange(facets, source, target):
    """Replace the cells over ``source`` by ``target`` over their shared link, or give None.

    The link of a cell s is the set of the f - s over the facets f that
    contain s: ((),) when s is a facet, and empty when s is not a face.
    The exchange needs the cells of ``source`` to share one nonempty link
    L; it then removes every facet that contains a cell of ``source`` and
    adds s | l for every s in ``target`` and l in L.
    """
    links = {
        frozenset(tuple(i for i in f if i not in s) for f in facets if set(s) <= set(f))
        for s in source
    }
    if len(links) != 1:
        return None
    (link,) = links
    if not link:
        return None
    kept = [f for f in facets if not any(set(s) <= set(f) for s in source)]
    return make_complex(kept + [s + l for s in target for l in link])


def bistellar_flip(facets, spec):
    """Exchange the two triangulations (c_plus, c_minus) of a circuit inside a complex.

    The side whose cells share one nonempty link in the complex, which
    makes it a subcomplex, is replaced by the other side over that link.
    In the full-dimensional case the link is ((),).  Raises
    NotFlippableComplex when neither side qualifies.
    """
    c_plus, c_minus = spec
    for source, target in ((c_plus, c_minus), (c_minus, c_plus)):
        flipped = _exchange(facets, source, target)
        if flipped is not None:
            return flipped
    raise NotFlippableComplex("neither side of the circuit is flippable here")


SAME_RADICAL = "same_radical"
BISTELLAR = "bistellar"
VIOLATION = "violation"


def edge_transition(move, ctx):
    """Classify a flip edge's effect on the supporting triangulations.

    Either both endpoints have the same radical (and the incoming monomial
    already sits inside it), or the label is a circuit whose positive-side
    triangulation is a subcomplex with a common link, and the bistellar
    flip over it carries one triangulation to the other.  Any other outcome
    is reported as a violation; it would falsify the classification and is
    surfaced loudly by every caller.
    """
    n = ctx.A.n
    rad_source = move.source.radical()
    rad_target = move.target.radical()
    if rad_source == rad_target:
        incoming = tuple(1 if x else 0 for x in move.b)
        certify(rad_source.contains(incoming), "incoming monomial outside the shared radical")
        return SAME_RADICAL
    t = is_circuit(ctx.A, (move.a, move.b))
    certify(t is not None, "radical-changing flip label must be a circuit")
    certify(support(move.a) == tuple(i for i in support(t) if t[i] > 0),
            "circuit sides do not match the flip")
    c_plus, c_minus = circuit_flip_spec(t)
    source = complex_of_radical(move.source, n)
    target = complex_of_radical(move.target, n)
    certify(all(any(set(s) <= set(f) for f in source) for s in c_plus),
            "positive side must be a subcomplex of the source triangulation")
    flipped = _exchange(source, c_plus, c_minus)
    if flipped is None:
        raise NotFlippableComplex("maximal cells do not share a link")
    return BISTELLAR if flipped == target else VIOLATION
