"""Simplicial complexes of radicals, exact triangulation checks, bistellar flips.

Complexes are stored by their facets over the column indices of the grading
matrix.  Triangulations are read as simplicial fans of the cone spanned by
the columns, so the columns need not be coplanar.  ``is_triangulation``
certifies one by local, exact tests: independent facets, a supporting
hyperplane under every ridge that only one facet has, and open facet cones
that pairwise do not meet.  Flips use plain values: a circuit is its
primitive vector t (``graver.is_circuit``), and its flip spec is the pair
(c_plus, c_minus) of its two one-sided triangulations.
"""

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import NotFlippableComplex, certify
from .graver import is_circuit
from .linalg import _gauss_jordan, dot, integer_kernel_basis, rank
from .lp import lp_strict_feasible
from .monomials import support


@dataclass(frozen=True)
class SimplicialComplex:
    """Facet-listed complex on the vertex set {0, ..., n-1}."""

    n: int
    facets: tuple  # sorted tuples of indices forming an antichain

    def has_face(self, sigma):
        sigma = set(sigma)
        return any(sigma.issubset(f) for f in self.facets)

    def link(self, sigma):
        """Maximal faces of the link of a face, as a sorted tuple."""
        sigma = set(sigma)
        out = {
            tuple(sorted(set(f) - sigma))
            for f in self.facets
            if sigma.issubset(f)
        }
        return tuple(sorted(out))

    def __repr__(self):
        return f"SimplicialComplex(n={self.n}, facets={list(self.facets)})"


def make_complex(n, facets):
    """Canonicalize a facet list (drop faces contained in other faces)."""
    sets = sorted({tuple(sorted(set(f))) for f in facets}, key=lambda f: (-len(f), f))
    keep = []
    for f in sets:
        if not any(set(f) <= set(g) for g in keep):
            keep.append(f)
    return SimplicialComplex(n, tuple(sorted(keep)))


def complex_of_radical(ideal, n):
    """Complex whose minimal non-faces are the generator supports of rad(I)."""
    nonfaces = [frozenset(support(g)) for g in ideal.radical().gens]
    faces = ([i for i in range(n) if mask >> i & 1] for mask in range(1 << n))
    return make_complex(n, [f for f in faces if not any(nf.issubset(f) for nf in nonfaces)])


def is_triangulation(cplx, matrix):
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
    facets = cplx.facets
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


def _common_link(cplx, maximal_simplices):
    """The shared link of the given faces, or None.

    Links are compared by their maximal faces; a facet's link is ((),).
    An empty link marks a non-face, which can never flip.
    """
    links = {cplx.link(s) for s in maximal_simplices}
    if len(links) != 1:
        return None
    link = links.pop()
    return link if link else None


def _replace(cplx, from_max, to_max):
    """Swap the flip cells: facets over ``from_max`` become ones over ``to_max``."""
    link = _common_link(cplx, from_max)
    if link is None:
        raise NotFlippableComplex("maximal cells do not share a link")
    old = {
        f for f in cplx.facets if any(set(s) <= set(f) for s in from_max)
    }
    new = {
        tuple(sorted(set(s) | set(l)))
        for s in to_max
        for l in link
    }
    return make_complex(cplx.n, (set(cplx.facets) - old) | new)


def bistellar_flip(cplx, spec):
    """Exchange the two circuit triangulations (c_plus, c_minus) inside a complex.

    The side currently present as a subcomplex (with all its maximal cells
    sharing one link, automatic in the full-dimensional case) is replaced
    by the other side; raises NotFlippableComplex when neither side
    qualifies.
    """
    c_plus, c_minus = spec
    for source, target in ((c_plus, c_minus), (c_minus, c_plus)):
        if all(cplx.has_face(s) for s in source):
            if _common_link(cplx, source) is None:
                continue
            return _replace(cplx, source, target)
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
    source_cplx = complex_of_radical(move.source, n)
    target_cplx = complex_of_radical(move.target, n)
    certify(all(source_cplx.has_face(s) for s in c_plus),
            "positive side must be a subcomplex of the source triangulation")
    flipped = _replace(source_cplx, c_plus, c_minus)
    return BISTELLAR if flipped == target_cplx else VIOLATION


def baues_image(graph, ctx):
    """Quotient of a flip graph by the supporting-triangulation map.

    Vertices are the distinct complexes of the radicals; flip edges whose
    endpoints share a triangulation collapse and are dropped.  Returns
    (complexes, edges) with edges as index pairs into the sorted complexes.
    """
    n = ctx.A.n
    images = [complex_of_radical(v, n) for v in graph.vertices]
    distinct = sorted({c.facets for c in images})
    index = {f: i for i, f in enumerate(distinct)}
    edges = set()
    for i, j, _ in graph.edges:
        a, b = index[images[i].facets], index[images[j].facets]
        if a != b:
            edges.add((min(a, b), max(a, b)))
    complexes = tuple(SimplicialComplex(n, f) for f in distinct)
    return complexes, tuple(sorted(edges))
