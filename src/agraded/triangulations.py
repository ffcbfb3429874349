"""Simplicial complexes of radicals, exact triangulation checks, bistellar flips.

Complexes are stored by their facets over the column indices of the grading
matrix.  Triangulations are read as simplicial fans of the cone spanned by
the columns; volumes are measured on the slice {x : c.x <= 1} cut by the
positivity certificate, which makes the total volume independent of the
chosen triangulation even when the columns are not coplanar.  A matrix with
a row of ones in its row space recovers the classical normalized volume up
to a global factor.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import NotFlippableComplex, certify
from .graver import is_circuit
from .linalg import _gauss_jordan, det, dot, rank, rational_nullspace
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
    faces = []
    for mask in range(1 << n):
        sigma = frozenset(i for i in range(n) if mask & (1 << i))
        if not any(nf <= sigma for nf in nonfaces):
            faces.append(sigma)
    facets = [
        tuple(sorted(f))
        for f in faces
        if not any(f < g for g in faces)
    ]
    return SimplicialComplex(n, tuple(sorted(facets)))


@lru_cache(maxsize=None)
def reference_facets(matrix):
    """A triangulation of the cone built by placing the columns in order.

    Starts from the first index-set of d independent columns and cones each
    later column over the boundary ridges it sees; columns inside the cone
    built so far are skipped.
    """
    cols = matrix.columns
    d, n = matrix.d, matrix.n
    initial = []
    for i in range(n):
        if rank([cols[j] for j in initial] + [cols[i]]) > len(initial):
            initial.append(i)
        if len(initial) == d:
            break
    certify(len(initial) == d, "the columns do not span")
    facets = {tuple(initial)}
    for k in range(n):
        if k in initial:
            continue
        ridges = {}
        for f in facets:
            for leave in f:
                ridge = tuple(i for i in f if i != leave)
                ridges.setdefault(ridge, []).append(leave)
        new = set()
        for ridge, apexes in ridges.items():
            if len(apexes) != 1:
                continue  # interior ridge
            basis = rational_nullspace([cols[i] for i in ridge], d)
            certify(len(basis) == 1, "a boundary ridge does not span a hyperplane")
            h = basis[0]
            inward = dot(h, cols[apexes[0]])
            certify(inward != 0, "a facet apex lies on its ridge")
            if inward > 0:
                h = tuple(-x for x in h)
            if dot(h, cols[k]) > 0:
                new.add(tuple(sorted(ridge + (k,))))
        facets |= new
    return tuple(sorted(facets))


def slice_volume(matrix, facets):
    """Total volume of the facet cones on the certificate slice, exact.

    Each simplicial cone contributes |det of its columns| divided by the
    product of the certificate weights of its vertices; these add up to a
    triangulation-independent total for the whole cone.
    """
    weights = matrix.certificate_weights
    cols = matrix.columns
    total = Fraction(0)
    for f in facets:
        vol = abs(det([cols[i] for i in f]))
        for i in f:
            vol = vol / weights[i]
        total += vol
    return total


def is_triangulation(cplx, matrix):
    """Exact check that the facets triangulate the cone of the columns.

    Facets must be full-dimensional and independent, their slice volumes
    must add up to the reference total, and no point may lie strictly
    inside two facet cones (decided by exact LP).
    """
    d = matrix.d
    cols = matrix.columns
    facets = cplx.facets
    if not facets:
        return False
    for f in facets:
        if len(f) != d or rank([cols[i] for i in f]) != d:
            return False
    if slice_volume(matrix, facets) != slice_volume(matrix, reference_facets(matrix)):
        return False
    for a in range(len(facets)):
        for b in range(a + 1, len(facets)):
            if _interiors_meet(matrix, facets[a], facets[b]):
                return False
    return True


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
    m, pivots, den, _ = _gauss_jordan(block, d)
    certify(len(pivots) == d, "a facet of a triangulation must be independent")
    sign = 1 if den > 0 else -1
    rows = [tuple(sign * x for x in row[d:]) for row in m]
    rows += [tuple(int(k == i) for k in range(d)) for i in range(d)]
    return lp_strict_feasible(rows, nvars=d) is not None


# -- bistellar flips ----------------------------------------------------------

@dataclass(frozen=True)
class CircuitFlipSpec:
    """The two one-sided triangulations of a circuit's support."""

    circuit: object
    c_plus: tuple   # maximal simplices {T - i : i in T+}
    c_minus: tuple  # maximal simplices {T - i : i in T-}


def circuit_flip_spec(circuit):
    t_plus, t_minus = circuit.t_plus, circuit.t_minus
    supp = tuple(sorted(t_plus + t_minus))
    c_plus = tuple(sorted(tuple(i for i in supp if i != p) for p in t_plus))
    c_minus = tuple(sorted(tuple(i for i in supp if i != m) for m in t_minus))
    return CircuitFlipSpec(circuit, c_plus, c_minus)


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
    """Exchange the two circuit triangulations inside a complex.

    The side currently present as a subcomplex (with all its maximal cells
    sharing one link, automatic in the full-dimensional case) is replaced
    by the other side; raises NotFlippableComplex when neither side
    qualifies.
    """
    for source, target in ((spec.c_plus, spec.c_minus), (spec.c_minus, spec.c_plus)):
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
    circuit = is_circuit(ctx.A, (move.a, move.b))
    certify(circuit is not None, "radical-changing flip label must be a circuit")
    certify(set(circuit.t_plus) == set(support(move.a)), "circuit sides do not match the flip")
    spec = circuit_flip_spec(circuit)
    source_cplx = complex_of_radical(move.source, n)
    target_cplx = complex_of_radical(move.target, n)
    certify(all(source_cplx.has_face(s) for s in spec.c_plus),
            "positive side must be a subcomplex of the source triangulation")
    flipped = _replace(source_cplx, spec.c_plus, spec.c_minus)
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
