"""Radical complexes, exact triangulation checks, bistellar flips."""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest

from agraded import (
    AGradedContext,
    SAME_RADICAL,
    BISTELLAR,
    NotFlippableComplex,
    bistellar_flip,
    brute_force_enumerate,
    circuit_flip_spec,
    complex_of_radical,
    edge_transition,
    explore,
    flip,
    is_circuit,
    is_triangulation,
    minimalize,
    validate_grading,
)
from agraded.fixtures import named_matrix
from agraded.linalg import dot, rank
from agraded.monomials import pack, support
from agraded.triangulations import _interiors_meet, make_complex
from test_linalg import det, oracle_nullspace


# -- oracle: the volume check the local ridge test replaced -------------------

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
    assert len(initial) == d
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
            basis = oracle_nullspace([cols[i] for i in ridge], d)
            assert len(basis) == 1
            h = basis[0]
            inward = dot(h, cols[apexes[0]])
            assert inward != 0
            if inward > 0:
                h = tuple(-x for x in h)
            if dot(h, cols[k]) > 0:
                new.add(tuple(sorted(ridge + (k,))))
        facets |= new
    return tuple(sorted(facets))


def slice_volume(matrix, facets):
    """Total volume of the facet cones on the slice {x : c.x <= 1} of the certificate c.

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


def oracle_is_triangulation(facets, matrix):
    """Independent full-dimensional facets, the reference volume, disjoint open cones."""
    cols = matrix.columns
    if not facets:
        return False
    if any(len(f) != matrix.d or rank([cols[i] for i in f]) != matrix.d for f in facets):
        return False
    if slice_volume(matrix, facets) != slice_volume(matrix, reference_facets(matrix)):
        return False
    return not any(_interiors_meet(matrix, a, b) for a, b in combinations(facets, 2))


def perturbed(cplx, matrix):
    """The complex, each copy with one facet dropped, each with one d-subset added."""
    yield cplx
    for k in range(len(cplx)):
        yield make_complex(cplx[:k] + cplx[k + 1:])
    for extra in combinations(range(matrix.n), matrix.d):
        if extra not in cplx:
            yield make_complex(cplx + (extra,))


def homogenized(matrix):
    return validate_grading([[1] * matrix.n] + [list(row) for row in matrix.rows])


# a square with its center, columns 0..3 the corners and 4 the center
SQUARE = [[1, 1, 1, 1, 1], [0, 2, 2, 0, 1], [0, 0, 2, 2, 1]]


def test_complex_of_radical_basics(ctx12):
    cplx = complex_of_radical(minimalize([(1, 1)]), 2)
    assert cplx == ((0,), (1,))
    assert complex_of_radical(minimalize([(2, 0)]), 2) == ((1,),)
    assert complex_of_radical(minimalize([(0, 1)]), 2) == ((0,),)


# -- oracle: the subset scan that Alexander duality replaced -----------------

def oracle_complex_of_radical(ideal, n):
    """The facets of the radical's complex: every vertex set with no generator support inside."""
    nonfaces = [frozenset(support(g)) for g in ideal.radical().gens]
    faces = ([i for i in range(n) if mask >> i & 1] for mask in range(1 << n))
    return make_complex([f for f in faces if not any(nf.issubset(f) for nf in nonfaces)])


@pytest.mark.parametrize("name, homogenize, vertices", [
    ("g137", True, 2),
    ("veronese6", False, 29),
    ("g36-8-10-15", True, 281),
    ("g345-13-14", True, 1547),
])
def test_complex_of_radical_matches_the_subset_scan(name, homogenize, vertices):
    matrix = named_matrix(name)
    if homogenize:
        matrix = homogenized(matrix)
    graph = explore(AGradedContext(matrix))
    assert len(graph.vertices) == vertices
    for ideal in graph.vertices:
        assert complex_of_radical(ideal, matrix.n) == oracle_complex_of_radical(ideal, matrix.n)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_complex_of_radical_of_the_zero_and_unit_ideals(n):
    zero, unit = minimalize([]), minimalize([(0,) * n])
    assert complex_of_radical(zero, n) == oracle_complex_of_radical(zero, n) == (tuple(range(n)),)
    assert complex_of_radical(unit, n) == oracle_complex_of_radical(unit, n) == ()


def test_is_triangulation_12(ctx12):
    m = ctx12.A
    assert is_triangulation(make_complex([(0,)]), m)
    assert is_triangulation(make_complex([(1,)]), m)
    # both rays together double-cover the cone
    assert not is_triangulation(make_complex([(0,), (1,)]), m)


def test_reference_volume_invariance(ctx_veronese):
    m = ctx_veronese.A
    ref = reference_facets(m)
    vol = slice_volume(m, ref)
    ideal = ctx_veronese.reference_ideal
    cplx = complex_of_radical(ideal, m.n)
    assert slice_volume(m, cplx) == vol
    assert is_triangulation(cplx, m)
    assert is_triangulation(make_complex(ref), m)


def test_ridge_test_matches_volume_oracle(ctx_veronese, curve_ctx):
    contexts = (ctx_veronese, curve_ctx[1], AGradedContext(homogenized(named_matrix("g36-8-10-15"))))
    for ctx in contexts:
        m = ctx.A
        radicals = {complex_of_radical(v, m.n) for v in explore(ctx).vertices}
        verdicts = set()
        for cplx in {p for r in radicals for p in perturbed(r, m)}:
            verdict = is_triangulation(cplx, m)
            assert verdict == oracle_is_triangulation(cplx, m), cplx
            verdicts.add(verdict)
        assert verdicts == {True, False}


def test_t_junction_rejected():
    """Covering cones with disjoint interiors that do not meet face to face.

    Corner 4 is the center of the square and lies inside the edge 0-2 of
    the facet (0, 1, 2); the volume oracle accepts the complex.
    """
    m = validate_grading(SQUARE)
    cplx = make_complex([(0, 1, 2), (0, 3, 4), (2, 3, 4)])
    assert oracle_is_triangulation(cplx, m)
    assert not is_triangulation(cplx, m)
    assert is_triangulation(make_complex([(0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4)]), m)


def test_ridge_test_accepts_only_what_the_oracle_accepts():
    m = validate_grading(SQUARE)
    triples = list(combinations(range(m.n), m.d))
    accepted = rejected_t_junctions = 0
    for size in range(1, 5):
        for facets in combinations(triples, size):
            cplx = make_complex(facets)
            if is_triangulation(cplx, m):
                assert oracle_is_triangulation(cplx, m), cplx
                accepted += 1
            elif oracle_is_triangulation(cplx, m):
                rejected_t_junctions += 1
    # the two diagonal splittings and the four-triangle fan around the center
    assert accepted == 3 and rejected_t_junctions > 0


def test_missing_facet_fails(ctx_veronese):
    m = ctx_veronese.A
    cplx = complex_of_radical(ctx_veronese.reference_ideal, m.n)
    short = make_complex(cplx[1:])
    assert not is_triangulation(short, m)


def test_all_enumerated_radicals_triangulate(ctx_veronese, ctx137, curve_ctx):
    for ctx in (ctx_veronese, ctx137, curve_ctx[1]):
        for ideal in brute_force_enumerate(ctx):
            assert is_triangulation(complex_of_radical(ideal, ctx.A.n), ctx.A)


def test_bistellar_flip_corank1(ctx12):
    circ = is_circuit(ctx12.A, ((2, 0), (0, 1)))
    spec = circuit_flip_spec(circ)
    start = make_complex([(1,)])
    other = bistellar_flip(start, spec)
    assert other == ((0,),)
    assert bistellar_flip(other, spec) == start  # involution


def test_bistellar_flip_is_an_involution_on_flip_edges(ctx_veronese, curve_ctx):
    """On every bistellar edge the exchange carries each end's complex to the other's."""
    contexts = {
        "veronese6": ctx_veronese,
        "g137": AGradedContext(homogenized(named_matrix("g137"))),
        "curve1": curve_ctx[1],
        "g36-8-10-15": AGradedContext(homogenized(named_matrix("g36-8-10-15"))),
    }
    counts = Counter()
    for name, ctx in contexts.items():
        graph = explore(ctx)
        for i, j, label in graph.edges:
            move = flip(graph.vertices[i], tuple(map(pack, label)), ctx)
            if edge_transition(move, ctx) != BISTELLAR:
                continue
            spec = circuit_flip_spec(is_circuit(ctx.A, (move.a, move.b)))
            source = complex_of_radical(move.source, ctx.A.n)
            target = complex_of_radical(move.target, ctx.A.n)
            assert bistellar_flip(source, spec) == target
            assert bistellar_flip(target, spec) == source
            counts[name] += 1
    assert counts == {"veronese6": 30, "g137": 1, "curve1": 53, "g36-8-10-15": 94}


def test_bistellar_flip_rejects_absent_circuit(ctx_veronese):
    m = ctx_veronese.A
    circ = is_circuit(m, ((0, 2, 0, 0, 0, 0), (1, 0, 0, 1, 0, 0)))
    assert circ is not None
    spec = circuit_flip_spec(circ)
    cplx = make_complex([(0, 2, 4)])
    with pytest.raises(NotFlippableComplex):
        bistellar_flip(cplx, spec)


def test_degenerate_flip_link_condition(ctx_veronese):
    """Lower-dimensional circuits flip through their common link."""
    m = ctx_veronese.A
    moved = 0
    ideals = brute_force_enumerate(ctx_veronese)
    graph = explore(ctx_veronese, start=ideals)
    for i, j, label in graph.edges:
        circ = is_circuit(m, label)
        if circ is None:
            continue
        if len(support(circ)) <= m.d:
            move = flip(graph.vertices[i], tuple(map(pack, label)), ctx_veronese)
            if edge_transition(move, ctx_veronese) == BISTELLAR:
                moved += 1
    assert moved > 0  # the fixture really exercises the degenerate case


def test_transitions_exhaustive(ctx_veronese, ctx_corank4, curve_ctx):
    for ctx in (ctx_veronese, ctx_corank4, curve_ctx[1]):
        ideals = brute_force_enumerate(ctx)
        graph = explore(ctx, start=ideals)
        seen = set()
        for i, j, label in graph.edges:
            move = flip(graph.vertices[i], tuple(map(pack, label)), ctx)
            verdict = edge_transition(move, ctx)
            seen.add(verdict)
            assert verdict in (SAME_RADICAL, BISTELLAR)
        assert BISTELLAR in seen


def test_transition_same_radical_keeps_incoming_support(curve_ctx):
    ctx = curve_ctx[1]
    from agraded import curve_monomial_ideal, neighbors

    ideal = curve_monomial_ideal(1)
    for move in neighbors(ideal, ctx):
        verdict = edge_transition(move, ctx)
        if verdict == SAME_RADICAL:
            support = tuple(1 if x else 0 for x in move.b)
            assert move.source.radical().contains(support)


def baues_image(graph, ctx):
    """Quotient of a flip graph by the supporting-triangulation map.

    Each vertex maps to the facets of its radical's complex.  Returns
    (complexes, edges): the sorted distinct facet tuples, and the index
    pairs of complexes joined by a flip edge.  Edges whose endpoints share
    a complex collapse and are dropped.
    """
    n = ctx.A.n
    images = [complex_of_radical(v, n) for v in graph.vertices]
    complexes = tuple(sorted(set(images)))
    index = {c: i for i, c in enumerate(complexes)}
    edges = set()
    for i, j, _ in graph.edges:
        a, b = index[images[i]], index[images[j]]
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return complexes, tuple(sorted(edges))


def test_baues_image_12(ctx12):
    graph = explore(ctx12)
    complexes, edges = baues_image(graph, ctx12)
    assert len(complexes) == 2 and edges == ((0, 1),)


def test_baues_image_veronese(ctx_veronese):
    graph = explore(ctx_veronese)
    complexes, edges = baues_image(graph, ctx_veronese)
    assert len(complexes) <= 29
    # quotient of a connected graph stays connected
    parent = list(range(len(complexes)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    assert len({find(i) for i in range(len(complexes))}) == 1
    # frozen counts for this configuration
    assert (len(complexes), len(edges)) == (14, 21)


def test_homogenized_matrix_accepted():
    # appending a row of ones turns the two rays into a 2-dimensional cone
    m = validate_grading([[1, 1], [1, 2]])
    assert is_triangulation(make_complex([(0, 1)]), m)
    assert not is_triangulation(make_complex([(0,)]), m)
    assert slice_volume(m, reference_facets(m)) > 0
    assert oracle_is_triangulation(make_complex([(0, 1)]), m)
