"""Flip-graph exploration, classification, census, serialisation."""

import pytest

from agraded import (
    brute_force_enumerate,
    census,
    classify_labels,
    explore,
    flip,
    from_json,
    minimalize,
    to_dot,
    to_json,
    with_coherence,
)
from agraded.fixtures import as_pairs, expected
from agraded.flipgraph import GuardExceeded, IncompleteGraph


def test_two_vertex_graph(ctx12):
    graph = explore(ctx12)
    assert len(graph.vertices) == 2 and len(graph.edges) == 1
    assert graph.components() == 1
    assert graph.valencies() == (1, 1)
    assert graph.edges[0][2] == ((2, 0), (0, 1))


def test_guard(ctx_veronese):
    with pytest.raises(GuardExceeded):
        explore(ctx_veronese, guard=5)


def test_veronese_29_all_coherent(ctx_veronese):
    ideals = brute_force_enumerate(ctx_veronese)
    graph = explore(ctx_veronese)
    assert len(graph.vertices) == 29 == len(ideals)
    assert set(graph.vertices) == set(ideals)
    flags = with_coherence(graph, ctx_veronese).coherent
    assert all(flags)
    report = census(graph, ctx_veronese, coherence=True, brute_count=29)
    assert report["connected"] is True
    assert report["coherent_vertices"] == 29
    assert report["flip_deficient"] == []


def test_classification_137(ctx137):
    rec = expected("graver-137")
    ideals = brute_force_enumerate(ctx137)
    graph = with_coherence(explore(ctx137, start=ideals), ctx137)
    ugb, flips, graver = classify_labels(graph, ctx137, expected_total=len(ideals))
    assert set(graver) == as_pairs(rec["graver"])
    assert set(flips) == as_pairs(rec["flips"])
    assert set(ugb) == set(flips)
    assert set(flips) < set(graver)


def test_classification_134(ctx134):
    rec = expected("graver-134")
    ideals = brute_force_enumerate(ctx134)
    graph = with_coherence(explore(ctx134, start=ideals), ctx134)
    ugb, flips, graver = classify_labels(graph, ctx134, expected_total=len(ideals))
    assert set(ugb) == set(flips) == set(graver) == as_pairs(rec["graver"])


def test_incomplete_graph_rejected(ctx137):
    graph = explore(ctx137)
    with pytest.raises(IncompleteGraph):
        classify_labels(graph, ctx137, expected_total=len(graph.vertices) + 1)


def test_pair_product_labels_never_flip(ctx_veronese, ctx137):
    """A Graver pair with a side inside the pair-product ideal labels no edge."""
    from agraded import special_ideals

    for ctx in (ctx_veronese, ctx137):
        ideals = brute_force_enumerate(ctx)
        graph = explore(ctx, start=ideals)
        _, pair_ideal = special_ideals(ctx, ideals)
        labels = set(graph.labels())
        for u, v in ctx.graver:
            if pair_ideal.contains(u) or pair_ideal.contains(v):
                assert (u, v) not in labels


def test_coherent_vertices_meet_valency_bound(ctx_veronese, ctx345):
    for ctx in (ctx_veronese, ctx345):
        graph = with_coherence(explore(ctx), ctx)
        bound = ctx.A.n - ctx.A.d
        for flag, valency in zip(graph.coherent, graph.valencies()):
            if flag:
                assert valency >= bound


def test_edge_symmetry(ctx_veronese):
    graph = explore(ctx_veronese)
    for i, j, label in graph.edges:
        forward = flip(graph.vertices[i], label, ctx_veronese)
        backward = flip(graph.vertices[j], label, ctx_veronese)
        assert forward.target == graph.vertices[j]
        assert backward.target == graph.vertices[i]


def test_curve_vertices_exceed_bound(curve_ctx):
    from agraded import curve_monomial_ideal, neighbors

    for j in (1, 2, 3):
        ctx = curve_ctx[j]
        assert len(neighbors(curve_monomial_ideal(j), ctx)) == 2 * j + 4 > ctx.A.n - ctx.A.d


def test_json_roundtrip(ctx12):
    graph = with_coherence(explore(ctx12), ctx12)
    assert from_json(to_json(graph)) == graph


def test_json_roundtrip_without_flags(ctx_veronese):
    graph = explore(ctx_veronese)
    again = from_json(to_json(graph))
    assert again == graph


def test_dot_output(ctx12):
    graph = with_coherence(explore(ctx12), ctx12)
    dot = to_dot(graph)
    assert dot.startswith("graph flips {")
    assert 'x1^2 - x2' in dot
    assert "style=filled" in dot


def test_multi_start_covers_all(ctx137):
    ideals = brute_force_enumerate(ctx137)
    graph = explore(ctx137, start=ideals)
    assert set(graph.vertices) == set(ideals)
    report = census(graph, ctx137, brute_count=len(ideals))
    assert report["connected"] is True
