"""Flip-graph exploration, classification, census, serialisation."""

import json
import tracemalloc

import pytest

from agraded import (
    AGradedContext,
    brute_force_enumerate,
    census,
    classify_labels,
    explore,
    flip,
    from_json,
    minimalize,
    neighbors,
    to_dot,
    to_json,
    with_coherence,
)
from agraded import flipgraph, ideals
from agraded.fixtures import as_pairs, expected, named_matrix
from agraded.errors import FormatError, InputError
from agraded.flipgraph import FlipGraph, GuardExceeded, IncompleteGraph
from agraded.monomials import pack


def canonical_edge(a, b, label):
    return (a, b, label) if a <= b else (b, a, label)


def plain_explore(ctx, start=None):
    """The plain breadth-first closure explore replaced, kept as its oracle.

    Every vertex finds its standard monomials with the backtracker and
    tests the wall ideal of every candidate, reverse moves included.
    """
    starts = [ctx.reference_ideal] if start is None else sorted(set(start))
    seen = set(starts)
    frontier = sorted(seen)
    edges = set()
    while frontier:
        nxt = set()
        for ideal in frontier:
            for move in neighbors(ideal, ctx):
                edges.add(canonical_edge(ideal, move.target, move.label))
                if move.target not in seen:
                    nxt.add(move.target)
        seen.update(nxt)
        frontier = sorted(nxt)
    vertices = tuple(sorted(seen))
    index = {v: i for i, v in enumerate(vertices)}
    numbered = tuple(sorted(
        (min(index[a], index[b]), max(index[a], index[b]), label) for a, b, label in edges))
    return FlipGraph(vertices, numbered, index[starts[0]])


ORACLE_MATRICES = ["g137", "veronese6", "g36-8-10-15"]


@pytest.fixture(scope="module", params=ORACLE_MATRICES)
def complete(request):
    """(matrix, every A-graded ideal by brute force) for one oracle fixture."""
    matrix = named_matrix(request.param)
    return matrix, brute_force_enumerate(AGradedContext(matrix))


@pytest.mark.parametrize("case", ["reference", "all-ideals", "one-ideal"])
def test_explore_matches_plain_bfs(complete, case):
    matrix, ideals = complete
    # one MonomialIdeal, as flipgraph --start passes it; the last brute-force
    # ideal is the reference ideal on every oracle fixture, so take the first
    ideal = ideals[0]
    assert ideal != AGradedContext(matrix).reference_ideal
    start, oracle_start = {"reference": (None, None), "all-ideals": (ideals, ideals),
                           "one-ideal": (ideal, [ideal])}[case]
    graph = explore(AGradedContext(matrix), start=start)
    assert to_json(graph) == to_json(plain_explore(AGradedContext(matrix), start=oracle_start))
    if case == "one-ideal":
        assert graph.vertices[graph.start] == ideal


@pytest.mark.parametrize("multi", [False, True], ids=["reference", "all-ideals"])
def test_reused_reverse_moves_are_flips(complete, multi, monkeypatch):
    """Every reverse move explore hands to neighbors is the flip it replaces."""
    matrix, ideals = complete
    ctx = AGradedContext(matrix)
    reused = []

    def recording(ideal, ctx, reverse=None):
        reused.extend((ideal, b, move) for b, move in (reverse or {}).items())
        return neighbors(ideal, ctx, reverse)

    monkeypatch.setattr(flipgraph, "neighbors", recording)
    graph = explore(ctx, start=ideals if multi else None)
    # one forward flip and one reused reverse move per undirected edge
    assert len(reused) == len(graph.edges)
    for ideal, b, move in reused:
        assert move.source == ideal and move.pa == b and b in ideal.packed
        assert move == flip(ideal, (b, move.pb), ctx)


def test_two_vertex_graph(ctx12):
    graph = explore(ctx12)
    assert len(graph.vertices) == 2 and len(graph.edges) == 1
    assert graph.components() == 1
    assert graph.valencies() == (1, 1)
    assert graph.edges[0][2] == ((2, 0), (0, 1))


def test_guard(ctx_veronese):
    with pytest.raises(GuardExceeded):
        explore(ctx_veronese, guard=5)


@pytest.mark.parametrize("guard", [0, 1, 5, 12, 28])
def test_guard_trips_at_the_first_vertex_past_it(guard, monkeypatch):
    """No vertex is expanded once more than ``guard`` vertices are seen."""
    ctx = AGradedContext(named_matrix("veronese6"))
    seen = {ctx.reference_ideal}
    expanded_past = []

    def recording(ideal, ctx, reverse=None):
        expanded_past.append(len(seen) > guard)
        moves = neighbors(ideal, ctx, reverse)
        seen.update(move.target for move in moves)
        return moves

    monkeypatch.setattr(flipgraph, "neighbors", recording)
    with pytest.raises(GuardExceeded):
        explore(ctx, guard=guard)
    assert len(seen) > guard and not any(expanded_past)
    assert len(explore(ctx, guard=29).vertices) == 29


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


def simplex_counted(monkeypatch):
    """A list that grows by one per run of the simplex behind is_coherent."""
    runs = []
    solve = ideals.lp_strict_feasible

    def counted(*args, **kwargs):
        runs.append(len(args[0]))
        return solve(*args, **kwargs)

    monkeypatch.setattr(ideals, "lp_strict_feasible", counted)
    return runs


WALK_CONTEXTS = ["ctx12", "ctx134", "ctx137", "ctx_veronese", "ctx_corank4", "ctx345"]


@pytest.mark.parametrize("context", WALK_CONTEXTS)
def test_walk_flags_match_the_per_vertex_lp(request, monkeypatch, context):
    """Inherited certificates decide most vertices, and never another flag."""
    ctx = request.getfixturevalue(context)
    graph = explore(ctx, start=brute_force_enumerate(ctx))
    per_vertex = tuple(ideals.is_coherent(v, ctx)[0] for v in graph.vertices)
    runs = simplex_counted(monkeypatch)
    assert with_coherence(graph, ctx).coherent == per_vertex
    assert len(runs) < len(graph.vertices)


def test_walk_reaches_every_component(monkeypatch, ctx_corank4):
    """Every component is walked, the start's first, and each vertex is decided once."""
    graph = explore(ctx_corank4)
    per_vertex = tuple(ideals.is_coherent(v, ctx_corank4)[0] for v in graph.vertices)
    # cut two vertices off, one of each flag, and start from the last vertex
    cut = {per_vertex.index(True), per_vertex.index(False)}
    edges = tuple(e for e in graph.edges if not cut & {e[0], e[1]})
    start = len(graph.vertices) - 1
    cut_graph = from_json(to_json(FlipGraph(graph.vertices, edges, start)))
    assert cut_graph.components() > len(cut)
    decided = []
    walk = flipgraph.is_coherent

    def recording(ideal, ctx, inherited=()):
        decided.append((ideal, inherited))
        return walk(ideal, ctx, inherited)

    monkeypatch.setattr(flipgraph, "is_coherent", recording)
    runs = simplex_counted(monkeypatch)
    assert with_coherence(cut_graph, ctx_corank4).coherent == per_vertex
    assert decided[0][0] == graph.vertices[start]
    assert sorted(v for v, _ in decided) == list(graph.vertices)
    for k in cut:
        assert dict(decided)[graph.vertices[k]] == []
    assert len(runs) < len(graph.vertices)


def test_edge_symmetry(ctx_veronese):
    graph = explore(ctx_veronese)
    for i, j, label in graph.edges:
        forward = flip(graph.vertices[i], tuple(map(pack, label)), ctx_veronese)
        backward = flip(graph.vertices[j], tuple(map(pack, label)), ctx_veronese)
        assert forward.target == graph.vertices[j]
        assert backward.target == graph.vertices[i]


def test_edges_with_one_label_share_one_tuple(ctx_corank4):
    """``explore`` unpacks each distinct flip label once, and the JSON text keeps its digest."""
    from test_golden import GOLDEN, digest

    graph = explore(AGradedContext(ctx_corank4.A))
    shared = {}
    for _, _, label in graph.edges:
        assert shared.setdefault(label, label) is label
    assert len(shared) == len(graph.labels()) < len(graph.edges)
    assert digest(to_json(with_coherence(graph, ctx_corank4))) == GOLDEN["g36-8-10-15"]["graph"]


def test_curve_vertices_exceed_bound(curve_ctx):
    from agraded import curve_monomial_ideal, neighbors

    for j in (1, 2, 3):
        ctx = curve_ctx[j]
        assert len(neighbors(curve_monomial_ideal(j), ctx)) == 2 * j + 4 > ctx.A.n - ctx.A.d


def json_document(graph):
    """The JSON document of a flip graph as plain lists and dicts, the writer's oracle."""
    vals = graph.valencies()
    return {
        "vertices": [
            {
                "id": i,
                "generators": [list(g) for g in v.gens],
                "coherent": None if graph.coherent is None else graph.coherent[i],
                "valency": vals[i],
            }
            for i, v in enumerate(graph.vertices)
        ],
        "edges": [
            {"u": i, "v": j, "label": [list(label[0]), list(label[1])]}
            for i, j, label in graph.edges
        ],
        "start": graph.start,
    }


WRITER_CONTEXTS = ["ctx12", "ctx137", "ctx_veronese", "ctx_corank4", "ctx345"]


@pytest.mark.parametrize("flagged", [False, True], ids=["unflagged", "flagged"])
@pytest.mark.parametrize("context", WRITER_CONTEXTS)
def test_to_json_is_the_stdlib_indent_encoding(request, context, flagged):
    ctx = request.getfixturevalue(context)
    graph = explore(ctx)
    if flagged:
        graph = with_coherence(graph, ctx)
    assert to_json(graph) == json.dumps(json_document(graph), indent=1, sort_keys=True)


@pytest.mark.parametrize("graph", [
    FlipGraph((minimalize(()),), (), 0),
    FlipGraph((minimalize(()),), (), 0, (True,)),
    FlipGraph((), (), 0),
    FlipGraph((minimalize([()]),), (), 0),
], ids=["zero-ideal", "zero-ideal-flagged", "no-vertices", "no-variables"])
def test_to_json_of_empty_lists(graph):
    text = to_json(graph)
    assert text == json.dumps(json_document(graph), indent=1, sort_keys=True)
    assert '"edges": []' in text


def test_to_json_with_mixed_flags(ctx137):
    graph = explore(ctx137)
    graph = FlipGraph(graph.vertices, graph.edges, graph.start,
                      tuple(i % 3 != 1 for i in range(len(graph.vertices))))
    text = to_json(graph)
    assert text == json.dumps(json_document(graph), indent=1, sort_keys=True)
    assert '"coherent": true' in text and '"coherent": false' in text
    assert from_json(text) == graph


def test_to_json_peak_memory_is_a_small_multiple_of_the_text(ctx_corank4):
    """The writer holds one block at a time, not one string per token."""
    graph = with_coherence(explore(ctx_corank4), ctx_corank4)
    tracemalloc.start()
    try:
        text = to_json(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(text)


def test_json_roundtrip(ctx12):
    graph = with_coherence(explore(ctx12), ctx12)
    assert from_json(to_json(graph)) == graph


def test_json_roundtrip_without_flags(ctx_veronese):
    graph = explore(ctx_veronese)
    again = from_json(to_json(graph))
    assert again == graph


@pytest.mark.parametrize("start", [2, -1, "0", None, True, pytest.param(..., id="missing")])
def test_json_start_must_be_a_vertex_id(ctx12, start):
    doc = json.loads(to_json(explore(ctx12)))
    doc["start"] = start
    if start is ...:  # the key is left out
        del doc["start"]
    with pytest.raises(FormatError, match="start"):
        from_json(json.dumps(doc))


@pytest.mark.parametrize("ids", [[0, 5], [0, 0], [1, 2], [0, True], [0, 1.0]])
def test_json_vertex_ids_must_be_0_to_v_minus_1(ctx12, ids):
    doc = json.loads(to_json(explore(ctx12)))
    for record, i in zip(doc["vertices"], ids):
        record["id"] = i
    with pytest.raises(FormatError, match="vertex ids"):
        from_json(json.dumps(doc))


@pytest.mark.parametrize("end", ["u", "v"])
def test_json_edge_ends_must_be_vertex_ids(ctx12, end):
    doc = json.loads(to_json(explore(ctx12)))
    doc["edges"][0][end] = bool(doc["edges"][0][end])
    with pytest.raises(FormatError, match="edge"):
        from_json(json.dumps(doc))


def test_json_repeated_edge_is_malformed(ctx137):
    doc = json.loads(to_json(explore(ctx137)))
    doc["edges"].append(dict(doc["edges"][0]))
    with pytest.raises(FormatError, match="edge is listed twice"):
        from_json(json.dumps(doc))


def test_json_repeated_vertex_is_malformed(ctx137):
    doc = json.loads(to_json(explore(ctx137)))
    doc["vertices"][1]["generators"] = doc["vertices"][0]["generators"]
    with pytest.raises(FormatError, match="vertex is listed twice"):
        from_json(json.dumps(doc))


@pytest.mark.parametrize("flag", [2, "yes", 1.0, [True]])
def test_json_coherence_flag_must_be_a_boolean_or_null(ctx137, flag):
    doc = json.loads(to_json(with_coherence(explore(ctx137), ctx137)))
    for record in doc["vertices"]:
        record["coherent"] = flag
    with pytest.raises(FormatError, match="coherence flag"):
        from_json(json.dumps(doc))


@pytest.mark.parametrize("where", ["generator", "label"])
@pytest.mark.parametrize("entry", [True, 1.0, -1])
def test_json_exponents_must_be_integers(ctx137, where, entry):
    doc = json.loads(to_json(explore(ctx137)))
    row = doc["vertices"][0]["generators"][0] if where == "generator" else doc["edges"][0]["label"][1]
    row[row.index(1) if 1 in row else 0] = entry
    with pytest.raises(FormatError, match="not a non-negative integer"):
        from_json(json.dumps(doc))


@pytest.mark.parametrize("label", [
    [[1, 0, 0], [0, 1]],
    [[1, 0, 0, 0], [0, 1, 0, 0]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[1, 0, 0]],
])
def test_json_label_has_two_sides_as_long_as_the_generators(ctx137, label):
    doc = json.loads(to_json(explore(ctx137)))
    doc["edges"][0]["label"] = label
    with pytest.raises(FormatError, match="same length|malformed"):
        from_json(json.dumps(doc))


def test_explore_needs_a_start(ctx12):
    with pytest.raises(InputError, match="at least one start"):
        explore(ctx12, start=[])


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
