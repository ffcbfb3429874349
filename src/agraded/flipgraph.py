"""Flip-graph exploration, classification, census and serialisation.

Vertices are monomial A-graded ideals in canonical form; edges carry the
unordered pair of monomials that was flipped.  Exploration is a plain
breadth-first closure under flips with canonical deduplication; vertices
are renumbered by sorted canonical form before the graph is returned.
"""

import json
from dataclasses import dataclass

from .binomials import canonical_pair
from .errors import FormatError, GuardExceeded, IncompleteGraph, InputError, certify
from .ideals import is_coherent, neighbors
from .monomials import MonomialIdeal, minimalize


@dataclass(frozen=True)
class FlipGraph:
    """Canonical flip graph (or one BFS component of it)."""

    vertices: tuple          # MonomialIdeal, sorted
    edges: tuple             # (i, j, label) with i < j, sorted
    start: int
    coherent: tuple = None   # parallel to vertices when computed

    def valencies(self):
        out = [0] * len(self.vertices)
        for i, j, _ in self.edges:
            out[i] += 1
            out[j] += 1
        return tuple(out)

    def components(self):
        parent = list(range(len(self.vertices)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j, _ in self.edges:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
        return len({find(i) for i in range(len(self.vertices))})

    def labels(self):
        return tuple(sorted({label for _, _, label in self.edges}))


def explore(ctx, start=None, guard=None):
    """Breadth-first closure under flips from one or many start ideals.

    ``start`` may be a single ideal or an iterable of them (exploring every
    component that meets the set); default is the reference initial ideal.
    ``guard`` bounds the vertex count.
    """
    if start is None:
        starts = [ctx.reference_ideal]
    elif isinstance(start, MonomialIdeal):
        starts = [start]
    else:
        starts = sorted(set(start))
    if not starts:
        raise InputError("explore needs at least one start ideal")
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
        if guard is not None and len(seen) > guard:
            raise GuardExceeded(f"more than {guard} vertices")
        frontier = sorted(nxt)

    vertices = tuple(sorted(seen))
    index = {v: i for i, v in enumerate(vertices)}
    numbered = tuple(
        sorted(
            (min(index[a], index[b]), max(index[a], index[b]), label)
            for a, b, label in edges
        )
    )
    return FlipGraph(vertices, numbered, index[starts[0]])


def canonical_edge(a, b, label):
    return (a, b, label) if a <= b else (b, a, label)


def with_coherence(graph, ctx):
    """The graph with per-vertex coherence flags; flags it carries are kept."""
    if graph.coherent is not None:
        return graph
    flags = tuple(is_coherent(v, ctx)[0] for v in graph.vertices)
    return FlipGraph(graph.vertices, graph.edges, graph.start, flags)


def classify_labels(graph, ctx, expected_total=None):
    """(coherent-edge labels, all edge labels, Graver pairs) as nested sets.

    The graph must cover every monomial A-graded ideal; pass the census of
    an independent enumeration as ``expected_total`` to enforce that.  The
    first component collects the labels of edges with both endpoints
    coherent, which are exactly the elements of the universal Groebner
    basis of the toric ideal.
    """
    if expected_total is not None and len(graph.vertices) != expected_total:
        raise IncompleteGraph(
            f"graph has {len(graph.vertices)} vertices, expected {expected_total}"
        )
    flags = with_coherence(graph, ctx).coherent
    flips = set(graph.labels())
    ugb = {
        label for i, j, label in graph.edges if flags[i] and flags[j]
    }
    graver = set(ctx.graver.elements)
    certify(ugb <= flips <= graver, "edge labels are not nested inside the Graver basis")
    return (
        tuple(sorted(ugb)),
        tuple(sorted(flips)),
        tuple(sorted(graver)),
    )


def census(graph, ctx, coherence=False, brute_count=None):
    """Vertex/edge counts, connectivity verdict and flip-deficiency report."""
    vals = graph.valencies()
    deficiency_bound = ctx.A.n - ctx.A.d
    report = {
        "vertices": len(graph.vertices),
        "edges": len(graph.edges),
        "components": graph.components(),
        "max_valency": max(vals) if vals else 0,
        "flip_deficient": [i for i, v in enumerate(vals) if v < deficiency_bound],
        "valency_bound": deficiency_bound,
    }
    if brute_count is not None:
        report["connected"] = (
            report["components"] == 1 and len(graph.vertices) == brute_count
        )
    elif report["components"] > 1:
        report["connected"] = False
    else:
        report["connected"] = None  # single BFS component; needs a census to decide
    if coherence:
        flags = with_coherence(graph, ctx).coherent
        report["coherent_vertices"] = sum(flags)
        certify(not any(flags[i] for i in report["flip_deficient"]),
                "a flip-deficient vertex is coherent")
    return report


# -- serialisation -----------------------------------------------------------

def to_json(graph):
    """Stable JSON document for a flip graph."""
    vals = graph.valencies()
    doc = {
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
    return json.dumps(doc, indent=1, sort_keys=True)


def from_json(text):
    """The graph of a to_json document; FormatError if it is malformed."""
    try:
        doc = json.loads(text)
        records = sorted(doc["vertices"], key=lambda r: r["id"])
        vertices = tuple(minimalize(tuple(map(tuple, rec["generators"]))) for rec in records)
        flags = [rec["coherent"] for rec in records]
        edges = tuple(sorted(
            (rec["u"], rec["v"], canonical_pair(*rec["label"])) for rec in doc["edges"]))
        dangling = not all(0 <= i < j < len(vertices) for i, j, _ in edges)
        start = doc.get("start", 0)
    except (ValueError, LookupError, TypeError) as exc:
        raise FormatError(f"malformed graph document: {exc!r}") from exc
    if dangling:
        raise FormatError("a graph edge does not join two listed vertices in order")
    if not (isinstance(start, int) and 0 <= start < len(vertices)):
        raise FormatError(f"start {start!r} is not the id of a listed vertex")
    coherent = None if any(f is None for f in flags) else tuple(flags)
    return FlipGraph(vertices, edges, start, coherent)


def _monomial_label(exps):
    """x1^2 x3 for the exponent (2, 0, 1); 1 for the zero exponent."""
    return " ".join(
        "x%d^%d" % (i + 1, e) if e > 1 else "x%d" % (i + 1)
        for i, e in enumerate(exps) if e
    ) or "1"


def to_dot(graph):
    """Undirected DOT with generator labels; coherent vertices filled."""
    lines = ["graph flips {"]
    for i, v in enumerate(graph.vertices):
        label = ", ".join(map(_monomial_label, v.gens))
        style = ""
        if graph.coherent is not None and graph.coherent[i]:
            style = ", style=filled"
        lines.append(f'  v{i} [label="{label}"{style}];')
    for i, j, label in graph.edges:
        a, b = map(_monomial_label, label)
        lines.append(f'  v{i} -- v{j} [label="{a} - {b}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
