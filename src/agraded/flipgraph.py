"""Flip-graph exploration, classification, census and serialisation.

Vertices are monomial A-graded ideals in canonical form; edges carry the
unordered pair of monomials that was flipped.  Exploration is a
breadth-first closure under flips that works on BFS numbers; vertices are
renumbered by sorted canonical form, once, before the graph is returned.
It is incremental: a flip M -> M' hands M' its standard monomials, carried
over from M, and the reverse move M' -> M, so each undirected edge pays
for its wall-ideal tests once.

A graph leaves the package as the JSON text of ``json_chunks``, which
``to_json`` joins and ``agraded flipgraph --json`` streams into its file.
It is ``json.dumps(..., indent=1, sort_keys=True)`` of the graph's document
to the byte, written by hand: the stdlib writes an indented document with
its pure-Python encoder, which holds one string per token until the end.
``from_json`` reads it back with the C decoder and takes only the types
it writes.
"""

import json
from dataclasses import dataclass

from .binomials import canonical_pair
from .errors import FormatError, GuardExceeded, IncompleteGraph, InputError, certify
from .ideals import FlipMove, is_coherent, neighbors
from .monomials import MonomialIdeal, exp_sub, minimalize


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

    ``start`` may be a single A-graded ideal or an iterable of them
    (exploring every component that meets the set); default is the
    reference initial ideal.  ``guard`` bounds the vertex count: more than
    ``guard`` vertices seen raises GuardExceeded at once.

    Vertices are numbered as found and expanded in that order.  Each flip
    M -> M' over (a, b) into a later number does two things for M'.
    ``ctx.carry`` seeds the standard monomials of M' from those of M, and
    the reverse move M' -> M over (b, a) is recorded, so expanding M'
    reuses it instead of testing the wall ideal again.  The returned graph
    is the same as without either.  Flips are symmetric, so each edge is
    kept once, from its lower number; edges with one label share one
    tuple, unpacked once per call.  One sort by canonical form renumbers
    the graph at the end.
    """
    if start is None:
        starts = [ctx.reference_ideal]
    elif isinstance(start, MonomialIdeal):
        starts = [start]
    else:
        starts = sorted(set(start))
    if not starts:
        raise InputError("explore needs at least one start ideal")
    found = list(starts)  # BFS number -> vertex, grown while it is walked
    number = {s: i for i, s in enumerate(found)}
    if guard is not None and len(found) > guard:
        raise GuardExceeded(f"more than {guard} vertices")
    edges = []  # (i, j, label) with i < j, found when i is expanded
    reverse = {}  # BFS number not yet expanded -> {packed generator b: move back over (b, a)}
    labels = {}  # packed (larger, smaller) side -> the one label tuple of those sides
    for i, ideal in enumerate(found):
        for move in neighbors(ideal, ctx, reverse.pop(i, None)):
            j = number.get(move.target)
            if j is None:
                j = number[move.target] = len(found)
                found.append(move.target)
                if guard is not None and len(found) > guard:
                    raise GuardExceeded(f"more than {guard} vertices")
            if j > i:
                key = max(move.pa, move.pb), min(move.pa, move.pb)
                label = labels.get(key)
                if label is None:
                    label = labels[key] = move.label
                edges.append((i, j, label))
                ctx.carry(move)
                reverse.setdefault(j, {})[move.pb] = FlipMove(found[j], move.pb, move.pa, ideal)

    order = sorted(range(len(found)), key=lambda i: found[i].packed)
    new = {i: k for k, i in enumerate(order)}
    numbered = tuple(sorted((min(new[i], new[j]), max(new[i], new[j]), label)
                            for i, j, label in edges))
    return FlipGraph(tuple(found[i] for i in order), numbered, new[0])


def with_coherence(graph, ctx):
    """The graph with per-vertex coherence flags; flags it carries are kept.

    Coherent vertices are the chambers of the Groebner fan, and the two
    ends of a flip over (a, b) share the wall w.(a - b) = 0, so a decided
    neighbour's certificate often decides a vertex without the simplex
    (facet crossing: Fukuda, Jensen and Thomas, "Computing Groebner fans",
    Math. Comp. 2007).  Each component is walked breadth-first, from
    ``graph.start`` and then from the lowest-numbered vertex not yet
    reached.  ``is_coherent`` gets each vertex with the certificates of its
    decided neighbours, in edge order, tries them with the exact checkers
    of ``lp`` and runs the simplex only if none passes.  Flags do not
    depend on the walk; the certificates are dropped once they are made.
    """
    if graph.coherent is not None:
        return graph
    n = len(graph.vertices)
    adjacent = [[] for _ in range(n)]
    for i, j, (a, b) in graph.edges:
        d = exp_sub(a, b)
        adjacent[i].append((j, d))
        adjacent[j].append((i, d))
    flags = [None] * n
    certificates = [None] * n
    reached = [False] * n
    for root in (graph.start, *range(n)) if n else ():
        if reached[root]:
            continue
        reached[root] = True
        queue = [root]
        for k in queue:  # grows while it is walked
            inherited = [(certificates[j], d) for j, d in adjacent[k]
                         if certificates[j] is not None]
            flags[k], certificates[k] = is_coherent(graph.vertices[k], ctx, inherited)
            for j, _ in adjacent[k]:
                if not reached[j]:
                    reached[j] = True
                    queue.append(j)
    return FlipGraph(graph.vertices, graph.edges, graph.start, tuple(flags))


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

_FLAG = {None: "null", True: "true", False: "false"}


def _int_rows(rows):
    """The text of a list of integer lists as the value of a key at depth 3."""
    if not rows:
        return "[]"
    return "[\n    " + ",\n    ".join(
        "[\n     " + ",\n     ".join(map(str, row)) + "\n    ]" if row else "[]"
        for row in rows) + "\n   ]"


def json_chunks(graph):
    """The JSON text of a flip graph, in pieces: the framing, then one per edge and vertex.

    The text is ``json.dumps(doc, indent=1, sort_keys=True)`` of the
    document with keys ``edges`` (``label``, ``u``, ``v``), ``start`` and
    ``vertices`` (``coherent``, ``generators``, ``id``, ``valency``).  The
    stdlib is not used to write it: with an indent, ``json`` falls back to
    its pure-Python encoder, which holds about one small string per token
    until the final join (12 times the text's size on g36-8-10-15).  Each
    piece here is one edge or vertex block, so a consumer that writes them
    out as they come holds one block at a time.
    """
    vals = graph.valencies()
    flags = graph.coherent or (None,) * len(graph.vertices)
    yield '{\n "edges": ['
    sep = "\n"
    for i, j, label in graph.edges:
        yield '%s  {\n   "label": %s,\n   "u": %d,\n   "v": %d\n  }' % (
            sep, _int_rows(label), i, j)
        sep = ",\n"
    yield ("\n ]" if graph.edges else "]") + ',\n "start": %d,\n "vertices": [' % graph.start
    sep = "\n"
    for i, (v, flag, valency) in enumerate(zip(graph.vertices, flags, vals)):
        yield ('%s  {\n   "coherent": %s,\n   "generators": %s,\n   "id": %d,\n'
               '   "valency": %d\n  }') % (sep, _FLAG[flag], _int_rows(v.gens), i, valency)
        sep = ",\n"
    yield ("\n ]" if graph.vertices else "]") + "\n}"


def to_json(graph):
    """Stable JSON text for a flip graph: the joined ``json_chunks``.

    ``agraded flipgraph --json`` writes the same chunks to its file one by
    one instead of building the whole string.
    """
    return "".join(json_chunks(graph))


def from_json(text):
    """The graph of a to_json document; FormatError if it is malformed.

    Only what to_json writes is read.  Malformed are: a missing key
    (``start`` included), a vertex or an edge listed twice, a coherence
    flag other than true, false or null, an exponent or label entry that
    is not a non-negative integer (``true`` included), and generators and
    label sides of different lengths.
    """
    try:
        doc = json.loads(text)
        records = sorted(doc["vertices"], key=lambda r: r["id"])
        gens = [tuple(map(tuple, rec["generators"])) for rec in records]
        flags = [rec["coherent"] for rec in records]
        edges = tuple(sorted(
            (rec["u"], rec["v"], canonical_pair(*rec["label"])) for rec in doc["edges"]))
        dangling = not all(type(i) is type(j) is int and 0 <= i < j < len(gens)
                           for i, j, _ in edges)
        start = doc["start"]
    except (ValueError, LookupError, TypeError) as exc:
        raise FormatError(f"malformed graph document: {exc!r}") from exc
    if any(type(rec["id"]) is not int or rec["id"] != i for i, rec in enumerate(records)):
        raise FormatError(f"the vertex ids are not 0, 1, ..., {len(records) - 1}")
    if dangling:
        raise FormatError("a graph edge does not join two listed vertices in order")
    if not all(f is None or type(f) is bool for f in flags):
        raise FormatError("a coherence flag is not true, false or null")
    rows = [g for ideal in gens for g in ideal] + [side for *_, label in edges for side in label]
    if not all(type(e) is int and e >= 0 for row in rows for e in row):
        raise FormatError("an exponent or a label entry is not a non-negative integer")
    if len({len(row) for row in rows}) > 1:
        raise FormatError("the generators and label sides do not all have the same length")
    vertices = tuple(map(minimalize, gens))
    if len(set(vertices)) < len(vertices):
        raise FormatError("a graph vertex is listed twice")
    if len(set(edges)) < len(edges):
        raise FormatError("a graph edge is listed twice")
    if not (type(start) is int and 0 <= start < len(vertices)):
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
