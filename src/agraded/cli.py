"""Command-line interface.

``main`` reads the ``--matrix`` file and builds the run's one
``AGradedContext`` before it dispatches, so every ``cmd_*`` takes
(args, ctx); ``verify-paper`` reads no matrix and gets None.  Only
``triangulations --homogenize`` builds a second context, for the
homogenized matrix.

Exit codes, and the branch of ``errors.py`` that each failure comes from:

* 0: success.
* 2: invalid input, an ``InputError``.  Examples are a file that does not
  parse or cannot be read (an OSError), an unknown example name, an ideal
  that is not A-graded where one is required (``NotAGraded``), an edge
  label that does not flip its vertex, and exponents of 2**31 or more,
  which the packed monomial representation cannot hold.  A tripped
  --guard (``GuardExceeded``) also exits 2.  The one number of --guard
  bounds the BFS vertices of the flip graph, the K-polynomial tests of the
  brute force (the leaves it visits and the prefixes it prunes by), and
  both under ``flipgraph --census``, where the brute force may trip it
  after the whole graph fitted.
* 3: ``flipgraph`` found the flip graph disconnected.  This is a verdict,
  not an exception.
* 4: a result failed its check: a certificate that failed its exact
  re-check, a ``CertificateError``.  ``verify-paper`` also exits 4 when a
  known-answer report says "fail", and ``triangulations`` when it finds a
  flip edge whose transition is a violation; both are verdicts.
"""

import argparse
import json
import sys

from .binomials import buchberger, initial_ideal, toric_ideal
from .errors import (
    CertificateError,
    FormatError,
    GuardExceeded,
    InputError,
    NotAGraded,
)
from .fileio import (
    binomial_str,
    format_ideal,
    load_ideal,
    load_matrix,
    monomial_str,
    pair_str,
    parse_integers,
    read_text,
    variable_names,
)
from .flipgraph import census, explore, from_json, json_chunks, to_dot, with_coherence
from .grading import validate_grading
from .graver import graver_basis, graver_oracle
from .ideals import (
    AGradedContext,
    brute_force_enumerate,
    flip,
    is_agraded,
    is_coherent,
    neighbors,
)
from .monomials import pack
from .triangulations import complex_of_radical, edge_transition, is_triangulation
from .verify import REGISTRY, run, verify_all

OK, BAD_INPUT, DISCONNECTED, MISMATCH = 0, 2, 3, 4


def _weight(text, n):
    parts = parse_integers(text, ",")
    if len(parts) != n:
        raise FormatError(f"weight needs {n} entries")
    return tuple(parts)


def _agraded_ideal(path, ctx):
    """The ideal of a file, which must be A-graded."""
    ideal = load_ideal(path, ctx.A.n)
    if not is_agraded(ideal, ctx):
        raise NotAGraded(f"{path}: not A-graded, its Hilbert function is not the toric one")
    return ideal


def _ideal_record(ideal, ctx):
    record = {
        "generators": [list(g) for g in ideal.gens],
        "agraded": is_agraded(ideal, ctx),
    }
    if record["agraded"]:
        coherent, witness = is_coherent(ideal, ctx)
        record["coherent"] = coherent
        if coherent:
            record["witness"] = [str(x) for x in witness]
        record["valency"] = len(neighbors(ideal, ctx))
    else:
        record["coherent"] = False
    return record


def cmd_graver(args, ctx):
    matrix = ctx.A
    basis = graver_basis(matrix) if args.bound is None else graver_oracle(matrix, args.bound)
    names = variable_names(matrix.n)
    for u, v in basis:
        print(" ".join(map(str, u)), "|", " ".join(map(str, v)),
              " #", pair_str((u, v), names))
    return OK


def cmd_toric_gb(args, ctx):
    matrix = ctx.A
    gens = toric_ideal(matrix)
    if args.weight:
        gens = buchberger(gens, _weight(args.weight, matrix.n), matrix).binomials
    names = variable_names(matrix.n)
    for b in gens:
        print(" ".join(map(str, b.lead)), "|", str(b.coeff), "|",
              " ".join(map(str, b.trail)), " #", binomial_str(b.lead, b.trail, b.coeff, names))
    return OK


def cmd_initial(args, ctx):
    ideal = initial_ideal(ctx.A, _weight(args.weight, ctx.A.n))
    names = variable_names(ctx.A.n)
    sys.stdout.write(format_ideal(ideal))
    print("#", ", ".join(monomial_str(g, names) for g in ideal.gens))
    return OK


def cmd_check(args, ctx):
    ideal = load_ideal(args.ideal, ctx.A.n)
    print(json.dumps(_ideal_record(ideal, ctx), indent=1, sort_keys=True))
    return OK


def cmd_neighbors(args, ctx):
    ideal = _agraded_ideal(args.ideal, ctx)
    names = variable_names(ctx.A.n)
    moves = neighbors(ideal, ctx)
    doc = [
        {
            "label": [list(m.a), list(m.b)],
            "pretty": binomial_str(m.a, m.b, 1, names),
            "target": [list(g) for g in m.target.gens],
        }
        for m in moves
    ]
    print(json.dumps({"count": len(moves), "moves": doc}, indent=1, sort_keys=True))
    return OK


def cmd_coherent(args, ctx):
    ideal = _agraded_ideal(args.ideal, ctx)
    coherent, witness = is_coherent(ideal, ctx)
    doc = {"coherent": coherent}
    if coherent:
        doc["witness"] = [str(x) for x in witness]
    print(json.dumps(doc, indent=1, sort_keys=True))
    return OK


def cmd_enumerate(args, ctx):
    if args.mode == "brute":
        ideals = brute_force_enumerate(ctx, guard=args.guard)
    else:
        graph = explore(ctx, guard=args.guard)
        ideals = graph.vertices
    print(len(ideals))
    if args.list:
        for ideal in ideals:
            print(json.dumps([list(g) for g in ideal.gens]))
    return OK


def cmd_flipgraph(args, ctx):
    start = _agraded_ideal(args.start, ctx) if args.start else None
    graph = explore(ctx, start=start, guard=args.guard)
    if args.coherence:
        graph = with_coherence(graph, ctx)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(graph))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.writelines(json_chunks(graph))
    brute_count = None
    if args.census:
        brute_count = len(brute_force_enumerate(ctx, guard=args.guard))
    report = census(graph, ctx, coherence=args.coherence, brute_count=brute_count)
    print(json.dumps(report, indent=1, sort_keys=True))
    if report.get("connected") is False:
        return DISCONNECTED
    return OK


def cmd_triangulations(args, ctx):
    if args.homogenize:
        rows = [[1] * ctx.A.n] + [list(r) for r in ctx.A.rows]
        ctx = AGradedContext(validate_grading(rows))
    matrix = ctx.A
    if args.graph:
        graph = from_json(read_text(args.graph))
        for vertex in graph.vertices:
            vertex.check_width(matrix.n)
    else:
        graph = explore(ctx)
    for i, vertex in enumerate(graph.vertices):
        facets = complex_of_radical(vertex, matrix.n)
        print(f"vertex {i}: facets {[list(f) for f in facets]} "
              f"triangulation={is_triangulation(facets, matrix)}")
    verdicts = {}
    for i, j, label in graph.edges:
        move = flip(graph.vertices[i], tuple(map(pack, label)), ctx)
        if move.target != graph.vertices[j]:
            raise FormatError(f"edge {i} -- {j}: the flip over {pair_str(label)} leads elsewhere")
        verdict = edge_transition(move, ctx)
        verdicts[verdict] = verdicts.get(verdict, 0) + 1
        print(f"edge {i} -- {j} [{pair_str(label)}]: {verdict}")
    print(json.dumps({"verdicts": verdicts}, sort_keys=True))
    return MISMATCH if verdicts.get("violation") else OK


def cmd_verify(args, ctx):
    if args.list:
        for name in sorted(REGISTRY):
            print(name)
        return OK
    if args.example:
        reports = [run(args.example)]
    else:
        reports = verify_all(include_heavy=args.heavy)
    failed = [r for r in reports if r["status"] != "pass"]
    for r in reports:
        print(f"{r['example']}: {r['status']} ({r['seconds']}s)")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(reports, fh, indent=1, sort_keys=True, default=str)
    return MISMATCH if failed else OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="agraded",
        description="Monomial ideals with the Hilbert function of a toric "
        "ideal: flip graphs, coherence, triangulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    matrix = argparse.ArgumentParser(add_help=False)
    matrix.add_argument("--matrix", required=True)
    ideal = argparse.ArgumentParser(add_help=False, parents=[matrix])
    ideal.add_argument("--ideal", required=True)

    def add(name, fn, parent=None, **kwargs):
        p = sub.add_parser(name, parents=[parent] if parent else [], **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("graver", cmd_graver, matrix, help="print the Graver basis")
    p.add_argument("--bound", type=int, default=None,
                   help="use the enumeration oracle up to this weight instead")

    p = add("toric-gb", cmd_toric_gb, matrix, help="print toric-ideal generators or a basis")
    p.add_argument("--weight", default=None, help="comma-separated weight vector")

    p = add("initial", cmd_initial, matrix, help="initial ideal for a weight vector")
    p.add_argument("--weight", required=True)

    add("check", cmd_check, ideal, help="flags of one ideal")
    add("neighbors", cmd_neighbors, ideal, help="all flips out of an ideal")
    add("coherent", cmd_coherent, ideal, help="coherence test with witness")

    p = add("enumerate", cmd_enumerate, matrix, help="enumerate the monomial ideals")
    p.add_argument("--mode", choices=("brute", "flip"), default="brute")
    p.add_argument("--guard", type=int, default=None,
                   help="exit 2 past this many BFS vertices (flip) or brute-force "
                   "K-polynomial tests, leaves and prefixes (brute)")
    p.add_argument("--list", action="store_true")

    p = add("flipgraph", cmd_flipgraph, matrix, help="explore the flip graph")
    p.add_argument("--start", default=None)
    p.add_argument("--dot", default=None)
    p.add_argument("--json", default=None)
    p.add_argument("--census", action="store_true",
                   help="cross-check against the brute-force enumeration")
    p.add_argument("--coherence", action="store_true")
    p.add_argument("--guard", type=int, default=None,
                   help="exit 2 past this many BFS vertices; with --census the "
                   "same number also bounds the brute-force K-polynomial tests")

    p = add("triangulations", cmd_triangulations, matrix,
            help="facet lists and flip transitions")
    p.add_argument("--graph", default=None, help="reuse an exported graph JSON")
    p.add_argument("--homogenize", action="store_true",
                   help="prepend a row of ones for the geometry")

    p = add("verify-paper", cmd_verify, help="recompute the known-answer catalogue")
    p.add_argument("--example", default=None)
    p.add_argument("--heavy", action="store_true",
                   help="include the large census examples")
    p.add_argument("--list", action="store_true")
    p.add_argument("--json", default=None)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        ctx = AGradedContext(load_matrix(args.matrix)) if "matrix" in args else None
        return args.fn(args, ctx)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT
    except GuardExceeded as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return BAD_INPUT
    except CertificateError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return MISMATCH


if __name__ == "__main__":
    sys.exit(main())
