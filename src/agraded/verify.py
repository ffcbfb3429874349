"""Known-answer verification: recompute every catalogued example.

Each ``REGISTRY`` entry is a zero-argument function returning
``(expected, actual)``.  ``run`` times one entry and builds its report
{"example", "status", "expected", "actual", "seconds"}; a failed entry is
reported, not raised, and ``agraded verify-paper`` exits 4 on it.  Every entry
recomputes its answer from the matrices alone, so a passing run certifies
the whole pipeline end to end.
"""

import random
import time
from fractions import Fraction
from functools import partial

from .binomials import buchberger, canonical_pair, initial_ideal
from .errors import UnknownName
from .fixtures import as_pairs, expected, named_ideal, named_matrix
from .flipgraph import classify_labels, explore, with_coherence
from .grading import validate_grading
from .ideals import (
    AGradedContext,
    brute_force_enumerate,
    curve_binomial_families,
    curve_monomial_ideal,
    curve_parametric_family,
    curve_rows,
    flip,
    is_agraded,
    is_coherent,
    neighbors,
    special_ideals,
)
from .linalg import dot
from .monomials import minimalize, pack
from .triangulations import BISTELLAR, SAME_RADICAL, edge_transition

CURVE_WEIGHT = (1, 1, 2, 0, 2)
CURVE_SEED, CURVE_TRIALS = 7, 10
CENSUS = "census-123789"

_CONTEXTS = {}


def _context(matrix):
    ctx = _CONTEXTS.get(matrix)
    if ctx is None:
        ctx = _CONTEXTS[matrix] = AGradedContext(matrix)
    return ctx


def _complete_graph(matrix_name):
    """(context, brute-force ideals, flip graph explored from all of them)."""
    ctx = _context(named_matrix(matrix_name))
    ideals = brute_force_enumerate(ctx)
    return ctx, ideals, explore(ctx, start=ideals)


def check_labels(name):
    """The nesting UGB <= flip labels <= Graver basis, as the record states it."""
    rec = expected(name)
    ctx, ideals, graph = _complete_graph(rec["matrix"])
    ugb, flips, graver = map(set, classify_labels(graph, ctx, expected_total=len(ideals)))
    derive = {
        "graver": lambda: sorted(graver),
        "flips": lambda: sorted(flips),
        "flips_minus_ugb": lambda: sorted(flips - ugb),
        "graver_minus_flips": lambda: sorted(graver - flips),
        "ugb_equals_flips": lambda: ugb == flips,
        "all_three_equal": lambda: ugb == flips == graver,
    }
    keys = [key for key in rec if key in derive]
    exp = {key: rec[key] if isinstance(rec[key], bool) else sorted(as_pairs(rec[key]))
           for key in keys}
    return exp, {key: derive[key]() for key in keys}


def check_veronese():
    rec = expected("veronese-29")
    ctx, ideals, graph = _complete_graph(rec["matrix"])
    graph = with_coherence(graph, ctx)
    meet, pair_ideal = special_ideals(ctx, ideals, expected_count=rec["count"])
    special = canonical_pair(*map(tuple, rec["special_pair"]))
    listed = [tuple(g) for g in rec["pair_products"]]
    actual = {
        "count": len(ideals),
        "bfs_count": len(graph.vertices),
        "all_coherent": all(graph.coherent),
        "pair_ideal": pair_ideal == minimalize(listed),
        "pair_products": sorted(tuple(x + y for x, y in zip(u, v)) for u, v in ctx.graver),
        "special_in_graver_not_flips": special in set(ctx.graver.elements)
        and special not in set(graph.labels()),
        "special_sides_outside_pair_ideal": not pair_ideal.contains(special[0])
        and not pair_ideal.contains(special[1]),
    }
    exp = {
        "count": rec["count"],
        "bfs_count": rec["count"],
        "all_coherent": True,
        "pair_ideal": True,
        "pair_products": sorted(listed),
        "special_in_graver_not_flips": True,
        "special_sides_outside_pair_ideal": True,
    }
    return exp, actual


def check_curve_initial(j):
    matrix = validate_grading(curve_rows(j))
    return curve_monomial_ideal(j), initial_ideal(matrix, CURVE_WEIGHT)


def check_curve_flips(j):
    ctx = _context(validate_grading(curve_rows(j)))
    ideal = curve_monomial_ideal(j)
    fams = curve_binomial_families(j)
    moves = neighbors(ideal, ctx)
    actual = {
        "count": len(moves),
        "labels": sorted(m.label for m in moves),
        "agraded": is_agraded(ideal, ctx),
    }
    exp = {
        "count": 2 * j + 4,
        "labels": sorted(b.pair() for b in fams["q"] + fams["r"] + fams["s"]),
        "agraded": True,
    }
    return exp, actual


def check_curve_family(j):
    """Random rational scalar choices all marked toward the same initial ideal."""
    rng = random.Random(CURVE_SEED)
    matrix = validate_grading(curve_rows(j))
    target = curve_monomial_ideal(j)
    outcomes = []
    for _ in range(CURVE_TRIALS):
        mus = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(j)]
        gb = buchberger(curve_parametric_family(j, mus), CURVE_WEIGHT, matrix)
        outcomes.append(gb.lead_ideal() == target)
    return [True] * CURVE_TRIALS, outcomes


def check_deficient_ideal():
    rec = expected("deficient-20")
    matrix, ideal = named_ideal(rec["ideal"])
    ctx = _context(matrix)
    actual = {
        "agraded": is_agraded(ideal, ctx),
        "labels": sorted(m.label for m in neighbors(ideal, ctx)),
    }
    return {"agraded": True, "labels": sorted(as_pairs(rec["flips"]))}, actual


def check_census_bfs():
    rec = expected(CENSUS)
    graph = explore(_context(named_matrix(rec["matrix"])))
    exp = {"count": rec["count"], "components": 1}
    return exp, {"count": len(graph.vertices), "components": graph.components()}


def check_census_brute():
    rec = expected(CENSUS)
    return rec["count"], len(brute_force_enumerate(_context(named_matrix(rec["matrix"]))))


def check_extended(name):
    rec = expected(name)
    matrix = named_matrix(rec["matrix"])
    ctx = _context(matrix)
    _, base = named_ideal(rec["base_ideal"])
    n6 = base.n
    pad = matrix.n - n6
    gens = [g + (0,) * pad for g in base.gens]
    gens += [
        tuple(1 if i == n6 + k else 0 for i in range(matrix.n))
        for k in range(pad)
    ]
    ideal = minimalize(gens)
    actual = {"flip_count": len(neighbors(ideal, ctx)), "agraded": is_agraded(ideal, ctx)}
    return {"flip_count": rec["flip_count"], "agraded": True}, actual


def check_corank4():
    rec = expected("corank4-deficiency")
    matrix, ideal = named_ideal(rec["ideal"])
    ctx = _context(matrix)
    moves = neighbors(ideal, ctx)
    actual = {
        "agraded": is_agraded(ideal, ctx),
        "labels": sorted(m.label for m in moves),
        "targets": sorted(m.target for m in moves),
        "deficient": len(moves) < rec["valency_bound"],
    }
    exp = {
        "agraded": True,
        "labels": sorted(as_pairs(rec["labels"])),
        "targets": sorted(named_ideal(nm)[1] for nm in rec["neighbors"]),
        "deficient": True,
    }
    return exp, actual


def check_coherence_mask():
    rec = expected("coherence-mask")
    matrix, ideal = named_ideal(rec["ideal"])
    ctx = _context(matrix)
    moves = neighbors(ideal, ctx)
    w = tuple(rec["mask_weight"])
    actual = {
        "labels": sorted(m.label for m in moves),
        "coherent": is_coherent(ideal, ctx)[0],
        "positively_marked": [dot(w, m.a) > dot(w, m.b) for m in moves],
    }
    labels = sorted(as_pairs(rec["flips"]))
    exp = {
        "labels": labels,
        "coherent": rec["coherent"],
        "positively_marked": [True] * len(labels),
    }
    return exp, actual


def check_transitions():
    """Every flip edge of the small graphs reaches its end and maps to the Baues graph cleanly."""
    bad = 0
    total = 0
    for mname in ("g12", "g137", "veronese6", "g36-8-10-15"):
        ctx, _, graph = _complete_graph(mname)
        for i, j, label in graph.edges:
            move = flip(graph.vertices[i], tuple(map(pack, label)), ctx)
            total += 1
            arrives = move.target == graph.vertices[j]
            if not arrives or edge_transition(move, ctx) not in (SAME_RADICAL, BISTELLAR):
                bad += 1
    return {"violations": 0, "nonempty": True}, {"violations": bad, "nonempty": total > 0}


REGISTRY = {
    "graver-137": partial(check_labels, "graver-137"),
    "graver-134": partial(check_labels, "graver-134"),
    "graver-345-13-14": partial(check_labels, "graver-345-13-14"),
    "veronese-29": check_veronese,
    **{f"curve-initial-j{j}": partial(check_curve_initial, j) for j in (1, 2, 3)},
    **{f"curve-flips-j{j}": partial(check_curve_flips, j) for j in (1, 2, 3)},
    **{f"curve-family-j{j}": partial(check_curve_family, j) for j in (1, 2)},
    "deficient-20": check_deficient_ideal,
    "extended-n7": partial(check_extended, "extended-n7"),
    "extended-n8": partial(check_extended, "extended-n8"),
    "corank4-deficiency": check_corank4,
    "coherence-mask": check_coherence_mask,
    "triangulation-transitions": check_transitions,
    f"{CENSUS}-bfs": check_census_bfs,
    f"{CENSUS}-brute": check_census_brute,
}

HEAVY = {f"{CENSUS}-bfs", f"{CENSUS}-brute"}


def run(example):
    """Recompute one catalogued example and report it; UnknownName if it is not listed."""
    check = REGISTRY.get(example)
    if check is None:
        raise UnknownName(f"unknown example {example!r}; known: {sorted(REGISTRY)}")
    start = time.perf_counter()
    exp, actual = check()
    return {
        "example": example,
        "status": "pass" if exp == actual else "fail",
        "expected": exp,
        "actual": actual,
        "seconds": round(time.perf_counter() - start, 2),
    }


def verify_all(include_heavy=True):
    """Reports of every catalogued example, in name order; failures are reported, not raised."""
    return [run(name) for name in sorted(REGISTRY) if include_heavy or name not in HEAVY]
