"""Known-answer verification: recompute every catalogued example.

Each check returns a report dict {"example", "status", "expected",
"actual"}; a mismatch raises FixtureMismatch carrying the same report.
The registry deliberately recomputes everything from the matrices alone,
so a passing run certifies the whole pipeline end to end.
"""

import time

from .binomials import canonical_pair
from .errors import FixtureMismatch, UnknownName
from .fixtures import as_pairs, expected, named_ideal, named_matrix
from .flipgraph import classify_labels, explore, with_coherence
from .ideals import (
    AGradedContext,
    brute_force_enumerate,
    curve_binomial_families,
    curve_monomial_ideal,
    curve_parametric_family,
    curve_rows,
    is_agraded,
    is_coherent,
    neighbors,
    special_ideals,
)
from .binomials import buchberger, initial_ideal
from .grading import validate_grading
from .linalg import dot
from .monomials import TermOrder, minimalize
from .triangulations import BISTELLAR, SAME_RADICAL, edge_transition


def _report(example, expected_value, actual_value):
    status = "pass" if expected_value == actual_value else "fail"
    report = {
        "example": example,
        "status": status,
        "expected": expected_value,
        "actual": actual_value,
    }
    if status == "fail":
        raise FixtureMismatch(report)
    return report


_CONTEXTS = {}


def _context(matrix):
    ctx = _CONTEXTS.get(matrix)
    if ctx is None:
        ctx = _CONTEXTS[matrix] = AGradedContext(matrix)
    return ctx


def _classification(name):
    rec = expected(name)
    ctx = _context(named_matrix(rec["matrix"]))
    ideals = brute_force_enumerate(ctx)
    graph = with_coherence(explore(ctx, start=ideals), ctx)
    ugb, flips, graver = classify_labels(graph, ctx, expected_total=len(ideals))
    return rec, set(ugb), set(flips), set(graver)


def check_graver_137(name="graver-137"):
    rec, ugb, flips, graver = _classification(name)
    actual = {
        "graver": sorted(graver),
        "flips": sorted(flips),
        "ugb_equals_flips": ugb == flips,
    }
    exp = {
        "graver": sorted(as_pairs(rec["graver"])),
        "flips": sorted(as_pairs(rec["flips"])),
        "ugb_equals_flips": rec["ugb_equals_flips"],
    }
    return _report(name, exp, actual)


def check_graver_134(name="graver-134"):
    rec, ugb, flips, graver = _classification(name)
    actual = {
        "graver": sorted(graver),
        "all_three_equal": ugb == flips == graver,
    }
    exp = {
        "graver": sorted(as_pairs(rec["graver"])),
        "all_three_equal": rec["all_three_equal"],
    }
    return _report(name, exp, actual)


def check_graver_345(name="graver-345-13-14"):
    rec, ugb, flips, graver = _classification(name)
    actual = {
        "flips_minus_ugb": sorted(flips - ugb),
        "graver_minus_flips": sorted(graver - flips),
    }
    exp = {
        "flips_minus_ugb": sorted(as_pairs(rec["flips_minus_ugb"])),
        "graver_minus_flips": sorted(as_pairs(rec["graver_minus_flips"])),
    }
    return _report(name, exp, actual)


def check_veronese(name="veronese-29"):
    rec = expected(name)
    ctx = _context(named_matrix(rec["matrix"]))
    ideals = brute_force_enumerate(ctx)
    graph = with_coherence(explore(ctx, start=ideals), ctx)
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
    return _report(name, exp, actual)


def check_curve_initial(j):
    matrix = validate_grading(curve_rows(j))
    actual = initial_ideal(matrix, (1, 1, 2, 0, 2))
    return _report(f"curve-initial-j{j}", curve_monomial_ideal(j), actual)


def check_curve_flips(j):
    matrix = validate_grading(curve_rows(j))
    ctx = _context(matrix)
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
        "labels": sorted(
            b.pair() for b in fams["q"] + fams["r"] + fams["s"]
        ),
        "agraded": True,
    }
    return _report(f"curve-flips-j{j}", exp, actual)


def check_curve_family(j, seed=7, trials=10):
    """Random rational scalar choices all marked toward the same initial ideal."""
    import random
    from fractions import Fraction

    rng = random.Random(seed)
    matrix = validate_grading(curve_rows(j))
    order = TermOrder((1, 1, 2, 0, 2))
    target = curve_monomial_ideal(j)
    outcomes = []
    for _ in range(trials):
        mus = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(j)]
        gens = curve_parametric_family(j, mus)
        gb = buchberger(gens, order, matrix)
        outcomes.append(gb.lead_ideal() == target)
    return _report(f"curve-family-j{j}", [True] * trials, outcomes)


def check_deficient_ideal(name="deficient-20"):
    rec = expected(name)
    matrix, ideal = named_ideal(rec["ideal"])
    ctx = _context(matrix)
    moves = neighbors(ideal, ctx)
    actual = {
        "agraded": is_agraded(ideal, ctx),
        "labels": sorted(m.label for m in moves),
    }
    exp = {"agraded": True, "labels": sorted(as_pairs(rec["flips"]))}
    return _report(name, exp, actual)


def check_census_123789(name="census-123789", mode="bfs"):
    rec = expected(name)
    ctx = _context(named_matrix(rec["matrix"]))
    if mode == "bfs":
        graph = explore(ctx)
        actual = {"count": len(graph.vertices), "components": graph.components()}
        exp = {"count": rec["count"], "components": 1}
        return _report(f"{name}-bfs", exp, actual)
    ideals = brute_force_enumerate(ctx)
    return _report(f"{name}-brute", rec["count"], len(ideals))


def check_extended(name):
    rec = expected(name)
    matrix = named_matrix(rec["matrix"])
    ctx = _context(matrix)
    _, base = named_ideal(rec["base_ideal"])
    n6 = len(base.gens[0])
    pad = matrix.n - n6
    gens = [g + (0,) * pad for g in base.gens]
    gens += [
        tuple(1 if i == n6 + k else 0 for i in range(matrix.n))
        for k in range(pad)
    ]
    ideal = minimalize(gens)
    moves = neighbors(ideal, ctx)
    actual = {"flip_count": len(moves), "agraded": is_agraded(ideal, ctx)}
    exp = {"flip_count": rec["flip_count"], "agraded": True}
    return _report(name, exp, actual)


def check_corank4(name="corank4-deficiency"):
    rec = expected(name)
    matrix, ideal = named_ideal(rec["ideal"])
    ctx = _context(matrix)
    moves = neighbors(ideal, ctx)
    neighbor_ideals = sorted(m.target for m in moves)
    listed = sorted(named_ideal(nm)[1] for nm in rec["neighbors"])
    actual = {
        "agraded": is_agraded(ideal, ctx),
        "labels": sorted(m.label for m in moves),
        "targets": neighbor_ideals,
        "deficient": len(moves) < rec["valency_bound"],
    }
    exp = {
        "agraded": True,
        "labels": sorted(as_pairs(rec["labels"])),
        "targets": listed,
        "deficient": True,
    }
    return _report(name, exp, actual)


def check_coherence_mask(name="coherence-mask"):
    rec = expected(name)
    matrix, ideal = named_ideal(rec["ideal"])
    ctx = _context(matrix)
    moves = neighbors(ideal, ctx)
    w = tuple(rec["mask_weight"])
    marks = [dot(w, m.a) > dot(w, m.b) for m in moves]
    coherent, _ = is_coherent(ideal, ctx)
    actual = {
        "labels": sorted(m.label for m in moves),
        "coherent": coherent,
        "positively_marked": marks,
    }
    exp = {
        "labels": sorted(as_pairs(rec["flips"])),
        "coherent": rec["coherent"],
        "positively_marked": [True] * len(as_pairs(rec["flips"])),
    }
    return _report(name, exp, actual)


def check_transitions(name="triangulation-transitions"):
    """Every flip edge of the small graphs maps to the Baues graph cleanly."""
    from .ideals import flip

    bad = 0
    total = 0
    for mname in ("g12", "g137", "veronese6", "g36-8-10-15"):
        ctx = _context(named_matrix(mname))
        ideals = brute_force_enumerate(ctx)
        graph = explore(ctx, start=ideals)
        for i, j, label in graph.edges:
            move = flip(graph.vertices[i], label, ctx)
            verdict = edge_transition(move, ctx)
            total += 1
            if verdict not in (SAME_RADICAL, BISTELLAR):
                bad += 1
    return _report(name, {"violations": 0, "nonempty": True},
                   {"violations": bad, "nonempty": total > 0})


REGISTRY = {
    "graver-137": check_graver_137,
    "graver-134": check_graver_134,
    "graver-345-13-14": check_graver_345,
    "veronese-29": check_veronese,
    "curve-initial-j1": lambda: check_curve_initial(1),
    "curve-initial-j2": lambda: check_curve_initial(2),
    "curve-initial-j3": lambda: check_curve_initial(3),
    "curve-flips-j1": lambda: check_curve_flips(1),
    "curve-flips-j2": lambda: check_curve_flips(2),
    "curve-flips-j3": lambda: check_curve_flips(3),
    "curve-family-j1": lambda: check_curve_family(1),
    "curve-family-j2": lambda: check_curve_family(2),
    "deficient-20": check_deficient_ideal,
    "extended-n7": lambda: check_extended("extended-n7"),
    "extended-n8": lambda: check_extended("extended-n8"),
    "corank4-deficiency": check_corank4,
    "coherence-mask": check_coherence_mask,
    "triangulation-transitions": check_transitions,
    "census-123789-bfs": lambda: check_census_123789(mode="bfs"),
    "census-123789-brute": lambda: check_census_123789(mode="brute"),
}

HEAVY = {"census-123789-bfs", "census-123789-brute"}


def verify_paper(example):
    """Run one catalogued example; raises FixtureMismatch on failure."""
    fn = REGISTRY.get(example)
    if fn is None:
        raise UnknownName(f"unknown example {example!r}; known: {sorted(REGISTRY)}")
    return fn()


def verify_all(include_heavy=True):
    reports = []
    for name in sorted(REGISTRY):
        if not include_heavy and name in HEAVY:
            continue
        start = time.time()
        try:
            report = verify_paper(name)
        except FixtureMismatch as exc:
            report = exc.report
        report["seconds"] = round(time.time() - start, 2)
        reports.append(report)
    return reports
