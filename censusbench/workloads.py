"""Workloads of the census benchmark: seeded inputs, timed stages, known answers.

One pass runs the stages a user runs (``agraded graver``, ``agraded
flipgraph --coherence --census``) from cold caches, because a CLI run pays
the Graver and toric-saturation cost every time.  The gate compares every
stage output with answers recorded from the reference implementation.
"""

import dataclasses
import gc
import hashlib
import json
import random
import traceback
from time import perf_counter

from agraded import binomials, fixtures, flipgraph, grading, graver, ideals, verify


@dataclasses.dataclass(frozen=True)
class Workload:
    stages: tuple    # subset of STAGES, in pipeline order
    matrices: tuple  # fixture names from agraded/data/matrices.json


STAGES = ("graver", "explore", "coherence", "enumerate")

WORKLOADS = {
    "graver": Workload(("graver",), ("g36-8-10-15", "g345-13-14", "g123789")),
    "flips-g123789": Workload(("explore",), ("g123789",)),
    "census-g345": Workload(STAGES, ("g345-13-14",)),
}

# captured before any tracing wrapper is installed
_CACHED = (
    fixtures._load, fixtures.named_matrix, fixtures.named_ideal,
    grading.kernel_lattice, binomials.toric_ideal, graver.graver_basis,
)


def cold_start():
    """Empty every process-wide cache of the package."""
    for fn in _CACHED:
        fn.cache_clear()
    verify._CONTEXTS.clear()
    gc.collect()


@dataclasses.dataclass(frozen=True)
class Plan:
    """The inputs one seed selects: matrix order and explore start weights."""

    workload: Workload
    order: tuple
    weights: dict   # matrix name -> explore start weight; None means the reference ideal


def make_plan(workload, seed):
    """Seed 0 keeps the fixture order and explores from the reference ideal.

    Other seeds shuffle the (independent, cold-cache) Graver runs and start
    the BFS at the initial ideal of a random positive weight.  Columns are
    never permuted: Graver time depends strongly on the column order.
    """
    rng = random.Random(seed)
    order = list(workload.matrices)
    if seed:
        rng.shuffle(order)
    weights = {}
    if "explore" in workload.stages:
        for name in order:
            n = fixtures.named_matrix(name).n
            weights[name] = None if seed == 0 else tuple(rng.randint(1, 1000) for _ in range(n))
    return Plan(workload, tuple(order), weights)


class Pass:
    """Stage outputs and times of one run of a plan, read from ``clock``."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.times = {}
        self.outputs = {}

    def op(self, stage, key, fn):
        """Run one timed operation; a raised exception becomes its output."""
        t0 = self.clock()
        try:
            self.outputs[key] = fn()
        except Exception as exc:  # the gate counts it as a failed operation
            traceback.print_exc()
            self.outputs[key] = exc
        finally:
            self.times[stage] = self.times.get(stage, 0.0) + self.clock() - t0

    @property
    def total(self):
        return sum(self.times.values())


def run_pass(plan, clock=perf_counter):
    """One cold-cache pass over the plan's matrices and stages."""
    cold_start()
    run = Pass(clock)
    stages = plan.workload.stages
    for name in plan.order:
        run.op("load", f"load:{name}", lambda: _load(name))
        ctx = run.outputs[f"load:{name}"]
        if "graver" in stages:
            run.op("graver", f"graver:{name}", lambda: ctx.graver)
        if "explore" in stages:
            weight = plan.weights[name]
            run.op("explore", f"explore:{name}", lambda: _explore(ctx, weight))
        if "coherence" in stages:
            run.op("coherence", f"coherence:{name}",
                   lambda: flipgraph.with_coherence(run.outputs[f"explore:{name}"][0], ctx))
        if "enumerate" in stages:
            run.op("enumerate", f"enumerate:{name}",
                   lambda: _enumerate(run.outputs[f"coherence:{name}"], ctx))
    return run


def _load(name):
    return ideals.AGradedContext(fixtures.named_matrix(name))


def _explore(ctx, weight):
    start = None if weight is None else binomials.initial_ideal(ctx.A, weight)
    graph = flipgraph.explore(ctx, start=start)
    return graph, start


def _enumerate(graph, ctx):
    brute = ideals.brute_force_enumerate(ctx)
    report = flipgraph.census(graph, ctx, coherence=True, brute_count=len(brute))
    return brute, report


# -- known-answer gate --------------------------------------------------------

def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def graver_digest(basis):
    return sha256(json.dumps([[list(u), list(v)] for u, v in basis.elements]))


def graph_digest(graph, reference_start):
    """sha256 of to_json with the start renumbered to the reference ideal.

    The vertex and edge sets do not depend on the start ideal; only the
    ``start`` field does.
    """
    return sha256(flipgraph.to_json(dataclasses.replace(graph, start=reference_start)))


def _check_graver(basis, ans):
    yield "graver size", len(basis), ans["graver_size"]
    yield "graver digest", graver_digest(basis), ans["graver_sha256"]


def _check_explore(out, ans, ctx):
    graph, start = out
    expected_start = ctx.reference_ideal if start is None else start
    yield "vertices", len(graph.vertices), ans["vertices"]
    yield "edges", len(graph.edges), ans["edges"]
    yield "components", graph.components(), 1
    yield "start vertex", graph.vertices[graph.start] == expected_start, True
    yield "explore digest", graph_digest(graph, ans["reference_start"]), ans["explore_sha256"]


def _check_coherence(graph, ans):
    yield "coherent vertices", sum(graph.coherent), ans["coherent"]
    yield "coherence digest", graph_digest(graph, ans["reference_start"]), ans["coherence_sha256"]


def _check_enumerate(out, ans, graph):
    brute, report = out
    yield "brute-force count", len(brute), ans["vertices"]
    yield "brute force equals BFS", set(brute) == set(graph.vertices), True
    yield "census connected", report["connected"], True
    yield "census coherent", report["coherent_vertices"], ans["coherent"]


def gate(run, answers):
    """(attempted, failed, messages) over the stage operations of one pass.

    An operation fails if it raised or if any of its outputs differs from
    the recorded answer; ``messages`` holds one line per failed check.
    """
    attempted = failed = 0
    messages = []
    for key, out in run.outputs.items():
        stage, name = key.split(":", 1)
        if stage == "load":
            continue
        attempted += 1
        if isinstance(out, Exception):
            bad = [f"raised {type(out).__name__}: {out}"]
        else:
            try:
                bad = [f"{what} is {got!r}, expected {want!r}"
                       for what, got, want in _checks(run, stage, name, out, answers[name])
                       if got != want]
            except Exception as exc:  # a malformed output fails its operation
                bad = [f"check raised {type(exc).__name__}: {exc}"]
        failed += bool(bad)
        messages.extend(f"{key}: {msg}" for msg in bad)
    return attempted, failed, messages


def _checks(run, stage, name, out, ans):
    if stage == "graver":
        return _check_graver(out, ans)
    if stage == "explore":
        return _check_explore(out, ans, run.outputs[f"load:{name}"])
    if stage == "coherence":
        return _check_coherence(out, ans)
    return _check_enumerate(out, ans, run.outputs[f"explore:{name}"][0])
