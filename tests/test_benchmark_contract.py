"""What the census benchmark binds in the package, checked in a few seconds.

``censusbench/`` works on the package from outside: the tracer rebinds the
entry point of each layer, ``workloads.cold_start`` empties the package's
caches, and the explore workloads start from ``binomials.initial_ideal``
at seeded weights.  A renamed function, a changed signature or a cache
that is no longer one breaks the benchmark; this test shows it in the
tier-1 suite, where ``censusbench/selftest.py`` takes minutes.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "censusbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402

from agraded import AGradedContext, binomials, grading, is_agraded  # noqa: E402
from agraded.fixtures import named_matrix  # noqa: E402


def bindings():
    """Every (owner, attribute) the tracer rebinds, with what it is bound to now."""
    return {(owner, attr): getattr(owner, attr)
            for pairs in tracer.LAYERS.values() for owner, attr in pairs}


def test_a_traced_cold_start_from_a_seeded_weight_restores_every_binding():
    before = bindings()
    trace = tracer.Tracer()
    with trace.installed():
        assert all(getattr(owner, attr) is not fn for (owner, attr), fn in before.items())
        workloads.cold_start()
        assert grading.kernel_lattice.cache_info().currsize == 0
        weight = workloads.make_plan(workloads.WORKLOADS["flips-g123789"], 1).weights["g123789"]
        start = binomials.initial_ideal(named_matrix("g123789"), weight)
        assert grading.kernel_lattice.cache_info().currsize == 1
    assert bindings() == before
    per, _, _ = trace.summary()
    # the toric saturation and the completion under the weight
    assert len(per["toric_ideal"]["durs"]) == 1 and len(per["buchberger"]["durs"]) >= 2
    assert trace.basis_elements > 0
    assert is_agraded(start, AGradedContext(named_matrix("g123789")))


def test_neighbors_reaches_flip_through_the_module_once_per_untested_candidate(monkeypatch):
    """``flip.tried`` counts the calls of ``ideals.flip`` that ``neighbors`` makes.

    The tracer rebinds ``ideals.flip``, so ``neighbors`` must call it through
    the module namespace, once per candidate that no reverse move serves,
    with the pair as two packed integers, and a rejected candidate must
    still raise ``NotFlippable`` there.  Reverse moves are keyed by their
    packed generator.
    """
    from agraded import FlipMove, NotFlippable, ideals

    ctx = AGradedContext(named_matrix("g36-8-10-15"))
    source = ctx.reference_ideal
    move = ideals.neighbors(source, ctx)[0]
    target = move.target
    reverse = {move.pb: FlipMove(target, move.pb, move.pa, source)}
    expected = ideals.neighbors(target, ctx)
    calls, rejected = [], []
    flip = ideals.flip

    def counted(ideal, pair, context):
        calls.append(pair)
        try:
            return flip(ideal, pair, context)
        except NotFlippable:
            rejected.append(pair)
            raise

    monkeypatch.setattr(ideals, "flip", counted)
    assert ideals.neighbors(target, ctx, reverse) == expected
    assert len(calls) == len(target.gens) - 1 and move.pb not in {a for a, _ in calls}
    assert all(type(pa) is int and type(pb) is int for pa, pb in calls)
    assert rejected
