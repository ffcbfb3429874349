"""Spans around the public entry point of each layer, installed from outside.

The tracer rebinds each layer function in every module namespace that binds
it, records one span per call (layer, parent span, start, end, flag) in flat
arrays, and restores the original bindings afterwards.  Self time is a span's
duration minus the durations of its direct children; calls run in one thread,
so children never overlap.
"""

import math
from array import array
from contextlib import contextmanager
from time import perf_counter

from agraded import binomials, flipgraph, grading, graver, ideals
from workloads import STAGES


# layer -> every (module or class, attribute) that binds its entry point
LAYERS = {
    "buchberger": [(binomials, "buchberger"), (graver, "buchberger")],
    "toric_ideal": [(binomials, "toric_ideal"), (graver, "toric_ideal")],
    "standard_monomial": [(ideals.AGradedContext, "standard_monomial")],
    "flip": [(ideals, "flip")],
    "wall_recovers": [(ideals, "wall_recovers_source")],
    "wall_initial": [(ideals, "wall_initial")],
    "neighbors": [(ideals, "neighbors"), (flipgraph, "neighbors")],
    "explore": [(flipgraph, "explore")],
    "kpoly": [(ideals, "k_polynomial")],
    "is_agraded": [(ideals, "is_agraded")],
    "enumerate": [(ideals, "brute_force_enumerate")],
    "lp": [(ideals, "lp_strict_feasible"), (grading, "lp_strict_feasible")],
    "is_coherent": [(flipgraph, "is_coherent")],
}


class Tracer:
    """In-memory spans for one traced pass.

    A span's flag is 0 if the call raised.  Otherwise it is 1, except for
    ``standard_monomial`` (1 on a first-seen ``(context, ideal, degree)``
    key, a cache miss), ``lp`` (1 if feasible) and ``is_agraded`` (1 if
    true).
    """

    def __init__(self):
        self.layers = list(LAYERS)
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.flag = bytearray()
        self.lp_rows = []
        self.basis_elements = 0
        self._seen = set()
        self._stack = []

    def _wrap(self, lid, fn):
        layer, parent, start, end, flags, stack = (
            self.layer, self.parent, self.start, self.end, self.flag, self._stack)
        seen, lp_rows = self._seen, self.lp_rows
        name = self.layers[lid]
        smono, lp, truth, bb = (name == "standard_monomial", name == "lp",
                                name == "is_agraded", name == "buchberger")

        def traced(*args, **kwargs):
            if smono:
                key = (id(args[0]), args[1], tuple(args[2]))
                miss = key not in seen
                seen.add(key)
            elif lp:
                lp_rows.append(len(args[0]))
            idx = len(start)
            layer.append(lid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            flags.append(0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if smono:
                flags[idx] = miss
            elif lp:
                flags[idx] = result is not None
            elif truth:
                flags[idx] = bool(result)
            else:
                flags[idx] = 1
            if bb:
                self.basis_elements += len(result.binomials) + len(result.monomials.gens)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every layer function for the duration of the block."""
        saved = []
        try:
            for lid, bindings in enumerate(LAYERS.values()):
                original = getattr(*bindings[0])
                wrapper = self._wrap(lid, original)
                for owner, attr in bindings:
                    if getattr(owner, attr) is not original:
                        raise RuntimeError(f"{owner.__name__}.{attr} is bound to another object")
                    saved.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- derived figures ------------------------------------------------------

    def summary(self):
        """Per-layer calls, busy time, self time, durations and flags."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        roots = 0.0
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
            else:
                roots += dur[i]
        per = {name: {"durs": [], "self": 0.0, "flags": 0, "under_toric": 0.0}
               for name in self.layers}
        toric = self.layers.index("toric_ideal")
        for i in range(n):
            rec = per[self.layers[self.layer[i]]]
            rec["durs"].append(dur[i])
            rec["self"] += dur[i] - child[i]
            rec["flags"] += self.flag[i]
            p = self.parent[i]
            if p >= 0 and self.layer[p] == toric:
                rec["under_toric"] += dur[i]
        miss_durs = [dur[i] for i in range(n)
                     if self.layers[self.layer[i]] == "standard_monomial" and self.flag[i]]
        return per, roots, miss_durs


def quantile(values, q):
    """Nearest-rank quantile of a sample; 0.0 for an empty one."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, stage_wall):
    """The per-layer metrics of one traced pass, as {name: (value, unit)}.

    ``stage_wall`` maps each stage of the traced pass to its wall time.
    """
    per, roots, miss_durs = tracer.summary()

    def calls(name):
        return len(per[name]["durs"])

    def busy(name):
        return sum(per[name]["durs"])

    bb = per["buchberger"]
    sm_calls = calls("standard_monomial")
    out = {
        "buchberger.calls": (calls("buchberger"), "count"),
        "buchberger.busy_s": (busy("buchberger"), "s"),
        "buchberger.saturation_busy_s": (bb["under_toric"], "s"),
        "buchberger.completion_busy_s": (busy("buchberger") - bb["under_toric"], "s"),
        "buchberger.basis_size": (tracer.basis_elements, "count"),
        "toric_ideal.self_s": (per["toric_ideal"]["self"], "s"),
        "standard_monomial.calls": (sm_calls, "count"),
        "standard_monomial.miss_ratio": (_ratio(len(miss_durs), sm_calls), "ratio"),
        "standard_monomial.busy_s": (busy("standard_monomial"), "s"),
        "standard_monomial.miss_p50_us": (quantile(miss_durs, 0.5) * 1e6, "us"),
        "standard_monomial.miss_p99_us": (quantile(miss_durs, 0.99) * 1e6, "us"),
        "flip.tried": (calls("flip"), "count"),
        "flip.accept_ratio": (_ratio(per["flip"]["flags"], calls("flip")), "ratio"),
        "wall_recovers.busy_s": (busy("wall_recovers"), "s"),
        "wall_initial.calls": (calls("wall_initial"), "count"),
        "wall_initial.busy_s": (busy("wall_initial"), "s"),
        "neighbors.calls": (calls("neighbors"), "count"),
        "neighbors.p50_ms": (quantile(per["neighbors"]["durs"], 0.5) * 1e3, "ms"),
        "neighbors.p99_ms": (quantile(per["neighbors"]["durs"], 0.99) * 1e3, "ms"),
        "neighbors.self_s": (per["neighbors"]["self"], "s"),
        "explore.self_s": (per["explore"]["self"], "s"),
        "kpoly.calls": (calls("kpoly"), "count"),
        "kpoly.busy_s": (busy("kpoly"), "s"),
        "is_agraded.calls": (calls("is_agraded"), "count"),
        "is_agraded.accept_ratio": (_ratio(per["is_agraded"]["flags"], calls("is_agraded")), "ratio"),
        "enumerate.self_s": (per["enumerate"]["self"], "s"),
        "lp.calls": (calls("lp"), "count"),
        "lp.busy_s": (busy("lp"), "s"),
        "lp.p50_ms": (quantile(per["lp"]["durs"], 0.5) * 1e3, "ms"),
        "lp.p99_ms": (quantile(per["lp"]["durs"], 0.99) * 1e3, "ms"),
        "lp.feasible_ratio": (_ratio(per["lp"]["flags"], calls("lp")), "ratio"),
        "lp.rows_mean": (_ratio(sum(tracer.lp_rows), len(tracer.lp_rows)), "count"),
        "is_coherent.self_s": (per["is_coherent"]["self"], "s"),
        "trace.coverage_ratio": (_ratio(roots, sum(stage_wall.values())), "ratio"),
    }
    for stage in STAGES:
        out[f"stage.{stage}_s"] = (stage_wall.get(stage, 0.0), "s")
    return out
