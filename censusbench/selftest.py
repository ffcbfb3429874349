"""Self-tests of the census benchmark.

Run from the root of a checkout (about three minutes on a 2-core host):

    python3 censusbench/selftest.py

They check that the known-answer gate rejects corrupted answers and raised
operations, that every traced layer records work on the workload where it
should, that the layer spans cover the traced stages, that the tracing
wrappers are removed afterwards, that the host clock scales time and
restores the signal handler, and that every metric name is well formed
and matches BENCHMARK.json.
"""

import contextlib
import dataclasses
import io
import json
import re
import signal
import sys
import unittest
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import hostclock  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
ANSWERS = json.loads((HERE / "answers.json").read_text(encoding="utf-8"))


def bench(*args):
    """Run the benchmark in-process; return its final JSON object."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(args))
    if code != 0:
        raise AssertionError(f"benchmark exited with {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def values(result):
    return {name: rec["value"] for name, rec in result["metrics"].items()}


class GateTest(unittest.TestCase):
    """The gate on a small full census (A = 3 6 8 10 15, about 4 s a pass)."""

    @classmethod
    def setUpClass(cls):
        small = workloads.Workload(workloads.STAGES, ("g36-8-10-15",))
        cls.runs = [workloads.run_pass(workloads.make_plan(small, seed)) for seed in (0, 1)]

    def test_recorded_answers_pass_for_two_seeds(self):
        for run_ in self.runs:
            self.assertEqual(workloads.gate(run_, ANSWERS), (4, 0, []))

    def test_each_corrupted_answer_fails(self):
        recorded = ANSWERS["g36-8-10-15"]
        for key, value in recorded.items():
            wrong = value + 1 if isinstance(value, int) else "0" * len(value)
            answers = dict(ANSWERS, **{"g36-8-10-15": dict(recorded, **{key: wrong})})
            for run_ in self.runs:
                attempted, failed, messages = workloads.gate(run_, answers)
                self.assertEqual(attempted, 4)
                self.assertGreaterEqual(failed, 1, key)
                self.assertTrue(messages, key)

    def test_raised_operation_fails(self):
        broken = workloads.Pass()
        broken.outputs = dict(self.runs[0].outputs)
        broken.outputs["coherence:g36-8-10-15"] = RuntimeError("boom")
        self.assertEqual(workloads.gate(broken, ANSWERS)[:2], (4, 1))

    def test_wrong_graph_fails(self):
        broken = workloads.Pass()
        broken.outputs = dict(self.runs[0].outputs)
        graph, start = broken.outputs["explore:g36-8-10-15"]
        broken.outputs["explore:g36-8-10-15"] = (
            dataclasses.replace(graph, edges=graph.edges[:-1]), start)
        self.assertEqual(workloads.gate(broken, ANSWERS)[:2], (4, 1))


# layer counts that must be non-zero (or zero) on each workload
MUST_WORK = {
    "graver": ["buchberger.calls", "buchberger.saturation_busy_s", "stage.graver_s"],
    "flips-g123789": [
        "standard_monomial.calls", "flip.tried", "wall_recovers.busy_s", "wall_initial.calls",
        "neighbors.calls", "explore.self_s", "buchberger.calls", "stage.explore_s",
    ],
    "census-g345": [
        "buchberger.calls", "standard_monomial.calls", "flip.tried", "wall_initial.calls",
        "neighbors.calls", "kpoly.calls", "is_agraded.calls", "enumerate.self_s",
        "lp.calls", "is_coherent.self_s", "stage.graver_s", "stage.explore_s",
        "stage.coherence_s", "stage.enumerate_s",
    ],
}
MUST_IDLE = {
    "graver": ["standard_monomial.calls", "flip.tried", "neighbors.calls", "kpoly.calls"],
    "flips-g123789": ["kpoly.calls", "is_agraded.calls", "enumerate.self_s",
                      "is_coherent.self_s", "stage.graver_s"],
    "census-g345": [],
}
VERTICES = {"flips-g123789": 2910, "census-g345": 1479}


class TracedRunTest(unittest.TestCase):
    def test_layers_work_where_expected(self):
        originals = {(owner, attr): getattr(owner, attr)
                     for bindings in tracer.LAYERS.values() for owner, attr in bindings}
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                result = bench("--workload", name, "--seed", "1", "--seconds", "0", "--trace", "1")
                self.assertTrue(result["correct"])
                got = values(result)
                self.assertEqual(set(got), {m["name"] for m in SPEC["per_layer"]})
                for metric in MUST_WORK[name]:
                    self.assertGreater(got[metric], 0, metric)
                for metric in MUST_IDLE[name]:
                    self.assertEqual(got[metric], 0, metric)
                if name in VERTICES:
                    self.assertEqual(got["neighbors.calls"], VERTICES[name])
                self.assertAlmostEqual(got["trace.coverage_ratio"], 1.0, delta=0.05)
        for (owner, attr), fn in originals.items():
            self.assertIs(getattr(owner, attr), fn, f"{attr} still wrapped")


class HostClockTest(unittest.TestCase):
    def test_scales_wall_time_and_restores_signal(self):
        before = signal.getsignal(signal.SIGALRM)
        with hostclock.HostClock() as clock:
            t0, w0 = clock.now(), perf_counter()
            while perf_counter() - w0 < 0.3:
                pass
            scaled, wall = clock.now() - t0, perf_counter() - w0
        self.assertGreater(len(clock.samples), 5)
        expected = wall * hostclock.REFERENCE_S / clock.median_sample()
        self.assertAlmostEqual(scaled / expected, 1.0, delta=0.5)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class NamesTest(unittest.TestCase):
    def test_spec_names(self):
        names = [w["name"] for w in SPEC["workloads"]]
        metrics = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        for name in names + metrics:
            self.assertIsNotNone(NAME.fullmatch(name), name)
        self.assertEqual(len(set(metrics)), len(metrics))
        self.assertEqual(set(names), set(workloads.WORKLOADS))

    def test_end_to_end_names_match_output(self):
        result = bench("--workload", "graver", "--seed", "2", "--seconds", "0", "--trace", "0")
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), {m["name"] for m in SPEC["end_to_end"]})
        for name, rec in result["metrics"].items():
            self.assertIsNotNone(NAME.fullmatch(name), name)
            self.assertGreater(rec["value"], 0, name)


if __name__ == "__main__":
    unittest.main()
