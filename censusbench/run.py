"""Census benchmark for agraded: one workload from cold caches, checked against known answers.

Run from the root of a checkout:

    python3 censusbench/run.py --workload census-g345 --seed 0 --seconds 30 --trace 0

Workloads are defined in workloads.py and explained in NOTES.md.  With
``--trace 0`` the workload runs in passes for ``--seconds`` (at least one
pass; another starts only if it is expected to end in time) and the
end-to-end metrics are reported; their times are read from a HostClock
(hostclock.py), so they are seconds of a reference-speed host.  With
``--trace 1`` one untraced pass is followed by one traced pass, and the
per-layer metrics of the traced pass are reported in wall seconds.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostclock import HostClock, reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 21


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_calibration(rounds=3):
    """Median wall time of 100 calls of the host clock's reference loop."""
    samples = []
    for _ in range(rounds):
        t0 = perf_counter()
        for _ in range(100):
            reference()
        samples.append(perf_counter() - t0)
    return statistics.median(samples)


def measure_setup(names):
    """Scaled times of fresh interpreters that import agraded and build the contexts.

    Each sample covers interpreter start, ``import agraded``, loading and
    validating every matrix of the workload, and constructing its
    AGradedContext.  The child runs its own HostClock (the host's speed is
    per CPU, so the parent cannot measure it) and prints the ratio of
    scaled to wall time it saw; the sample is the child's wall time, timed
    by the parent, times that ratio.  The wait has no timeout: a timed wait
    polls in steps of up to 50 ms, which would quantise the samples.
    """
    code = (
        "import sys\n"
        "from time import perf_counter\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "from hostclock import HostClock\n"
        "t0 = perf_counter()\n"
        "with HostClock() as clock:\n"
        "    import agraded\n"
        "    from agraded.fixtures import named_matrix\n"
        "    from agraded.ideals import AGradedContext\n"
        f"    for name in {list(names)!r}:\n"
        "        AGradedContext(named_matrix(name))\n"
        "    scaled = clock.now()\n"
        "print(scaled / (perf_counter() - t0))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        child = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                               stdout=subprocess.PIPE, text=True)
        samples.append((perf_counter() - t0) * float(child.stdout))
    return samples


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "agraded" / "__init__.py").is_file():
        print(f"error: no agraded package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS, gate, make_plan, run_pass

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    answers = json.loads((HERE / "answers.json").read_text(encoding="utf-8"))
    plan = make_plan(WORKLOADS[args.workload], args.seed)
    calib = host_calibration()
    print(f"workload {args.workload}, seed {args.seed}: order {list(plan.order)}, "
          f"start weights {plan.weights}")
    print(f"host.calib_s {calib:.4f}")

    attempted = failed = 0

    def checked(run, label):
        nonlocal attempted, failed
        a, f, messages = gate(run, answers)
        attempted += a
        failed += f
        stages = "  ".join(f"{k} {v:.3f}s" for k, v in run.times.items())
        print(f"{label}: total {run.total:.3f}s  ({stages})  failed {f}/{a}")
        for msg in messages:
            print(f"  mismatch {msg}")
        return run

    if args.trace:
        base = checked(run_pass(plan), "pass 1, untraced")
        tracer = Tracer()
        with tracer.installed():
            traced = run_pass(plan)
        checked(traced, "pass 2, traced")
        metrics = layer_metrics(tracer, traced.times)
        metrics["trace.overhead_ratio"] = (traced.total / base.total - 1, "ratio")
        metrics["host.calib_s"] = (calib, "s")
    else:
        setup = measure_setup(plan.order)
        print(f"setup_s samples {', '.join(f'{s:.4f}' for s in setup)}")
        totals, walls = [], []
        t0 = perf_counter()
        with HostClock() as clock:
            # another pass only if one more of the slowest so far still ends in time
            while not walls or perf_counter() - t0 + max(walls) <= args.seconds:
                w0 = perf_counter()
                run = checked(run_pass(plan, clock.now), f"pass {len(totals) + 1}, scaled")
                walls.append(perf_counter() - w0)
                totals.append(run.total)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"pass wall times {', '.join(f'{w:.3f}' for w in walls)} s (with gate and sampling); "
              f"{len(clock.samples)} reference samples, median {clock.median_sample() * 1e3:.4f} ms")
        print(f"total_s median of {len(totals)} pass(es); setup_s median of {len(setup)} samples")
        metrics = {
            "total_s": (statistics.median(totals), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }

    print(f"error_rate {failed / attempted:.4f} ({failed} failed / {attempted} attempted)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
