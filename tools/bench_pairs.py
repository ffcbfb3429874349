#!/usr/bin/env python3
"""Alternating parent/change pairs of the census benchmark, written to BENCH_<pr>.json.

Run from the root of a checkout whose working tree holds the change:

    python3 tools/bench_pairs.py --pr 14 --description "..." \\
        --pairs graver=10 --pairs graver:1=3 --pairs flips-g123789=5 --trace graver

Both sides run from fresh copies in one temporary directory, as the
benchmark itself runs each side from a new checkout: the parent
(``--parent REV``, default HEAD) from its committed files, extracted with
``git archive``, and the change from the working tree's files that git
lists, tracked or untracked but not ignored (a deleted file is skipped).
Each run is ``python3 censusbench/run.py --workload W --seed S --seconds T
--trace 0`` in that side's directory, one run at a time, with T the
``run_seconds`` of BENCHMARK.json.  ``--pairs W[:S]=N`` asks for N pairs on
workload W with seed S (default 0); odd pairs run the parent first, even
pairs the change first.  The pairs run round-robin: round k runs pair k of
every ``--pairs`` entry that asks for k pairs or more, in the order given,
so a drift of the host's speed is spread over all workloads instead of
falling on the last ones.  ``--trace W`` adds one traced run (``--trace 1``,
seed 0) per side, whose per-layer metrics are kept under ``traced``.  A run
that fails its known-answer gate (``correct`` false), exits non-zero or ends
without a result line stops the plan: the runs completed before it go to
``BENCH_<pr>.partial.json``, whose ``incomplete`` field names the failed run
and says why (with its exit code and last 20 lines of stdout if it printed
no result), ``BENCH_<pr>.json`` is not written, and the script exits with
that error.  The summary gives, per workload and seed with at least one
complete pair and per end-to-end metric, each side's median and inclusive
quartiles, the relative change of the median and the numbers of pairs in
which the change read lower and higher.  After writing a complete file,
one line per workload, seed and end-to-end metric of BENCHMARK.json goes
to stderr with the same figures, marked ``over bound`` when the change's
median is worse than the parent's by more than the metric's bound, the
benchmark's rule for refusing a change, and ``gain shown`` when the rule
for claiming a gain holds: at least ten pairs, the change better (lower or
higher, as the metric's ``better`` says) in at least nine tenths of them,
ties counting for neither, and its median better than the parent's by
more than the distance between the parent's quartiles.  Standard library
only.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = "python3 censusbench/run.py --workload <w> --seed <s> --seconds {seconds} --trace 0"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--pr", required=True, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent")
    parser.add_argument("--description", required=True)
    parser.add_argument("--pairs", action="append", required=True, metavar="W[:S]=N")
    parser.add_argument("--trace", action="append", default=[], metavar="W")
    return parser.parse_args(argv)


def parse_pairs(spec):
    """'graver:1=3' -> ('graver', 1, 3); the seed defaults to 0."""
    head, _, count = spec.partition("=")
    workload, _, seed = head.partition(":")
    if not count.isdigit() or (seed and not seed.isdigit()):
        raise SystemExit(f"error: --pairs {spec!r} is not W[:S]=N")
    return workload, int(seed or 0), int(count)


def schedule(plan):
    """(workload, seed, pair, sides in run order) of every pair, round-robin over the plan."""
    rounds = max((count for _, _, count in plan), default=0)
    return [(workload, seed, pair, ("parent", "change") if pair % 2 else ("change", "parent"))
            for pair in range(1, rounds + 1)
            for workload, seed, count in plan if pair <= count]


def extract(rev, dest):
    """The committed files of a revision, written under dest."""
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"error: git archive {rev} failed")


def copy_worktree(dest):
    """The working tree's files that git lists, tracked or untracked but not ignored, under dest."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                           cwd=ROOT, check=True, stdout=subprocess.PIPE).stdout
    for name in filter(None, names.decode().split("\0")):
        source = ROOT / name
        if source.is_file():  # a deleted tracked file is still listed
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


class RunFailed(Exception):
    """A run without a correct result; the message names the run and says why."""


def run(checkout, workload, seed, seconds, trace, name):
    """The result object that one run of the benchmark prints last.

    Raises RunFailed naming the run (``name``) if it is not correct.  If
    the run exits non-zero or its last line is no JSON object, the message
    also gives its exit code and the last 20 lines of its stdout.
    """
    cmd = [sys.executable, "censusbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines and not proc.returncode else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        tail = "".join(f"\n  {line}" for line in lines[-20:])
        raise RunFailed(f"{name}: exit code {proc.returncode}, no result line; "
                        f"last {min(len(lines), 20)} lines of stdout:{tail}")
    if not result["correct"]:
        raise RunFailed(f"{name}: {result['failed']} of {result['attempted']} "
                        "operations failed the known-answer gate")
    return result


def spread(values):
    """(median, [lower quartile, upper quartile]), quartiles by the inclusive method."""
    if len(values) < 2:
        return values[0], [values[0], values[0]]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, [q1, q3]


def summarize(runs):
    """Per workload (and seed, when not 0) and metric: medians, quartiles, wins.

    A workload without a complete pair is left out.
    """
    groups = {}
    for r in runs:
        key = r["workload"] if r["seed"] == 0 else f"{r['workload']}, seed {r['seed']}"
        groups.setdefault(key, {}).setdefault(r["pair"], {})[r["side"]] = r["metrics"]
    summary = {}
    for key, pairs in groups.items():
        sides = [p for p in pairs.values() if len(p) == 2]
        if not sides:
            continue
        summary[key] = {}
        for name in sides[0]["parent"]:
            before = [p["parent"][name]["value"] for p in sides]
            after = [p["change"][name]["value"] for p in sides]
            (pm, pq), (cm, cq) = spread(before), spread(after)
            summary[key][name] = {
                "parent_median": round(pm, 4),
                "parent_quartiles": [round(q, 4) for q in pq],
                "change_median": round(cm, 4),
                "change_quartiles": [round(q, 4) for q in cq],
                "change_vs_parent": round(cm / pm - 1, 4),
                "pairs": len(sides),
                "change_lower_in": sum(a < b for a, b in zip(after, before)),
                "change_higher_in": sum(a > b for a, b in zip(after, before)),
            }
    return summary


def verdicts(summary, end_to_end):
    """One line per workload (and seed) and end-to-end metric.

    Marked ``over bound`` if worse than its bound, ``gain shown`` if the
    gain rule of the module docstring holds.
    """
    lines = []
    for key, metrics in summary.items():
        for metric in end_to_end:
            s = metrics.get(metric["name"])
            if s is None:
                continue
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * s["change_vs_parent"]
            better_in = s["change_lower_in"] if sign == 1 else s["change_higher_in"]
            low, high = s["parent_quartiles"]
            gain = (s["pairs"] >= 10 and 10 * better_in >= 9 * s["pairs"]
                    and sign * (s["parent_median"] - s["change_median"]) > high - low)
            lines.append(f"{key} {metric['name']}: parent {s['parent_median']:g}, "
                         f"change {s['change_median']:g} ({s['change_vs_parent']:+.1%}), "
                         f"change lower in {s['change_lower_in']} of {s['pairs']} pairs"
                         + (", over bound" if worse > metric["bound"] else "")
                         + (", gain shown" if gain else ""))
    return lines


def collect(checkouts, plan, trace, seconds):
    """(runs, traced, incomplete): the pairs of the plan, then the traced runs.

    ``incomplete`` is None, or the message of the first run that failed;
    the runs and traced runs then hold only what completed before it.
    """
    runs, traced = [], {}
    try:
        for workload, seed, pair, order in schedule(plan):
            for side in order:
                result = run(checkouts[side], workload, seed, seconds, 0,
                             f"{workload} seed {seed} pair {pair} {side}")
                metrics = result["metrics"]
                print(f"{workload} seed {seed} pair {pair} {side}: "
                      f"total_s {metrics['total_s']['value']:.4f}", file=sys.stderr)
                runs.append({
                    "workload": workload, "seed": seed, "pair": pair, "side": side,
                    "first_in_pair": side == order[0],
                    "attempted": result["attempted"], "correct": result["correct"],
                    "failed": result["failed"], "metrics": metrics,
                })
        for workload in trace:
            traced[workload] = {
                "command": f"python3 censusbench/run.py --workload {workload} --seed 0 --trace 1",
                "note": "one traced pass per side, wall seconds",
            }
            for side in ("parent", "change"):
                metrics = run(checkouts[side], workload, 0, seconds, 1,
                              f"{workload} seed 0 traced {side}")["metrics"]
                traced[workload][side] = {k: round(v["value"], 4) for k, v in metrics.items()}
    except RunFailed as failure:
        return runs, traced, str(failure)
    return runs, traced, None


def write(report, directory, pr):
    """Write the report as BENCH_<pr>.json, or BENCH_<pr>.partial.json if incomplete."""
    suffix = ".partial.json" if "incomplete" in report else ".json"
    out = Path(directory) / f"BENCH_{pr}{suffix}"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return out


def main(argv=None):
    args = parse_args(argv)
    plan = [parse_pairs(spec) for spec in args.pairs]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = benchmark["run_seconds"]
    parent = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT, check=True,
                            stdout=subprocess.PIPE, text=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        checkouts = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for checkout in checkouts.values():
            checkout.mkdir()
        extract(args.parent, checkouts["parent"])
        copy_worktree(checkouts["change"])
        runs, traced, incomplete = collect(checkouts, plan, args.trace, seconds)
    report = {
        "description": args.description,
        "command": COMMAND.format(seconds=f"{seconds:g}"),
        "parent": parent,
        "change": "this commit",
        "host": f"{os.cpu_count()}-core {platform.system()} host, Python "
                f"{platform.python_version()}; runs one at a time; pairs round-robin over the "
                "workloads; odd pairs run the parent first, even pairs the change first",
        "plan": {f"{w}, seed {s}": f"{n} pairs" for w, s, n in plan},
        "summary": summarize(runs),
        "traced": traced,
        "runs": runs,
    }
    if incomplete:
        report["incomplete"] = incomplete
    out = write(report, ROOT, args.pr)
    if incomplete:
        raise SystemExit(f"error: {incomplete}\nwrote the {len(runs)} completed runs to {out}")
    print(f"wrote {out}", file=sys.stderr)
    for line in verdicts(report["summary"], benchmark["end_to_end"]):
        print(line, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
