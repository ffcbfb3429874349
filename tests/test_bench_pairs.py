"""The verdict lines and the run schedule of tools/bench_pairs.py."""

import importlib.util
import json
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _path)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

LOWER = [{"name": "total_s", "better": "lower", "bound": 0.15}]
HIGHER = [{"name": "total_s", "better": "higher", "bound": 0.15}]


def summary(parent, quartiles, change, lower, higher, pairs=10):
    return {"graver": {"total_s": {
        "parent_median": parent, "parent_quartiles": quartiles,
        "change_median": change, "change_quartiles": [change, change],
        "change_vs_parent": round(change / parent - 1, 4), "pairs": pairs,
        "change_lower_in": lower, "change_higher_in": higher,
    }}}


@pytest.mark.parametrize("metrics, s, marks", [
    # 9 of 10 lower, median gap 0.3 wider than the parent's quartile distance 0.1
    (LOWER, summary(2.0, [1.95, 2.05], 1.7, 9, 1), ", gain shown"),
    # 8 of 10 lower: too few wins
    (LOWER, summary(2.0, [1.95, 2.05], 1.7, 8, 2), ""),
    # 9 wins and a tie, but the gap 0.05 is inside the parent's spread 0.1
    (LOWER, summary(2.0, [1.95, 2.05], 1.95, 9, 0), ""),
    # 5 of 5 lower: fewer than ten pairs claim nothing
    (LOWER, summary(2.0, [1.95, 2.05], 1.7, 5, 0, pairs=5), ""),
    # worse by 20% against a bound of 15%
    (LOWER, summary(2.0, [1.95, 2.05], 2.4, 0, 10), ", over bound"),
    # where higher is better, the same numbers read the other way
    (HIGHER, summary(2.0, [1.95, 2.05], 2.4, 0, 10), ", gain shown"),
    (HIGHER, summary(2.0, [1.95, 2.05], 1.6, 9, 1), ", over bound"),
], ids=["gain", "few-wins", "narrow-gap", "few-pairs", "over-bound",
        "higher-gain", "higher-over-bound"])
def test_verdicts_mark_bound_and_gain(metrics, s, marks):
    line, = bench_pairs.verdicts(s, metrics)
    assert line.startswith("graver total_s: parent 2, change ")
    assert line.endswith(f"pairs{marks}")


def test_summarize_counts_wins_both_ways():
    runs = [{"workload": "graver", "seed": 0, "pair": pair, "side": side,
             "metrics": {"total_s": {"value": value}}}
            for pair, (before, after) in enumerate([(2.0, 1.8), (2.0, 2.0), (1.9, 2.1)], 1)
            for side, value in (("parent", before), ("change", after))]
    s = bench_pairs.summarize(runs)["graver"]["total_s"]
    assert (s["pairs"], s["change_lower_in"], s["change_higher_in"]) == (3, 1, 1)
    assert s["parent_median"] == 2.0 and s["change_median"] == 2.0


def test_a_failed_run_is_reported_with_its_output(tmp_path):
    (tmp_path / "censusbench").mkdir()
    (tmp_path / "censusbench" / "run.py").write_text(
        "import sys\nprint('graver pass 1')\nprint('mismatch in pass 2')\nsys.exit(1)\n")
    with pytest.raises(bench_pairs.RunFailed) as stop:
        bench_pairs.run(tmp_path, "graver", 0, 1, 0, "graver seed 0 pair 2 change")
    message = str(stop.value)
    assert message.startswith("graver seed 0 pair 2 change: exit code 1")
    assert message.endswith("\n  graver pass 1\n  mismatch in pass 2")


# a benchmark whose first run in a checkout succeeds and every later one dies
FIRST_RUN_ONLY = """import json, pathlib, sys
count = pathlib.Path("runs")
done = int(count.read_text()) if count.exists() else 0
count.write_text(str(done + 1))
if done:
    sys.exit("killed by SIGALRM")
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"total_s": {"value": 1.0}}}))
"""


def test_a_failure_after_one_pair_leaves_a_partial_file_with_that_pair(tmp_path):
    checkouts = {side: tmp_path / side for side in ("parent", "change")}
    for checkout in checkouts.values():
        (checkout / "censusbench").mkdir(parents=True)
        (checkout / "censusbench" / "run.py").write_text(FIRST_RUN_ONLY)
    runs, traced, incomplete = bench_pairs.collect(checkouts, [("graver", 0, 2)], ["graver"], 1)
    assert [(r["pair"], r["side"]) for r in runs] == [(1, "parent"), (1, "change")]
    assert traced == {}
    assert incomplete.startswith("graver seed 0 pair 2 change: exit code 1, no result line")
    report = {"summary": bench_pairs.summarize(runs), "runs": runs, "incomplete": incomplete}
    out = bench_pairs.write(report, tmp_path, "7")
    assert out.name == "BENCH_7.partial.json" and not (tmp_path / "BENCH_7.json").exists()
    doc = json.loads(out.read_text())
    assert doc["runs"] == runs and doc["incomplete"] == incomplete
    assert doc["summary"]["graver"]["total_s"]["pairs"] == 1


def test_summarize_skips_a_workload_without_a_complete_pair():
    runs = [{"workload": w, "seed": 0, "pair": 1, "side": side, "metrics": {"total_s": {"value": 1}}}
            for w, sides in (("graver", ("parent", "change")), ("census-g345", ("change",)))
            for side in sides]
    assert list(bench_pairs.summarize(runs)) == ["graver"]


def test_pairs_run_round_robin_over_the_workloads():
    plan = [("census-g345", 0, 3), ("graver", 0, 1), ("flips-g123789", 2, 2)]
    runs = [(w, s, pair, order[0]) for w, s, pair, order in bench_pairs.schedule(plan)]
    assert runs == [
        ("census-g345", 0, 1, "parent"), ("graver", 0, 1, "parent"),
        ("flips-g123789", 2, 1, "parent"),
        ("census-g345", 0, 2, "change"), ("flips-g123789", 2, 2, "change"),
        ("census-g345", 0, 3, "parent"),
    ]
    assert all(sorted(order) == ["change", "parent"]
               for *_, order in bench_pairs.schedule(plan))
    assert bench_pairs.schedule([]) == []
