"""The known-answer runner: reports, failures, and the light catalogue."""

import pytest

from agraded import UnknownName, verify
from agraded.verify import HEAVY, REGISTRY, run, verify_all

# light entries that take seconds each; the CI catalogue step runs them
SLOW = {"graver-345-13-14", "triangulation-transitions"}
REPORT_KEYS = {"example", "status", "expected", "actual", "seconds"}


@pytest.mark.parametrize("name", sorted(set(REGISTRY) - HEAVY - SLOW))
def test_light_entry_passes(name):
    report = run(name)
    assert set(report) == REPORT_KEYS
    assert report["example"] == name and report["status"] == "pass"


def test_failed_entry_is_reported(monkeypatch):
    monkeypatch.setitem(REGISTRY, "coherence-mask", lambda: ({"coherent": False}, {"coherent": True}))
    report = run("coherence-mask")
    assert report["status"] == "fail"
    assert (report["expected"], report["actual"]) == ({"coherent": False}, {"coherent": True})


def test_verify_all_reports_failures_and_skips_heavy(monkeypatch):
    monkeypatch.setattr(verify, "REGISTRY", {"b": lambda: (1, 2), "a": lambda: (1, 1), "h": lambda: (0, 0)})
    monkeypatch.setattr(verify, "HEAVY", {"h"})
    light = verify_all(include_heavy=False)
    assert [(r["example"], r["status"]) for r in light] == [("a", "pass"), ("b", "fail")]
    assert [r["example"] for r in verify_all()] == ["a", "b", "h"]


def test_unknown_example():
    with pytest.raises(UnknownName):
        run("nope")
