"""The known-answer runner: reports, failures, and the light catalogue."""

from dataclasses import replace

import pytest

from agraded import UnknownName, verify
from agraded.fixtures import expected, named_ideal, named_matrix
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


def test_transitions_count_an_edge_that_leads_elsewhere(monkeypatch):
    """An edge whose flip does not reach its end vertex is a violation."""
    complete = verify._complete_graph

    def moved(name):
        ctx, ideals, graph = complete(name)
        if name == "g137":
            (i, j, label), *rest = graph.edges
            graph = replace(graph, edges=((i, (j + 1) % len(graph.vertices), label), *rest))
        return ctx, ideals, graph

    monkeypatch.setattr(verify, "_complete_graph", moved)
    report = run("triangulation-transitions")
    assert report["status"] == "fail"
    assert report["actual"] == {"violations": 1, "nonempty": True}


def test_unknown_example():
    with pytest.raises(UnknownName):
        run("nope")


@pytest.mark.parametrize("lookup", [named_matrix, named_ideal, expected])
def test_unknown_fixture_name(lookup):
    with pytest.raises(UnknownName):
        lookup("nope")
