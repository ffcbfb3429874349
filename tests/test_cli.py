"""Command-line surface: formats, subcommands, exit codes."""

import json

import pytest

from agraded.cli import main
from agraded.fileio import FormatError, format_ideal, format_matrix, parse_ideal, parse_matrix
from agraded.monomials import minimalize


@pytest.fixture()
def matrix12(tmp_path):
    path = tmp_path / "m12.txt"
    path.write_text("# corank one\n1 2\n1 2\n")
    return str(path)


@pytest.fixture()
def matrix137(tmp_path):
    path = tmp_path / "m137.txt"
    path.write_text(format_matrix([[1, 3, 7]]))
    return str(path)


def test_matrix_format_roundtrip():
    rows = [[2, 1, 1, 0, 0, 0], [0, 1, 0, 2, 1, 0], [0, 0, 1, 0, 1, 2]]
    assert parse_matrix(format_matrix(rows)) == rows
    with pytest.raises(FormatError):
        parse_matrix("1 2\n1 2 3\n")


def test_ideal_format_roundtrip():
    ideal = minimalize([(2, 0), (0, 3)])
    assert parse_ideal(format_ideal(ideal), 2) == ideal
    with pytest.raises(FormatError):
        parse_ideal("1 -1\n", 2)


def test_cli_graver(matrix137, capsys):
    assert main(["graver", "--matrix", matrix137]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 7


def test_cli_initial(matrix12, capsys):
    assert main(["initial", "--matrix", matrix12, "--weight", "1,0"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "2 0"


def test_cli_check_and_neighbors(matrix12, tmp_path, capsys):
    ideal_path = tmp_path / "ideal.txt"
    ideal_path.write_text("2 0\n")
    assert main(["check", "--matrix", matrix12, "--ideal", str(ideal_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "agraded": True,
        "coherent": True,
        "generators": [[2, 0]],
        "valency": 1,
        "witness": doc["witness"],
    }
    assert main(["neighbors", "--matrix", matrix12, "--ideal", str(ideal_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 1
    assert doc["moves"][0]["target"] == [[0, 1]]


def test_cli_coherent(matrix12, tmp_path, capsys):
    ideal_path = tmp_path / "ideal.txt"
    ideal_path.write_text("0 1\n")
    assert main(["coherent", "--matrix", matrix12, "--ideal", str(ideal_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["coherent"] is True


def test_cli_enumerate(matrix12, capsys):
    assert main(["enumerate", "--matrix", matrix12, "--mode", "brute"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["enumerate", "--matrix", matrix12, "--mode", "flip", "--list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "2" and len(lines) == 3


def test_cli_flipgraph_exports(matrix12, tmp_path, capsys):
    dot = tmp_path / "g.dot"
    doc = tmp_path / "g.json"
    code = main([
        "flipgraph", "--matrix", matrix12, "--census", "--coherence",
        "--dot", str(dot), "--json", str(doc),
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["vertices"] == 2 and report["connected"] is True
    assert "x1^2 - x2" in dot.read_text()
    parsed = json.loads(doc.read_text())
    assert {v["id"] for v in parsed["vertices"]} == {0, 1}


def test_cli_triangulations(matrix12, capsys):
    assert main(["triangulations", "--matrix", matrix12]) == 0
    out = capsys.readouterr().out
    assert "triangulation=True" in out
    assert "bistellar" in out


def test_cli_verify_single(capsys):
    assert main(["verify-paper", "--example", "coherence-mask"]) == 0
    assert "coherence-mask: pass" in capsys.readouterr().out


def test_cli_verify_list(capsys):
    assert main(["verify-paper", "--list"]) == 0
    names = capsys.readouterr().out.split()
    assert "graver-137" in names and "census-123789-brute" in names


def test_cli_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n1 -1\n")
    assert main(["graver", "--matrix", str(bad)]) == 2
    assert main(["graver", "--matrix", str(tmp_path / "missing.txt")]) == 2
    assert main(["verify-paper", "--example", "nope"]) == 2


def test_cli_guard(matrix137, capsys):
    assert main(["enumerate", "--matrix", matrix137, "--mode", "brute", "--guard", "1"]) == 2


@pytest.mark.parametrize("argv", [
    ["flipgraph", "--guard", "1"],
    ["enumerate", "--mode", "flip", "--guard", "1"],
])
def test_cli_flip_guard(matrix137, argv, capsys):
    assert main(argv[:1] + ["--matrix", matrix137] + argv[1:]) == 2
    assert "guard: more than 1 vertices" in capsys.readouterr().err


def test_cli_exponent_beyond_packed_field(matrix12, tmp_path, capsys):
    ideal_path = tmp_path / "ideal.txt"
    ideal_path.write_text(f"{2 ** 31} 0\n")
    assert main(["check", "--matrix", matrix12, "--ideal", str(ideal_path)]) == 2
    assert "2**31" in capsys.readouterr().err


def _graph_doc(v, label):
    """A one-edge graph document on the two ideals of A = (1 2) and <x1>."""
    vertex = {"coherent": None, "valency": 1}
    return json.dumps({
        "vertices": [dict(vertex, id=0, generators=[[0, 1]]),
                     dict(vertex, id=1, generators=[[2, 0]]),
                     dict(vertex, id=2, generators=[[1, 0]])],
        "edges": [{"u": 0, "v": v, "label": label}],
        "start": 0,
    })


@pytest.mark.parametrize("case", [
    "matrix-token", "ideal-token", "weight-token", "matrix-directory", "graph-json",
    "graph-label", "graph-target",
])
def test_cli_malformed_input_exits_2(matrix12, tmp_path, capsys, case):
    path = tmp_path / "input.txt"
    graph = ["triangulations", "--matrix", matrix12, "--graph", str(path)]
    argv = {
        "matrix-token": ["graver", "--matrix", str(path)],
        "ideal-token": ["check", "--matrix", matrix12, "--ideal", str(path)],
        "weight-token": ["initial", "--matrix", matrix12, "--weight", "1,x"],
        "matrix-directory": ["graver", "--matrix", str(tmp_path)],
    }.get(case, graph)
    path.write_text({
        "matrix-token": "1 2\n1 two\n",
        "ideal-token": "2 x\n",
        "graph-json": "{not json",
        "graph-label": _graph_doc(1, [[3, 0], [1, 1]]),  # x1^3 - x1 x2 does not flip <x2>
        "graph-target": _graph_doc(2, [[2, 0], [0, 1]]),  # the flip of <x2> is <x1^2>, not <x1>
    }.get(case, ""))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command, generators", [
    ("coherent", "0 3\n"),
    ("flipgraph", "0 3\n"),
    ("neighbors", "1 0\n"),
])
def test_cli_requires_agraded_ideals(matrix12, tmp_path, capsys, command, generators):
    ideal_path = tmp_path / "ideal.txt"
    ideal_path.write_text(generators)
    flag = "--start" if command == "flipgraph" else "--ideal"
    assert main([command, "--matrix", matrix12, flag, str(ideal_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Hilbert function" in captured.err


def test_cli_exit_3_when_the_census_disagrees(matrix12, monkeypatch, capsys):
    import agraded.cli as cli

    monkeypatch.setattr(cli, "brute_force_enumerate", lambda ctx, guard=None: (None,) * 3)
    assert main(["flipgraph", "--matrix", matrix12, "--census"]) == 3
    assert json.loads(capsys.readouterr().out)["connected"] is False


def test_cli_exit_4_on_a_failed_check(matrix12, monkeypatch, capsys):
    from agraded import lp, verify

    monkeypatch.setitem(verify.REGISTRY, "coherence-mask", lambda: ("recorded", "computed"))
    assert main(["verify-paper", "--example", "coherence-mask"]) == 4
    assert "coherence-mask: fail" in capsys.readouterr().out
    # a certificate that fails its re-check: the LP returns a zero dual
    monkeypatch.setattr(lp, "_phase1", lambda columns, rhs: (1, (), (0,) * len(rhs)))
    assert main(["graver", "--matrix", matrix12]) == 4
    assert capsys.readouterr().err.startswith("check failed: ")
