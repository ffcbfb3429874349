"""Command-line surface: formats, subcommands, exit codes."""

import hashlib
import json

import pytest

from agraded import lp
from agraded.cli import main
from agraded.fileio import FormatError, format_ideal, parse_ideal, parse_matrix
from agraded.fixtures import named_matrix
from agraded.monomials import minimalize, unpack


def format_matrix(rows):
    """The matrix file text that ``parse_matrix`` reads: a size line, then the rows."""
    out = [f"{len(rows)} {len(rows[0])}"]
    out += [" ".join(str(x) for x in row) for row in rows]
    return "\n".join(out) + "\n"


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


def test_cli_check_many_generators(tmp_path, capsys):
    # beyond the interpreter's recursion limit, if each generator took a frame
    matrix = tmp_path / "m11.txt"
    matrix.write_text(format_matrix([[1, 1]]))
    ideal = tmp_path / "ideal.txt"
    ideal.write_text("".join(f"{i} {1099 - i}\n" for i in range(1100)))
    assert main(["check", "--matrix", str(matrix), "--ideal", str(ideal)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["generators"]) == 1100
    assert doc["agraded"] is False


def test_cli_coherent(matrix12, tmp_path, capsys):
    ideal_path = tmp_path / "ideal.txt"
    ideal_path.write_text("0 1\n")
    assert main(["coherent", "--matrix", matrix12, "--ideal", str(ideal_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["coherent"] is True


@pytest.mark.parametrize("command", ["check", "coherent"])
def test_cli_witness_marks_every_row(command, ctx345, tmp_path, capsys):
    """The printed witness is an integer w with w.(g - std(deg g)) > 0 on every generator g."""
    ideal = ctx345.reference_ideal
    paths = tmp_path / "m.txt", tmp_path / "ideal.txt"
    paths[0].write_text(format_matrix(ctx345.A.rows))
    paths[1].write_text(format_ideal(ideal))
    assert main([command, "--matrix", str(paths[0]), "--ideal", str(paths[1])]) == 0
    doc = json.loads(capsys.readouterr().out)
    rows = [tuple(a - b for a, b in zip(g, unpack(std, ideal.n)))
            for g, std in zip(ideal.gens, ctx345.generator_standards(ideal))]
    assert doc["coherent"] is True and lp.is_witness(rows, [int(x) for x in doc["witness"]])


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


def test_cli_flipgraph_json_equals_to_json(tmp_path, capsys):
    """The streamed ``--json`` file is byte for byte ``to_json`` of the graph."""
    from agraded import AGradedContext, explore, to_json
    from agraded.fixtures import named_matrix

    matrix = named_matrix("g36-8-10-15")
    path = tmp_path / "m.txt"
    path.write_text(format_matrix(matrix.rows))
    doc = tmp_path / "g.json"
    assert main(["flipgraph", "--matrix", str(path), "--json", str(doc)]) == 0
    capsys.readouterr()
    assert doc.read_text(encoding="utf-8") == to_json(explore(AGradedContext(matrix)))


def test_cli_not_flippable_edge_exits_2(tmp_path, capsys):
    """An edge over a pair whose wall does not re-mark keeps the exit code and message."""
    from agraded import curve_binomial_families, curve_monomial_ideal, curve_rows

    matrix = tmp_path / "curve.txt"
    matrix.write_text(format_matrix(curve_rows(1)))
    blocked = curve_binomial_families(1)["p"][0]
    vertex = {"coherent": None, "valency": 1}
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({
        "vertices": [dict(vertex, id=0, generators=[list(g) for g in curve_monomial_ideal(1).gens]),
                     dict(vertex, id=1, generators=[[1, 0, 0, 0, 0]])],
        "edges": [{"u": 0, "v": 1, "label": [list(blocked.lead), list(blocked.trail)]}],
        "start": 0,
    }))
    assert main(["triangulations", "--matrix", str(matrix), "--graph", str(graph)]) == 2
    assert capsys.readouterr().err == (
        "error: wall of (0, 0, 2, 0, 1) - (0, 0, 0, 3, 0) does not re-mark to the source\n")


def test_cli_triangulations(matrix12, capsys):
    assert main(["triangulations", "--matrix", matrix12]) == 0
    out = capsys.readouterr().out
    assert "triangulation=True" in out
    assert "bistellar" in out


# sha256 of the whole stdout of ``triangulations``, recorded at commit bebc3e0
TRIANGULATIONS_GOLDEN = {
    ("g12", True): "575d4a63752ac9a156054cbc648b17671516e0c25d443a442ae933396aa07510",
    ("g137", True): "1c25b6b6e59bced012733cb31fc7b1b8419439fe21b602ea61f4c4d5dc6ca591",
    ("veronese6", False): "b76a976d0101d46748455c0e43473d2e0238c2e4736315ec8b1153ca1984ea82",
    ("g36-8-10-15", True): "f718f35ff7b884abfdc93b67f55bf2fe5dc3713cceb31483dd14ca4edf2b0811",
}


@pytest.mark.parametrize("name, homogenize", sorted(TRIANGULATIONS_GOLDEN))
def test_cli_triangulations_golden(name, homogenize, tmp_path, capsys):
    path = tmp_path / f"{name}.txt"
    path.write_text(format_matrix(named_matrix(name).rows))
    args = ["triangulations", "--matrix", str(path)] + ["--homogenize"] * homogenize
    assert main(args) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TRIANGULATIONS_GOLDEN[name, homogenize]


def test_cli_neighbors_golden(tmp_path, capsys):
    """``neighbors`` prints the labels ``FlipMove.a`` and ``.b``, recorded at commit ff4757a.

    A = (1 2 3 7 8 9); the initial ideal for the weight e1 has 27
    generators and 5 flips.
    """
    matrix, ideal = tmp_path / "m.txt", tmp_path / "i.txt"
    matrix.write_text("1 6\n1 2 3 7 8 9\n")
    assert main(["initial", "--matrix", str(matrix), "--weight", "1,0,0,0,0,0"]) == 0
    out = capsys.readouterr().out
    assert len(parse_ideal(out, 6).gens) == 27
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6948ec8007d36531f3e3b69cbb001d38fde88bf57314fac735a8175667b0fccf")
    ideal.write_text(out)
    assert main(["neighbors", "--matrix", str(matrix), "--ideal", str(ideal)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["count"] == 5
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e63da056fc0bcf8986a2e9d23696b1bed4d4472c2344680f9f19924ce9f0d4eb")


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


def test_cli_census_guard_also_bounds_the_brute_force_leaves(tmp_path, capsys):
    """All 1479 vertices of g345-13-14 fit in 2000; its 4142 brute-force
    K-polynomial tests (1658 leaves, 2484 prefixes) do not."""
    matrix = tmp_path / "g345.txt"
    matrix.write_text(format_matrix([[3, 4, 5, 13, 14]]))
    assert main(["flipgraph", "--matrix", str(matrix), "--guard", "2000", "--census"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "guard: more than 2000 K-polynomial tests\n"
    assert captured.out == ""


def test_cli_exponent_beyond_packed_field(matrix12, tmp_path, capsys):
    ideal_path = tmp_path / "ideal.txt"
    ideal_path.write_text(f"{2 ** 31} 0\n")
    assert main(["check", "--matrix", matrix12, "--ideal", str(ideal_path)]) == 2
    assert "2**31" in capsys.readouterr().err


def _graph_doc(v, label, pad=()):
    """A one-edge graph document on the two ideals of A = (1 2) and <x1>.

    ``pad`` appends exponents to every generator, for ideals in more variables.
    """
    vertex = {"coherent": None, "valency": 1}
    return json.dumps({
        "vertices": [dict(vertex, id=0, generators=[[0, 1, *pad]]),
                     dict(vertex, id=1, generators=[[2, 0, *pad]]),
                     dict(vertex, id=2, generators=[[1, 0, *pad]])],
        "edges": [{"u": 0, "v": v, "label": label}],
        "start": 0,
    })


@pytest.mark.parametrize("case", [
    "matrix-token", "ideal-token", "weight-token", "matrix-directory", "graph-json",
    "graph-label", "graph-target", "matrix-empty", "matrix-header", "matrix-row-count",
    "ideal-length", "graph-variables",
])
def test_cli_malformed_input_exits_2(matrix12, tmp_path, capsys, case):
    path = tmp_path / "input.txt"
    graph = ["triangulations", "--matrix", matrix12, "--graph", str(path)]
    ideal = ["check", "--matrix", matrix12, "--ideal", str(path)]
    argv = {
        "matrix-token": ["graver", "--matrix", str(path)],
        "matrix-empty": ["graver", "--matrix", str(path)],
        "matrix-header": ["graver", "--matrix", str(path)],
        "matrix-row-count": ["graver", "--matrix", str(path)],
        "ideal-token": ideal,
        "ideal-length": ideal,
        "weight-token": ["initial", "--matrix", matrix12, "--weight", "1,x"],
        "matrix-directory": ["graver", "--matrix", str(tmp_path)],
    }.get(case, graph)
    path.write_text({
        "matrix-token": "1 2\n1 two\n",
        "matrix-empty": "# no header\n",
        "matrix-header": "1 2 3\n1 2 3\n",  # the header is not "d n"
        "matrix-row-count": "2 2\n1 2\n",
        "ideal-token": "2 x\n",
        "ideal-length": "2 0 1\n",
        "graph-json": "{not json",
        "graph-label": _graph_doc(1, [[3, 0], [1, 1]]),  # x1^3 - x1 x2 does not flip <x2>
        "graph-target": _graph_doc(2, [[2, 0], [0, 1]]),  # the flip of <x2> is <x1^2>, not <x1>
        "graph-variables": _graph_doc(1, [[2, 0, 0], [0, 1, 0]], pad=[0]),
    }.get(case, ""))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("repeat", ["vertex", "edge"])
def test_cli_graph_with_a_repeat_exits_2(matrix137, tmp_path, capsys, repeat):
    from agraded import AGradedContext, explore, to_json
    from agraded.fixtures import named_matrix

    doc = json.loads(to_json(explore(AGradedContext(named_matrix("g137")))))
    if repeat == "vertex":
        doc["vertices"][1]["generators"] = doc["vertices"][0]["generators"]
    else:
        doc["edges"].append(dict(doc["edges"][0]))
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    assert main(["triangulations", "--matrix", matrix137, "--graph", str(path)]) == 2
    assert f"{repeat} is listed twice" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["flag-2", "flag-yes", "exponent-true", "short-label"])
def test_cli_graph_with_values_to_json_never_writes_exits_2(matrix137, tmp_path, capsys, case):
    from agraded import AGradedContext, explore, to_json
    from agraded.fixtures import named_matrix

    doc = json.loads(to_json(explore(AGradedContext(named_matrix("g137")))))
    for record in doc["vertices"]:
        record["coherent"] = {"flag-2": 2, "flag-yes": "yes"}.get(case)
    if case == "exponent-true":
        generator = doc["vertices"][0]["generators"][0]
        generator[generator.index(1)] = True
    if case == "short-label":
        doc["edges"][0]["label"] = [[1, 0, 0], [0, 1]]
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    assert main(["triangulations", "--matrix", matrix137, "--graph", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_cli_graver_bound_of_2_31_exits_2(matrix137, capsys):
    assert main(["graver", "--matrix", matrix137, "--bound", str(2 ** 31)]) == 2
    assert capsys.readouterr().err == "error: bound must be below 2**31\n"


@pytest.mark.parametrize("flag", ["--matrix", "--ideal", "--graph"])
def test_cli_file_that_is_not_utf8_exits_2(matrix12, tmp_path, capsys, flag):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"1 2\n1 2 \xff3\n")
    command = {"--matrix": "graver", "--ideal": "check", "--graph": "triangulations"}[flag]
    argv = [command] if flag == "--matrix" else [command, "--matrix", matrix12]
    assert main(argv + [flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not UTF-8" in err and len(err.splitlines()) == 1


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
    monkeypatch.setattr(lp, "_phase1", lambda columns, rhs: (1, 1, (), (0,) * len(rhs)))
    assert main(["graver", "--matrix", matrix12]) == 4
    assert capsys.readouterr().err.startswith("check failed: ")


def _printed_binomials(out):
    from fractions import Fraction

    from agraded import Binomial

    gens = []
    for line in out.splitlines():
        lead, coeff, trail = line.split("#")[0].split("|")
        gens.append(Binomial(tuple(map(int, lead.split())), tuple(map(int, trail.split())),
                             Fraction(coeff.strip())))
    return gens


def test_cli_toric_gb(matrix137, capsys):
    from test_binomials import oracle_toric_ideal

    from agraded import buchberger
    from agraded.fileio import load_matrix

    m = load_matrix(matrix137)
    weight = (1, 0, 0)
    assert main(["toric-gb", "--matrix", matrix137]) == 0
    # without a weight: some generating set of the toric ideal
    gens = _printed_binomials(capsys.readouterr().out)
    assert buchberger(gens, weight, m) == buchberger(oracle_toric_ideal(m), weight, m)
    # with a weight: the reduced basis
    assert main(["toric-gb", "--matrix", matrix137, "--weight", "1,0,0"]) == 0
    printed = _printed_binomials(capsys.readouterr().out)
    assert tuple(printed) == buchberger(oracle_toric_ideal(m), weight, m).binomials
    assert main(["toric-gb", "--matrix", matrix137, "--weight", "1,0"]) == 2
    assert "weight needs 3 entries" in capsys.readouterr().err
