import json
import os
import pathlib
import random
import secrets
import shutil
import subprocess
import sys
import tracemalloc
from itertools import combinations

import jsonschema
import pytest
from helpers import adjacent, graph_to_text, layered_fc_graph_text, reference_main, reference_parser

from artincenter import cli, retraction, text
from artincenter.analyzer import AnalysisReport
from artincenter.cli import main
from artincenter.graph import MAX_VERTICES, parse_graph
from artincenter.retraction import RetractionTrace
from artincenter.scalar import MAX_FIELD_DEGREE, FieldContext

DATA = pathlib.Path(__file__).parent / "data"
SCHEMA = json.loads((DATA / "envelope_schema.json").read_text())


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv) -> tuple[int, dict]:
    code, out, _ = run(capsys, *argv, "--json")
    envelope = json.loads(out)
    jsonschema.validate(envelope, SCHEMA)
    return code, envelope


def validate_report(payload: dict) -> None:
    resolver_schema = dict(SCHEMA["definitions"]["analysis_report"])
    resolver_schema["definitions"] = SCHEMA["definitions"]
    jsonschema.validate(payload, resolver_schema)


def test_analyze_established(capsys):
    code, env = run_json(capsys, "analyze", DATA / "single_vertex.graph")
    assert code == 0
    validate_report(env["result"])
    assert env["result"]["established"] is True
    assert env["result"]["center_rank"] == 1


def test_analyze_triangle_trivial(capsys):
    code, env = run_json(capsys, "analyze", DATA / "triangle333.graph")
    assert code == 0
    validate_report(env["result"])
    assert env["result"]["center_rank"] == 0


def test_analyze_unknown_exit_code(capsys):
    code, env = run_json(capsys, "analyze", DATA / "unknown_clique.graph")
    assert code == 2
    validate_report(env["result"])
    assert env["result"]["established"] is False


def test_analyze_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("vertices: a\nedge a a 3\n")
    code, out, err = run(capsys, "analyze", bad)
    assert code == 1
    assert "error" in err
    code, _, err = run(capsys, "analyze", tmp_path / "missing.graph")
    assert code == 1


def test_analyze_max_vertices_flag(capsys, tmp_path):
    # no option sets a guard: the 17-vertex affine cycle A~16 (labels 3
    # around the cycle, explicit 2 elsewhere) is analyzed as it is
    names = [f"c{i}" for i in range(17)]
    lines = ["vertices: " + " ".join(names)]
    for i in range(17):
        for j in range(i + 1, 17):
            m = 3 if j == i + 1 or (i, j) == (0, 16) else 2
            lines.append(f"edge {names[i]} {names[j]} {m}")
    cycle = tmp_path / "cycle.graph"
    cycle.write_text("\n".join(lines) + "\n")
    code, env = run_json(capsys, "analyze", cycle)
    assert code == 0
    assert [f["reason"] for f in env["result"]["factors"]] == ["EUCLIDEAN"]


def test_analyze_text_and_json_agree(capsys):
    code_t, text, _ = run(capsys, "analyze", DATA / "handtrace.graph")
    code_j, env = run_json(capsys, "analyze", DATA / "handtrace.graph")
    assert code_t == code_j == 0
    assert "ESTABLISHED" in text
    assert env["result"]["established"] is True
    assert f"center rank {env['result']['center_rank']}" in text


# The text layouts, pinned byte for byte: the cone-subgraph block nests one
# indented report inside another.
HIGHDEG96_ANALYSIS = """\
graph: x0 x1 x2 x3 x4
irreducible factors: 1
factor 1 {x0, x1, x2, x3, x4}: ESTABLISHED_TRIVIAL (CONE_RECURSION)
  cone points: {x0, x2}
  cone subgraph analysis:
    graph: x0 x2
    irreducible factors: 1
    factor 1 {x0, x2}: SPHERICAL
      center generator: x0 x2 x0 x2 x0 x2 x0 x2 x0 x2
    rule[SPHERICAL] on {x0, x2}: the factor has a finite Coxeter quotient, so its center is infinite cyclic, generated by a power of the product of its generators
    ESTABLISHED: center rank 1
    center generators: x0 x2 x0 x2 x0 x2 x0 x2 x0 x2
rule[CONE_RECURSION] on {x0, x1, x2, x3, x4}: the center lies in the subgroup generated by the cone points, whose analysis is complete; an irreducible non-clique factor is of infinite type, so its center is trivial
ESTABLISHED: center rank 0
"""


def test_analyze_text_layout(capsys):
    code, out, err = run(capsys, "analyze", DATA / "highdeg96.graph")
    assert (code, out, err) == (0, HIGHDEG96_ANALYSIS, "")


def test_analyze_dir(capsys, tmp_path):
    for name in ("single_vertex", "triangle333", "unknown_clique"):
        (tmp_path / f"{name}.graph").write_text((DATA / f"{name}.graph").read_text())
    code, out, err = run(capsys, "analyze", "--dir", tmp_path)
    assert code == 2  # one unknown in the corpus
    for name in ("single_vertex", "triangle333", "unknown_clique"):
        report_path = tmp_path / f"{name}.report.json"
        assert report_path.exists()
        envelope = json.loads(report_path.read_text())
        jsonschema.validate(envelope, SCHEMA)
        validate_report(envelope["result"])
    assert "unknown_clique" in out


def test_analyze_dir_reports_get_the_mode_open_would_give(capsys, tmp_path):
    (tmp_path / "a.graph").write_text((DATA / "edge3.graph").read_text())
    old = os.umask(0o022)
    try:
        code, _, _ = run(capsys, "analyze", "--dir", tmp_path)
    finally:
        os.umask(old)
    assert code == 0
    assert (tmp_path / "a.report.json").stat().st_mode & 0o777 == 0o644


def test_analyze_dir_unwritable_report_leaves_no_temporary_file(capsys, tmp_path):
    (tmp_path / "a.graph").write_text((DATA / "edge3.graph").read_text())
    (tmp_path / "b.graph").write_text((DATA / "edge3.graph").read_text())
    report = tmp_path / "a.report.json"
    report.mkdir()
    code, out, err = run(capsys, "analyze", "--dir", tmp_path)
    assert code == 1
    assert err.count("\n") == 1 and ".tmp" not in err
    assert err.startswith(f"{tmp_path / 'a.graph'}: error: cannot write {report}: ")
    assert not list(tmp_path.glob("*.tmp"))
    assert (tmp_path / "b.report.json").is_file()


def test_text_mode_analyze_dir_keeps_no_entry_per_file(tmp_path, monkeypatch):
    # only --json prints the summary, so only --json keeps each file's entry;
    # a text run's peak is the listing of the directory.  Measured over these
    # 1,000 graphs on Python 3.11: 141 bytes a file, and 279 while every entry
    # was kept
    n = 1000
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    for i in range(n):
        (tmp_path / "d" / f"g{i:04d}.graph").write_text("vertices: a b\nedge a b 3\n")
    with open(os.devnull, "w") as devnull:
        monkeypatch.setattr(sys, "stdout", devnull)
        # the first run loads the modules and grows the interned names' table
        assert main(["analyze", "--dir", "d"]) == 0
        for report in (tmp_path / "d").glob("*.report.json"):
            report.unlink()
        tracemalloc.start()
        try:
            assert main(["analyze", "--dir", "d"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 200 * n


def test_analyze_dir_keeps_no_interned_names(capsys, tmp_path, monkeypatch):
    # each report path comes from string operations: a Path built per file
    # interns the file's name.  Interned names are never freed on 3.12, and on
    # 3.10-3.11 their churn grows the interpreter's table of them, which never
    # shrinks: a fresh 3.11 process over 6,000 files kept one 405 KiB block
    # from pathlib with a Path per file, and none without
    from artincenter.corpus import analyze_dir

    n, token = 1000, secrets.token_hex(8)
    for i in range(n):
        (tmp_path / f"{token}-{i:04d}.graph").write_text("")
    interned = []
    intern = sys.intern
    monkeypatch.setattr(sys, "intern", lambda name: interned.append(name) or intern(name))
    result = {"established": True, "center_rank": 0}
    tracemalloc.start()
    try:
        code = analyze_dir(
            str(tmp_path), False, lambda path: ({}, result, 0), lambda obj: "{}", lambda *a: {}
        )
        stats = tracemalloc.take_snapshot().statistics("filename")
    finally:
        tracemalloc.stop()
        monkeypatch.undo()
    assert code == 0 and capsys.readouterr().out.count("\n") == n
    assert (tmp_path / f"{token}-0000.report.json").read_text() == "{}"
    assert not [name for name in interned if token in name]
    assert sum(s.size for s in stats if s.traceback[0].filename.endswith("pathlib.py")) < 10 * n


def test_analyze_dir_empty(capsys, tmp_path):
    code, _, err = run(capsys, "analyze", "--dir", tmp_path)
    assert code == 1


def test_retract_command(capsys):
    code, env = run_json(capsys, "retract", DATA / "handtrace.graph", "s,t", "r s r^-1")
    assert code == 0
    assert env["result"]["output"] == "s"
    code, env = run_json(
        capsys, "retract", DATA / "handtrace.graph", "s,t", "r s r^-1", "--trace"
    )
    trace = env["result"]["trace"]
    assert [row["reflection"] for row in trace] == [["r"], ["s"], ["r"]]
    assert [row["emitted"] for row in trace] == [None, ["s", 1], None]
    code, out, _ = run(capsys, "retract", DATA / "handtrace.graph", "s,t", "r", "--trace")
    assert "output: 1" in out


HANDTRACE_TRACE = """\
retraction onto {s, t}
----------------------
  i  letter   subgroup part        reduced part         reflection               emitted
  1  r        1                    r                    r                        -
  2  s        s                    r                    s                        s
  3  r^-1     s                    1                    r                        -
output: s
"""


def test_retract_trace_text_layout(capsys):
    code, out, err = run(capsys, "retract", DATA / "handtrace.graph", "s,t", "r s r^-1", "--trace")
    assert (code, out, err) == (0, HANDTRACE_TRACE, "")


def test_retract_bad_subset(capsys):
    code, _, err = run(capsys, "retract", DATA / "handtrace.graph", "s,zz", "r")
    assert code == 1


def test_retract_trace_keeps_the_plain_output(capsys):
    rng = random.Random(97)
    for _ in range(4):
        word = " ".join(
            rng.choice("abcd") + rng.choice(("", "^-1")) for _ in range(rng.randrange(12, 17))
        )
        subset = ",".join(v for v in "abcd" if rng.random() < 0.5)
        args = ("retract", DATA / "chain4.graph", subset, word)
        _, plain = run_json(capsys, *args)
        _, traced = run_json(capsys, *args, "--trace")
        assert "trace" not in plain["result"]
        assert traced["result"]["output"] == plain["result"]["output"]


def test_plain_retract_skips_the_audit(capsys, monkeypatch):
    def audit(*args):
        raise AssertionError("audit built without --trace")

    monkeypatch.setattr(retraction, "_conjugated_reflection", audit)
    code, env = run_json(capsys, "retract", DATA / "handtrace.graph", "s,t", "r s r^-1")
    assert code == 0
    assert env["result"]["output"] == "s"


def test_word_huge_exponent_is_an_input_error(capsys):
    code, out, err = run(capsys, "word", DATA / "edge3.graph", "s^9223372036854775808")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "letter guard" in err


def test_word_exponent_beyond_int_digit_limit_is_an_input_error(capsys):
    code, out, err = run(capsys, "word", DATA / "edge3.graph", "s^" + "9" * 5000)
    assert code == 1
    assert out == ""
    assert err == "error: word exceeds the 1000000-letter guard\n"


# Labels 5, 7, 8, 9, 3 and 2 on 4 vertices: N = 2520, field degree 1152.
HIGHDEG_GRAPH = """vertices: x0 x1 x2 x3
edge x0 x1 5
edge x0 x2 7
edge x0 x3 8
edge x1 x2 9
edge x1 x3 3
edge x2 x3 2
"""


def test_field_setup_builds_no_power_table(capsys, monkeypatch, tmp_path):
    def refuse(self):
        raise AssertionError("power table built outside conjugation")

    monkeypatch.setattr(FieldContext, "power_table", refuse)
    graph = tmp_path / "highdeg.graph"
    graph.write_text(HIGHDEG_GRAPH)
    code, env = run_json(capsys, "reduce", graph, "x0 x1 x2 x3")
    assert code == 0
    assert env["result"]["reduced_word"] == ["x0", "x1", "x2", "x3"]
    code, env = run_json(capsys, "coset", graph, "x0,x1", "x2 x0 x1")
    assert code == 0
    code, env = run_json(capsys, "analyze", DATA / "chain4.graph")
    assert code == 0
    validate_report(env["result"])


# The path a - b - c with labels 101 and 103: N = 10403, phi(2N) = 10200.
# The words' outputs were recorded from the cyclotomic kernel (7-12 s a
# request there); CI's clean-venv step checks the same outputs.
PATH_101_103 = "vertices: a b c\nedge a b 101\nedge b c 103\nedge a c 2\n"
HIGH_DEGREE_REDUCE = ("c b a c a^-1 b c^2 a b a c b", "c b c b a b a c b")
HIGH_DEGREE_COSET = ("c a b c a c b a^-1 c b a c b a b c", "a", "c b a b a c b a c b a b c")


def test_degree_10200_outputs_match_the_recorded_ones(capsys, tmp_path):
    graph = tmp_path / "path101.graph"
    graph.write_text(PATH_101_103)
    word, reduced = HIGH_DEGREE_REDUCE
    code, env = run_json(capsys, "reduce", graph, word)
    assert code == 0
    assert env["result"]["reduced_word"] == reduced.split()
    assert (env["result"]["left_descents"], env["result"]["right_descents"]) == (["c"], ["b"])
    word, subgroup, rest = HIGH_DEGREE_COSET
    code, env = run_json(capsys, "coset", graph, "a,b", word)
    assert code == 0
    assert env["result"]["subgroup_part"] == subgroup.split()
    assert env["result"]["reduced_part"] == rest.split()
    code, out, _ = run(capsys, "coset", graph, "a,b", word)
    assert code == 0 and out == f"subgroup part: {subgroup}\nreduced part:  {rest}\n"


def test_reduce_command(capsys):
    code, env = run_json(capsys, "reduce", DATA / "edge3.graph", "s s")
    assert code == 0
    assert env["result"]["length"] == 0
    code, env = run_json(capsys, "reduce", DATA / "edge3.graph", "s t s")
    assert env["result"]["length"] == 3
    assert env["result"]["reduced_word"] == ["s", "t", "s"]
    code, env = run_json(capsys, "reduce", DATA / "edge3.graph", "")
    assert env["result"]["length"] == 0


def test_coset_command(capsys):
    code, env = run_json(capsys, "coset", DATA / "edge3.graph", "s", "s t")
    assert code == 0
    assert env["result"]["subgroup_part"] == ["s"]
    assert env["result"]["reduced_part"] == ["t"]


def test_split_command(capsys):
    code, env = run_json(capsys, "split", DATA / "path33.graph", "a", "c")
    assert code == 0
    assert env["result"]["left"] == ["b", "c"]
    assert env["result"]["base"] == ["b"]
    assert env["result"]["right"] == ["a", "b"]
    code, _, err = run(capsys, "split", DATA / "edge3.graph", "s", "t")
    assert code == 1  # finite label: no splitting


def test_word_command(capsys):
    code, env = run_json(capsys, "word", DATA / "handtrace.graph", "r s r^-1 s^-1")
    assert code == 0
    result = env["result"]
    assert result["pure"] is True
    assert result["positive"] is False
    assert result["support"] == ["r", "s"]
    assert result["abelianization"] == {"r": 0, "s": 0, "t": 0}


def test_dihedral_command(capsys):
    code, env = run_json(capsys, "dihedral", DATA / "edge3.graph", "s t s", "t s t")
    assert code == 0 and env["result"]["equal"] is True
    code, env = run_json(capsys, "dihedral", DATA / "edge3.graph", "s t s t s t")
    assert env["result"]["normal_form"] == {"delta_power": 2, "factors": []}
    code, env = run_json(capsys, "dihedral", DATA / "edgeinf.graph", "s t t^-1", "s")
    assert env["result"]["equal"] is True
    code, env = run_json(capsys, "dihedral", DATA / "edgeinf.graph", "s t t^-1 s")
    assert env["result"]["free_reduced"] == "s^2"
    code, _, err = run(capsys, "dihedral", DATA / "handtrace.graph", "s")
    assert code == 1  # needs exactly two vertices


# Text renderings that no layout test above reads: an inconclusive analysis
# (exit 2) and both dihedral answers
TEXT_TAILS = [
    (("analyze", "unknown_clique.graph"), 2,
     "NOT ESTABLISHED: center rank undetermined, at least 0\n"),
    (("dihedral", "edge3.graph", "s t s", "t s t"), 0, "equal: True\n"),
    (("dihedral", "edge3.graph", "s t^-1 s"), 0, "normal form: delta^-1 . t . ts . s\n"),
]


@pytest.mark.parametrize("argv, code, tail", TEXT_TAILS, ids=[" ".join(a) for a, _, _ in TEXT_TAILS])
def test_text_rendering_tails(capsys, argv, code, tail):
    command, graph, *words = argv
    got, out, err = run(capsys, command, DATA / graph, *words)
    assert (got, err) == (code, "")
    assert out.endswith(tail)
    if command == "dihedral":
        assert out == tail


def test_json_output_renders_no_text(capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("text rendered under --json")

    helpers = ["render", "_spell", "_braces", "_letter"]
    renderers = [name for name in vars(text) if name.startswith("_render_")]
    assert len(renderers) == 7
    for name in renderers + helpers:
        monkeypatch.setattr(text, name, refuse)
    (tmp_path / "g.graph").write_text((DATA / "highdeg96.graph").read_text())
    cases = [
        ("analyze", DATA / "highdeg96.graph"),
        ("analyze", "--dir", tmp_path),
        ("retract", DATA / "handtrace.graph", "s,t", "r s r^-1"),
        ("retract", DATA / "handtrace.graph", "s,t", "r s r^-1", "--trace"),
        ("reduce", DATA / "handtrace.graph", "r s t r"),
        ("coset", DATA / "handtrace.graph", "s", "s t"),
        ("split", DATA / "path33.graph", "a", "c"),
        ("word", DATA / "handtrace.graph", "r s r^-1 s^-1"),
        ("dihedral", DATA / "edge3.graph", "s t s t"),
        ("dihedral", DATA / "edge3.graph", "s t s", "t s t"),
        ("dihedral", DATA / "edgeinf.graph", "s t t^-1 s"),
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv, "--json")
        assert code == 0 and err == "", argv
        json.loads(out)
    assert not hasattr(AnalysisReport, "to_text") and not hasattr(RetractionTrace, "to_text")


def _every_command(path: pathlib.Path) -> list[list]:
    """An argv of each command, and each form of it, that the graph takes."""
    g = parse_graph(path.read_text())
    v = g.vertices
    word = " ".join(v) + f" {v[0]}^-2 {v[-1]}^3"
    subset = ",".join(v[:-1]) or v[0]
    argvs = [
        ["analyze", path],
        ["reduce", path, word],
        ["word", path, word],
        ["coset", path, subset, word],
        ["retract", path, subset, word],
        ["retract", path, subset, word, "--trace"],
    ]
    argvs += [["split", path, x, y] for x, y in combinations(v, 2) if not adjacent(g, x, y)][:1]
    if len(v) == 2:
        argvs += [["dihedral", path, word], ["dihedral", path, word, " ".join(reversed(word.split()))]]
    return argvs


def test_json_writer_is_json_dumps(capsys, monkeypatch, tmp_path):
    # every command's envelope on every graph, and analyze --dir's reports
    # and summary, are written as json.dumps(indent=2, sort_keys=True) would;
    # a non-ASCII directory name sends the paths through the escape
    dumps, written = cli._dumps, []

    def checked(obj, indent=""):
        out = dumps(obj, indent)
        if not indent:
            assert out == json.dumps(obj, indent=2, sort_keys=True)
            written.append(obj)
        return out

    monkeypatch.setattr(cli, "_dumps", checked)
    paths = sorted(DATA.glob("*.graph"))
    commands = set()
    for path in paths:
        for argv in _every_command(path):
            code, out, err = run(capsys, *argv, "--json")
            assert code in (0, 2) and err == "", argv
            assert out == json.dumps(written[-1], indent=2, sort_keys=True) + "\n"
            commands.add(argv[0])
    assert commands == set(cli._COMMANDS)
    corpus = tmp_path / "d\u00efr \"\\"
    corpus.mkdir()
    for path in paths:
        shutil.copy(path, corpus)
    code, out, err = run(capsys, "analyze", "--dir", corpus, "--json")
    assert code == 2 and err == ""
    assert written[-1] == json.loads(out) and len(written[-1]) == len(paths)
    for path in paths:
        report = (corpus / path.name).with_suffix(".report.json").read_text()
        assert json.loads(report)["input"]["path"] == str(corpus / path.name)
        assert json.loads(report) in written


ESCAPED = [chr(c) for c in range(128)] + [
    "", "plain", 'say "x"', "back\\slash", "tab\there", "\x7f", "caf\u00e9", "\u2028", "\ud83d\ude00",
    "\U0001f600", "\ud800", "x0 x1^-2", "d\u00efr/edge3.graph",
]


def test_json_writer_escapes_as_json_dumps():
    for value in ESCAPED:
        assert cli._dumps(value) == json.dumps(value)
    nested = {"list": ESCAPED, "keys": {s: [s, None, True, False, -3, 10**40] for s in ESCAPED}, "": [[], {}]}
    assert cli._dumps(nested) == json.dumps(nested, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [(1,), 1.5, {1: 2}, {("a",): 1}, {"a"}, b"a", [{"a": (1,)}]])
def test_json_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._dumps(value)


def test_round_trip_normalization(capsys, tmp_path):
    # one normalization pass is idempotent, including explicit inf edges
    messy = tmp_path / "messy.graph"
    messy.write_text("vertices: b a\nedge b a 3\nedge a b 3\n# comment\n")
    g = parse_graph(messy.read_text())
    once = graph_to_text(g)
    assert graph_to_text(parse_graph(once)) == once


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# Argvs that cli._match parses itself: every command, and one of each kind
# of benchmark request.  A name ending in .graph is a file in tests/data, and
# DIR is a directory holding three of them.
MATCHED = [
    ["analyze", "edge3.graph"],
    ["analyze", "single_vertex.graph", "--json"],
    ["analyze", "--dir", "DIR", "--json"],
    ["analyze", "--dir", "DIR"],
    ["analyze", "missing.graph"],
    ["retract", "handtrace.graph", "s,t", "r s r^-1", "--json"],
    ["retract", "handtrace.graph", "s,t", "r s r^-1", "--json", "--trace"],
    ["retract", "handtrace.graph", "s,t", "r s r^-1", "--trace"],
    ["reduce", "highdeg96.graph", "x0 x2 x3", "--json"],
    ["reduce", "edge3.graph", ""],
    ["reduce", "edge3.graph", "s q"],
    ["coset", "edge3.graph", "s", "s t", "--json"],
    ["split", "path33.graph", "a", "c"],
    ["word", "handtrace.graph", "r s r^-1 s^-1", "--json"],
    ["dihedral", "edge3.graph", "s t s t", "--json"],
    ["dihedral", "edge3.graph", "s t s", "t s t", "--json"],
    ["dihedral", "edgeinf.graph", "s t t^-1 s"],
]

# Argvs that cli._match refuses and argparse parses, or rejects with exit 2.
REFUSED = [
    [],
    ["-h"],
    ["--help"],
    ["--version"],
    ["-"],
    ["--"],
    ["nosuch", "edge3.graph"],
    ["--json", "reduce", "edge3.graph", "s"],
    ["reduce", "-h"],
    ["analyze", "--help"],
    ["dihedral", "edge3.graph", "s", "--help"],
    ["reduce", "edge3.graph", "--", "s t"],
    ["reduce", "edge3.graph", "-"],
    ["reduce", "edge3.graph", "-s t"],
    ["reduce", "edge3.graph", "-1"],
    ["reduce", "edge3.graph", "s", "--js"],
    ["analyze", "edge3.graph", "--max-v", "3"],
    ["analyze", "edge3.graph", "--max-vertices=3"],
    ["analyze", "--dir=DIR"],
    ["reduce", "edge3.graph", "s", "--json", "--json"],
    ["analyze", "edge3.graph", "--max-vertices", "3", "--max-vertices", "4"],
    ["analyze", "--json", "edge3.graph"],
    ["analyze", "--dir", "DIR", "edge3.graph"],
    ["retract", "handtrace.graph", "s,t", "--trace", "r s"],
    # argparse's handling of this differs between Python releases (3.10.13 to
    # 3.13.0 exit 2)
    ["dihedral", "edge3.graph", "s t s", "--json", "t s t"],
    ["analyze", "edge3.graph", "--max-vertices", "+5"],
    ["analyze", "edge3.graph", "--max-vertices", "1_0"],
    ["analyze", "edge3.graph", "--max-vertices", "\u0665"],
    # the option is gone: a usage error, like any unknown option
    ["analyze", "unknown_clique.graph", "--max-vertices", "3", "--json"],
    ["analyze", "edge3.graph", "--max-vertices", "007"],
    ["analyze", "edge3.graph", "--json", "--dir", "DIR", "--max-vertices", "16"],
    ["analyze", "edge3.graph", "--max-vertices", "-5"],
    ["analyze", "edge3.graph", "--max-vertices", "x"],
    ["analyze", "edge3.graph", "--max-vertices", ""],
    ["analyze", "edge3.graph", "--max-vertices"],
    ["analyze", "edge3.graph", "--max-vertices", "9" * 5000],
    ["analyze"],
    ["analyze", "--json"],
    ["analyze", ""],
    ["analyze", "--dir", ""],
    ["analyze", "--dir"],
    ["analyze", "edge3.graph", "--dir", "--json"],
    ["analyze", "edge3.graph", "edge3.graph"],
    ["reduce", "edge3.graph"],
    ["reduce", "edge3.graph", "s", "t"],
    ["reduce", "edge3.graph", "s", "--trace"],
    ["reduce", "edge3.graph", "s", "--bogus"],
    ["reduce", "edge3.graph", "s", "-x"],
    ["dihedral", "edge3.graph"],
    ["dihedral", "edge3.graph", "s", "t", "s"],
]


def _corpus_argv(argv, directory):
    return [str(directory) if a == "DIR" else str(DATA / a) if a.endswith(".graph") else a
            for a in argv]


def _outcome(capsys, run, argv, directory):
    """Exit code, stdout, stderr and the reports written by one run."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    reports = {}
    for path in sorted(directory.glob("*.report.json")):
        reports[path.name] = path.read_bytes()
        path.unlink()
    return code, out, err, reports


def _subparsers(parser):
    (action,) = [a for a in parser._actions if a.dest == "command"]
    return action.choices


@pytest.mark.parametrize(
    "argv, matched",
    [(argv, True) for argv in MATCHED] + [(argv, False) for argv in REFUSED],
    ids=[" ".join(argv)[:60] for argv in MATCHED + REFUSED],
)
def test_cli_parses_like_the_reference_parser(capsys, tmp_path, argv, matched):
    # same exit code, output and reports as the hand-written parser, and the
    # same namespace wherever the matcher parses the argv itself
    for name in ("edge3", "single_vertex", "unknown_clique"):
        (tmp_path / f"{name}.graph").write_text((DATA / f"{name}.graph").read_text())
    argv = _corpus_argv(argv, tmp_path)
    assert _outcome(capsys, main, argv, tmp_path) == _outcome(capsys, reference_main, argv, tmp_path)
    if matched:
        assert vars(cli._match(argv)) == vars(reference_parser().parse_args(argv))
    else:
        assert cli._match(argv) is None


def test_parser_help_is_the_reference_help():
    built, reference = cli._build_parser(), reference_parser()
    assert built.format_help() == reference.format_help()
    assert built.format_usage() == reference.format_usage()
    subs, reference_subs = _subparsers(built), _subparsers(reference)
    assert list(subs) == list(reference_subs) == list(cli._COMMANDS)
    for name, sub in subs.items():
        assert sub.format_help() == reference_subs[name].format_help(), name
        assert sub.format_usage() == reference_subs[name].format_usage(), name


HUGE_LABEL_GRAPH = "vertices: s t\nedge s t 1000000000\n"


def test_analyze_huge_label_is_a_one_line_input_error(capsys, tmp_path):
    # I2(10^9) is spherical; its center generator (s t)^(5 * 10^8) passes the
    # word guard, which must trip before any letter is built
    graph = tmp_path / "huge.graph"
    graph.write_text(HUGE_LABEL_GRAPH)
    for extra in ((), ("--json",)):
        code, out, err = run(capsys, "analyze", graph, *extra)
        assert code == 1
        assert out == ""
        assert err == "error: word exceeds the 1000000-letter guard\n"


def test_analyze_dir_records_the_huge_label_and_goes_on(capsys, tmp_path):
    (tmp_path / "a.graph").write_text(HUGE_LABEL_GRAPH)
    (tmp_path / "b.graph").write_text((DATA / "edge3.graph").read_text())
    code, out, err = run(capsys, "analyze", "--dir", tmp_path, "--json")
    assert code == 1
    assert err.count("\n") == 1 and "a.graph: error: word exceeds" in err
    summary = json.loads(out)
    assert summary[0]["error"] == "word exceeds the 1000000-letter guard"
    assert summary[1]["established"] is True
    assert not (tmp_path / "a.report.json").exists()
    assert (tmp_path / "b.report.json").exists()


def test_dihedral_normal_form_past_the_letter_guard_is_an_input_error(capsys, tmp_path):
    # s t^-1 s has a factor of m - 1 letters; spelling it would take gigabytes
    graph = tmp_path / "huge.graph"
    graph.write_text(HUGE_LABEL_GRAPH)
    for extra in ((), ("--json",)):
        code, out, err = run(capsys, "dihedral", graph, "s t^-1 s", *extra)
        assert code == 1
        assert out == ""
        assert err == "error: normal form exceeds the 1000000-letter guard\n"
    code, env = run_json(capsys, "dihedral", graph, "s t^-1 s", "s t^-1 s")
    assert code == 0 and env["result"]["equal"] is True


def test_word_commands_past_the_field_guard_are_input_errors(capsys, tmp_path):
    # labels 10^9 and 1000003 give fields of degree 4 * 10^8 and 1000002
    prime = tmp_path / "prime.graph"
    prime.write_text("vertices: s t\nedge s t 1000003\n")
    huge = tmp_path / "huge.graph"
    huge.write_text(HUGE_LABEL_GRAPH)
    for graph in (huge, prime):
        for argv in (
            ("reduce", graph, "s t"),
            ("coset", graph, "s", "s t"),
            ("retract", graph, "s", "s t"),
            ("retract", graph, "s", "s t", "--trace"),
            ("word", graph, "s t"),
        ):
            for extra in ((), ("--json",)):
                code, out, err = run(capsys, *argv, *extra)
                assert code == 1
                assert out == ""
                assert err == f"error: field exceeds the {MAX_FIELD_DEGREE}-degree guard\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("reduce", "v0 v1 v0"),
        ("coset", "v0", "v0 v1 v0"),
        ("word", "v0 v1 v0"),
        ("retract", "v0", "v0 v1 v0"),
        ("retract", "v0", "v0 v1 v0", "--trace"),
    ],
    ids=["reduce", "coset", "word", "retract", "retract-trace"],
)
def test_kernel_commands_refuse_graphs_past_the_vertex_guard(capsys, tmp_path, argv):
    # a path with labels 3: its matrices would hold n^2 ints
    n = MAX_VERTICES
    for count, expected in ((n, 0), (n + 1, 1)):
        names = [f"v{i}" for i in range(count)]
        graph = tmp_path / f"path{count}.graph"
        edges = "".join(f"edge {u} {v} 3\n" for u, v in zip(names, names[1:]))
        graph.write_text(f"vertices: {' '.join(names)}\n{edges}")
        code, out, err = run(capsys, argv[0], graph, *argv[1:])
        assert code == expected
        if expected:
            assert (out, err) == ("", f"error: graph has {count} vertices; kernel guard is {n}\n")


def _random_graph_text(rng, n):
    names = [f"v{i}" for i in range(n)]
    edges = "".join(
        f"edge {u} {v} {rng.choice((2, 3, 4, 5, 'inf'))}\n" for u, v in combinations(names, 2)
    )
    return f"vertices: {' '.join(names)}\n{edges}"


def test_guards_fail_as_one_line_input_errors(capsys, tmp_path):
    # graphs at the vertex guard and at the clique budget: each run exits 0,
    # 1 or 2, an error is one stderr line, and a second run repeats the bytes
    rng = random.Random(59)
    n = MAX_VERTICES
    cases = []
    for count in (n - 1, n, n + 1):
        path = tmp_path / f"random{count}.graph"
        path.write_text(_random_graph_text(rng, count))
        cases.append((("analyze", path), 1 if count > n else None))
        cases.append((("analyze", path, "--json"), 1 if count > n else None))
    cases.append((("reduce", tmp_path / f"random{n + 1}.graph", "v0 v1 v0"), 1))
    for layers, expected in ((7, 0), (8, 1)):
        path = tmp_path / f"layered{3 * layers}.graph"
        path.write_text(layered_fc_graph_text(layers))
        cases.append((("analyze", path), expected))
        cases.append((("analyze", path, "--json"), expected))
    for argv, expected in cases:
        first = run(capsys, *argv)
        assert run(capsys, *argv) == first
        code, out, err = first
        assert code in (0, 1, 2) and "Traceback" not in err
        if expected is not None:
            assert code == expected, argv
        if code == 1:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        else:
            assert err == ""
    assert run(capsys, "analyze", tmp_path / f"random{n + 1}.graph")[2] == (
        f"error: graph has {n + 1} vertices; guard is {n}\n"
    )
    assert run(capsys, "analyze", tmp_path / "layered24.graph")[2] == (
        "error: FC-type test exceeds the 2187-maximal-clique guard\n"
    )


@pytest.mark.parametrize("dir_first", [False, True])
def test_analyze_refuses_a_graph_and_a_directory_together(capsys, tmp_path, dir_first):
    graph = tmp_path / "edge3.graph"
    graph.write_text((DATA / "edge3.graph").read_text())
    given = [str(graph), "--dir", str(tmp_path)]
    argv = ["analyze", *(given[1:] + given[:1] if dir_first else given)]
    assert cli._match(argv) is None
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith("error: analyze needs a graph file or --dir, not both\n")
    assert not list(tmp_path.glob("*.report.json"))


def test_even_label_field_is_half_the_gram_field(capsys, tmp_path):
    # an even label m needs Q(zeta_m), of degree phi(m): 2^15 for m = 2^16,
    # which the guard admits (the Gram form's Q(zeta_2m) would be 2^16)
    graph = tmp_path / "pow2.graph"
    graph.write_text("vertices: s t\nedge s t 65536\n")
    code, out, err = run(capsys, "reduce", graph, "t s t")
    assert (code, err) == (0, "")
    assert out.startswith("reduced word: t s t\n")


def test_label_past_the_halved_field_guard_is_an_input_error(capsys, tmp_path):
    # m = 2^17 needs degree 2^16
    graph = tmp_path / "pow2.graph"
    graph.write_text("vertices: s t\nedge s t 131072\n")
    code, out, err = run(capsys, "reduce", graph, "t s t")
    assert (code, out) == (1, "")
    assert err == f"error: field exceeds the {MAX_FIELD_DEGREE}-degree guard\n"


FIELD_MODULES = ("artincenter.scalar", "artincenter.coxeter", "artincenter.retraction")


def _fresh_run(argv, report, setup="", flags=(), code=0):
    """Run the CLI in a fresh interpreter, started with the flags, after the
    setup lines; check its exit code and return its stdout and the repr of the
    report expression evaluated afterwards."""
    script = (
        "import sys\n"
        f"{setup}"
        "from artincenter.cli import main\n"
        "try:\n"
        f"    code = main({[str(a) for a in argv]!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        f"assert code == {code!r}, code\n"
        f"print({report})\n"
    )
    src = str(pathlib.Path(__file__).parent.parent / "src")
    done = subprocess.run(
        [sys.executable, *flags, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    *out, reported = done.stdout.splitlines()
    return "\n".join(out), reported


# dataclasses costs about 10 ms of start-up, most of it in importing inspect
RECORD_MODULES = ("dataclasses", "inspect")

# OpenSSL's hashlib backend costs 4-6 ms of start-up; the input digest uses
# the interpreter's own SHA-256
OPENSSL_MODULES = ("_hashlib",)


# the field arithmetic: only graphs with a label outside {2, 3, 4, 6, inf} need it
SCALAR_MODULES = ("artincenter.scalar", "fractions")
CARTAN = "cycle46inf.graph"  # a 4-cycle labelled 4, 6, 4 and inf


@pytest.mark.parametrize(
    "argv, expected, unloaded",
    [
        (["analyze", "edge3.graph"], "center generators: s t s t s t", FIELD_MODULES + RECORD_MODULES),
        (
            ["dihedral", "edge3.graph", "s t^-1 s"],
            "normal form: delta^-1 . t . ts . s",
            FIELD_MODULES + ("artincenter.analyzer",) + RECORD_MODULES,
        ),
        (
            ["reduce", "edge3.graph", "t s t"],
            "reduced word: s t s",
            SCALAR_MODULES + ("artincenter.analyzer",) + RECORD_MODULES,
        ),
        (
            ["retract", "edge3.graph", "s", "t s t^-1 s", "--trace"],
            "output: s^-1",
            SCALAR_MODULES + ("artincenter.analyzer",) + RECORD_MODULES,
        ),
        (["reduce", CARTAN, "a b c d a b"], "left descents: {a}", SCALAR_MODULES),
        (["coset", CARTAN, "a,c", "c a d b a"], "reduced part:  b d a", SCALAR_MODULES),
        (["word", CARTAN, "a d a^-1 d^-1"], "Coxeter image reduced word: a d a d", SCALAR_MODULES),
        (["retract", CARTAN, "a,b,c", "c d b^-1 d^-1 a"], "retraction: c b^-1 a", SCALAR_MODULES),
        (["retract", CARTAN, "a,b,c", "c d b^-1 d^-1 a", "--trace"], "output: c b^-1 a", SCALAR_MODULES),
    ],
    ids=["analyze", "dihedral", "reduce", "retract-trace", "reduce-cartan", "coset-cartan",
         "word-cartan", "retract-cartan", "retract-trace-cartan"],
)
def test_graph_commands_do_not_load_field_arithmetic(argv, expected, unloaded):
    # each command loads only the layers it works in: the Coxeter commands
    # need the field arithmetic only for a label outside {2, 3, 4, 6, inf},
    # none of them needs the analyzer, and no command loads dataclasses or
    # OpenSSL
    command, graph, *rest = argv
    unloaded += OPENSSL_MODULES
    loaded_expr = f"[m for m in {unloaded!r} if m in sys.modules]"
    out, loaded = _fresh_run([command, DATA / graph, *rest], loaded_expr)
    assert loaded == "[]"
    assert expected in out


# the group elements and the diagram classification: plain retract reads only
# the Cartan realization's neighbour table and column updates
KERNEL_MODULES = ("artincenter.coxeter", "artincenter.diagram")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["edge3.graph", "s", "t s t^-1 s"], "retraction: s^-1"),
        ([CARTAN, "a,b,c", "c d b^-1 d^-1 a"], "retraction: c b^-1 a"),
        (["highdeg96.graph", "x0,x1", "x0 x2 x1 x0^-1 x3 x1"], "retraction: x0 x1"),
    ],
    ids=["int", "cartan", "field"],
)
def test_plain_retract_loads_only_the_cartan_realization(argv, expected):
    graph, *rest = argv
    loaded_expr = f"[m for m in {KERNEL_MODULES + ('artincenter.cartan',)!r} if m in sys.modules]"
    out, loaded = _fresh_run(["retract", DATA / graph, *rest], loaded_expr)
    assert loaded == "['artincenter.cartan']"
    assert expected in out


def test_traced_retract_loads_the_coxeter_kernel():
    # the control for the test above: the trace's coset splits and audit
    # reflections are group elements
    loaded_expr = f"[m for m in {KERNEL_MODULES!r} if m in sys.modules]"
    out, loaded = _fresh_run(["retract", DATA / "edge3.graph", "s", "t s t^-1 s", "--trace"], loaded_expr)
    assert "artincenter.coxeter" in loaded
    assert "output: s^-1" in out


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["reduce", "edge3.graph", "t s t"], "reduced word: s t s"),
        (["reduce", "highdeg96.graph", "x0 x2"], "reduced word: x0 x2"),
        (["dihedral", "edge3.graph", "s t^-1 s"], "normal form: delta^-1 . t . ts . s"),
        (["analyze", "edge3.graph"], "center generators: s t s t s t"),
    ],
    ids=["reduce", "reduce-field", "dihedral", "analyze"],
)
def test_single_file_commands_do_not_load_tempfile_or_pathlib(argv, expected):
    # only analyze --dir lists a directory and writes reports; -S keeps site,
    # which may load both itself, out of the interpreter's start-up
    command, graph, *rest = argv
    modules = ("tempfile", "pathlib")
    out, loaded = _fresh_run(
        [command, DATA / graph, *rest], f"[m for m in {modules!r} if m in sys.modules]", flags=("-S",)
    )
    assert loaded == "[]"
    assert expected in out


def test_analyze_dir_loads_tempfile_and_pathlib(tmp_path):
    # the control for the test above: the -S run sees what --dir loads
    (tmp_path / "edge3.graph").write_text((DATA / "edge3.graph").read_text())
    modules = ("tempfile", "pathlib")
    out, loaded = _fresh_run(
        ["analyze", "--dir", tmp_path], f"[m for m in {modules!r} if m in sys.modules]", flags=("-S",)
    )
    assert loaded == repr(list(modules))
    assert "edge3.graph: established, center rank 1" in out


# argparse brings gettext and locale (about 3.4 ms), and json brings its
# decoder and encoder: a well-formed argv needs neither, and JSON output loads
# json only to escape a string that is not printable ASCII
PARSER_MODULES = ("argparse", "gettext", "locale")


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["analyze", "edge3.graph"], []),
        (["analyze", "--dir", "DIR"], []),
        (["reduce", "edge3.graph", "t s t"], []),
        (["reduce", "edge3.graph", "t s t", "--json"], []),
        (["coset", "edge3.graph", "s", "s t", "--json"], []),
        (["retract", "edge3.graph", "s", "t s t^-1 s", "--trace"], []),
        (["dihedral", "edge3.graph", "s t s", "t s t", "--json"], []),
        (["analyze", "--dir", "DIR", "--json"], []),
    ],
    ids=["analyze", "analyze-dir", "reduce-text", "reduce-json", "coset", "retract-trace",
         "dihedral-eq", "analyze-dir-json"],
)
def test_well_formed_argv_does_not_load_argparse(argv, loaded, tmp_path):
    # -S keeps site, which may load some of these itself, out of start-up
    (tmp_path / "edge3.graph").write_text((DATA / "edge3.graph").read_text())
    modules = PARSER_MODULES + ("json",)
    _out, reported = _fresh_run(
        _corpus_argv(argv, tmp_path), f"[m for m in {modules!r} if m in sys.modules]", flags=("-S",)
    )
    assert reported == repr(loaded)


@pytest.mark.parametrize(
    "argv, code",
    [(["reduce", "-h"], 0), (["reduce", DATA / "edge3.graph"], 2)],
    ids=["help", "usage-error"],
)
def test_help_and_usage_errors_load_argparse(argv, code):
    # the control for the test above
    _out, reported = _fresh_run(
        argv, f"[m for m in {PARSER_MODULES!r} if m in sys.modules]", flags=("-S",), code=code
    )
    assert reported == repr(list(PARSER_MODULES))


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["analyze", "edge3.graph", "--json"], ["artincenter.diagram"]),
        (["reduce", "edge3.graph", "t s t", "--json"], ["artincenter.diagram"]),
        (["dihedral", "edge3.graph", "s t^-1 s", "--json"], []),
        (["dihedral", "edge3.graph", "s t s", "t s t", "--json"], []),
        (["split", "path33.graph", "a", "c", "--json"], []),
        (["dihedral", "edge3.graph", "s t^-1 s"], ["artincenter.text"]),
        (["split", "path33.graph", "a", "c"], ["artincenter.text"]),
        (["reduce", "edge3.graph", "t s t"], ["artincenter.diagram", "artincenter.text"]),
        (["analyze", "edge3.graph"], ["artincenter.diagram", "artincenter.text"]),
        (["analyze", "--dir", "DIR"], ["artincenter.corpus", "artincenter.diagram"]),
        (["analyze", "--dir", "DIR", "--json"], ["artincenter.corpus", "artincenter.diagram"]),
    ],
    ids=["analyze-json", "reduce-json", "dihedral-json", "dihedral-eq-json", "split-json",
         "dihedral-text", "split-text", "reduce-text", "analyze-text", "analyze-dir",
         "analyze-dir-json"],
)
def test_text_views_and_classifier_load_only_where_used(argv, loaded, tmp_path):
    # only text output of one result loads the text views, split and dihedral
    # never classify a diagram, and only analyze --dir loads its loop
    (tmp_path / "edge3.graph").write_text((DATA / "edge3.graph").read_text())
    modules = ("artincenter.corpus", "artincenter.diagram", "artincenter.text")
    _out, reported = _fresh_run(
        _corpus_argv(argv, tmp_path), f"[m for m in {modules!r} if m in sys.modules]"
    )
    assert reported == repr(loaded)


def test_analyze_dir_under_python_m_compiles_cli_once(tmp_path):
    # python -m runs cli as __main__; were corpus to import artincenter.cli,
    # that module would load and compile a second time
    (tmp_path / "edge3.graph").write_text((DATA / "edge3.graph").read_text())
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "artincenter.cli", "analyze", "--dir",
         str(tmp_path), "--json"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    imported = [line.rpartition("|")[2].strip() for line in done.stderr.splitlines()]
    assert "artincenter.corpus" in imported
    assert "artincenter.cli" not in imported


def test_non_crystallographic_graphs_load_field_arithmetic():
    # labels 5 and 9 give the Cartan ring Q(zeta_45); its arithmetic needs
    # neither fractions nor decimal, and the digest needs no OpenSSL
    modules = ("artincenter.scalar", "fractions", "decimal") + OPENSSL_MODULES
    out, loaded = _fresh_run(
        ["reduce", DATA / "highdeg96.graph", "x0 x2"],
        f"[m for m in {modules!r} if m in sys.modules]",
    )
    assert loaded == "['artincenter.scalar']"
    assert "reduced word: x0 x2" in out


@pytest.mark.parametrize("builtin", [True, False], ids=["builtin", "hashlib-fallback"])
def test_input_digest_is_sha256(builtin, monkeypatch):
    # the envelope's digest comes from the interpreter's own SHA-256 module,
    # or from hashlib where the build has neither _sha2 nor _sha256
    import hashlib

    if not builtin:
        monkeypatch.setitem(sys.modules, "_sha2", None)
        monkeypatch.setitem(sys.modules, "_sha256", None)
    paths = sorted(DATA.glob("*.graph"))
    assert paths
    for path in paths:
        _g, info = cli._load_graph(str(path))
        assert info == {"path": str(path), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    if builtin:
        assert ("_sha2" if sys.version_info >= (3, 12) else "_sha256") in sys.modules


@pytest.mark.parametrize("degree", [96, 1152])
def test_high_degree_signs_never_reach_the_interval_ladder(degree):
    # the benchmark's reduce-highdeg graphs: the first rung reads its 120-bit
    # table and decides every descent sign, so no later rung is built
    graph = DATA / f"highdeg{degree}.graph"
    word = "x0 x3 x0 x2 x3 x2^-1 x1 x0^-1 x3 x2^-1 x1^-1 x0^-1 x2 x3 x1"
    setup = (
        "from artincenter.scalar import FieldContext\n"
        "first, later = [], []\n"
        "table, build = FieldContext.cos_table, FieldContext.cos_enclosures\n"
        "FieldContext.cos_table = lambda ctx: first.append(1) or table(ctx)\n"
        "FieldContext.cos_enclosures = lambda ctx, prec: later.append(prec) or build(ctx, prec)\n"
    )
    for argv in (["reduce", graph, word], ["coset", graph, "x0,x1", word]):
        _out, reported = _fresh_run(argv, "(len(first) > 0, later)", setup)
        assert reported == "(True, [])", argv


def test_package_never_imports_mpmath():
    # mpmath is a test dependency only: the interval oracle in helpers.py
    for path in (pathlib.Path(__file__).parent.parent / "src" / "artincenter").glob("*.py"):
        assert "mpmath" not in path.read_text(), path


# -- process exit -------------------------------------------------------------

SRC = str(pathlib.Path(__file__).parent.parent / "src")
# the process entry, which ends without the interpreter's teardown, and main
# under sys.exit, which goes through it: they must agree byte for byte
ENTRY = ("-m", "artincenter.cli")
SYS_EXIT_MAIN = ("-c", "import sys; from artincenter.cli import main; sys.exit(main())")
CORPUS = ("edge3", "single_vertex", "triangle333", "unknown_clique")
CARTAN_WORD = "c a d b a"

COMMAND_CASES = [
    (("analyze", "edge3.graph"), 0),
    (("analyze", "unknown_clique.graph"), 2),
    (("analyze", "missing.graph"), 1),
    (("analyze", "bad.graph"), 1),
    (("analyze", "--dir", "corpus"), 2),
    (("analyze", "--dir", "broken"), 1),
    (("analyze", "--dir", "empty"), 1),
    (("retract", "handtrace.graph", "s,t", "r s r^-1 t r s"), 0),
    (("retract", "handtrace.graph", "s,t", "r s r^-1 t r s", "--trace"), 0),
    (("retract", "handtrace.graph", "s,z", "r s"), 1),
    (("reduce", CARTAN, CARTAN_WORD), 0),
    (("reduce", "edge3.graph", "s x"), 1),
    (("coset", CARTAN, "a,c", CARTAN_WORD), 0),
    (("split", CARTAN, "a", "d"), 0),
    (("split", CARTAN, "a", "c"), 1),  # label(a, c) is finite
    (("word", "handtrace.graph", "r s r^-1 t r s"), 0),
    (("dihedral", "edge3.graph", "s t^-1 s"), 0),
    (("dihedral", "edge3.graph", "s t s", "t s t"), 0),
    (("dihedral", "edgeinf.graph", "s t t^-1 s"), 0),
    (("dihedral", CARTAN, "a"), 1),
]
# argparse's exits, then every command case in text and under --json
EXIT_CASES = [
    ((), 2),  # no command
    (("reduce", "edge3.graph"), 2),  # a missing positional
    (("--help",), 0),
    (("retract", "--help"), 0),
    (("--version",), 0),
] + COMMAND_CASES + [(argv + ("--json",), code) for argv, code in COMMAND_CASES]


def _exit_workdir(path: pathlib.Path) -> pathlib.Path:
    path.mkdir()
    for graph in DATA.glob("*.graph"):
        shutil.copy(graph, path)
    (path / "bad.graph").write_text("vertices: a a\n")
    for name, graphs in (("corpus", CORPUS), ("broken", CORPUS + ("bad",))):
        (path / name).mkdir()
        for graph in graphs:
            shutil.copy(path / f"{graph}.graph", path / name)
    (path / "empty").mkdir()
    return path


def _run_entry(entry, argv, cwd, path=(), stdout=subprocess.PIPE, unbuffered=False):
    # stdout buffered unless asked, as a pipe has it by default, so that the
    # output waits for the final flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join([*map(str, path), SRC])
    return subprocess.run([sys.executable, *entry, *argv], cwd=cwd, env=env, stdout=stdout,
                          stderr=subprocess.PIPE, timeout=60)


def _reports(path: pathlib.Path) -> dict[str, bytes]:
    return {str(p.relative_to(path)): p.read_bytes() for p in sorted(path.rglob("*.report.json"))}


@pytest.mark.parametrize("argv, code", EXIT_CASES, ids=[" ".join(a) or "no-args" for a, _ in EXIT_CASES])
def test_process_entry_matches_main_under_sys_exit(tmp_path, argv, code):
    runs = []
    for entry in (ENTRY, SYS_EXIT_MAIN):
        cwd = _exit_workdir(tmp_path / str(len(runs)))
        done = _run_entry(entry, argv, cwd)
        runs.append((done.returncode, done.stdout, done.stderr, _reports(cwd)))
    assert runs[0] == runs[1]
    assert runs[0][0] == code
    assert bool(runs[0][3]) == (argv[:2] == ("analyze", "--dir") and argv[2] != "empty")


def test_process_entry_reports_a_closed_stdout_as_the_teardown_does(tmp_path):
    # buffered, the final flush fails on a pipe with no reader, and the
    # interpreter's teardown reports that as exit 120 with its "Exception
    # ignored" line; unbuffered, or past the buffer, the write itself fails,
    # which is no input error either: exit 120 and no error line
    short = ["dihedral", DATA / "edge3.graph", "s t s"]
    long = ["retract", DATA / "handtrace.graph", "s,t", "r s r^-1 t r s " * 30, "--trace", "--json"]
    for argv, unbuffered, teardown_line in ((short, False, True), (short, True, False),
                                            (long, False, False)):
        results = []
        for entry in (ENTRY, SYS_EXIT_MAIN):
            read, write = os.pipe()
            os.close(read)
            try:
                done = _run_entry(entry, argv, tmp_path, (), write, unbuffered)
            finally:
                os.close(write)
            results.append((done.returncode, done.stderr))
        assert results[0] == results[1]
        code, stderr = results[0]
        assert code == 120 and b"error:" not in stderr
        assert (b"BrokenPipeError" in stderr) == teardown_line and stderr.count(b"\n") <= 2


def test_process_entry_leaves_the_profile_report(tmp_path):
    done = _run_entry(("-m", "cProfile", *ENTRY), ["dihedral", DATA / "edge3.graph", "s t s"], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(b"normal form: delta^1 . 1\n")
    assert b"function calls" in done.stdout


def test_process_entry_runs_the_atexit_callbacks_of_sitecustomize(tmp_path):
    marker = tmp_path / "marker"
    (tmp_path / "sitecustomize.py").write_text(
        "import atexit\n"
        f"atexit.register(lambda: open({str(marker)!r}, 'w').write('ran'))\n"
    )
    done = _run_entry(ENTRY, ["dihedral", DATA / "edge3.graph", "s t s"], tmp_path, [tmp_path])
    assert (done.returncode, done.stderr) == (0, b"")
    assert marker.read_text() == "ran"
