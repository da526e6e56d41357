import json
import os
import pathlib
import random
import subprocess
import sys

import jsonschema
import pytest

from artincenter import retraction
from artincenter.cli import main
from artincenter.graph import parse_graph
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
    big = tmp_path / "big.graph"
    big.write_text("vertices: a b c d e\n")
    code, _, err = run(capsys, "analyze", big, "--max-vertices", "4")
    assert code == 1 and "guard" in err
    # the flag is the only vertex guard: the 17-vertex affine cycle A~16
    # (labels 3 around the cycle, explicit 2 elsewhere) passes with 20
    names = [f"c{i}" for i in range(17)]
    lines = ["vertices: " + " ".join(names)]
    for i in range(17):
        for j in range(i + 1, 17):
            m = 3 if j == i + 1 or (i, j) == (0, 16) else 2
            lines.append(f"edge {names[i]} {names[j]} {m}")
    cycle = tmp_path / "cycle.graph"
    cycle.write_text("\n".join(lines) + "\n")
    code, env = run_json(capsys, "analyze", cycle, "--max-vertices", "20")
    assert code == 0
    assert [f["reason"] for f in env["result"]["factors"]] == ["EUCLIDEAN"]


def test_analyze_text_and_json_agree(capsys):
    code_t, text, _ = run(capsys, "analyze", DATA / "handtrace.graph")
    code_j, env = run_json(capsys, "analyze", DATA / "handtrace.graph")
    assert code_t == code_j == 0
    assert "ESTABLISHED" in text
    assert env["result"]["established"] is True
    assert f"center rank {env['result']['center_rank']}" in text


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


def test_round_trip_normalization(capsys, tmp_path):
    # one normalization pass is idempotent, including explicit inf edges
    messy = tmp_path / "messy.graph"
    messy.write_text("vertices: b a\nedge b a 3\nedge a b 3\n# comment\n")
    g = parse_graph(messy.read_text())
    once = g.to_text()
    assert parse_graph(once).to_text() == once


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


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


def _fresh_run(argv, report, setup=""):
    """Run the CLI in a fresh interpreter after the setup lines; return its
    stdout and the repr of the report expression evaluated afterwards."""
    script = (
        "import sys\n"
        f"{setup}"
        "from artincenter.cli import main\n"
        f"code = main({[str(a) for a in argv]!r})\n"
        "assert code == 0, code\n"
        f"print({report})\n"
    )
    src = str(pathlib.Path(__file__).parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    *out, reported = done.stdout.splitlines()
    return "\n".join(out), reported


# dataclasses costs about 10 ms of start-up, most of it in importing inspect
RECORD_MODULES = ("dataclasses", "inspect")


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
    # none of them needs the analyzer, and no command loads dataclasses
    command, graph, *rest = argv
    loaded_expr = f"[m for m in {unloaded!r} if m in sys.modules]"
    out, loaded = _fresh_run([command, DATA / graph, *rest], loaded_expr)
    assert loaded == "[]"
    assert expected in out


def test_non_crystallographic_graphs_load_field_arithmetic():
    # labels 5 and 9 give the Cartan ring Q(zeta_45)
    out, loaded = _fresh_run(
        ["reduce", DATA / "highdeg96.graph", "x0 x2"],
        f"[m for m in {SCALAR_MODULES!r} if m in sys.modules]",
    )
    assert loaded == repr(list(SCALAR_MODULES))
    assert "reduced word: x0 x2" in out


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
