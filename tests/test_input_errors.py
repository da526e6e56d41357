"""A seeded sweep of the input-error contract through ``python -m artincenter.cli``.

Graph files and words are generated at each guard and parser edge: vertex
counts on either side of the 256-vertex guard, FC-type graphs on either side
of the clique budget, labels 1, 2, 10^9, 4,301 digits, Unicode digits and
spellings of infinity, repeated and conflicting edges, bad UTF-8, exponents
around the 10^6-letter guard and past int()'s 4,300 digits, Unicode zeros,
unknown letters and subsets with unknown vertices.  The seed picks which
command reads each input and whether it prints text or JSON.  Every case
must exit 0, 1 or 2; exit 1 comes with exactly one stderr line, an error
line; no case prints a traceback; JSON output parses; and a rerun gives the
same bytes.
"""

import json
import os
import pathlib
import random
import resource
import subprocess
import sys

from helpers import layered_fc_graph_text

SRC = str(pathlib.Path(__file__).parent.parent / "src")
SEED = 24


def _path_graph(n: int) -> bytes:
    names = [f"v{i}" for i in range(n)]
    edges = "".join(f"edge v{i} v{i + 1} 3\n" for i in range(n - 1))
    return f"vertices: {' '.join(names)}\n{edges}".encode()


def _edge(label: str) -> bytes:
    return f"vertices: s t\nedge s t {label}\n".encode()


# name -> graph file bytes, each at a guard or a parser edge
GRAPHS = {
    "path256": _path_graph(256),
    "path257": _path_graph(257),
    "fc21": layered_fc_graph_text(7).encode(),
    "fc24": layered_fc_graph_text(8).encode(),
    "label1": _edge("1"),
    "label2": _edge("2"),
    "label3": _edge("3"),
    "label1e9": _edge(str(10**9)),
    "label4301": _edge("7" * 4301),
    "label_fullwidth": _edge("３"),
    "label_hex": _edge("0x3"),
    "label_negative": _edge("-3"),
    "label_inf": _edge("inf"),
    "label_INF": _edge("INF"),
    "label_infinity_sign": _edge("∞"),
    "repeated_edge": b"vertices: s t u\nedge s t 3\nedge t s 3\nedge t u 4\n",
    "conflicting_edge": b"vertices: s t\nedge s t 3\nedge t s 4\n",
    "conflicting_inf": b"vertices: s t\nedge s t inf\nedge s t 3\n",
    "bad_utf8": b"vertices: s t\nedge s t 3 # \xff\xfe\n",
    "blank_and_comments": b"\n# a comment\n\nvertices: s t # two\n\n  edge s t 5  \n#\n",
    "no_vertices": b"# nothing\n\n",
    "duplicate_vertex": b"vertices: s s\n",
    "unicode_vertex": "vertices: s é\n".encode(),
    "self_loop": b"vertices: s t\nedge s s 3\n",
    "unknown_endpoint": b"vertices: s t\nedge s x 3\n",
    "short_edge_line": b"vertices: s t\nedge s t\n",
}

# words over s and t at the letter guard and the exponent parser's edges
WORDS = [
    "s^999999 t^2",
    "s^1000001",
    "s^500000 t^-500001",
    "s^" + "9" * 4300,
    "s^" + "9" * 4301,
    "s^" + "0" * 5000 + "3",
    "s^٠",
    "s^٠٣ t",
    "s^-0",
    "s^",
    "^3",
    "s^+3",
    "s^3^2",
    "s x",
    "s s s t t t",
    "",
    "s t^-1 s",
]
SUBSETS = ["s", "s,t", "s,x", ",", "s,s", " t , s "]


WORD_COMMANDS = ["reduce", "coset", "retract", "retract-trace", "word", "dihedral", "dihedral-eq"]


def _command(rng: random.Random, kinds: list[str], graph: str, word: str) -> list[str]:
    """One command line reading the graph, of a kind the seed picks."""
    kind = rng.choice(kinds)
    subset = rng.choice(SUBSETS)
    argv = {
        "analyze": ["analyze", graph],
        "reduce": ["reduce", graph, word],
        "coset": ["coset", graph, subset, word],
        "retract": ["retract", graph, subset, word],
        "retract-trace": ["retract", graph, subset, word, "--trace"],
        "word": ["word", graph, word],
        "split": ["split", graph, "s", rng.choice(["t", "u", "x"])],
        "dihedral": ["dihedral", graph, word],
        "dihedral-eq": ["dihedral", graph, word, rng.choice(WORDS[-3:])],
    }[kind]
    return argv + (["--json"] if rng.random() < 0.5 else [])


def edge_cases(seed: int) -> list[list[str]]:
    """The sweep's command lines: the guard graphs under the commands that
    reach their guard, then every other graph and every word under a command
    the seed picks; each word goes to a command that parses it, on a graph
    with two vertices."""
    rng = random.Random(seed)
    cases = [
        ["analyze", "path256.graph"],
        ["analyze", "path257.graph", "--json"],
        ["reduce", "path256.graph", "v0 v1 v0"],
        ["reduce", "path257.graph", "v0 v1 v0"],
        ["analyze", "fc21.graph"],
        ["analyze", "fc24.graph", "--json"],
        ["analyze", "--dir", "corpus"],
        ["analyze", "--dir", "corpus", "--json"],
    ]
    for name in GRAPHS:
        if not name.startswith(("path", "fc")):
            kinds = ["analyze", "split"] + WORD_COMMANDS
            cases.append(_command(rng, kinds, f"{name}.graph", rng.choice(WORDS)))
    for word in WORDS:
        graph = rng.choice(["label3.graph", "label1e9.graph"])
        cases.append(_command(rng, WORD_COMMANDS, graph, word))
    return cases


def _cap_memory() -> None:
    # a runaway allocation fails the case, not the host
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def _run_twice(argv: list[str], cwd: pathlib.Path) -> list[tuple[int, bytes, bytes]]:
    """(exit code, stdout, stderr) of two runs of the command line, side by side."""
    env = {**os.environ, "PYTHONPATH": SRC}
    # -S: site is most of a start-up, and the package needs nothing from it
    runs = [
        subprocess.Popen([sys.executable, "-S", "-m", "artincenter.cli", *argv], cwd=cwd, env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, preexec_fn=_cap_memory)
        for _ in range(2)
    ]
    outputs = [run.communicate(timeout=60) for run in runs]
    return [(run.returncode, out, err) for run, (out, err) in zip(runs, outputs)]


def test_every_edge_case_fails_as_an_input_error_or_succeeds(tmp_path):
    for name, text in GRAPHS.items():
        (tmp_path / f"{name}.graph").write_bytes(text)
    (tmp_path / "corpus").mkdir()
    for name in ("label3", "label1e9", "repeated_edge"):
        (tmp_path / "corpus" / f"{name}.graph").write_bytes(GRAPHS[name])
    for argv in edge_cases(SEED):
        first, rerun = _run_twice(argv, tmp_path)
        assert rerun == first, argv
        code, out, err = first
        assert code in (0, 1, 2), (argv, first)
        assert b"Traceback" not in err, (argv, err)
        lines = err.decode().splitlines()
        batch = argv[1] == "--dir"
        if code == 1:
            # under --dir, the one bad file's line leads with its path
            prefix_ok = ": error: " in lines[0] if batch else lines[0].startswith("error: ")
            assert len(lines) == 1 and prefix_ok, (argv, err)
        if "--json" in argv and (code != 1 or batch):
            json.loads(out)
        elif code == 1 and not batch:
            assert out == b"", (argv, out)
