"""The word commands' outputs against recorded ones, byte for byte.

data/kernel_outputs.json holds the exit code, stdout and stderr of reduce,
coset, word, retract and retract --trace, as text and under --json, for three
seeded words (and, where a command takes one, a seeded subset) on every graph
in data/ of at most 7 vertices.  Each command runs in data/ on the bare file
name, so the envelope's input path is the same wherever the suite runs.

The outputs were recorded from the kernel whose elements held both their
matrix and its inverse, before they held the inverse alone.  Running this
file as a script, ``PYTHONPATH=src python tests/test_kernel_outputs.py``,
records them again from the code on the path: that is for a deliberate
change of output only.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import random
import sys

from artincenter.cli import main
from artincenter.graph import parse_graph

DATA = pathlib.Path(__file__).parent / "data"
RECORDED = DATA / "kernel_outputs.json"
MAX_RECORDED_VERTICES = 7


def kernel_requests() -> list[list[str]]:
    """Every recorded command line, in a fixed order."""
    requests = []
    for path in sorted(DATA.glob("*.graph")):
        g = parse_graph(path.read_text())
        if len(g.vertices) > MAX_RECORDED_VERTICES:
            continue
        rng = random.Random(path.name)
        for _ in range(3):
            word = " ".join(
                rng.choice(g.vertices) + rng.choice(("", "^-1")) for _ in range(rng.randrange(3, 9))
            )
            subset = ",".join(v for v in g.vertices if rng.random() < 0.5) or g.vertices[-1]
            for argv in (
                ["reduce", path.name, word],
                ["coset", path.name, subset, word],
                ["word", path.name, word],
                ["retract", path.name, subset, word],
                ["retract", path.name, subset, word, "--trace"],
            ):
                requests += [argv, argv + ["--json"]]
    return requests


def run_in_data(argv: list[str]) -> dict:
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(DATA)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_word_commands_match_the_recorded_outputs():
    recorded = json.loads(RECORDED.read_text(encoding="utf-8"))
    requests = kernel_requests()
    assert [r["argv"] for r in recorded] == requests
    for entry in recorded:
        got = run_in_data(entry["argv"])
        assert got == {k: entry[k] for k in got}, entry["argv"]
    assert {r["code"] for r in recorded} == {0}
    assert sum(r["stdout"].startswith("{") for r in recorded) == len(recorded) // 2


if __name__ == "__main__":
    entries = [{"argv": argv, **run_in_data(argv)} for argv in kernel_requests()]
    RECORDED.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"recorded {len(entries)} outputs to {RECORDED}", file=sys.stderr)
