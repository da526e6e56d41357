"""Tests of the benchmark itself: seeded inputs, the oracles and the tracing shim.

The oracles must accept real CLI outputs and flag corrupted ones.  The CLI runs
in-process here only to produce outputs; the shim runs in a subprocess, because
it patches the package it loads.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import oracles

from artincenter.cli import main as cli_main

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _first(workload, seed, count):
    stream = gen.requests(workload, seed)
    return [next(stream) for _ in range(count)]


@pytest.mark.parametrize("workload", ["certify-corpus", "reduce-highdeg", "retract-long",
                                      "garside-long"])
def test_same_seed_gives_identical_inputs(workload):
    def key(reqs):
        return [(r.kind, r.argv, r.files, json.dumps(r.expect, sort_keys=True)) for r in reqs]

    assert key(_first(workload, 5, 6)) == key(_first(workload, 5, 6))
    assert key(_first(workload, 5, 6)) != key(_first(workload, 6, 6))


def _run_cli(tmp_path, capsys, req):
    for name, text in req.files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    code = cli_main(req.argv)
    out = capsys.readouterr().out
    reports = {}
    if req.kind == "analyze-dir":
        for name in req.files:
            reports[name] = (tmp_path / (name[: -len(".graph")] + ".report.json")).read_text()
    return code, out, reports


def _edit(stdout, fn):
    env = json.loads(stdout)
    fn(env["result"])
    return json.dumps(env)


def test_certify_oracle_flags_wrong_rank_and_generator(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    req = gen.certify_request(3, 0, 6)
    req.files["r0/fam.graph"], req.expect["r0/fam.graph"] = gen.family_graph("B3")
    code, out, reports = _run_cli(tmp_path, capsys, req)
    verdicts = oracles.check(req, out, reports, {})
    assert len(verdicts) == 7 and all(v is not False for v in verdicts) and any(verdicts)

    def bump(res):
        res["center_rank"] += 1

    def shorten(res):
        res["factors"][0]["generator"] = res["factors"][0]["generator"].rsplit(" ", 1)[0]

    for corrupt in (bump, shorten):
        bad = dict(reports, **{"r0/fam.graph": _edit(reports["r0/fam.graph"], corrupt)})
        assert False in oracles.check(req, out, bad, {})


def _requests_of(workload, kinds):
    found = {}
    for req in gen.requests(workload, 2):
        if req.kind in kinds and req.kind not in found:
            found[req.kind] = req
        if len(found) == len(kinds):
            return found


@pytest.mark.parametrize("kind", ["reduce", "coset"])
def test_word_oracles_flag_corrupted_reduced_words(tmp_path, capsys, monkeypatch, kind):
    monkeypatch.chdir(tmp_path)
    req = _requests_of("reduce-highdeg", {kind})[kind]
    code, out, _ = _run_cli(tmp_path, capsys, req)
    assert code == 0 and oracles.check(req, out, {}, {}) == [True]
    field = "reduced_word" if kind == "reduce" else "reduced_part"

    def drop(res):
        res[field] = res[field][1:]

    assert oracles.check(req, _edit(out, drop), {}, {}) == [False]


def test_dihedral_oracles_flag_corrupted_outputs(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    reqs = _requests_of("garside-long", {"nf", "free", "eq"})
    corrupt = {
        "nf": lambda res: res["normal_form"].update(delta_power=res["normal_form"]["delta_power"] + 1),
        "free": lambda res: res.update(free_reduced=res["free_reduced"] + " s"),
        "eq": lambda res: res.update(equal=not res["equal"]),
    }
    for kind, req in reqs.items():
        code, out, _ = _run_cli(tmp_path, capsys, req)
        assert code == 0 and oracles.check(req, out, {}, {}) == [True], kind
        assert oracles.check(req, _edit(out, corrupt[kind]), {}, {}) == [False], kind


def test_retract_oracle_flags_trace_disagreeing_with_plain_output(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    stream = gen.requests("retract-long", 4)
    plain = next(r for r in stream if r.kind == "retract" and r.index % 10 == 2)
    traced = next(stream)
    assert traced.kind == "retract-trace" and traced.group == plain.group
    outputs = {}
    _, plain_out, _ = _run_cli(tmp_path, capsys, plain)
    _, traced_out, _ = _run_cli(tmp_path, capsys, traced)
    assert oracles.check(plain, plain_out, {}, outputs) == [True]
    assert oracles.check(traced, traced_out, {}, outputs) == [True]

    def extra_emission(res):
        step = res["trace"][0]
        step["emitted"] = None if step["emitted"] else [traced.expect["subset"][0], 1]

    def extra_letter(res):
        res["output"] = (res["output"] + " " + traced.expect["subset"][0]).strip()

    assert oracles.check(traced, _edit(traced_out, extra_emission), {}, outputs) == [False]
    assert oracles.check(traced, _edit(traced_out, extra_letter), {}, outputs) == [False]


def test_retract_oracle_requires_words_over_the_subset_to_pass_through():
    req = next(r for r in gen.requests("retract-long", 1) if r.expect["over_subset"])
    letters = req.expect["letters"]
    whole = {"result": {"output": gen.word_text(letters)}}
    short = {"result": {"output": gen.word_text(letters[1:])}}
    assert oracles.check(req, json.dumps(whole), {}, {}) == [True]
    assert oracles.check(req, json.dumps(short), {}, {}) == [False]


def _cli(tmp_path, argv, spans=None):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "artincenter.cli"] if spans is None else [
        sys.executable, str(HERE / "shim.py"), str(spans)]
    proc = subprocess.run(cmd + argv, cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    return proc.returncode, proc.stdout


def test_shim_keeps_outputs_and_patches_names_imported_by_value(tmp_path):
    req = gen.certify_request(1, 0, 8)
    for name, text in req.files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    (tmp_path / "t.graph").write_text(gen.graph_text(["a", "b", "c"], [(0, 1, 3), (1, 2, 4)]))
    retract = ["retract", "t.graph", "a,b", "a c b c^-1 a b^-1 c", "--json", "--trace"]
    for argv in (req.argv, retract):
        plain = _cli(tmp_path, argv)
        reports = {p: p.read_text() for p in sorted(tmp_path.rglob("*.report.json"))}
        assert _cli(tmp_path, argv, tmp_path / "spans.json") == plain
        assert {p: p.read_text() for p in sorted(tmp_path.rglob("*.report.json"))} == reports
        spans = {(n, p) for n, p, *_ in json.loads((tmp_path / "spans.json").read_text())["spans"]}
        if argv is retract:
            assert ("coxeter.coset_decompose", "retraction.retract_trace") in spans
            assert ("coxeter._mat_mul", "retraction._conjugated_reflection") in spans
        else:
            assert ("coxeter.is_spherical", "analyzer._resolve_factor") in spans
            assert ("analyzer.is_two_dimensional", "analyzer._resolve_factor") in spans
