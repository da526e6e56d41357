"""The artincenter benchmark: one closed-loop client driving the CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Inputs come from ``gen.py`` and the seed;
each request is one ``python -m artincenter.cli`` process, started only after
the previous one exits, timed from outside, and every output is checked by
``oracles.py``.  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it runs each request twice, plainly and through ``shim.py``,
checks that both give byte-identical outputs, and prints the per-layer
metrics.  The last line of stdout is one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import layers  # noqa: E402
import oracles  # noqa: E402

WORKLOADS = ("certify-corpus", "reduce-highdeg", "retract-long", "garside-long")
REQUEST_TIMEOUT_S = 30.0  # the largest request takes about 3 s
SETUP_REPS = 7  # cold starts at least; plain runs make one before every SETUP_EVERY-th request
SETUP_EVERY = 4
# The host is shared, and its speed swings by up to 1.6x for tens of seconds
# at a time.  So each timed CLI run is divided by the mean wall time of this
# reference process, run just before and just after it: a Python start-up with
# a few standard imports and a fixed loop, about 0.1 s when the host is quiet.
# See README.md.
REFERENCE_CODE = """\
import argparse, dataclasses, fractions, itertools, json
total = 0
for i in range(300_000):
    total += i * i
"""
NOMINAL_REFERENCE_S = 0.1  # setup_s is given in seconds at this reference time
MIN_REQUESTS = 12  # a tail with ten samples beyond it needs at least eleven
MAX_LOOP_S = 120.0  # past this, stop even short of MIN_REQUESTS: a run must end within 180 s


class Client:
    """Starts CLI processes in a working directory inside the checkout."""

    def __init__(self, root: Path, workdir: Path):
        self.workdir = workdir
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        # set iteration order (e.g. networkx's clique search) follows string
        # hashes; a fixed hash seed makes equal inputs do equal work
        env["PYTHONHASHSEED"] = "0"
        self.env = env

    def write(self, files: dict[str, str]) -> None:
        for name, text in files.items():
            path = self.workdir / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)

    def run(self, argv: list[str], spans_out: str | None = None):
        """(exit code or None on timeout, stdout, wall seconds)."""
        if spans_out is None:
            cmd = [sys.executable, "-m", "artincenter.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "shim.py"), spans_out, *argv]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True,
                                  text=True, timeout=REQUEST_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, "", time.perf_counter() - start
        return proc.returncode, proc.stdout, time.perf_counter() - start

    def reference(self) -> float:
        """Wall time of one run of REFERENCE_CODE in a fresh interpreter."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", REFERENCE_CODE], cwd=self.workdir, env=self.env,
                       capture_output=True, timeout=REQUEST_TIMEOUT_S, check=True)
        return time.perf_counter() - start

    def reports(self, req) -> dict[str, str]:
        """The *.report.json files ``analyze --dir`` wrote, keyed by input name."""
        out = {}
        for name in req.files if req.kind == "analyze-dir" else ():
            path = self.workdir / (name[: -len(".graph")] + ".report.json")
            if path.exists():
                out[name] = path.read_text()
        return out


def cold_start(client: Client) -> float:
    """Wall time of one CLI run on the one-vertex graph."""
    code, out, wall = client.run(["analyze", "setup.graph", "--json"])
    if code != 0 or json.loads(out)["result"]["center_rank"] != 1:
        raise RuntimeError(f"cold start on the one-vertex graph failed (exit {code})")
    return wall


def setup_time(client: Client) -> float:
    """Median wall time of SETUP_REPS cold starts in a row."""
    client.write({"setup.graph": gen.SETUP_GRAPH})
    cold_start(client)  # the first start may compile bytecode
    return statistics.median(cold_start(client) for _ in range(SETUP_REPS))


class Tally:
    """Failures, checked outputs and work over one run."""

    def __init__(self):
        self.attempted = self.failed = self.checked = self.wrong = self.unchecked = 0
        self.work = 0
        self.plain_outputs: dict = {}

    def record(self, req, code, stdout, reports) -> None:
        self.attempted += 1
        if code not in oracles.EXPECTED_CODES.get(req.kind, (0,)):
            self.failed += 1
            return
        verdicts = oracles.check(req, stdout, reports, self.plain_outputs)
        self.checked += sum(v is not None for v in verdicts)
        self.wrong += sum(v is False for v in verdicts)
        self.unchecked += sum(v is None for v in verdicts)
        if not req.deferred:  # work outside the timed loop does not count
            self.work += len(json.loads(stdout)) if req.kind == "analyze-dir" else req.work


def _more(elapsed: float, seconds: float, done: int, minimum: int) -> bool:
    return elapsed < seconds or (done < minimum and elapsed < MAX_LOOP_S)


def run_plain(client: Client, workload: str, seed: int, seconds: float) -> tuple[dict, Tally, list]:
    client.write({"setup.graph": gen.SETUP_GRAPH})
    cold_start(client)  # the first start may compile bytecode
    tally, setups, walls, refs = Tally(), [], [], []
    pending, deferred = [], []
    stream = gen.requests(workload, seed)
    start = time.perf_counter()
    while len(walls) % gen.ROUND[workload] or _more(time.perf_counter() - start, seconds,
                                                     len(walls), MIN_REQUESTS):
        req = next(stream)
        if req.deferred:
            deferred.append(req)
            continue
        refs.append(client.reference())
        if len(walls) % SETUP_EVERY == 0:  # spread over the run, like the requests
            setups.append((cold_start(client), refs[-1]))
        client.write(req.files)
        code, out, wall = client.run(req.argv)
        walls.append(wall)
        pending.append((req, code, out, client.reports(req)))
    refs.append(client.reference())
    loop_s = time.perf_counter() - start
    # each request between the reference runs just before and just after it
    costs = [wall / ((before + after) / 2) for wall, before, after in zip(walls, refs, refs[1:])]
    while len(setups) < SETUP_REPS:
        ref = client.reference()
        setups.append((cold_start(client), ref))
    # deferred requests only serve the checks of the timed ones, so they run
    # after the timed loop and are checked first
    ran = []
    for req in deferred:
        client.write(req.files)
        ran.append((req, *client.run(req.argv)[:2], {}))
    for item in ran + pending:  # checks run after the timed loop
        tally.record(*item)
    tail_ref, tail_p = layers.tail(costs)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(NOMINAL_REFERENCE_S * w / r for w, r in setups), "s"),
        "work_per_ref": (tally.work / sum(costs), "work/ref"),
        "request_p50_ref": (statistics.median(costs), "ref"),
        "request_tail_ref": (tail_ref, "ref"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "completed_share": (1.0 - tally.failed / tally.attempted, "share"),
        "correct_share": (1.0 - tally.wrong / max(tally.checked, 1), "share"),
    }
    notes = [f"requests: {len(walls)} in {loop_s:.1f} s; request_tail_ref is p{tail_p:.0f} "
             f"of {len(walls)} samples; work is {gen.WORK_UNIT[workload]}",
             f"wall clock: cold start p50 {statistics.median(w for w, _ in setups):.6g} s, "
             f"request p50 {statistics.median(walls):.6g} s, tail {layers.tail(walls)[0]:.6g} s, "
             f"reference p50 {statistics.median(refs):.6g} s, "
             f"work per loop second {tally.work / loop_s:.6g}",
             f"outputs checked: {tally.checked}, wrong: {tally.wrong}, unchecked: {tally.unchecked}"]
    return metrics, tally, notes


def run_traced(client: Client, workload: str, seed: int, seconds: float,
               tmp: Path) -> tuple[dict, Tally, list]:
    setup_s = setup_time(client)
    tally = Tally()
    plain_s = traced_s = 0.0
    mismatches = 0
    dumps = []
    stream = gen.requests(workload, seed)
    start = time.perf_counter()
    pairs = 0
    while _more(time.perf_counter() - start, seconds, pairs, 4):
        req = next(stream)
        client.write(req.files)
        spans_path = tmp / f"spans{pairs}.json"
        runs = {}
        # alternate which side runs first; analyze --dir rewrites its reports
        for traced in ((False, True) if pairs % 2 == 0 else (True, False)):
            code, out, wall = client.run(req.argv, str(spans_path) if traced else None)
            runs[traced] = (code, out, wall, client.reports(req))
        pairs += 1
        (pcode, pout, pwall, prep), (tcode, tout, twall, trep) = runs[False], runs[True]
        plain_s += pwall
        traced_s += twall
        tally.record(req, pcode, pout, prep)
        tally.attempted += 1
        if tcode not in oracles.EXPECTED_CODES.get(req.kind, (0,)):
            tally.failed += 1
        else:
            tally.checked += 1
            if (tcode, tout, trep) != (pcode, pout, prep):
                mismatches += 1
                tally.wrong += 1
        if spans_path.exists():
            dumps.append(json.loads(spans_path.read_text()))
    metrics = layers.layer_metrics(dumps)
    metrics["trace.overhead_share"] = (traced_s / plain_s - 1.0, "share")
    accounted = sum(layers.root_seconds(d) for d in dumps)
    # share of the traced request time outside start-up that spans account for
    metrics["trace.accounted_share"] = (accounted / max(traced_s - pairs * setup_s, 1e-9), "share")
    notes = [f"request pairs: {pairs}; traced outputs differing from plain ones: {mismatches}",
             f"outputs checked: {tally.checked}, wrong: {tally.wrong}"]
    return metrics, tally, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "artincenter" / "cli.py").is_file():
        print("error: run from the root of an artincenter checkout (no src/artincenter)",
              file=sys.stderr)
        return 2
    (root / ".bench_work").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=root / ".bench_work"))
    try:
        client = Client(root, tmp / "cwd")
        client.workdir.mkdir()
        if args.trace:
            metrics, tally, notes = run_traced(client, args.workload, args.seed, args.seconds, tmp)
        else:
            metrics, tally, notes = run_plain(client, args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
