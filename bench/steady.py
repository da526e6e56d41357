"""Steadiness check: repeat each workload over several seeds and print, per
end-to-end metric, the median, the quartiles and the spread (q3 - q1) / median
next to the metric's bound in BENCHMARK.json.

    python3 bench/steady.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                            [--out runs.json] [--baseline earlier-runs.json]

Run from the root of a checkout.  A spread below a third of the bound is
steady.  With --baseline, it also reports how far each median moved from the
earlier set, in the direction that counts as worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(workloads))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--baseline")
    args = parser.parse_args(argv)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else {}
    runs: dict[str, list[dict]] = {}
    steady = True
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(workload, seed, spec["run_seconds"])
            runs[workload].append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"wall={result['wall_s']:.1f}s", flush=True)
        for name, (bound, better) in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            ok = name == "setup_s" or spread < bound / 3
            steady = steady and ok
            line = (f"  {name:16s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                    f"spread {spread:6.3f}  bound {bound:4.2f}  {'ok' if ok else 'WIDE'}")
            if workload in baseline:
                before = statistics.median(r["metrics"][name]["value"] for r in baseline[workload])
                worse = (med - before) / before if better == "lower" else (before - med) / before
                line += f"  worse than baseline by {worse:+.3f}{'' if worse <= bound else ' OVER'}"
            print(line, flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(runs))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
