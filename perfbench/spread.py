"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--trace 0|1] [--out FILE]

Runs `run.py` once per workload of BENCHMARK.json and seed, one run at
a time, with the run length from BENCHMARK.json.  The workloads take
turns, seed by seed, so that a slow or fast spell of the machine does
not land on several runs of one workload in a row.  For every metric it
prints the median,
the quartiles from `statistics.quantiles(values, n=4)` and the
interquartile range as a share of the median; with --out it also writes
the runs and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_frac": (q3 - q1) / med if med else 0.0}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    workloads = [w["name"] for w in bench["workloads"]]
    runs, summary = {w: [] for w in workloads}, {}
    for seed in _seeds(args.seeds):
        for workload in workloads:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
            runs[workload].append({"seed": seed, "report": report, "result": result})
            print(workload, seed, "failed", result["failed"], "of", result["attempted"], file=sys.stderr)
    for workload in workloads:
        names = runs[workload][0]["result"]["metrics"]
        summary[workload] = {
            name: summarize([r["result"]["metrics"][name]["value"] for r in runs[workload]])
            for name in names
        }
        for name, s in summary[workload].items():
            print(f"{workload:14s} {name:26s} median {s['median']:12.6g}  iqr/median {s['iqr_frac']:.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"summary": summary, "runs": runs}, fh, indent=1)


if __name__ == "__main__":
    main()
