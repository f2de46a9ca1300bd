"""Steadiness mode: run one workload N times and report each metric's spread.

    python3 pipebench/steady.py --workload circle-reference --runs 10

Run ``i`` uses seed ``first_seed + i``, one run at a time, each as long
as BENCHMARK.json's ``run_seconds``.  For each metric it prints the
median, the quartiles as ``statistics.quantiles(values, n=4)`` gives
them, and the spread (Q3 - Q1) / median, which BENCHMARK.json's bounds
are set against.  Untraced runs also report the unscaled wall time of
the pipeline (``wall.pipeline_s``), so that a shift of the speed factor
shows next to the scaled ``pipeline_s``; the label rates the checks
measured are printed per seed.
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


def one_run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    notes = []
    for line in out.stderr.splitlines():
        if line.startswith("FAILED"):
            print(f"  seed {seed}: {line}", flush=True)
        elif line.startswith("note: "):
            notes.append(line[len("note: "):])
        elif line.startswith("wall: pipeline_s "):
            result["metrics"]["wall.pipeline_s"] = {
                "value": float(line.split()[2]), "unit": "s"}
    return result, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        result, notes = one_run(args.workload, seed, seconds, args.trace)
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} "
              f"failed={result['failed']} {' '.join(notes)}", flush=True)

    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8}  unit")
    summary = {}
    for key, first in results[0]["metrics"].items():
        values = [r["metrics"][key]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        summary[key] = {"median": med, "q1": q1, "q3": q3,
                        "spread": spread, "values": values}
        print(f"{key:34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f}  {first['unit']}")
    print(json.dumps({"workload": args.workload, "runs": args.runs,
                      "failed": [r["failed"] for r in results],
                      "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
