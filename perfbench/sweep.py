#!/usr/bin/env python3
"""Run the benchmark over several seeds and report the spread of each metric.

    python3 perfbench/sweep.py --workload polynomial --seeds 1-10

Runs ``run.py --trace 0`` once per seed, one run at a time, for the
``run_seconds`` of ``BENCHMARK.json``.  For each end-to-end metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
quartile distance as a share of the median, next to a third of the
metric's bound.  ``--json`` also writes every run's result to a file.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
BENCHMARK = RUN.parent.parent / "BENCHMARK.json"


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args()

    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {}
    status = 0
    for workload in args.workload:
        results = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=180)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode or not result["correct"]:
                status = 1
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}", file=sys.stderr)
            results.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        runs[workload] = results
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else float("nan")
            limit = bounds.get(name)
            note = f" (a third of the bound: {limit / 3:.4f})" if limit is not None else ""
            print(f"  {workload} {name}: median {median:.6g}, q1 {q1:.6g}, q3 {q3:.6g}, "
                  f"spread {spread:.4f}{note}")
    if args.json is not None:
        args.json.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
