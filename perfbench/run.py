#!/usr/bin/env python3
"""psicert benchmark: one workload, end to end or traced.

    python3 perfbench/run.py --workload twist-ladder --seed 1 --seconds 30 --trace 0

The program is imported from the ``src/`` directory next to ``perfbench/``.  The load is a closed loop with one caller: each case goes from
its input to canonical report text, and the next case starts only when the
previous report is done.  Passes over the whole workload repeat until the
next pass would end after ``--seconds``.

``--trace 0`` prints the end-to-end metrics: ``batch_s`` (median pass
time), ``job_s.p50``/``job_s.p90`` (per-case latency pooled over passes),
``setup_s`` (median over fresh interpreters of the time to ``import
psicert``) and ``peak_rss_mib``.  The timings are scaled to a fixed machine
speed that ``speed.py`` measures next to the program (the wall-clock values
are printed too).  ``--trace 1`` alternates untraced passes
with passes under the span recorder of ``tracer.py``, prints the per-layer
metrics and writes the spans to ``perfbench/out/``.  Every output is checked
(``checks.py``); any failed case makes the exit code 1.  The last line of
standard output is the JSON result.  Without ``src/psicert`` the exit code
is 2 and nothing is printed to standard output.
"""
from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import speed
import tracer
import workloads

SETUP_SAMPLES = 15
MIN_PASSES = 3  # so that batch_s is a median of three passes at least
MIN_SAMPLES = 100  # case samples per run, so that p90 has ten beyond it
REFERENCE_SAMPLES = 15  # reference loops before and after the import in each interpreter
SETUP_PROBE = f"""\
import time
{inspect.getsource(speed.reference_loop)}
def reference():
    out = []
    for _ in range({REFERENCE_SAMPLES}):
        t = time.perf_counter()
        reference_loop({speed.REFERENCE_STEPS})
        out.append(time.perf_counter() - t)
    return out
before = reference()
t = time.perf_counter()
import psicert
seconds = time.perf_counter() - t
import statistics
print(seconds, statistics.median(before + reference()))
"""
SPAN_DIR = Path(__file__).resolve().parent / "out"


def setup_seconds(src: Path) -> tuple[list[float], list[float]]:
    """Time of `import psicert` in fresh interpreters, one sample each: (wall, scaled).

    Each interpreter runs the reference loop before and after the import
    and scales the import time by the median of those loops.
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    wall, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        seconds, reference = map(float, out.stdout.split())
        wall.append(seconds)
        scaled.append(seconds * speed.REFERENCE_SECONDS / reference)
    return wall, scaled


def execute(case: dict) -> str:
    """One case from input to canonical output text, through the public API."""
    from psicert import homology, jobs, polylab
    if case["kind"] == "job":
        return jobs.run_job(jobs.parse_job(case["input"])).to_json()
    report = polylab.criterion(polylab.charpoly(homology.IntMatrix.from_rows(case["input"])))
    return jobs.canonical_json(report.to_json_obj())


def run_passes(cases: list[dict], budget: float, recorder=None, min_passes: int = 1,
               probe: speed.Probe | None = None) -> list[dict]:
    """Whole passes over `cases`: `min_passes`, then more while the next is predicted to fit.

    Under an entered `probe`, a case's latency leaves out the time of the
    samples taken during it; `scale` then adds the scaled latencies.
    """
    passes = []
    start = time.perf_counter()
    while True:
        result = {"latency": [], "span": [], "output": [], "error": []}
        if recorder is not None:
            result["first_span"] = len(recorder.spans)
            recorder.counters = {}
        for case in cases:
            if recorder is not None:
                recorder.case = case["id"]
            spent = probe.spent if probe is not None else 0.0
            t0 = time.perf_counter()
            try:
                text, error = execute(case), None
            except Exception as exc:  # a failed case is counted, the loop goes on
                text, error = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if probe is not None:
                spent = probe.spent - spent
            result["latency"].append(t1 - t0 - spent)
            result["span"].append((t0, t1))
            result["output"].append(text)
            result["error"].append(error)
        now = time.perf_counter()
        if recorder is not None:
            result["end_span"] = len(recorder.spans)
            result["counters"] = dict(recorder.counters)
        passes.append(result)
        mean = (now - start) / len(passes)
        if len(passes) >= min_passes and now - start + mean > budget:
            return passes


def scale(passes: list[dict], probe: speed.Probe) -> None:
    """Add each pass's latencies scaled to the reference speed, as "scaled"."""
    for p in passes:
        p["scaled"] = [x * probe.factor(t0, t1) for x, (t0, t1) in zip(p["latency"], p["span"])]


def evaluate(cases: list[dict], passes: list[dict], expected: dict | None) -> tuple[int, list[str]]:
    """Count failed case samples over all passes, with a message per problem.

    Every sample of a case fails if one of them raised, if the outputs of
    its passes (traced ones included) differ, if the output differs from the
    recorded digest (default seed only) or if it fails the checks.
    """
    from psicert.polylab import IntPolynomial, irreducible_mod_p
    problems: list[str] = []
    failed = 0
    for i, case in enumerate(cases):
        outputs = [p["output"][i] for p in passes]
        errors = [p["error"][i] for p in passes if p["error"][i] is not None]
        first = outputs[0]
        bad = []
        if errors:
            bad.append(errors[0])
        elif len(set(outputs)) != 1:
            bad.append("output differs between passes")
        else:
            if expected is not None and expected.get(case["id"]) != checks.digest(first):
                bad.append("digest differs from digests.json")
            bad += checks.check_report(case, first, irreducible_mod_p, IntPolynomial)
        if bad:
            failed += len(passes)
            problems += [f"{case['id']}: {msg}" for msg in bad]
    return failed, problems


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def describe(name: str, values: list[float], unit: str) -> str:
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q2 = q3 = values[0]
    return f"{name:36s} {q2:12.6f} {unit:6s} (q1 {q1:.6f}, q3 {q3:.6f}, n={len(values)})"


def end_to_end(passes, setup, rss_mib) -> dict:
    """Metrics from scaled times; the wall-clock values are printed after them."""
    wall_setup, setup = setup
    latencies = [x for p in passes for x in p["scaled"]]
    batch = [sum(p["scaled"]) for p in passes]
    wall_latencies = [x for p in passes for x in p["latency"]]
    print(describe("batch_s", batch, "s"))
    print(f"{'job_s.p50':36s} {percentile(latencies, 0.5):12.6f} s      (n={len(latencies)})")
    print(f"{'job_s.p90':36s} {percentile(latencies, 0.9):12.6f} s      (n={len(latencies)})")
    print(describe("setup_s", setup, "s"))
    print(f"{'peak_rss_mib':36s} {rss_mib:12.3f} MiB")
    print(describe("wall batch_s", [sum(p["latency"]) for p in passes], "s"))
    print(f"{'wall job_s.p50':36s} {percentile(wall_latencies, 0.5):12.6f} s")
    print(f"{'wall job_s.p90':36s} {percentile(wall_latencies, 0.9):12.6f} s")
    print(describe("wall setup_s", wall_setup, "s"))
    return {
        "batch_s": {"value": statistics.median(batch), "unit": "s"},
        "job_s.p50": {"value": percentile(latencies, 0.5), "unit": "s"},
        "job_s.p90": {"value": percentile(latencies, 0.9), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mib": {"value": rss_mib, "unit": "MiB"},
    }


def traced_run(cases: list[dict], budget: float, span_file: Path) -> tuple[list[dict], dict]:
    """Untraced and traced passes alternate, so that both see the same machine load."""
    recorder = tracer.Recorder()
    untraced, traced = [], []
    start = time.perf_counter()
    with speed.Probe() as probe:
        while True:
            untraced += run_passes(cases, 0, probe=probe)
            with recorder:
                traced += run_passes(cases, 0, recorder, probe=probe)
            elapsed = time.perf_counter() - start
            if elapsed * (len(traced) + 1) / len(traced) > budget:
                break
    scale(untraced + traced, probe)
    overhead = (statistics.median(sum(p["scaled"]) for p in traced)
                / statistics.median(sum(p["scaled"]) for p in untraced) - 1)
    windows = [(p["first_span"], p["end_span"]) for p in traced]
    metrics = tracer.layer_metrics(recorder, windows, [p["counters"] for p in traced], overhead)
    span_file.parent.mkdir(parents=True, exist_ok=True)
    recorder.write(span_file)
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:14.6f} {m['unit']}")
    return untraced + traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = workloads.SRC
    if not (src / "psicert" / "__init__.py").is_file():
        print(f"perfbench: no psicert sources at {src / 'psicert'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import psicert  # noqa: F401  (imported here so that no case pays for the import)

    cases = workloads.generate(args.workload, args.seed)
    expected = checks.load_digests(args.workload) if args.seed == workloads.DEFAULT_SEED else None

    if args.trace:
        span_file = SPAN_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        passes, metrics = traced_run(cases, args.seconds, span_file)
    else:
        setup = setup_seconds(src)
        min_passes = max(MIN_PASSES, math.ceil(MIN_SAMPLES / len(cases)))
        with speed.Probe() as probe:
            passes = run_passes(cases, args.seconds, min_passes=min_passes, probe=probe)
        scale(passes, probe)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = end_to_end(passes, setup, rss_mib)

    failed, problems = evaluate(cases, passes, expected)
    return finish(len(cases) * len(passes), failed, problems, metrics)


def finish(attempted: int, failed: int, problems: list[str], metrics: dict) -> int:
    """Print the failures and the result line; the exit code is 1 if any case failed."""
    for msg in problems:
        print(f"FAIL {msg}")
    print(f"{'failed_ratio':36s} {failed / attempted:12.6f} ratio  ({failed} of {attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
