"""The benchmark's tooling relies on psicert; these tests pin what it relies on.

The traced benchmark wraps psicert functions by name, so a simplification
that deletes or renames a traced function fails here, before
`perfbench/run.py --trace 1` fails on it.  The job caps of `parse_job` must
admit every job document the workload generator writes.  The reports of
every job case and of the polynomial cases up to 40 rows must hash to the
recorded seed-1 digests, so that a byte change in a report fails here and
not only in a benchmark run.  The benchmark modules and `digests.json` are
loaded from their files and only read: nothing is wrapped or written.  The
benchmark's own test suite runs here too, in a subprocess, because it calls
psicert names (aliases, module bindings) that no other test pins.  The
package itself imports only the standard library.  Every committed
`BENCH_*.json` names a workload and a metric of `BENCHMARK.json` in its claim
and shows that metric better on that workload.  The characteristic polynomial
of every seed-1 polynomial case equals the Berkowitz oracle's, and each of its
Hensel lifts equals the linear lifting oracle's, and each recombination gives
the factors of the constant-term walk.  Every seed-1
pi1 job has depth exactly k and makes a pinned number of expansions, all at
k+1, so a change that makes the benchmark pay for the job truncation, or
leaves the additive route on a family that takes it, fails here.  The Layout
block of README.md names exactly the modules of the package and of `scripts/`.
"""
import ast
import hashlib
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from checks import (berkowitz_char_coeffs, linear_hensel_lift, schoolbook_distinct_degree,
                    walk_recombine)
from psicert.homology import IntMatrix, char_coeffs
from psicert import johnson, polylab
from psicert.jobs import canonical_json, parse_job, run_job
from psicert.johnson import DepthResult
from psicert.polylab import charpoly, criterion, squarefree_decomposition

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
PACKAGE = ROOT / "src" / "psicert"


def load_bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"psicert_bench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    targets = load_bench_module("tracer").TARGETS
    assert targets
    missing = []
    for module_name, attr, _, _ in targets:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name, None)
            found = cls is not None and method in vars(cls)
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_perfbench_suite_passes():
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                             "perfbench/tests"], cwd=PERFBENCH.parent, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_caps_admit_every_benchmark_job(seed):
    workloads = load_bench_module("workloads")
    jobs = [case for name in workloads.WORKLOADS for case in workloads.generate(name, seed)
            if case["kind"] == "job"]
    assert jobs
    for case in jobs:
        parse_job(case["input"])


def test_report_digests_pinned():
    """Every job case (fixtures, twist-ladder, odd-level) and every polynomial
    case (dense/60 and SD-32 included) reproduces the seed-1 digests that
    `perfbench/run.py` checks, byte for byte."""
    workloads = load_bench_module("workloads")
    recorded = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))
    checked = dict.fromkeys(workloads.WORKLOADS, 0)
    for name in workloads.WORKLOADS:
        for case in workloads.generate(name, workloads.DEFAULT_SEED):
            if case["kind"] == "job":
                text = run_job(parse_job(case["input"])).to_json()
            else:
                report = criterion(charpoly(IntMatrix.from_rows(case["input"])))
                text = canonical_json(report.to_json_obj())
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            assert digest == recorded[name][case["id"]], case["id"]
            checked[name] += 1
    assert checked == {"twist-ladder": 37, "odd-level": 36, "polynomial": 77}


@pytest.mark.parametrize("workload", ["twist-ladder", "odd-level"])
def test_pi1_jobs_expand_at_k_plus_one_only(workload, monkeypatch):
    """Every seed-1 pi1 job has depth exactly k, so it never pays for its
    truncation: every expansion is at k+1.  The additive route expands each
    generator of each distinct leaf once: a single twist or custom
    endomorphism, or T_2 and T_1 for a power of T_2 after T_1.  A conjugated
    case expands its T_1 leaf, declines at the first generator of its inner
    factor (depth 1 < k), and then expands the composite on the word route."""
    workloads = load_bench_module("workloads")
    # passes over the 2g generators: one per summed leaf, or T_1 and the composite
    passes = {"genus": 1, "fixture": 1, "custom-k3": 1, "power": 2, "conjugated": 2}
    real = johnson.magnus_expand
    calls = []
    monkeypatch.setattr(johnson, "magnus_expand", lambda w, t: calls.append(t) or real(w, t))
    checked = 0
    for case in workloads.generate(workload, workloads.DEFAULT_SEED):
        if case["kind"] != "job" or case["input"]["pipeline"] != "pi1":
            continue
        calls.clear()
        job = parse_job(case["input"])
        report = run_job(job)
        assert report.observed_depth == DepthResult(job.k, exact=True), case["id"]
        family = case["id"].split("/")[0]
        expected = 2 * job.genus * passes[family] + (family == "conjugated")
        assert calls == [job.k + 1] * expected, case["id"]
        checked += 1
    assert checked == {"twist-ladder": 28, "odd-level": 4}[workload]


def test_char_coeffs_matches_berkowitz_on_polynomial_cases():
    """The modular Hessenberg route gives the Berkowitz coefficients on every
    seed-1 polynomial case, dense/60 included."""
    workloads = load_bench_module("workloads")
    cases = workloads.generate("polynomial", workloads.DEFAULT_SEED)
    for case in cases:
        m = IntMatrix.from_rows(case["input"])
        assert char_coeffs(m) == berkowitz_char_coeffs(m), case["id"]
    assert len(cases) == 77


def test_quadratic_lift_matches_linear_on_polynomial_cases(monkeypatch):
    """Every Hensel lift of a seed-1 polynomial pass (71, dense/60's to 5^111
    among them) equals the linear lifting oracle's."""
    workloads = load_bench_module("workloads")
    real = polylab._hensel_lift
    lifts = []

    def lift(f, p, factors, exponent):
        out = real(f, p, factors, exponent)
        lifts.append((out, linear_hensel_lift(f, p, factors, exponent)))
        return out

    monkeypatch.setattr(polylab, "_hensel_lift", lift)
    for case in workloads.generate("polynomial", workloads.DEFAULT_SEED):
        criterion(charpoly(IntMatrix.from_rows(case["input"])))
    assert len(lifts) == 71
    assert all(quadratic == linear for quadratic, linear in lifts)


def test_trace_recombination_matches_the_walk_on_polynomial_cases(monkeypatch):
    """On the lifted factors of every seed-1 polynomial case, the trace test's
    meet-in-the-middle search recombines to the same factors, in the same
    order, as the prefix walk by the constant-term test alone."""
    workloads = load_bench_module("workloads")
    real = polylab._recombine
    calls = []

    def recombine(f, lifted, modulus):
        out = real(f, lifted, modulus)
        calls.append((out, walk_recombine(f, lifted, modulus), len(lifted)))
        return out

    monkeypatch.setattr(polylab, "_recombine", recombine)
    for case in workloads.generate("polynomial", workloads.DEFAULT_SEED):
        criterion(charpoly(IntMatrix.from_rows(case["input"])))
    assert len(calls) == 71 and max(r for _, _, r in calls) == 16
    assert all(trace == walk for trace, walk, _ in calls)


def test_packed_distinct_degree_matches_schoolbook_on_polynomial_cases():
    """Modulo every default prime, each squarefree part of a seed-1
    polynomial case (dense/60 among them) gets the same (product, degree)
    pairs from the packed distinct-degree loop as from the schoolbook one."""
    workloads = load_bench_module("workloads")
    parts = {q for case in workloads.generate("polynomial", workloads.DEFAULT_SEED)
             for q, _ in squarefree_decomposition(charpoly(IntMatrix.from_rows(case["input"])))}
    assert max(q.degree for q in parts) == 60 and all(q.is_monic() for q in parts)
    for q in parts:
        for p in polylab.DEFAULT_CERT_PRIMES:
            fbar = polylab._gf_from_int_poly(q, p)
            assert list(polylab._distinct_degree(fbar, p)) == \
                schoolbook_distinct_degree(fbar, p), (q.coeffs, p)


def test_package_imports_only_stdlib():
    """The package has no runtime dependency: every absolute import in
    src/psicert names a standard-library module."""
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    assert len(names) >= 10
    assert sorted(names - sys.stdlib_module_names) == []


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_record_backs_its_claim(path):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = json.loads(path.read_text(encoding="utf-8"))
    assert {"parent", "change", "claim", "summary"} <= set(record)
    workload, metric = record["claim"]["workload"], record["claim"]["metric"]
    assert workload in {w["name"] for w in benchmark["workloads"]}
    assert metric in {m["name"] for m in benchmark["end_to_end"]}
    rows = [row for key, row in record["summary"].items() if key.split("/")[0] == workload]
    assert rows
    assert all(row[metric]["parent_over_change"] > 1 for row in rows)


def test_readme_layout_names_every_module():
    """A module added, moved or deleted without its README line fails here."""
    block = (ROOT / "README.md").read_text(encoding="utf-8").split("## Layout", 1)[1]
    named, directory = set(), ""
    for line in block.split("```")[1].splitlines():
        entry = line.split()[0] if line.strip() else ""
        if not line.startswith(" "):
            directory = entry
        elif entry.endswith(".py"):
            named.add(directory + entry)
    actual = {path.relative_to(ROOT).as_posix()
              for folder in (PACKAGE, ROOT / "scripts") for path in folder.glob("*.py")}
    assert len(named) >= 10
    assert sorted(named) == sorted(actual)
