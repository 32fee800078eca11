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
package itself imports only the standard library.
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

from psicert.homology import IntMatrix
from psicert.jobs import canonical_json, parse_job, run_job
from psicert.polylab import charpoly, criterion

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "psicert"


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
    """Every job case (fixtures, twist-ladder, odd-level) and the polynomial
    cases up to 40 rows (all but dense/60, SD-32 included) reproduce the
    seed-1 digests that `perfbench/run.py` checks, byte for byte."""
    workloads = load_bench_module("workloads")
    recorded = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))
    checked = dict.fromkeys(workloads.WORKLOADS, 0)
    for name in workloads.WORKLOADS:
        for case in workloads.generate(name, workloads.DEFAULT_SEED):
            if case["kind"] == "job":
                text = run_job(parse_job(case["input"])).to_json()
            elif case["kind"] == "matrix" and len(case["input"]) <= 40:
                report = criterion(charpoly(IntMatrix.from_rows(case["input"])))
                text = canonical_json(report.to_json_obj())
            else:
                continue
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            assert digest == recorded[name][case["id"]], case["id"]
            checked[name] += 1
    assert checked == {"twist-ladder": 37, "odd-level": 36, "polynomial": 76}


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
