"""The benchmark's tooling relies on psicert; these tests pin what it relies on.

The traced benchmark wraps psicert functions by name, so a simplification
that deletes or renames a traced function fails here, before
`perfbench/run.py --trace 1` fails on it.  The job caps of `parse_job` must
admit every job document the workload generator writes, and every fixture job,
ladder rung and seeded route tree of the tests.  The reports of
every job case and of the polynomial cases up to 40 rows must hash to the
recorded seed-1 digests, so that a byte change in a report fails here and
not only in a benchmark run.  The benchmark modules and `digests.json` are
loaded from their files and only read: nothing is wrapped or written.  The
benchmark's own test suite runs here too, in a subprocess, because it calls
psicert names (aliases, module bindings) that no other test pins.  The
package itself imports only the standard library, and each of its modules
reads every name it imports.  Every committed
`BENCH_*.json` names a workload and a metric of `BENCHMARK.json` in its claim
and shows that metric better on that workload.  The characteristic polynomial
of every seed-1 polynomial case equals the Berkowitz oracle's, each of its
Hensel lifts equals the linear lifting oracle's, each of its GF(p) resultants
and gcds equals the list loop's, and each recombination gives the factors of
the constant-term walk; a job certified at the largest prime below 2^64 keeps
its report bytes.  Every seed-1
pi1 job has depth exactly k and makes a pinned number of expansions, all at
k+1, so a change that makes the benchmark pay for the job truncation, or
leaves the additive route on a family that takes it, fails here.  The Layout
block of README.md names exactly the modules of the package and of `scripts/`.
Every function of the package runs in a pass of the seed-1 workloads, the
CLI's subcommands and options, or the README's library example, so code that
only tests call is kept in `tests/` instead; by the same rule, every
exception type the package exports is raised somewhere in it.
"""
import ast
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from checks import (berkowitz_char_coeffs, linear_hensel_lift, list_gf_gcd, list_gf_resultant,
                    schoolbook_distinct_degree, walk_recombine)
from psicert.homology import IntMatrix, char_coeffs
from psicert import johnson, polylab
from psicert.cli import main
from psicert.fixtures import bundled_dir
from psicert.jobs import canonical_json, parse_job, read_json, run_job
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


def test_caps_admit_every_repo_job():
    """Every fixture job, every ladder rung and every seeded route tree parses."""
    from ladder import rung, rungs
    from test_pi1_routes import job_doc, seeded_cases
    documents = [read_json(path) for path in sorted(bundled_dir().glob("*/job.json"))]
    documents += [rung(genus, k)[0] for genus, k in rungs()]
    documents += [job_doc(*case.values[:4]) for case in seeded_cases()]
    assert len(documents) == 7 + 21 + 60
    for doc in documents:
        parse_job(doc)


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


def test_packed_euclid_matches_list_loops_on_polynomial_cases(monkeypatch):
    """Every resultant (discriminants in the certificate scan, squarefree
    tests) and every gcd (distinct-degree and Cantor-Zassenhaus) of a seed-1
    polynomial pass equals the list loop's."""
    workloads = load_bench_module("workloads")
    real = polylab._gf_resultant
    calls = []

    def resultant(a, b, p, gcd=False):
        out = real(a, b, p, gcd)
        calls.append((a[:], b[:], p, gcd, out))
        return out

    monkeypatch.setattr(polylab, "_gf_resultant", resultant)
    for case in workloads.generate("polynomial", workloads.DEFAULT_SEED):
        criterion(charpoly(IntMatrix.from_rows(case["input"])))
    assert sum(not gcd for *_, gcd, _ in calls) == 2011
    assert sum(gcd for *_, gcd, _ in calls) == 1204
    assert max(len(a) - 1 for a, *_ in calls) == 60
    for a, b, p, gcd, out in calls:
        assert out == (list_gf_gcd if gcd else list_gf_resultant)(a, b, p), (a, b, p, gcd)


def test_largest_prime_below_2_64_reports_unchanged():
    """With `primes` listing the largest prime below 2^64, whose Euclid slots
    are four words, the seed-1 wedge3/8/1 job is certified at that prime (its
    discriminant, distinct-degree gcds and powers all modulo it) and the
    genus5-positive fixture is refused it by the discriminant parity; both
    reports keep the bytes recorded before the Euclid was packed."""
    workloads = load_bench_module("workloads")
    prime = (1 << 64) - 59
    wedge = next(case["input"] for case in workloads.generate("odd-level", workloads.DEFAULT_SEED)
                 if case["id"] == "wedge3/8/1")
    fixture = json.loads((PACKAGE / "fixtures_data" / "genus5-positive" / "job.json")
                         .read_text(encoding="utf-8"))
    recorded = {"wedge3/8/1": "382460d63218187ee41e7b1a8a604839b97e778847ab3429a5493e729dfcd1c1",
                "genus5-positive":
                    "c9bdcb4af125205f390a73b91c7c4bc1f03bc8b4f9aee2dfad09a762e10bab76"}
    certified = {"wedge3/8/1": [prime], "genus5-positive": [None]}
    for name, doc in (("wedge3/8/1", wedge), ("genus5-positive", fixture)):
        doc = json.loads(json.dumps(doc))
        doc.setdefault("options", {})["primes"] = [prime]
        text = run_job(parse_job(doc)).to_json()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == recorded[name], name
        assert [f["certificate"] and f["certificate"]["prime"]
                for f in json.loads(text)["factors"]] == certified[name], name


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
             for q, _, _ in squarefree_decomposition(charpoly(IntMatrix.from_rows(case["input"])))}
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


def test_package_modules_use_every_import():
    """Every name a module of src/psicert imports (`__init__.py`, which
    re-exports, aside) is read somewhere in that module."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - read)]
    assert unused == []


def package_functions() -> dict:
    """(resolved file, first line of its code) -> name, for every function and
    method defined in src/psicert; a decorated function's code starts at its
    first decorator."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[path, line] = f"{path.stem}.{prefix}{child.name}"
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            else:
                walk(child, path, f"{prefix}{child.name}." if isinstance(child, ast.ClassDef)
                     else prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8"), str(path)), path.resolve(), "")
    return found


def reach_scan(directory: str) -> list[str]:
    """The package functions, by name, that none of these call: one pass of
    the seed-1 workloads, `psicert fixtures`, `certify --timings` and `tau` on
    every fixture, `certify` with each option, `charpoly` on a matrix file, a
    job that ends in DepthError, a job with a word that does not parse and
    the README's library example.  Its input files go in `directory`."""
    workloads = load_bench_module("workloads")
    jobs = [str(path) for path in sorted((PACKAGE / "fixtures_data").glob("*/job.json"))]
    matrix, spec, shallow, bad = (Path(directory) / name for name in
                                  ("matrix.json", "spec.json", "shallow.json", "bad.json"))
    matrix.write_text("[[2, 1], [1, 1]]")
    spec.write_text('{"pairs": [[2, 3]], "output": 1}')
    shallow.write_text('{"schema": 1, "genus": 2, "k": 2, "pipeline": "pi1", '
                       '"element": {"op": "inner", "word": "a1"}}')
    bad.write_text(shallow.read_text().replace('"a1"', '"c1"'))
    twist = str(PACKAGE / "fixtures_data" / "septwist-g2-i1" / "job.json")
    readme = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library use", 1)[1]
    example = readme.split("```python", 1)[1].split("```", 1)[0]
    seen = set()
    sys.setprofile(lambda frame, event, arg: event == "call" and seen.add(frame.f_code))
    try:
        for name in workloads.WORKLOADS:
            for case in workloads.generate(name, workloads.DEFAULT_SEED):
                if case["kind"] == "job":
                    run_job(parse_job(case["input"])).to_json()
                else:
                    criterion(charpoly(IntMatrix.from_rows(case["input"]))).to_json_obj()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes = [main(["fixtures"])]
            for job in jobs:
                codes += [main(["certify", "--job", job, "--timings"]), main(["tau", "--job", job])]
            codes += [main(["certify", "--job", twist, "--primes", "17, 3", "--truncation", "5",
                            "--contraction-spec", str(spec)]),
                      main(["charpoly", "--matrix", str(matrix)]),
                      main(["certify", "--job", str(shallow)]),
                      main(["certify", "--job", str(bad)])]
            exec(example, {})
    finally:
        sys.setprofile(None)
    # tau refuses the two homology sums; the shallow job's depth is 1 < k, and
    # the bad job's word does not parse
    assert codes == [0, 0, 2, 0, 0, 0, 2] + [0] * 8 + [0, 0, 3, 2], codes
    reached = {(Path(code.co_filename).resolve(), code.co_firstlineno)
               for code in seen if "psicert" in code.co_filename}
    return sorted(name for key, name in package_functions().items() if key not in reached)


def test_package_code_is_reached(tmp_path):
    """`reach_scan` calls every function of the package.  It runs in a fresh
    interpreter, so that no cache an earlier test filled (the CRT moduli, the
    Euclid layouts) hides a call."""
    paths = [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH", "")]
    script = ("import json, test_tooling; "
              f"print(json.dumps(test_tooling.reach_scan({str(tmp_path)!r})))")
    result = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
                            timeout=120)
    assert result.returncode == 0, result.stderr[-4000:]
    assert json.loads(result.stdout) == []


def test_exported_exceptions_are_raised():
    """Every exception class that `psicert` exports appears in a `raise`
    statement of src/psicert, so a public type that nothing raises cannot
    stay exported."""
    import psicert
    exported = {name for name, value in vars(psicert).items()
                if isinstance(value, type) and issubclass(value, BaseException)}
    raised = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert len(exported) >= 4
    assert sorted(exported - raised) == []


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
