"""Tests of the benchmark itself: generator, recorder, checks and exit codes.

    python -m pytest -q perfbench/tests
"""
from __future__ import annotations

import itertools
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(workloads.SRC))

import psicert  # noqa: E402
from psicert import polylab  # noqa: E402

SMALL = ("fixture/genus2-negative", "fixture/septwist-g3-i2", "bounding-pair/4/3",
         "fixture/genus4-psi1", "swinnerton-dyer/8", "cyclotomic/3x5")


def small_cases() -> list[dict]:
    cases = [c for w in workloads.WORKLOADS for c in workloads.generate(w, workloads.DEFAULT_SEED)]
    picked = [c for c in cases if c["id"] in SMALL]
    assert len(picked) == len(SMALL)
    return picked


def expected_digests(cases) -> dict:
    table = json.loads(checks.DIGESTS.read_text(encoding="utf-8"))
    merged = {case_id: d for per_workload in table.values() for case_id, d in per_workload.items()}
    return {c["id"]: merged[c["id"]] for c in cases}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


def test_generated_inputs_are_what_the_generator_claims():
    # companion matrices carry their polynomial; Swinnerton-Dyer degree 8 is known
    sd8 = workloads.swinnerton_dyer((2, 3, 5))
    assert sd8 == [576, 0, -960, 0, 352, 0, -40, 0, 1]
    assert checks.charpoly_matches(workloads.companion(sd8), sd8)
    assert workloads.cyclotomic(12) == (1, 0, -1, 0, 1)


def psicert_bindings() -> dict:
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "psicert" or name.startswith("psicert."):
            out.update({(name, k): v for k, v in vars(mod).items()})
    out[("TruncatedTensor", "__post_init__")] = psicert.TruncatedTensor.__dict__["__post_init__"]
    out[("CertificationReport", "to_json")] = psicert.CertificationReport.__dict__["to_json"]
    return out


def test_traced_run_restores_every_binding_and_keeps_output_bytes():
    cases = small_cases()
    before = psicert_bindings()
    untraced = run.run_passes(cases, 0)
    with tracer.Recorder() as recorder:
        # a name copied by `from .tensors import magnus_expand` is wrapped too
        assert psicert.johnson.magnus_expand is psicert.tensors.magnus_expand
        assert psicert.johnson.magnus_expand is not before[("psicert.tensors", "magnus_expand")]
        assert psicert.polylab.char_coeffs is psicert.homology.char_coeffs
        traced = run.run_passes(cases, 0, recorder)
    after = psicert_bindings()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    assert traced[0]["output"] == untraced[0]["output"]

    names = {span[0] for span in recorder.spans}
    assert {"tensors.validate", "johnson.tau_squared", "polylab.factor_z",
            "homology.char_coeffs", "jobs.to_json"} <= names
    windows = [(traced[0]["first_span"], traced[0]["end_span"])]
    metrics = tracer.layer_metrics(recorder, windows, [traced[0]["counters"]], 0.5)
    assert metrics["polylab.factor_z.calls"]["value"] == len(cases)
    assert 0 < metrics["polylab.fast_path_ratio"]["value"] <= 1
    assert all(m["value"] >= 0 for m in metrics.values())

    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == \
        {name: m["unit"] for name, m in metrics.items()}
    predictions = json.loads((BENCH / "predictions.json").read_text(encoding="utf-8"))
    predicted = [name for p in predictions["predictions"] for name in p["metrics"]]
    assert sorted(predicted) == sorted(metrics)


def test_failed_install_restores_what_it_wrapped(monkeypatch):
    before = psicert_bindings()
    broken = tracer.TARGETS + (("psicert.jobs", "no_such_function", "jobs.none", None),)
    monkeypatch.setattr(tracer, "TARGETS", broken)
    with pytest.raises(AttributeError):
        tracer.Recorder().install()
    after = psicert_bindings()
    assert all(after[key] is value for key, value in before.items())


def test_untampered_run_passes(capsys):
    cases = small_cases()
    passes = run.run_passes(cases, 0)
    failed, problems = run.evaluate(cases, passes, expected_digests(cases))
    assert (failed, problems) == (0, [])
    assert run.finish(len(cases), failed, problems, {}) == 0


def test_tampered_digest_fails(capsys):
    cases = small_cases()
    passes = run.run_passes(cases, 0)
    expected = expected_digests(cases)
    expected["cyclotomic/3x5"] = "0" * 64
    failed, problems = run.evaluate(cases, passes, expected)
    assert failed > 0 and any("digest" in p for p in problems)
    assert run.finish(len(cases), failed, problems, {}) != 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] / result["attempted"] > 0


def test_tampered_certificate_prime_fails(capsys):
    cases = small_cases()
    passes = run.run_passes(cases, 0)
    i = [c["id"] for c in cases].index("fixture/genus2-negative")
    text = passes[0]["output"][i]
    # x^2 + 9 is irreducible mod 7 but splits mod 5
    assert '"prime":7' in text
    passes[0]["output"][i] = text.replace('"prime":7', '"prime":5')
    problems = checks.check_report(cases[i], passes[0]["output"][i],
                                   polylab.irreducible_mod_p, polylab.IntPolynomial)
    assert any("not irreducible mod 5" in p for p in problems)
    failed, problems = run.evaluate(cases, passes, None)
    assert failed > 0
    assert run.finish(len(cases), failed, problems, {}) != 0


def test_checker_rejects_a_wrong_factorization():
    case = {"kind": "matrix", "input": [[0, -9], [1, 0]], "expect": {"degrees": [2]}}
    good = {"charpoly": ["9", "0", "1"], "verdict": "CERTIFIED_PSEUDO_ANOSOV",
            "factors": [{"poly": ["9", "0", "1"], "multiplicity": 1, "certificate": None}]}
    args = (polylab.irreducible_mod_p, polylab.IntPolynomial)
    assert checks.check_report(case, json.dumps(good), *args) == []
    bad = dict(good, factors=[{"poly": ["3", "1"], "multiplicity": 2, "certificate": None}])
    assert checks.check_report(case, json.dumps(bad), *args)
    wrong_chi = dict(good, charpoly=["8", "0", "1"],
                     factors=[{"poly": ["8", "0", "1"], "multiplicity": 1, "certificate": None}])
    assert any("matrix" in p for p in checks.check_report(case, json.dumps(wrong_chi), *args))


def test_verdict_rule_agrees_with_subset_enumeration():
    for r in range(1, 6):
        for degrees in itertools.combinations_with_replacement(range(1, 6), r):
            degrees = list(degrees)
            split = polylab.has_even_even_split(degrees)
            linear = 1 in degrees
            expected = polylab.INCONCLUSIVE if (linear or split) else polylab.CERTIFIED
            assert checks.verdict_from_degrees(degrees) == expected, degrees


def test_probe_samples_while_entered_and_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    cases = small_cases()
    with speed.Probe() as probe:
        passes = run.run_passes(cases, 0, probe=probe)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.seconds) >= 2 and probe.spent > 0
    # the time of the samples taken during a case is not part of its latency
    assert all(0 < x <= t1 - t0 for x, (t0, t1) in zip(passes[0]["latency"], passes[0]["span"]))
    run.scale(passes, probe)
    assert all(x > 0 for x in passes[0]["scaled"])


def test_scaling_uses_the_samples_around_a_case():
    probe = speed.Probe()
    for t in range(20):  # the machine runs at half the reference speed from t = 10 on
        probe.times.append(float(t))
        probe.seconds.append(speed.REFERENCE_SECONDS * (1 if t < 10 else 2))
    assert probe.factor(2.0, 4.0) == 1.0
    assert probe.factor(14.0, 14.5) == 0.5
    # with too few samples in the window, the nearest ones count
    assert probe.factor(30.0, 31.0) == 0.5


def test_setup_probe_scales_the_import_time():
    wall, scaled = run.setup_seconds(workloads.SRC)
    assert len(wall) == len(scaled) == run.SETUP_SAMPLES
    assert all(w > 0 and s > 0 for w, s in zip(wall, scaled))


def test_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "polynomial",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
