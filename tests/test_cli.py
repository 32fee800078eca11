import json
import random
import shutil

import pytest

from psicert.cli import main
from psicert.fixtures import bundled_dir, verify_fixtures
from psicert.errors import FixtureError


def write_job(tmp_path, doc, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def twist_job():
    return {
        "schema": 1,
        "name": "cli-test",
        "genus": 2,
        "k": 2,
        "pipeline": "pi1",
        "element": {"op": "sep_twist", "index": 1},
    }


class TestCertify:
    def test_stdout(self, tmp_path, capsys):
        job = write_job(tmp_path, twist_job())
        assert main(["certify", "--job", job]) == 0
        out = capsys.readouterr().out
        obj = json.loads(out)
        assert obj["verdict"] == "INCONCLUSIVE"
        assert obj["psi"][0] == ["3", "0", "0", "0"]

    def test_out_file_and_determinism(self, tmp_path):
        job = write_job(tmp_path, twist_job())
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["certify", "--job", job, "--out", str(out1)]) == 0
        assert main(["certify", "--job", job, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_validation_exit_code(self, tmp_path):
        doc = twist_job()
        doc["pipeline"] = "nope"
        job = write_job(tmp_path, doc)
        assert main(["certify", "--job", job]) == 2

    def test_bad_json_exit_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["certify", "--job", str(path)]) == 2

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["certify", "--job", str(tmp_path / "absent.json")]) == 2

    def test_depth_exit_code(self, tmp_path):
        doc = twist_job()
        doc["element"] = {"op": "inner", "word": "a1"}
        job = write_job(tmp_path, doc)
        assert main(["certify", "--job", job]) == 3

    def test_timings_flag(self, tmp_path, capsys):
        job = write_job(tmp_path, twist_job())
        assert main(["certify", "--job", job, "--timings"]) == 0
        assert "timings" in json.loads(capsys.readouterr().out)

    def test_primes_override(self, tmp_path, capsys):
        doc = {
            "schema": 1, "genus": 5, "k": 2, "pipeline": "homology",
            "element": {"sum": [
                {"sign": 1, "term": {"atom": "sep_twist", "index": 3}},
                {"sign": 1, "term": {"atom": "sep_twist", "index": 4}},
            ]},
        }
        job = write_job(tmp_path, doc)
        assert main(["certify", "--job", job, "--primes", "19"]) == 0
        out = json.loads(capsys.readouterr().out)
        for factor in out["factors"]:
            cert = factor["certificate"]
            assert cert is None or cert["prime"] == 19


def hostile_documents() -> dict[str, str]:
    twist = twist_job()
    rng = random.Random(1)
    docs = {
        "index-list": dict(twist, element={"op": "sep_twist", "index": [1]}),
        "index-bool": dict(twist, element={"op": "sep_twist", "index": True}),
        "primes-scalar": dict(twist, options={"primes": 5}),
        "primes-composite": dict(twist, options={"primes": [9]}),
        "primes-bool": dict(twist, options={"primes": [True]}),
        "top-level-array": [twist],
        "custom-non-string": dict(twist, element={"op": "custom", "images": [1, 2, 3, 4]}),
        "sign-bool": dict(twist, pipeline="homology", element={"sum": [
            {"sign": True, "term": {"atom": "sep_twist", "index": 1}}]}),
        "genus-float": dict(twist, genus=2.5),
        "contraction-pairs-string": dict(twist, options={"contraction_spec": {
            "pairs": "12", "output": 3}}),
        "contraction-slot-float": dict(twist, options={"contraction_spec": {
            "pairs": [[1.9, 2]], "output": 3}}),
        "contraction-slot-bool": dict(twist, options={"contraction_spec": {
            "pairs": [[True, 2]], "output": 3}}),
        "contraction-output-string": dict(twist, options={"contraction_spec": {
            "pairs": [[1, 2]], "output": "3"}}),
        "primes-beyond-2-64": dict(twist, options={"primes": [2**64 + 13]}),
        # refused by the length cap; testing each entry took 21 s in parse_job (2-core x86 VM)
        "primes-repeated-10-5": dict(twist, options={"primes": [2**64 - 59] * 10**5}),
        "power-exponent-huge": dict(twist, element={
            "op": "power", "base": twist["element"], "exponent": 10**12}),
        "power-nested": dict(twist, element={"op": "power", "exponent": 40, "base": {
            "op": "power", "base": twist["element"], "exponent": 40}}),
        "word-exponent-huge": dict(twist, element={"op": "inner", "word": "a1^1000000000000"}),
        # refused by the length cap; without it, parse_job multiplied out one
        # matrix per class (1000 random classes at genus 12: 5.2 s, 2-core x86 VM)
        "transvections-10-4": dict(twist, pipeline="homology", element={
            "conjugate": {"atom": "sep_twist", "index": 1},
            "transvections": [[1, 0, 1, 0]] * 10**4}),
        # refused by the conjugator size cap; without it the conjugator's entries
        # reached 280 bits and charpoly took 42 s (2-core x86 VM)
        "conjugator-280-bits": dict(twist, genus=36, pipeline="homology", element={
            "conjugate": {"atom": "sep_twist", "index": 1},
            "transvections": [[rng.randint(-3, 3) for _ in range(72)] for _ in range(64)]}),
    }
    texts = {name: json.dumps(doc) for name, doc in docs.items()}
    deep = json.dumps(twist["element"])
    for _ in range(3000):
        deep = f'{{"op": "compose", "factors": [{deep}]}}'
    texts["nested-too-deeply"] = json.dumps(dict(twist, element=None)).replace("null", deep)
    return texts


@pytest.mark.parametrize("name", sorted(hostile_documents()))
@pytest.mark.parametrize("command", ["certify", "tau"])
def test_hostile_document_exits_2(tmp_path, capsys, name, command):
    path = tmp_path / "job.json"
    path.write_text(hostile_documents()[name])
    assert main([command, "--job", str(path)]) == 2
    assert main([command, "--job", str(path), "--truncation", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def oversized_documents() -> dict[str, dict]:
    twist = twist_job()
    return {
        "truncation-80": dict(twist, options={"truncation": 80}),
        "odd-k-39": dict(twist, k=39),
        "homology-k-1000": dict(twist, k=1000, pipeline="homology",
                                element={"atom": "sep_twist", "index": 1}),
        "genus-10-6": dict(twist, genus=10**6),
    }


@pytest.mark.parametrize("name", sorted(oversized_documents()))
@pytest.mark.parametrize("command", ["certify", "tau"])
def test_oversized_document_exits_2(tmp_path, capsys, name, command):
    # refused at parse time: without the caps these run for minutes or longer
    job = write_job(tmp_path, oversized_documents()[name])
    assert main([command, "--job", job]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


class TestTau:
    def test_pi1(self, tmp_path, capsys):
        job = write_job(tmp_path, twist_job())
        assert main(["tau", "--job", job]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["observed_depth"] == {"value": 2, "exact": True}
        assert obj["tau"]["weight"] == 3

    def test_wedge_atom(self, tmp_path, capsys):
        doc = {
            "schema": 1, "genus": 2, "k": 1, "pipeline": "homology",
            "element": {"atom": "bounding_pair", "index": 2},
        }
        job = write_job(tmp_path, doc)
        assert main(["tau", "--job", job]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["tau"]["weight"] == 2

    def test_rejects_sums(self, tmp_path):
        doc = {
            "schema": 1, "genus": 2, "k": 2, "pipeline": "homology",
            "element": {"sum": [{"sign": 1, "term": {"atom": "sep_twist", "index": 1}}]},
        }
        job = write_job(tmp_path, doc)
        assert main(["tau", "--job", job]) == 2


    def test_primes_flag_refused(self, tmp_path):
        # the cochain does not depend on certificate primes
        job = write_job(tmp_path, twist_job())
        with pytest.raises(SystemExit) as exc:
            main(["tau", "--job", job, "--primes", "19"])
        assert exc.value.code == 2

    def test_truncation_flag_listed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tau", "--help"])
        assert exc.value.code == 0
        assert "--truncation" in capsys.readouterr().out


class TestCharpolyCommand:
    def test_basic(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([["0", "1"], ["-1", "0"]]))
        assert main(["charpoly", "--matrix", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["charpoly"] == ["1", "0", "1"]

    def test_rejects_ragged(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([[1, 2], [3]]))
        assert main(["charpoly", "--matrix", str(path)]) == 2


class TestFixturesCommand:
    def test_bundled_pass(self, capsys):
        assert main(["fixtures"]) == 0
        out = capsys.readouterr().out
        assert "7 fixtures passed" in out

    def test_perturbed_expected_fails_naming_field(self, tmp_path, capsys):
        src = bundled_dir()
        dst = tmp_path / "corpus"
        shutil.copytree(src, dst)
        exp_path = dst / "septwist-g2-i1" / "expected.json"
        doc = json.loads(exp_path.read_text())
        doc["verdict"] = "CERTIFIED_PSEUDO_ANOSOV"
        exp_path.write_text(json.dumps(doc))
        assert main(["fixtures", "--dir", str(dst)]) == 4
        captured = capsys.readouterr()
        assert "septwist-g2-i1" in captured.out
        assert "verdict" in captured.out + captured.err

    def test_empty_corpus_errors(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["fixtures", "--dir", str(empty)]) == 2

    def test_missing_dir_errors(self, tmp_path):
        assert main(["fixtures", "--dir", str(tmp_path / "nope")]) == 2

    def test_verify_fixtures_api(self):
        summary = verify_fixtures()
        assert summary.ok
        assert len(summary.results) == 7

    def test_missing_expected_reported(self, tmp_path):
        src = bundled_dir()
        dst = tmp_path / "corpus"
        shutil.copytree(src, dst)
        (dst / "septwist-g2-i1" / "expected.json").unlink()
        summary = verify_fixtures(dst)
        assert not summary.ok

    def test_empty_dir_raises(self, tmp_path):
        with pytest.raises(FixtureError):
            verify_fixtures(tmp_path)
