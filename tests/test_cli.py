import functools
import json
import random
import shutil
import time

import pytest

from checks import exact_length_word, format_word
from psicert import johnson
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

    @pytest.mark.parametrize("flag", ["--job", "--contraction-spec", "--matrix"])
    def test_bad_json_names_the_file(self, tmp_path, capsys, flag):
        broken = tmp_path / "broken.json"
        broken.write_text("")
        args = {"--job": ["certify", "--job", str(broken)],
                "--contraction-spec": ["certify", "--job", write_job(tmp_path, twist_job()),
                                       "--contraction-spec", str(broken)],
                "--matrix": ["charpoly", "--matrix", str(broken)]}[flag]
        assert main(args) == 2
        assert capsys.readouterr().err == (
            f"error: invalid JSON in {broken}: Expecting value: line 1 column 1 (char 0)\n")
        broken.write_bytes(b"\xff\xfe{}")
        assert main(args) == 2
        assert capsys.readouterr().err == (f"error: invalid JSON in {broken}: 'utf-8' codec "
                                           "can't decode byte 0xff in position 0: invalid start byte\n")

    @pytest.mark.parametrize("flag", ["--job", "--contraction-spec", "--matrix"])
    def test_over_long_integer_names_the_file(self, tmp_path, capsys, flag):
        # json reads an integer of more than 4,300 digits as a ValueError
        broken = tmp_path / "long.json"
        broken.write_text("[" + "7" * 5000 + "]")
        args = {"--job": ["certify", "--job", str(broken)],
                "--contraction-spec": ["certify", "--job", write_job(tmp_path, twist_job()),
                                       "--contraction-spec", str(broken)],
                "--matrix": ["charpoly", "--matrix", str(broken)]}[flag]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid JSON in {broken}: Exceeds the limit (4300 digits)")

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["certify", "--job", str(tmp_path / "absent.json")]) == 2

    def test_depth_exit_code(self, tmp_path):
        doc = twist_job()
        doc["element"] = {"op": "inner", "word": "a1"}
        job = write_job(tmp_path, doc)
        assert main(["certify", "--job", job]) == 3

    def test_hostile_depth_document_exits_3(self, tmp_path, monkeypatch, capsys):
        # a long inner factor at truncation 8: expanding it there ran for minutes
        real = johnson.magnus_expand

        def guarded(w, t):
            assert t <= 3, f"magnus_expand called at truncation {t}"
            return real(w, t)

        monkeypatch.setattr(johnson, "magnus_expand", guarded)
        w = format_word(exact_length_word(random.Random(1), 3, 60))
        job = write_job(tmp_path, {
            "schema": 1, "name": "hostile", "genus": 3, "k": 2, "pipeline": "pi1",
            "element": {"op": "compose", "factors": [
                {"op": "sep_twist", "index": 1}, {"op": "inner", "word": w}]},
            "options": {"truncation": 8}})
        assert main(["certify", "--job", job]) == 3
        assert "depth 1 < k = 2" in capsys.readouterr().err

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

    @pytest.mark.parametrize("primes, entry", [("abc", "'abc'"), ("19, 2x3", "'2x3'")])
    def test_bad_primes_entry_named(self, tmp_path, capsys, primes, entry):
        job = write_job(tmp_path, twist_job())
        assert main(["certify", "--job", job, "--primes", primes]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --primes: {entry} is not an integer\n"

    @pytest.mark.parametrize("primes, document, message", [
        pytest.param("x" * 4000, None, "--primes: '" + "x" * 32 + "\u2026' is not an integer",
                     id="flag-not-an-integer"),
        pytest.param("9" * 4000, None, "primes must all be primes below 2^64, got "
                     + "9" * 32 + "\u2026", id="flag-4000-digits"),
        pytest.param(None, [int("9" * 4000)], "primes must all be primes below 2^64, got "
                     + "9" * 32 + "\u2026", id="document-4000-digits")])
    def test_long_primes_entries_clipped(self, tmp_path, capsys, primes, document, message):
        doc = twist_job() if document is None else dict(twist_job(), options={"primes": document})
        args = ["certify", "--job", write_job(tmp_path, doc)]
        assert main(args + ([] if primes is None else ["--primes", primes])) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


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
        "name-number": dict(twist, name=7),
        "entry-underscore": dict(twist, pipeline="homology", element={
            "conjugate": {"atom": "sep_twist", "index": 1},
            "transvections": [["1_0", "0", "0", "0"]]}),
        "contraction-pairs-string": dict(twist, options={"contraction_spec": {
            "pairs": "12", "output": 3}}),
        "contraction-slot-float": dict(twist, options={"contraction_spec": {
            "pairs": [[1.9, 2]], "output": 3}}),
        "contraction-slot-bool": dict(twist, options={"contraction_spec": {
            "pairs": [[True, 2]], "output": 3}}),
        "contraction-output-string": dict(twist, options={"contraction_spec": {
            "pairs": [[1, 2]], "output": "3"}}),
        # arity 5 at k = 2, where the degree is 3: refused at parse, so by `tau` too
        "contraction-arity-mismatch": dict(twist, options={"contraction_spec": {
            "pairs": [[1, 2], [3, 4]], "output": 5}}),
        "primes-beyond-2-64": dict(twist, options={"primes": [2**64 + 13]}),
        # refused by the length cap; testing each entry took 21 s in parse_job (2-core x86 VM)
        "primes-repeated-10-5": dict(twist, options={"primes": [2**64 - 59] * 10**5}),
        "power-exponent-huge": dict(twist, element={
            "op": "power", "base": twist["element"], "exponent": 10**12}),
        "power-nested": dict(twist, element={"op": "power", "exponent": 40, "base": {
            "op": "power", "base": twist["element"], "exponent": 40}}),
        # 5^4 = 625 leaves, over the 256 that are summed, so the word route
        # builds it, and its letter cap stops the build of T^125 from T^25
        "power-nested-4-deep": dict(twist, element=functools.reduce(
            lambda base, _: {"op": "power", "base": base, "exponent": 5}, range(4),
            twist["element"])),
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
        # refused by the node cap: 1 sum and 16 conjugated atoms
        "homology-33-nodes": dict(twist, pipeline="homology", element={"sum": [
            {"sign": 1, "term": {"conjugate": {"atom": "sep_twist", "index": 1},
                                 "transvections": ["a1"]}}] * 16}),
        # refused by the node cap before the 32nd factor is built; without it
        # parse_job built all 2,000 twists (12 s, 383 MiB, 2-core x86 VM)
        "pi1-2000-factors": dict(twist, genus=36, element={"op": "compose", "factors": [
            {"op": "sep_twist", "index": 35}] * 2000}),
        # refused by the term cap before a term is read; at genus 36, 100 terms
        # over classes with 3 nonzero coordinates ran for 20 s (2-core x86 VM)
        "wedge3-200-terms": dict(twist, genus=36, k=1, pipeline="homology", element={
            "atom": "wedge3", "terms": [{"coef": 1, "triple": ["a1", "b1", "a2"]}] * 200}),
        # refused by the coefficient cap; 3 terms with 14,000-bit coefficients
        # ran for 60 s at genus 36 before failing (2-core x86 VM)
        "wedge3-14000-bit-coef": dict(twist, genus=36, k=1, pipeline="homology", element={
            "atom": "wedge3", "terms": [{"coef": 1 << 13999, "triple": ["a1", "b1", "a2"]}]}),
        # refused by the coordinate cap; the cochain could not be written as text
        "wedge3-4001-digit-coordinates": dict(twist, genus=2, k=1, pipeline="homology", element={
            "atom": "wedge3", "terms": [{"coef": 1, "triple": [
                [10**4000, 0, 0, 0], [0, 10**4000, 0, 0], "a2"]}]}),
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


@pytest.mark.parametrize("element, node", [
    ({"op": "inner", "word": "c1"}, "inner word"),
    ({"op": "inner", "word": "a1^" + "9" * 5000}, "inner word"),
    ({"op": "custom", "images": ["a1", "b1", "a\u0661", "b2"]}, "custom image 3"),
])
@pytest.mark.parametrize("command", ["certify", "tau"])
def test_bad_word_exits_2_naming_the_node(tmp_path, capsys, element, node, command):
    job = write_job(tmp_path, dict(twist_job(), element=element))
    assert main([command, "--job", job]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {node}: ") and "Traceback" not in err
    assert "set_int_max_str_digits" not in err


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


def echoing_documents() -> dict[str, tuple[str, object]]:
    """(command, document) pairs whose error message echoes a document value."""
    twist, long = twist_job(), "x" * 100_000
    homology = dict(twist, pipeline="homology")
    return {
        "divide-by-4226-digits": ("certify", dict(twist, options={"divide_by": int("7" * 4226)})),
        "matrix-entry": ("certify", dict(homology, element={
            "conjugate": {"atom": "sep_twist", "index": 1},
            "matrix": [[long, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]})),
        "transvection-class": ("certify", dict(homology, element={
            "conjugate": {"atom": "sep_twist", "index": 1}, "transvections": [[long, 0, 0, 0]]})),
        "charpoly-matrix-entry": ("charpoly", [[long]]),
        "pi1-op": ("certify", dict(twist, element={"op": long})),
        "schema": ("certify", dict(twist, schema=long)),
        "homology-node-key": ("certify", dict(homology, element={long: 1})),
    }


@pytest.mark.parametrize("name", sorted(echoing_documents()))
def test_echoed_values_are_clipped(tmp_path, capsys, name):
    command, doc = echoing_documents()[name]
    flag = "--matrix" if command == "charpoly" else "--job"
    assert main([command, flag, write_job(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert len(err) < 200, err[:300]


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

    def test_homology_sep_twist_atom(self, tmp_path, capsys):
        doc = {"schema": 1, "genus": 2, "k": 2, "pipeline": "homology",
               "element": {"atom": "sep_twist", "index": 1}}
        assert main(["tau", "--job", write_job(tmp_path, doc)]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert main(["tau", "--job", write_job(tmp_path, twist_job(), "pi1.json")]) == 0
        assert obj["observed_depth"] is None
        assert obj["tau"] == json.loads(capsys.readouterr().out)["tau"]

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

    @pytest.mark.parametrize("dim, bits, message", [
        (120, 3, "120 rows, cap 72"),  # uncapped, charpoly took 6.3 s
        (72, 1000, "bits, cap 64"),    # uncapped, over 290 s
    ])
    def test_rejects_oversized(self, tmp_path, capsys, dim, bits, message):
        rng = random.Random(dim)
        rows = [[str(rng.getrandbits(bits) - (1 << (bits - 1))) for _ in range(dim)]
                for _ in range(dim)]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(rows))
        start = time.perf_counter()
        assert main(["charpoly", "--matrix", str(path)]) == 2
        assert time.perf_counter() - start < 1
        assert message in capsys.readouterr().err

    def test_admits_the_cap(self, tmp_path, capsys):
        # a bit-length cap of 64 admits entries of magnitude 2^64 - 1
        top = str((1 << 64) - 1)
        path = tmp_path / "m.json"
        path.write_text(json.dumps([[top, "0"], ["0", "-" + top]]))
        assert main(["charpoly", "--matrix", str(path)]) == 0
        chi = json.loads(capsys.readouterr().out)["charpoly"]
        assert chi == [str(-((1 << 64) - 1) ** 2), "0", "1"]


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

    @pytest.mark.parametrize("content, message", [
        (b'{"verdict": }', "JobError: invalid JSON in {path}: Expecting value: line 1 column 13 "
                           "(char 12)"),
        (b"\xff\xfe{}", "JobError: invalid JSON in {path}: 'utf-8' codec can't decode byte 0xff in "
                        "position 0: invalid start byte"),
        (b'["verdict"]', "FixtureError: {path} is not a JSON object"),
    ], ids=["malformed", "not-utf-8", "not-an-object"])
    def test_unreadable_expected_names_the_file(self, tmp_path, capsys, content, message):
        dst = tmp_path / "corpus"
        shutil.copytree(bundled_dir(), dst)
        path = dst / "genus2-negative" / "expected.json"
        path.write_bytes(content)
        assert main(["fixtures", "--dir", str(dst)]) == 4
        captured = capsys.readouterr()
        assert f"FAIL genus2-negative: {message.format(path=path)}\n" in captured.out
        assert "Traceback" not in captured.out + captured.err

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
