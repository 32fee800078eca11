import random
import re
import sys

import pytest

from checks import identity_endo, letterwise_compose, linear_combination, transvection
from psicert import homology, jobs, johnson, words
from psicert.contract import ContractionSpec
from psicert.errors import DepthError, JobError
from psicert.homology import HVector, IntMatrix, times_transvection
from psicert.fixtures import bundled_dir
from psicert.jobs import (Atom, Compose, Conjugate, Job, Sum, canonical_json, load_job,
                          parse_hvector, parse_job, parse_matrix, run_job, run_tau)
from psicert.johnson import DepthResult
from psicert.polylab import IntPolynomial
from psicert.words import MAX_WORD_LETTERS, sep_twist


def base_job(**over):
    doc = {
        "schema": 1,
        "name": "t",
        "genus": 2,
        "k": 2,
        "pipeline": "pi1",
        "element": {"op": "sep_twist", "index": 1},
    }
    doc.update(over)
    return doc


# diag(2, 1, 1, 1, 1, 1) scales <a1, b1> by 2
NON_SYMPLECTIC = [[2 if i == j == 0 else int(i == j) for j in range(6)] for i in range(6)]


def psi_of(report):
    return IntMatrix.from_rows([[int(x) for x in row] for row in report.to_json_obj()["psi"]])


class TestValidation:
    def test_schema_required(self):
        with pytest.raises(JobError):
            parse_job(base_job(schema=2))

    def test_pipeline_enum(self):
        with pytest.raises(JobError):
            parse_job(base_job(pipeline="magic"))

    def test_missing_field(self):
        doc = base_job()
        del doc["genus"]
        with pytest.raises(JobError):
            parse_job(doc)

    def test_bad_sep_twist_index(self):
        with pytest.raises(JobError):
            parse_job(base_job(element={"op": "sep_twist", "index": 2}))

    def test_custom_image_count(self):
        with pytest.raises(JobError):
            parse_job(base_job(element={"op": "custom", "images": ["a1", "b1"]}))

    def test_unknown_op(self):
        with pytest.raises(JobError):
            parse_job(base_job(element={"op": "frobnicate"}))

    def test_power_exponent_positive(self):
        with pytest.raises(JobError):
            parse_job(base_job(element={"op": "power", "base": {"op": "sep_twist", "index": 1},
                                        "exponent": 0}))

    def test_odd_k_multi_term_sum_rejected(self):
        doc = base_job(k=1, pipeline="homology", element={"sum": [
            {"sign": 1, "term": {"atom": "bounding_pair", "index": 2}},
            {"sign": -1, "term": {"atom": "bounding_pair", "index": 2}},
        ]})
        with pytest.raises(JobError, match="even k"):
            parse_job(doc)

    def test_even_k_multi_term_sum_accepted(self):
        doc = base_job(pipeline="homology", element={"sum": [
            {"sign": 1, "term": {"atom": "sep_twist", "index": 1}},
            {"sign": -1, "term": {"atom": "sep_twist", "index": 1}},
        ]})
        assert run_job(parse_job(doc)).psi == IntMatrix.from_rows([[0] * 4] * 4)

    def test_non_symplectic_conjugator(self):
        doc = base_job(pipeline="homology", element={
            "conjugate": {"atom": "sep_twist", "index": 1},
            "matrix": [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        })
        with pytest.raises(JobError, match="symplectic"):
            parse_job(doc)

    def test_conjugate_needs_exactly_one_form(self):
        doc = base_job(pipeline="homology", element={
            "conjugate": {"atom": "sep_twist", "index": 1},
        })
        with pytest.raises(JobError):
            parse_job(doc)

    def test_wedge_needs_k1(self):
        doc = base_job(pipeline="homology", element={
            "atom": "wedge3",
            "terms": [{"coef": 1, "triple": ["a1", "b1", "b2"]}],
        })
        with pytest.raises(JobError, match="k = 1"):
            parse_job(doc)

    def test_divide_by_positive(self):
        with pytest.raises(JobError):
            parse_job(base_job(options={"divide_by": 0}))

    def test_truncation_floor(self):
        with pytest.raises(JobError):
            parse_job(base_job(options={"truncation": 2}))

    @pytest.mark.parametrize("options, message", [
        ({"primes": [13, 9]}, "prime"),
        ({"primes": [1]}, "prime"),
        ({"primes": [True]}, "integer"),
        ({"divide_by": True}, "integer"),
        ({"truncation": 4.0}, "integer"),
        ({"primes": [2**64 + 13]}, "2\\^64"),
        ({"contraction_spec": {"pairs": [[1, 2]], "output": 3.0}}, "integer"),
    ])
    def test_options_type_checked_at_parse_time(self, options, message):
        with pytest.raises(JobError, match=message):
            parse_job(base_job(options=options))

    def test_primes_up_to_2_64_parse_quickly(self):
        job = parse_job(base_job(options={"primes": [2**64 - 59]}))
        assert job.primes == (2**64 - 59,)

    def test_power_exponent_capped(self):
        element = {"op": "power", "base": {"op": "sep_twist", "index": 1}}
        parse_job(base_job(element=dict(element, exponent=jobs.MAX_EXPONENT)))
        with pytest.raises(JobError, match="exponent"):
            parse_job(base_job(element=dict(element, exponent=jobs.MAX_EXPONENT + 1)))

    def test_genus_and_truncation_capped(self):
        parse_job(base_job(genus=jobs.MAX_GENUS))
        parse_job(base_job(options={"truncation": jobs.MAX_TRUNCATION}))
        with pytest.raises(JobError, match="genus"):
            parse_job(base_job(genus=jobs.MAX_GENUS + 1))
        with pytest.raises(JobError, match="truncation"):
            parse_job(base_job(options={"truncation": jobs.MAX_TRUNCATION + 1}))

    def test_primes_capped_before_primality(self, monkeypatch):
        calls = []
        monkeypatch.setattr(jobs, "_is_prime", lambda p: calls.append(p) or True)
        big = 2**64 - 59
        with pytest.raises(JobError, match="primes"):
            parse_job(base_job(options={"primes": [big] * (jobs.MAX_PRIMES + 1)}))
        with pytest.raises(JobError, match="primes"):
            parse_job(base_job(options={"primes": ["x"] * (jobs.MAX_PRIMES + 1)}))
        assert calls == []
        job = parse_job(base_job(options={"primes": [big] * jobs.MAX_PRIMES}))
        assert job.primes == (big,) * jobs.MAX_PRIMES
        assert len(calls) == jobs.MAX_PRIMES

    def test_transvections_capped_before_parsing(self, monkeypatch):
        calls = []
        real = jobs.times_transvection
        monkeypatch.setattr(jobs, "times_transvection", lambda s, v: calls.append(v) or real(s, v))

        def doc(count):
            return base_job(pipeline="homology", element={
                "conjugate": {"atom": "sep_twist", "index": 1},
                "transvections": [[1, 0, 1, 0]] * count})

        with pytest.raises(JobError, match="transvections"):
            parse_job(doc(jobs.MAX_TRANSVECTIONS + 1))
        with pytest.raises(JobError, match="transvections"):
            parse_job(doc(10**5))
        assert calls == []
        parse_job(doc(jobs.MAX_TRANSVECTIONS))
        assert len(calls) == jobs.MAX_TRANSVECTIONS

    def test_pi1_nodes_capped_before_building(self, monkeypatch):
        calls = []
        real = jobs.sep_twist
        monkeypatch.setattr(jobs, "sep_twist", lambda g, i: calls.append(i) or real(g, i))

        def doc(count):
            return base_job(element={"op": "compose", "factors": [
                {"op": "sep_twist", "index": 1}] * count})

        # the compose node and 31 factors are read; the 33rd node is refused unbuilt
        for count in (jobs.MAX_NODES, 2000):
            calls.clear()
            with pytest.raises(JobError, match="^pi1 element has more than 32 nodes"):
                parse_job(doc(count))
            assert len(calls) == jobs.MAX_NODES - 1
        calls.clear()
        parse_job(doc(jobs.MAX_NODES - 1))
        assert len(calls) == jobs.MAX_NODES - 1

    def test_wedge_atoms_capped_before_reading(self, monkeypatch):
        calls = []
        real = jobs.parse_hvector
        monkeypatch.setattr(jobs, "parse_hvector",
                            lambda v, genus, what: calls.append(v) or real(v, genus, what=what))

        def doc(*coefs):
            return base_job(k=1, pipeline="homology", element={"atom": "wedge3", "terms": [
                {"coef": c, "triple": ["a1", "b1", "b2"]} for c in coefs]})

        # the term count is checked before any term is read
        message = f"wedge3 node needs a 'terms' list of 1..{jobs.MAX_WEDGE_TERMS} terms"
        for count in (0, jobs.MAX_WEDGE_TERMS + 1, 10**5):
            with pytest.raises(JobError, match=f"^{re.escape(message)}$"):
                parse_job(doc(*[1] * count))
        assert calls == []
        parse_job(doc(*[1] * jobs.MAX_WEDGE_TERMS))
        assert len(calls) == 3 * jobs.MAX_WEDGE_TERMS
        # each coefficient before its term's vectors
        top = 1 << jobs.MAX_WEDGE_BITS
        assert [c for c, _ in parse_job(doc(top - 1, 1 - top)).element.terms] == [top - 1, 1 - top]
        calls.clear()
        for coef in (top, -top, 1 << 14000):
            with pytest.raises(JobError, match=f"^wedge coef reaches {coef.bit_length()} bits, "
                                               f"cap {jobs.MAX_WEDGE_BITS}$"):
                parse_job(doc(1, coef))
        assert len(calls) == 3 * 3

    def test_conjugator_entries_capped(self, monkeypatch):
        calls = []
        real = jobs.times_transvection
        monkeypatch.setattr(jobs, "times_transvection", lambda s, v: calls.append(v) or real(s, v))
        top = 1 << jobs.MAX_CONJUGATOR_BITS

        def shear(entry):  # symplectic: a1 -> a1, b1 -> b1 + entry a1
            return [[1, entry, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]

        def doc(**conjugator):
            return base_job(pipeline="homology", element={
                "conjugate": {"atom": "sep_twist", "index": 1}, **conjugator})

        parse_job(doc(matrix=shear(top - 1)))
        with pytest.raises(JobError, match="bits"):
            parse_job(doc(matrix=shear(top)))
        with pytest.raises(JobError, match="bits"):
            parse_job(doc(matrix=shear(str(-top))))
        # the transvection of c a1 has the entry c^2; checked after each class
        root = 1 << jobs.MAX_CONJUGATOR_BITS // 2
        parse_job(doc(transvections=[[root - 1, 0, 0, 0]]))
        calls.clear()
        with pytest.raises(JobError, match="bits"):
            parse_job(doc(transvections=[[root, 0, 0, 0]] + [[1, 0, 1, 0]] * 63))
        assert len(calls) == 1

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_constructed_job_gets_the_default_truncation(self, k):
        # a Job built in code without a truncation runs as its parsed document does
        doc = base_job(k=k, element={"op": "custom", "images": ["a1", "b1", "a2", "b2"]})
        job = Job(2, k, "pi1", identity_endo(2), "t")
        assert job.truncation == jobs.checked_truncation(k, None, 1) == parse_job(doc).truncation
        report = run_job(job)
        assert report.to_json() == run_job(parse_job(doc)).to_json()
        assert report.observed_depth == DepthResult(job.truncation - 1, exact=False)
        assert run_tau(job) == (report.observed_depth, report.tau)

    @pytest.mark.parametrize("fields, document, message", [
        pytest.param({"truncation": 1}, {"options": {"truncation": 1}},
                     "truncation must be at least k+1 = 3", id="floor"),
        pytest.param({"truncation": 60}, {"options": {"truncation": 60}},
                     "truncation 60 exceeds the cap 24", id="cap"),
        pytest.param({"divide_by": 0}, {"options": {"divide_by": 0}},
                     "divide_by must be a positive integer", id="divide_by"),
        pytest.param({"primes": (4,)}, {"options": {"primes": [4]}},
                     "primes must all be primes below 2^64, got 4", id="composite"),
        pytest.param({"primes": (2**70,)}, {"options": {"primes": [2**70]}},
                     f"primes must all be primes below 2^64, got {2**70}", id="prime-2^70"),
        pytest.param({"primes": (13,) * 65}, {"options": {"primes": [13] * 65}},
                     "primes lists 65 entries, cap 64", id="primes-cap"),
        pytest.param({"primes": (True,)}, {"options": {"primes": [True]}},
                     "each of primes must be an integer, got bool", id="prime-bool"),
        pytest.param({"contraction": ContractionSpec(((1, 2), (3, 4)), 5)},
                     {"options": {"contraction_spec": {"pairs": [[1, 2], [3, 4]], "output": 5}}},
                     "contraction spec arity 5 does not match degree 3", id="arity"),
        pytest.param({"name": 5}, {"name": 5}, "name must be a string, got int", id="name")])
    def test_constructed_job_checks_its_options(self, fields, document, message):
        # refused as its document is, with the same message, before anything runs
        with pytest.raises(JobError, match=f"^{re.escape(message)}"):
            Job(2, 2, "pi1", identity_endo(2), **fields)
        with pytest.raises(JobError, match=f"^{re.escape(message)}"):
            parse_job(base_job(**document))

    @pytest.mark.parametrize("genus, k, pipeline, element, node, message", [
        pytest.param(3, 2, "magic", identity_endo(3), {"op": "sep_twist", "index": 1},
                     "pipeline must be one of ('pi1', 'homology')", id="pipeline"),
        pytest.param(3, 2, "pi1", Atom("sep_twist", 1), {"atom": "sep_twist", "index": 1},
                     "pi1 element nodes must be objects with an 'op' field", id="atom-in-pi1"),
        pytest.param(3, 2, "homology", identity_endo(3), ["sep_twist", 1],
                     "homology element nodes must be objects", id="leaf-in-homology"),
        pytest.param(40, 2, "pi1", identity_endo(40), {"op": "sep_twist", "index": 1},
                     "genus must be in 1..36, got 40", id="genus-cap"),
        pytest.param(3, 2, "pi1", identity_endo(2), {"op": "custom", "images": ["a1"] * 4},
                     "custom node needs exactly 6 image word strings", id="leaf-genus"),
        pytest.param(3, 2, "pi1", Compose((identity_endo(3),), 0),
                     {"op": "power", "base": {"op": "sep_twist", "index": 1}, "exponent": 0},
                     "power exponent must be in 1..256, got 0", id="exponent"),
        pytest.param(3, 2, "homology", Atom("sep_twist", 3), {"atom": "sep_twist", "index": 3},
                     "sep_twist index must be in 1..genus-1, got 3", id="sep_twist-index"),
        pytest.param(3, 1, "homology", Atom("bounding_pair", 0),
                     {"atom": "bounding_pair", "index": 0},
                     "bounding_pair index must be in 1..genus, got 0", id="bounding_pair-index"),
        pytest.param(3, 2, "homology", Atom("bounding_pair", 2),
                     {"atom": "bounding_pair", "index": 2},
                     "bounding_pair atoms define weight-2 data and require k = 1", id="weight-2"),
        pytest.param(3, 1, "homology", Atom("wedge3", terms=(
            (1, tuple(HVector.from_name(n, 2) for n in ("a1", "b1", "b2"))),)),
                     {"atom": "wedge3",
                      "terms": [{"coef": 1, "triple": [[0, 1, 0, 1], "a1", "b1"]}]},
                     "wedge vector must have 2*genus = 6 coordinates", id="wedge-vector"),
        pytest.param(3, 2, "homology", Conjugate(Atom("sep_twist", 1), IntMatrix.identity(4)),
                     {"conjugate": {"atom": "sep_twist", "index": 1},
                      "matrix": [[int(i == j) for j in range(4)] for i in range(4)]},
                     "conjugator matrix must be 6x6", id="conjugator"),
        pytest.param(3, 2, "homology", Conjugate(Atom("sep_twist", 1), IntMatrix.from_rows(
            NON_SYMPLECTIC)), {"conjugate": {"atom": "sep_twist", "index": 1},
                               "matrix": NON_SYMPLECTIC},
                     "non-symplectic conjugator matrix", id="non-symplectic"),
        pytest.param(3, 2, "pi1", Compose(()), {"op": "compose", "factors": []},
                     "compose node needs a nonempty 'factors' list", id="empty-compose"),
        pytest.param(3, 2, "homology", Sum(()), {"sum": []},
                     "sum node needs a nonempty list of terms", id="empty-sum"),
        pytest.param(3, 2, "homology", Sum(((True, Atom("sep_twist", 1)),)),
                     {"sum": [{"sign": True, "term": {"atom": "sep_twist", "index": 1}}]},
                     "sum terms must be objects with sign +-1", id="sign-bool"),
        pytest.param(3, 2, "pi1", Compose((identity_endo(3),) * 32),
                     {"op": "compose", "factors": [{"op": "sep_twist", "index": 1}] * 32},
                     "pi1 element has more than 32 nodes (compositions, powers and leaves)",
                     id="pi1-node-cap"),
        pytest.param(3, 1, "homology", Sum(((1, Atom("sep_twist", 1)),) * 2),
                     {"sum": [{"sign": 1, "term": {"atom": "sep_twist", "index": 1}}] * 2},
                     "signed sums with more than one term require even k", id="odd-sum"),
        pytest.param(3, 2, "homology", Sum(((2, Atom("sep_twist", 1)),)),
                     {"sum": [{"sign": 2, "term": {"atom": "sep_twist", "index": 1}}]},
                     "sum terms must be objects with sign +-1", id="sign"),
        pytest.param(3, 2, "homology", Sum(((1, Atom("sep_twist", 1)),) * 32),
                     {"sum": [{"sign": 1, "term": {"atom": "sep_twist", "index": 1}}] * 32},
                     "homology element has more than 32 nodes", id="node-cap")])
    def test_constructed_job_checks_its_element(self, genus, k, pipeline, element, node,
                                                message):
        # a Job built in code is refused as its document is, with the same message
        with pytest.raises(JobError, match=f"^{re.escape(message)}"):
            Job(genus, k, pipeline, element)
        with pytest.raises(JobError, match=f"^{re.escape(message)}"):
            parse_job(base_job(genus=genus, k=k, pipeline=pipeline, element=node))

    def test_truncation_refused_before_the_element(self, monkeypatch):
        calls = []
        monkeypatch.setattr(jobs, "_parse_pi1", lambda node, genus: calls.append(node))
        with pytest.raises(JobError, match="truncation"):
            parse_job(base_job(options={"truncation": 60}))
        assert calls == []

    def test_default_truncation_bounds_k(self):
        # the default truncation is k+2, or 2k+2 at odd k
        even = jobs.MAX_TRUNCATION - 2
        odd = (jobs.MAX_TRUNCATION - 2) // 2
        assert parse_job(base_job(k=even)).truncation == jobs.MAX_TRUNCATION
        assert parse_job(base_job(k=odd)).truncation == 2 * odd + 2
        for k in (even + 1, odd + 2):
            with pytest.raises(JobError, match="truncation"):
                parse_job(base_job(k=k))

    def test_image_letters_capped(self):
        # inner(w) has depth 1 < k = 2, so the tree takes the word route; with
        # |w| = 4, w^40 x w^-40 has 321 letters, so i^40 after i^40 could write
        # 321^2 letters
        i40 = {"op": "power", "base": {"op": "inner", "word": "a1 b1 a2 b2"}, "exponent": 40}
        job = parse_job(base_job(element={"op": "compose", "factors": [i40, i40]}))
        message = f"a composition could write {321 * 321} letters, cap {MAX_WORD_LETTERS}"
        with pytest.raises(JobError, match=f"^{re.escape(message)}$"):
            run_job(job)

    def test_twist_powers_sum_past_the_letter_cap(self):
        # t^40 after t^40 could write 321^2 letters, but it counts 80 leaves of
        # depth k, so its cochain is 80 tau(t) and no composed word is written
        t40 = {"op": "power", "base": {"op": "sep_twist", "index": 1}, "exponent": 40}
        report = run_job(parse_job(base_job(element={"op": "compose", "factors": [t40, t40]})))
        assert report.tau == linear_combination((80, johnson.tau_on_H(sep_twist(2, 1), 2)))
        assert report.observed_depth == johnson.DepthResult(2, exact=True)

    def test_twist_powers_same_report_on_both_routes(self, monkeypatch):
        t20 = {"op": "power", "base": {"op": "sep_twist", "index": 1}, "exponent": 20}
        job = parse_job(base_job(element={"op": "compose", "factors": [t20, t20]}))
        additive = run_job(job).to_json()
        monkeypatch.setattr(jobs, "additive_tau", lambda counts, k: None)
        assert run_job(job).to_json() == additive

    def test_power_admission_boundary(self):
        # inner(w) with |w| = 120 has 241-letter images and its square 481-letter
        # ones, so the third factor could write 481 * 241 letters
        w = " ".join(["a1 b1"] * 60)

        def power(exponent):
            doc = base_job(element={"op": "power", "exponent": exponent,
                                    "base": {"op": "inner", "word": w}})
            return jobs.build_endomorphism(parse_job(doc).element)

        assert max(len(x) for x in power(2).images) == 481
        message = f"a composition could write {241 * 481} letters, cap {MAX_WORD_LETTERS}"
        with pytest.raises(JobError, match=f"^{re.escape(message)}$"):
            power(3)

    @pytest.mark.parametrize("element, node", [
        ({"op": "inner", "word": "c1"}, "inner word"),
        ({"op": "inner", "word": "a1^0"}, "inner word"),
        ({"op": "inner", "word": "a9"}, "inner word"),
        ({"op": "inner", "word": "a1^" + "9" * 5000}, "inner word"),
        ({"op": "custom", "images": ["a1", "b1", "a2 c1", "b2"]}, "custom image 3"),
        ({"op": "power", "exponent": 2, "base": {
            "op": "custom", "images": ["a1", "b" + "1" * 5000, "a2", "b2"]}}, "custom image 2"),
    ])
    def test_word_errors_name_the_node(self, element, node):
        with pytest.raises(JobError, match=f"^{node}: ") as info:
            parse_job(base_job(element=element))
        assert "set_int_max_str_digits" not in str(info.value)

    @pytest.mark.parametrize("pipeline, element, start", [
        ("pi1", {"op": "inner", "word": "a" + "7" * 5000}, "inner word: generator a777"),
        ("pi1", {"op": "inner", "word": "x" * 65536}, "inner word: bad word token 'xxx"),
        ("homology", {"conjugate": {"atom": "sep_twist", "index": 1},
                      "transvections": ["b" + "7" * 5000]},
         "transvection class: generator 'b777"),
        ("homology", {"conjugate": {"atom": "sep_twist", "index": 1},
                      "transvections": ["c" * 65536]},
         "transvection class: bad generator name 'ccc"),
    ], ids=["word-index-5000-digits", "word-token-65536-letters",
            "class-index-5000-digits", "class-name-65536-letters"])
    def test_long_tokens_clipped_in_messages(self, pipeline, element, start):
        with pytest.raises(JobError, match=f"^{start}") as info:
            parse_job(base_job(pipeline=pipeline, element=element))
        assert len(str(info.value)) < 200 and "\u2026" in str(info.value)

    def test_bad_hvector(self):
        doc = base_job(k=1, pipeline="homology", element={
            "atom": "wedge3",
            "terms": [{"coef": 1, "triple": ["a9", "b1", "b2"]}],
        })
        with pytest.raises(JobError):
            parse_job(doc)

    @pytest.mark.parametrize("name", ["a\u0661", "b\u00b9"])
    def test_generator_names_are_ascii(self, name):
        doc = base_job(k=1, pipeline="homology", element={
            "atom": "wedge3", "terms": [{"coef": 1, "triple": [name, "b1", "b2"]}]})
        with pytest.raises(JobError, match="^wedge vector: bad generator name"):
            parse_job(doc)

    @pytest.mark.parametrize("entry", ["1_0", " -1", "1 ", "\u0661", "+1", "-", "", "--1", "0x1"])
    def test_entries_are_ascii_decimal(self, entry):
        with pytest.raises(JobError, match=f"^wedge vector: {re.escape(repr(entry))} is not"):
            parse_hvector([entry, "0", "0", "0"], 2, what="wedge vector")
        with pytest.raises(JobError, match="^conjugator matrix entries must be"):
            parse_matrix([[entry, "0"], ["0", "1"]], what="conjugator matrix")

    def test_decimal_entries_accepted(self):
        assert parse_hvector(["-12", "0", "007", 4], 2).coords == (-12, 0, 7, 4)

    @pytest.mark.parametrize("name", [None, 7, ["t"], {"n": "t"}, True])
    def test_name_must_be_a_string(self, name):
        with pytest.raises(JobError, match="^name must be a string"):
            parse_job(base_job(name=name))


class TestTransvectionUpdate:
    """`parse_job` multiplies the conjugator by each transvection class as a
    rank-one update; it must equal the full `IntMatrix` product."""

    @pytest.mark.parametrize("genus", [2, 12, 36])
    def test_update_equals_matrix_product(self, genus):
        rng = random.Random(0x5452 + genus)
        s = IntMatrix.identity(2 * genus)
        classes = [[rng.randint(-3, 3) for _ in range(2 * genus)] for _ in range(6)]
        classes.append([0] * (2 * genus))
        for coords in classes:
            beta = HVector(genus, tuple(coords))
            updated = times_transvection(s, beta)
            s = s * transvection(beta)
            assert updated == s

    @pytest.mark.parametrize("genus", [2, 12, 36])
    def test_parsed_conjugator_equals_product(self, genus):
        rng = random.Random(0x434A + genus)
        classes = []
        for _ in range(3):
            coords = [0] * (2 * genus)
            for i in rng.sample(range(2 * genus), min(3, 2 * genus)):
                coords[i] = rng.choice((-2, -1, 1, 2))
            classes.append(coords)
        doc = base_job(genus=genus, pipeline="homology", element={
            "conjugate": {"atom": "sep_twist", "index": 1}, "transvections": classes})
        expected = IntMatrix.identity(2 * genus)
        for coords in classes:
            expected = expected * transvection(HVector(genus, tuple(coords)))
        assert parse_job(doc).element.conjugator == expected

    def test_dimension_checked(self):
        with pytest.raises(ValueError):
            times_transvection(IntMatrix.identity(4), HVector.from_name("a1", 3))


class TestWorkDoneOnce:
    def test_conjugator_checked_once(self, monkeypatch):
        # the parse-time inverse is the one check; evaluation reuses it
        calls = []
        real = homology.symplectic_inverse
        for module in (jobs, homology):
            monkeypatch.setattr(module, "symplectic_inverse",
                                lambda m: calls.append(m) or real(m))
        doc = base_job(pipeline="homology", element={
            "conjugate": {"atom": "sep_twist", "index": 1},
            "matrix": [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        })
        run_job(parse_job(doc))
        assert len(calls) == 1

    def test_conjugators_checked_by_sp_check(self, monkeypatch):
        # symplectic_inverse tests each conjugator through sp_check, once per
        # conjugate node, at parse; evaluation checks none again
        calls = []
        real = homology.sp_check
        monkeypatch.setattr(homology, "sp_check", lambda m: calls.append(m) or real(m))
        shear = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        doc = base_job(pipeline="homology", element={"conjugate": {
            "conjugate": {"atom": "sep_twist", "index": 1}, "transvections": ["b2"]},
            "matrix": shear})
        job = parse_job(doc)
        # the outer conjugator first, then the inner one
        assert calls == [IntMatrix.from_rows(shear),
                         times_transvection(IntMatrix.identity(4), HVector.from_name("b2", 2))]
        run_job(job)
        assert len(calls) == 2

    def test_conjugate_costs_three_products(self, monkeypatch):
        """One matrix product checks the conjugator as it is inverted at parse;
        at evaluation two conjugate, by the inverse the node keeps."""
        products = []
        real = IntMatrix.__mul__
        monkeypatch.setattr(IntMatrix, "__mul__", lambda a, b: (
            products.append(a.dimension) if isinstance(b, IntMatrix) else None) or real(a, b))
        doc = base_job(genus=3, pipeline="homology", element={
            "conjugate": {"atom": "sep_twist", "index": 1},
            "transvections": ["a1", [0, 1, 1, 0, 0, -1]],
        })
        job = parse_job(doc)
        assert products == [6]
        run_job(job)
        assert products == [6] * 3

    @pytest.mark.parametrize("k, calls", [
        # each twist is a leaf of depth 2, expanded at k+1 shortest image first
        # (as (truncation, letters of f(x) x^-1)): the generators each twist
        # fixes, then the ones it conjugates, T_1's b1 image before its a1 image
        pytest.param(2, [(3, 0)] * 4 + [(3, 8), (3, 10)] + [(3, 0)] * 2
                     + [(3, 16), (3, 18), (3, 18), (3, 18)], id="2"),
        # the level-1 cochains of the twists vanish, so the depth is read at
        # the default truncation 2k+2 on the composite (T_1 after T_2), which
        # is not expanded again at k+1
        pytest.param(1, [(2, 0)] * 4 + [(2, 8), (2, 10)] + [(2, 0)] * 2
                     + [(2, 16), (2, 18), (2, 18), (2, 18)]
                     + [(4, 26), (4, 24), (4, 18), (4, 16), (4, 0), (4, 0)], id="1")])
    def test_one_expansion_per_generator(self, monkeypatch, k, calls):
        made = []
        real = johnson.magnus_expand
        monkeypatch.setattr(johnson, "magnus_expand",
                            lambda w, t: made.append((t, len(w))) or real(w, t))
        doc = base_job(genus=3, k=k, element={"op": "compose", "factors": [
            {"op": "sep_twist", "index": 1}, {"op": "sep_twist", "index": 2}]})
        run_job(parse_job(doc))
        assert made == calls

    @pytest.mark.parametrize("name, indices", [
        ("genus5-positive", [1, 2, 3, 1, 2]), ("genus2-negative", [1, 1])])
    def test_repeated_atom_computed_once(self, monkeypatch, name, indices):
        calls = []
        real = jobs.sep_twist_tau
        monkeypatch.setattr(jobs, "sep_twist_tau",
                            lambda genus, index, k: calls.append(index) or real(genus, index, k))
        report = run_job(load_job(bundled_dir() / name / "job.json"))
        assert len(calls) == len(set(indices))
        # every occurrence is still listed, in order
        assert [t["index"] for t in report.atom_taus] == indices

    @pytest.mark.parametrize("doc", [
        jobs.read_json(bundled_dir() / "genus5-positive" / "job.json"),
        # shaped as the benchmark's homology-sum cases: conjugated twists at
        # indices 1, g/2 and g-1
        {"schema": 1, "genus": 6, "k": 2, "pipeline": "homology", "element": {"sum": [
            {"sign": sign, "term": {"conjugate": {"atom": "sep_twist", "index": index},
                                    "transvections": ["a1", [0, 1, 1, 0, 0, -1, 2, 0, 0, 1, 0, 0],
                                                      "b6"]}}
            for sign, index in ((1, 1), (-1, 3), (1, 5))]}}], ids=["genus5-positive", "sum"])
    def test_homology_atoms_build_no_word(self, doc):
        # a sep_twist atom's cochain is read off its closed form
        watched = {johnson.magnus_expand.__code__, words.apply_endo.__code__}
        calls = []
        sys.setprofile(lambda frame, event, arg: event == "call" and frame.f_code in watched
                       and calls.append(frame.f_code.co_name))
        try:
            run_job(parse_job(doc)).to_json()
        finally:
            sys.setprofile(None)
        assert calls == []


class TestPowerBuild:
    """`build_endomorphism` builds f^(i+1) as f^i after f; the letter-by-letter
    oracle builds it as f after f^i, the order the power loop used before."""

    BASES = {
        "sep_twist": (3, {"op": "sep_twist", "index": 2}),
        "inner": (4, {"op": "inner", "word": "a1 b2^-1 a3 b4 a2^-1"}),
        "custom-linear": (2, {"op": "custom", "images": ["a1 b1", "b1", "b1^-1 a2 b1", "b2"]}),
        # grows geometrically, so the cap refuses it after a few steps
        "custom-refused": (3, {"op": "custom", "images": [
            "a1 b2^-1 a3", "b1 a2", "a2^-1 b3", "b2 a1^-1", "a3 b1^-1 b1^-1", "b3"]}),
    }

    @staticmethod
    def old_order_power(base, exponent):
        """base^exponent, or the refusal message of the composition cap."""
        out = base
        for _ in range(exponent - 1):
            letters = max(map(len, base.images)) * max(map(len, out.images))
            if letters > MAX_WORD_LETTERS:
                return f"a composition could write {letters} letters, cap {MAX_WORD_LETTERS}"
            out = letterwise_compose(base, out)
        return out

    @pytest.mark.parametrize("exponent", [1, 2, 5, 17, 40])
    @pytest.mark.parametrize("name", sorted(BASES))
    def test_matches_old_composition_order(self, name, exponent):
        genus, node = self.BASES[name]
        element = parse_job(base_job(genus=genus, element={
            "op": "power", "base": node, "exponent": exponent})).element
        expected = self.old_order_power(element.factors[0], exponent)
        if isinstance(expected, str):
            with pytest.raises(JobError, match=f"^{re.escape(expected)}$"):
                jobs.build_endomorphism(element)
        else:
            assert jobs.build_endomorphism(element) == expected

    def test_refusal_is_reached(self):
        element = parse_job(base_job(genus=3, element={
            "op": "power", "base": self.BASES["custom-refused"][1], "exponent": 40})).element
        assert isinstance(self.old_order_power(element.factors[0], 40), str)


class TestRunJob:
    def test_pi1_twist(self):
        report = run_job(parse_job(base_job()))
        assert psi_of(report) == IntMatrix.from_rows([[3, 0, 0, 0], [0, 3, 0, 0], [0] * 4, [0] * 4])
        assert report.observed_depth.value == 2 and report.observed_depth.exact
        assert report.to_json_obj()["verdict"] == "INCONCLUSIVE"

    def test_pipeline_consistency(self):
        pi1 = run_job(parse_job(base_job(genus=3, element={"op": "sep_twist", "index": 2})))
        hom = run_job(parse_job(base_job(genus=3, pipeline="homology",
                                         element={"atom": "sep_twist", "index": 2})))
        assert pi1.psi == hom.psi
        assert pi1.to_json_obj()["charpoly"] == hom.to_json_obj()["charpoly"]

    def test_compose_and_power(self):
        doc = base_job(element={"op": "compose", "factors": [
            {"op": "sep_twist", "index": 1},
            {"op": "power", "base": {"op": "sep_twist", "index": 1}, "exponent": 2},
        ]})
        report = run_job(parse_job(doc))
        assert psi_of(report) == IntMatrix.from_rows([[9, 0, 0, 0], [0, 9, 0, 0], [0] * 4, [0] * 4])

    def test_custom_endomorphism(self):
        # conjugation of a1, b1 by gamma = [a1, b1], written out as words
        gamma, gamma_inv = "a1 b1 a1^-1 b1^-1", "b1 a1 b1^-1 a1^-1"
        doc = base_job(element={"op": "custom", "images": [
            f"{gamma} a1 {gamma_inv}",
            f"{gamma} b1 {gamma_inv}",
            "a2", "b2"]})
        report = run_job(parse_job(doc))
        assert psi_of(report) == IntMatrix.from_rows([[3, 0, 0, 0], [0, 3, 0, 0], [0] * 4, [0] * 4])

    def test_inner_depth_failure(self):
        doc = base_job(element={"op": "inner", "word": "a1"})
        with pytest.raises(DepthError):
            run_job(parse_job(doc))

    def test_homology_atom_depth_failure(self):
        doc = base_job(k=4, pipeline="homology", element={"atom": "sep_twist", "index": 1})
        with pytest.raises(DepthError):
            run_job(parse_job(doc))

    def test_genus5_composite_additivity(self):
        doc = base_job(genus=5, element={"op": "compose", "factors": [
            {"op": "sep_twist", "index": 1},
            {"op": "sep_twist", "index": 2},
            {"op": "sep_twist", "index": 3},
        ]})
        report = run_job(parse_job(doc))
        diagonal = [15, 15, 12, 12, 7, 7, 0, 0, 0, 0]
        assert psi_of(report) == IntMatrix.from_rows([[d * (p == q) for q in range(10)]
                                                      for p, d in enumerate(diagonal)])

    def test_divide_by_failure_names_entry(self):
        doc = base_job(options={"divide_by": 2})
        with pytest.raises(JobError, match="not divisible"):
            run_job(parse_job(doc))

    def test_divide_by_applied_before_charpoly(self):
        doc = base_job(element={"op": "power", "base": {"op": "sep_twist", "index": 1},
                                "exponent": 2},
                       options={"divide_by": 2})
        report = run_job(parse_job(doc))
        obj = report.to_json_obj()
        assert [int(x) for x in obj["psi_divided"][0]] == [3, 0, 0, 0]
        assert [int(c) for c in obj["charpoly"]] == [0, 0, 9, -6, 1]

    def test_transvection_conjugator(self):
        doc = base_job(pipeline="homology", element={"sum": [
            {"sign": 1, "term": {"atom": "sep_twist", "index": 1}},
            {"sign": -1, "term": {
                "conjugate": {"atom": "sep_twist", "index": 1},
                "transvections": [[1, 0, 1, 0], [0, -1, 0, 1]],
            }},
        ]})
        report = run_job(parse_job(doc))
        assert psi_of(report) == IntMatrix.from_rows(
            [[-3, 0, 3, 3], [0, -3, 3, -3], [-3, -3, 3, 0], [-3, 3, 0, 3]])

    def test_contraction_spec_override(self):
        doc = base_job(options={"contraction_spec": {"pairs": [[2, 3]], "output": 1}})
        report = run_job(parse_job(doc))
        assert report.psi.dimension == 4

    def test_primes_option(self):
        doc = base_job(genus=3, element={"op": "sep_twist", "index": 1},
                       options={"primes": [13]})
        report = run_job(parse_job(doc))
        # (x-3)^2 x^4: linear factors have no modular certificates of interest,
        # but the option must not break anything
        assert report.to_json_obj()["verdict"] == "INCONCLUSIVE"


class TestReportShape:
    def test_determinism(self):
        doc = base_job()
        a = run_job(parse_job(doc)).to_json()
        b = run_job(parse_job(doc)).to_json()
        assert a == b

    def test_timings_excluded_by_default(self):
        obj = run_job(parse_job(base_job())).to_json_obj()
        assert "timings" not in obj

    def test_timings_optional(self):
        report = run_job(parse_job(base_job()), want_timings=True)
        assert "total_s" in report.to_json_obj()["timings"]

    def test_timings_split_the_polynomial_stage(self):
        timings = run_job(parse_job(base_job()), want_timings=True).timings
        assert set(timings) == {"tau_s", "psi_s", "charpoly_s", "criterion_s", "total_s"}
        assert timings["charpoly_s"] + timings["criterion_s"] <= timings["total_s"]
        homology = run_job(parse_job(base_job(pipeline="homology",
                                              element={"atom": "sep_twist", "index": 1})),
                           want_timings=True).timings
        assert set(homology) == {"psi_s", "charpoly_s", "criterion_s", "total_s"}

    def test_tau_serialized(self):
        obj = run_job(parse_job(base_job())).to_json_obj()
        assert obj["tau"]["weight"] == 3
        first = obj["tau"]["images"][0]
        assert first == [
            {"word": ["a1", "a1", "b1"], "coeff": "-1"},
            {"word": ["a1", "b1", "a1"], "coeff": "2"},
            {"word": ["b1", "a1", "a1"], "coeff": "-1"},
        ]

    def test_canonical_json_sorted(self):
        text = canonical_json({"b": 1, "a": [IntPolynomial((1,)).to_json_obj()]})
        assert text == '{"a":[["1"]],"b":1}\n'
