import pytest

from psicert import jobs, johnson
from psicert.errors import DepthError, JobError
from psicert.homology import IntMatrix
from psicert.fixtures import bundled_dir
from psicert.jobs import canonical_json, load_job, parse_job, run_job
from psicert.polylab import IntPolynomial


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
        assert run_job(parse_job(doc)).psi == IntMatrix.zero(4)

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
        real = jobs.transvection
        monkeypatch.setattr(jobs, "transvection", lambda v: calls.append(v) or real(v))

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

    def test_conjugator_entries_capped(self, monkeypatch):
        calls = []
        real = jobs.transvection
        monkeypatch.setattr(jobs, "transvection", lambda v: calls.append(v) or real(v))
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
        # the transvection of c a1 has the entry c^2; checked after each product
        root = 1 << jobs.MAX_CONJUGATOR_BITS // 2
        parse_job(doc(transvections=[[root - 1, 0, 0, 0]]))
        calls.clear()
        with pytest.raises(JobError, match="bits"):
            parse_job(doc(transvections=[[root, 0, 0, 0]] + [[1, 0, 1, 0]] * 63))
        assert len(calls) == 1

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
        # t^40 has 321-letter images, so t^40 after t^40 could write 321^2 letters
        t40 = {"op": "power", "base": {"op": "sep_twist", "index": 1}, "exponent": 40}
        job = parse_job(base_job(element={"op": "compose", "factors": [t40, t40]}))
        with pytest.raises(JobError, match="letters"):
            run_job(job)

    def test_bad_hvector(self):
        doc = base_job(k=1, pipeline="homology", element={
            "atom": "wedge3",
            "terms": [{"coef": 1, "triple": ["a9", "b1", "b2"]}],
        })
        with pytest.raises(JobError):
            parse_job(doc)


class TestWorkDoneOnce:
    def test_conjugator_checked_once(self, monkeypatch):
        calls = []
        real = jobs.sp_check
        monkeypatch.setattr(jobs, "sp_check", lambda m: calls.append(m) or real(m))
        doc = base_job(pipeline="homology", element={
            "conjugate": {"atom": "sep_twist", "index": 1},
            "matrix": [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        })
        run_job(parse_job(doc))
        assert len(calls) == 1

    @pytest.mark.parametrize("k", [1, 2])
    def test_one_expansion_per_generator(self, monkeypatch, k):
        calls = []
        real = johnson.magnus_expand
        monkeypatch.setattr(johnson, "magnus_expand", lambda w, t: calls.append(w) or real(w, t))
        doc = base_job(genus=3, k=k, element={"op": "compose", "factors": [
            {"op": "sep_twist", "index": 1}, {"op": "sep_twist", "index": 2}]})
        run_job(parse_job(doc))
        assert 0 < len(calls) <= 6

    @pytest.mark.parametrize("name, indices", [
        ("genus5-positive", [1, 2, 3, 1, 2]), ("genus2-negative", [1, 1])])
    def test_repeated_atom_computed_once(self, monkeypatch, name, indices):
        calls = []
        real = jobs.tau_on_H
        monkeypatch.setattr(jobs, "tau_on_H", lambda f, k: calls.append(f) or real(f, k))
        report = run_job(load_job(bundled_dir() / name / "job.json"))
        assert len(calls) == len(set(indices))
        # every occurrence is still listed, in order
        assert [t["index"] for t in report.atom_taus] == indices


class TestRunJob:
    def test_pi1_twist(self):
        report = run_job(parse_job(base_job()))
        assert psi_of(report) == IntMatrix.diagonal([3, 3, 0, 0])
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
        assert psi_of(report) == IntMatrix.diagonal([9, 9, 0, 0])

    def test_custom_endomorphism(self):
        # conjugation of a1, b1 by gamma = [a1, b1], written out as words
        gamma, gamma_inv = "a1 b1 a1^-1 b1^-1", "b1 a1 b1^-1 a1^-1"
        doc = base_job(element={"op": "custom", "images": [
            f"{gamma} a1 {gamma_inv}",
            f"{gamma} b1 {gamma_inv}",
            "a2", "b2"]})
        report = run_job(parse_job(doc))
        assert psi_of(report) == IntMatrix.diagonal([3, 3, 0, 0])

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
        assert psi_of(report) == IntMatrix.diagonal([15, 15, 12, 12, 7, 7, 0, 0, 0, 0])

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
        text = canonical_json({"b": 1, "a": [IntPolynomial.one().to_json_obj()]})
        assert text == '{"a":[["1"]],"b":1}\n'
