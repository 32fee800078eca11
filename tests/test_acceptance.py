"""Acceptance gate: runs every criterion at its stated tolerance (all exact)
and prints one status line per criterion (visible with `pytest -s`).

Two sub-assertions about recorded reference displays are provably
unattainable from the recorded input data (details below and in the strict
xfail reasons); they are kept as strict expected failures rather than
weakened, and the attainable reproductions around them are asserted
bit-exactly.
"""
import time

import pytest

from checks import (check_charpoly_oracle, check_criterion_closed_form,
                    check_derivation_leibniz, check_factor_roundtrip,
                    check_inner_conjugation_invariance, check_magnus_multiplicativity,
                    check_pairing_positivity, check_tau_additivity, check_tau_images_are_lie,
                    linear_combination, poly_mul)
from psicert.fixtures import bundled_dir
from psicert.homology import HVector, IntMatrix, basis_position, conjugate, sp_check
from psicert.johnson import cochain_from_wedge3
from psicert.contract import psi_matrix
from psicert.jobs import load_job, run_job
from psicert.polylab import IntPolynomial, charpoly, irreducible_mod_p


def note(line: str):
    print(f"\nACCEPTANCE {line}")


# --- recorded reference values for the bundled worked examples --------------

REFERENCE_PSI2_GENUS2 = IntMatrix.from_rows([
    [-3, 0, 3, 3], [0, -3, 3, -3], [-3, -3, 3, 0], [-3, 3, 0, 3]])

REFERENCE_CONJUGATOR = IntMatrix.from_rows([
    [2, 0, 1, 1, 1, 1, 2, 0, 1, 0],
    [1, 2, -2, 0, 0, -1, 1, -1, 2, -2],
    [3, 3, 2, -1, 2, 0, 0, 1, 2, -3],
    [1, -1, 0, 2, 1, 0, 2, 0, 1, 1],
    [4, 3, 2, -1, 2, 1, 1, 0, 2, -2],
    [0, -1, 2, 0, 0, 1, 0, 1, -1, 1],
    [0, -1, 0, 1, 0, 0, 1, 0, 0, 1],
    [6, 0, 7, 2, 5, 2, 3, 4, 2, 0],
    [1, -1, 2, 0, 0, 1, 0, 1, 0, 1],
    [1, 0, 1, 0, 0, 0, 0, 0, 0, 1],
])

REFERENCE_DISPLAY_10 = IntMatrix.from_rows([
    [42, 0, -6, -33, -26, -33, -25, 11, -5, 26],
    [0, 42, -44, 14, -8, 30, -116, 18, -16, 24],
    [14, 33, -28, 0, -14, 24, -89, 14, -19, 38],
    [44, -6, 0, -28, -28, -36, -22, 8, -2, 20],
    [30, 33, -36, -24, -22, 0, -89, 22, -19, 46],
    [8, -26, 28, -14, 0, -22, 68, -10, 8, -8],
    [18, -11, 8, -14, -10, -22, 13, 0, 3, 2],
    [116, -25, 22, -89, -68, -89, 0, 13, -10, 68],
    [24, -26, 20, -38, -8, -46, 68, -2, 8, 0],
    [16, -5, 2, -19, -8, -19, 10, 3, 0, 8],
])

QUINTIC = IntPolynomial.of_coeffs([151200, -13500, 3837, 107, -21, 1])

REFERENCE_DISPLAY_8 = IntMatrix.from_rows([
    [-6, -2, 2, 0, 2, 2, -2, 0],
    [4, 2, 2, -2, -2, 2, 2, -2],
    [4, -2, 2, 0, -2, 2, 2, 0],
    [-2, 4, -2, 0, 0, 2, 0, 2],
    [-4, -4, 2, 4, -2, 4, 0, -2],
    [-4, -4, 0, 6, 2, 2, -2, 0],
    [-2, 4, -2, 2, 2, 2, 2, 2],
    [4, -2, -2, -4, -4, 2, 4, 0],
])

OCTIC = IntPolynomial.of_coeffs([553, -558, 241, -76, -18, 26, -8, 0, 1])


def wedge_vectors(genus, names_list):
    coords = [0] * (2 * genus)
    for name in names_list:
        coords[basis_position(name, genus)] += 1
    return HVector(genus, tuple(coords))


# as recorded alongside the 8x8 display (the last summand is missing a b3
# relative to the data that actually produces the display's polynomial)
RECORDED_WEDGE_TERMS = [
    (("a4", "b2", "b3"), ("a1",), ("b1",)),
    (("a3", "b4"), ("a2",), ("b2",)),
    (("a1", "a2", "b1"), ("a3",), ("b3",)),
    (("a1", "a2"), ("a4",), ("b4",)),
]

REPAIRED_WEDGE_TERMS = [
    (("a4", "b2", "b3"), ("a1",), ("b1",)),
    (("a3", "b4"), ("a2",), ("b2",)),
    (("a1", "a2", "b1"), ("a3",), ("b3",)),
    (("a1", "a2", "b3"), ("a4",), ("b4",)),
]


def wedge_cochain(terms):
    g = 4
    parsed = [(1, tuple(wedge_vectors(g, part) for part in tri)) for tri in terms]
    return cochain_from_wedge3(g, parsed)


class TestCriterion1:
    def test_septwist_matrices(self):
        start = time.perf_counter()
        for (g, i) in [(2, 1), (3, 1), (3, 2), (4, 3)]:
            job = load_job(bundled_dir() / f"septwist-g{g}-i{i}" / "job.json")
            report = run_job(job)
            n = 2 * g
            expected = IntMatrix.from_rows([[2 * i + 1 if p == q < 2 * i else 0 for q in range(n)]
                                            for p in range(n)])
            assert report.psi == expected  # zero tolerance
            assert report.observed_depth.value == 2 and report.observed_depth.exact
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        note(f"1: PASS — four separating-twist runs reproduce the (2i+1) diagonal "
             f"exactly in {elapsed:.2f}s (< 10s)")


class TestCriterion2:
    def test_genus2_example(self):
        job = load_job(bundled_dir() / "genus2-negative" / "job.json")
        report = run_job(job)
        assert report.psi == REFERENCE_PSI2_GENUS2
        chi = charpoly(report.psi)
        assert chi == IntPolynomial.of_coeffs([81, 0, 18, 0, 1])
        assert [(q.coeffs, m) for q, m in report.result.factors] == [((9, 0, 1), 2)]
        assert report.result.verdict == "INCONCLUSIVE"
        note("2: PASS — genus-2 matrix, its polynomial (x^2+9)^2 and the "
             "INCONCLUSIVE verdict reproduce exactly")


class TestCriterion3:
    def test_genus5_example(self):
        start = time.perf_counter()
        job = load_job(bundled_dir() / "genus5-positive" / "job.json")
        report = run_job(job)
        # the recorded 10x10 display is reproduced bit-exactly as the
        # conjugated subtrahend ...
        assert sp_check(REFERENCE_CONJUGATOR)
        diagonal = ([8, 8, 5, 5, 0, 0, 0, 0, 0, 0], [15, 15, 12, 12, 7, 7, 0, 0, 0, 0])
        twists, minuend = (IntMatrix.from_rows([[d * (p == q) for q in range(10)]
                                                for p, d in enumerate(ds)]) for ds in diagonal)
        sub = conjugate(REFERENCE_CONJUGATOR, twists)
        assert sub == REFERENCE_DISPLAY_10
        # ... and the invariant is the recorded difference with the recorded polynomial
        assert report.psi + sub == minuend
        assert report.result.charpoly == poly_mul(QUINTIC, QUINTIC)
        assert irreducible_mod_p(QUINTIC, 17) is True
        assert report.result.certificates[0] == 17
        assert report.result.verdict == "CERTIFIED_PSEUDO_ANOSOV"
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        note(f"3: PASS — genus-5 invariant, quintic-square polynomial, mod-17 "
             f"certificate and CERTIFIED verdict exact in {elapsed:.2f}s (< 5s); "
             "the recorded display equals the conjugated subtrahend bit-exactly")

    @pytest.mark.xfail(strict=True, reason=(
        "unattainable as stated: the recorded 10x10 display has trace 26, equal to "
        "that of the conjugated subtrahend it matches entrywise, while the recorded "
        "quintic-square polynomial forces trace 42; the display therefore cannot "
        "equal the invariant whose polynomial is also asserted"))
    def test_genus5_literal_display_equality(self):
        job = load_job(bundled_dir() / "genus5-positive" / "job.json")
        report = run_job(job)
        note("3 (literal display equality): EXPECTED FAIL — see xfail reason")
        assert report.psi == REFERENCE_DISPLAY_10


class TestCriterion4:
    def test_genus4_example(self):
        job = load_job(bundled_dir() / "genus4-psi1" / "job.json")
        report = run_job(job)
        half = report.psi_divided
        assert half is not None and report.psi == half * 2
        assert report.result.charpoly == OCTIC
        assert irreducible_mod_p(OCTIC, 11) is True
        assert report.result.certificates[0] == 11
        assert report.result.verdict == "CERTIFIED_PSEUDO_ANOSOV"
        # the repaired wedge data differs from the recorded display of the input
        # by a single dropped b3 in the last summand; with it, the recorded
        # polynomial is reproduced exactly
        assert charpoly(psi_matrix(wedge_cochain(REPAIRED_WEDGE_TERMS), 1).exact_divide(2)) == OCTIC
        note("4: PASS — genus-4 weight-2 pipeline reproduces the recorded octic "
             "polynomial of half the invariant, the mod-11 certificate and the "
             "CERTIFIED verdict exactly (wedge input repaired by one dropped term; "
             "see the strict xfail for the literal display assertion)")

    @pytest.mark.xfail(strict=True, reason=(
        "unattainable as stated: from the recorded wedge data, the invariant's "
        "half-matrix polynomial has 1 as a root and differs from the recorded octic, "
        "while the recorded 8x8 display does satisfy the octic; no sign convention "
        "(the construction is quadratic in the cochain, so a global flip cancels) "
        "nor any tested slot/basis variant reconciles them — the recorded input and "
        "output are mutually inconsistent, and only the repaired input reproduces "
        "the recorded polynomial"))
    def test_genus4_literal_display_equality(self):
        recorded = psi_matrix(wedge_cochain(RECORDED_WEDGE_TERMS), 1)
        flipped = psi_matrix(linear_combination((-1, wedge_cochain(RECORDED_WEDGE_TERMS))), 1)
        note("4 (literal display equality): EXPECTED FAIL — see xfail reason")
        assert recorded == REFERENCE_DISPLAY_8 or flipped == REFERENCE_DISPLAY_8


class TestCriterion5:
    def test_property_suites(self):
        start = time.perf_counter()
        check_magnus_multiplicativity(200)
        check_tau_additivity(50)
        check_tau_images_are_lie()
        check_derivation_leibniz(100)
        check_pairing_positivity(100)
        check_charpoly_oracle(200)
        check_factor_roundtrip(60)
        check_criterion_closed_form(12)
        check_inner_conjugation_invariance(20)
        note(f"5: PASS — all randomized exact property suites at their stated "
             f"counts in {time.perf_counter() - start:.2f}s")


class TestCriterion6:
    def test_scope_note(self):
        # dynamics themselves (foliations, stretch factors) are not verified
        # here by design; certification rests on the exact reproductions above
        note("6: PASS — dynamical claims are out of scope by design; acceptance "
             "rests on the exact-arithmetic reproductions and property suites")
