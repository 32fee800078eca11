import itertools
import random
import sys

import pytest

from checks import (check_charpoly_oracle, check_criterion_closed_form,
                    check_factor_roundtrip, cyclotomic, naive_charpoly, swinnerton_dyer)
from psicert import polylab
from psicert.homology import HVector, IntMatrix, transvection
from psicert.polylab import (CERTIFIED, DEFAULT_CERT_PRIMES, INCONCLUSIVE, Certificate,
                             IntPolynomial, _is_prime, charpoly, criterion, factor_z,
                             find_certificate, irreducible_mod_p, squarefree_decomposition)

QUINTIC = IntPolynomial.of_coeffs([151200, -13500, 3837, 107, -21, 1])
OCTIC = IntPolynomial.of_coeffs([553, -558, 241, -76, -18, 26, -8, 0, 1])


def poly(*asc):
    return IntPolynomial.of_coeffs(asc)


def has_monic_divisor_mod(f: list[int], p: int) -> bool:
    """Brute force: some monic g with 1 <= deg g <= deg f / 2 divides f mod p
    (f ascending and monic)."""
    n = len(f) - 1
    for d in range(1, n // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            g = list(low) + [1]
            rem = list(f)
            for i in range(n, d - 1, -1):
                c = rem[i] % p
                for j, b in enumerate(g):
                    rem[i - d + j] -= c * b
            if all(c % p == 0 for c in rem[:d]):
                return True
    return False


def record_tests(monkeypatch) -> list:
    """Record each (polynomial, prime) that irreducible_mod_p is asked about."""
    tested = []
    real = polylab.irreducible_mod_p
    monkeypatch.setattr(polylab, "irreducible_mod_p",
                        lambda f, p: tested.append((f, p)) or real(f, p))
    return tested


def companion(p: IntPolynomial) -> IntMatrix:
    n = p.degree
    assert p.is_monic()
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = -p.coeffs[i]
    return IntMatrix.from_rows(rows)


class TestCharpoly:
    def test_diagonal(self):
        assert charpoly(IntMatrix.diagonal([3, 3, 0, 0])) == poly(0, 0, 9, -6, 1)

    def test_worked_four_by_four(self):
        m = IntMatrix.from_rows([[-3, 0, 3, 3], [0, -3, 3, -3], [-3, -3, 3, 0], [-3, 3, 0, 3]])
        chi = charpoly(m)
        assert chi == poly(81, 0, 18, 0, 1)
        assert chi == (poly(9, 0, 1)) * (poly(9, 0, 1))

    def test_zero_matrix(self):
        assert charpoly(IntMatrix.zero(5)) == poly(0, 0, 0, 0, 0, 1)

    def test_cofactor_oracle_suite(self):
        check_charpoly_oracle(200)

    def test_companion_matrix(self):
        p = poly(4, -2, 0, 1)
        assert charpoly(companion(p)) == p


class TestFactorZ:
    def test_difference_of_squares(self):
        fz = factor_z(poly(-1, 0, 1))
        assert fz.constant == 1
        assert [(q.coeffs, m) for q, m in fz.factors] == [((-1, 1), 1), ((1, 1), 1)]

    def test_repeated_quadratic(self):
        fz = factor_z(poly(9, 0, 1) * poly(9, 0, 1))
        assert [(q.coeffs, m) for q, m in fz.factors] == [((9, 0, 1), 2)]

    def test_quintic_square(self):
        fz = factor_z(QUINTIC * QUINTIC)
        assert [(q, m) for q, m in fz.factors] == [(QUINTIC, 2)]

    def test_content_and_sign(self):
        p = poly(-6, 0, 6).scale(2)  # 12(x^2 - 1)
        fz = factor_z(p)
        assert fz.expand() == p
        assert fz.constant == 12

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor_z(IntPolynomial.zero())

    def test_roundtrip_suite(self):
        check_factor_roundtrip(60)

    def test_swinnerton_dyer_style_recombination(self):
        # (x^2-2)(x^2-3): reducible over Z but every prime splits it further;
        # forces the lifting/recombination path rather than any certificate
        p = poly(-2, 0, 1) * poly(-3, 0, 1)
        fz = factor_z(p)
        assert [(q.coeffs, m) for q, m in fz.factors] == [((-3, 0, 1), 1), ((-2, 0, 1), 1)]

    def test_irreducible_quartic_without_small_certificate(self):
        # x^4+1 is reducible modulo every prime; only exhaustive recombination
        # can prove it irreducible
        p = poly(1, 0, 0, 0, 1)
        fz = factor_z(p)
        assert [(q.coeffs, m) for q, m in fz.factors] == [((1, 0, 0, 0, 1), 1)]
        assert find_certificate(p) is None

    def test_non_monic(self):
        p = poly(3, 5, 2)  # (x+1)(2x+3)
        fz = factor_z(p)
        assert fz.expand() == p
        assert sorted(q.coeffs for q, _ in fz.factors) == [(1, 1), (3, 2)]

    @pytest.mark.parametrize("n", [6, 12, 18, 24, 30])
    def test_cyclotomic_oracle(self, n):
        # x^n - 1 factors into exactly the cyclotomics of the divisors of n
        p = poly(*([-1] + [0] * (n - 1) + [1]))
        fz = factor_z(p)
        expected = sorted((cyclotomic(d) for d in range(1, n + 1) if n % d == 0),
                          key=lambda q: (q.degree, q.coeffs))
        assert [q for q, m in fz.factors] == expected
        assert all(m == 1 for _, m in fz.factors)

    def test_everywhere_locally_reducible_product(self):
        # x^4 - 10x^2 + 1 is irreducible over Z yet reducible modulo every
        # prime, so recombination must reassemble it out of the modular pieces
        hard = poly(1, 0, -10, 0, 1)
        p = hard * poly(1, 0, 0, 0, 1)
        fz = factor_z(p)
        assert sorted(q.coeffs for q, _ in fz.factors) == [
            (1, 0, -10, 0, 1), (1, 0, 0, 0, 1)]
        assert find_certificate(hard) is None

    def test_fast_path_certificate_is_the_scan_prime(self):
        rng = random.Random(0x43455254)
        inputs = [QUINTIC, OCTIC]
        while len(inputs) < 40:
            f = poly(*([rng.randrange(-20, 21) for _ in range(rng.randrange(2, 9))] + [1]))
            if find_certificate(f) is not None:
                inputs.append(f)
        for f in inputs:
            assert factor_z(f).certificates == {f: find_certificate(f).prime}

    def test_non_monic_recombination(self):
        # g(2x) and g(3x) for g = x^4 - 10x^2 + 1: irreducible, and reducible
        # modulo every prime not dividing the leading coefficient
        g2, g3 = poly(1, 0, -40, 0, 16), poly(1, 0, -90, 0, 81)
        assert find_certificate(g2) is None and find_certificate(g3) is None
        fz = factor_z((g2 * g3 * poly(-7, 2)).scale(-14))
        assert fz.constant == -14
        assert [q for q, _ in fz.factors] == [poly(-7, 2), g3, g2]

    def test_repeated_cyclotomic_square(self):
        p = (cyclotomic(5) * cyclotomic(8)) ** 2
        fz = factor_z(p)
        assert [(q, m) for q, m in fz.factors] == [
            (cyclotomic(8), 2), (cyclotomic(5), 2)]

    def test_constant_term_skips_divisions(self, monkeypatch):
        # SD-16 splits into 8 quadratics modulo its working prime, so proving
        # it irreducible tries all 8 + 28 + 56 + 70 = 162 subsets of at most 4;
        # only candidates whose constant term divides 46225 reach a division
        calls = []
        real = IntPolynomial.divmod_exact
        monkeypatch.setattr(IntPolynomial, "divmod_exact",
                            lambda self, d: calls.append(d) or real(self, d))
        sd16 = swinnerton_dyer((2, 3, 5, 7))
        assert [q for q, _ in factor_z(sd16).factors] == [sd16]
        assert 0 < len(calls) < 162 // 4

    def test_constant_term_tested_before_the_product(self, monkeypatch):
        # a candidate's constant term is lc * prod(constant terms) mod p^a, so
        # only the candidates that reach a division get a product mod p^a: one
        # per factor of the subset, not one per subset (512 for SD-16)
        recombination = polylab._zassenhaus_squarefree.__code__
        products, divisions = [], []
        real_mul, real_div = polylab._gf_mul, IntPolynomial.divmod_exact

        def mul(a, b, m):
            if sys._getframe(1).f_code is recombination:
                products.append(m)
            return real_mul(a, b, m)

        def div(self, d):
            if sys._getframe(1).f_code is recombination:
                divisions.append(d)
            return real_div(self, d)

        monkeypatch.setattr(polylab, "_gf_mul", mul)
        monkeypatch.setattr(IntPolynomial, "divmod_exact", div)
        sd16 = swinnerton_dyer((2, 3, 5, 7))
        assert [q for q, _ in factor_z(sd16).factors] == [sd16]
        # the 8 modular factors are quadratics, so a subset has deg / 2 of them
        assert 0 < len(products) == sum(d.degree // 2 for d in divisions) <= 4 * len(divisions)
        p = polylab._good_reduction_prime(sd16)
        assert set(products) == {p ** polylab._mignotte_exponent(sd16, p)}

    def test_zero_constant_term_in_recombination(self):
        # x is a modular factor with constant term 0: it must still divide
        sd8 = swinnerton_dyer((2, 3, 5))
        assert find_certificate(sd8) is None
        fz = factor_z(poly(0, 1) * sd8)
        assert fz.constant == 1
        assert [(q, m) for q, m in fz.factors] == [(poly(0, 1), 1), (sd8, 1)]


class TestHenselLift:
    # lc(g(2x) g(3x)) = 1296 is 1 modulo the working prime 7; with the factor
    # 2x - 7 of test_non_monic_recombination it is 2
    @pytest.mark.parametrize("f", [
        swinnerton_dyer((2, 3, 5, 7)),
        poly(1, 0, -40, 0, 16) * poly(1, 0, -90, 0, 81),
        poly(1, 0, -40, 0, 16) * poly(1, 0, -90, 0, 81) * poly(-7, 2),
    ], ids=["SD-16", "g(2x)g(3x)", "g(2x)g(3x)(2x-7)"])
    def test_lift_invariants(self, f):
        # factor_z's working prime: the first odd prime with good reduction
        p = next(q for q in range(3, 100, 2) if _is_prime(q) and f.leading % q and
                 polylab._gf_squarefree(polylab._gf_from_int_poly(f, q), q))
        fbar = polylab._gf_monic(polylab._gf_from_int_poly(f, p), p)
        modular = polylab._factor_mod_p(fbar, p, random.Random(0))
        assert len(modular) > 1
        exponent = polylab._mignotte_exponent(f, p)
        lifted, modulus = polylab._hensel_lift(f, p, modular, exponent)
        assert modulus == p ** exponent
        product = IntPolynomial.constant(f.leading)
        for g, orig in zip(lifted, modular, strict=True):
            assert len(g) == len(orig) and g[-1] == 1
            assert all(0 <= c < modulus for c in g)
            assert [c % p for c in g] == orig
            product = product * IntPolynomial.of_coeffs(g)
        assert all(c % modulus == 0 for c in (f - product).coeffs)

    def test_swinnerton_dyer_oracle(self):
        assert swinnerton_dyer((2,)) == poly(-2, 0, 1)
        assert swinnerton_dyer((2, 3)) == poly(1, 0, -10, 0, 1)
        assert swinnerton_dyer((2, 3, 5, 7)).degree == 16


class TestSquarefree:
    def test_multiplicities(self):
        p = poly(-1, 1) ** 2 * poly(2, 1)
        decomp = squarefree_decomposition(p)
        assert decomp == [(poly(2, 1), 1), (poly(-1, 1), 2)]

    def test_random_reconstruction(self):
        rng = random.Random(8)
        for _ in range(30):
            parts = []
            for mult in (1, 2, 3):
                if rng.random() < 0.7:
                    deg = rng.randrange(1, 3)
                    parts.append((IntPolynomial.of_coeffs(
                        [rng.randrange(-4, 5) for _ in range(deg)] + [1]), mult))
            if not parts:
                continue
            p = IntPolynomial.one()
            for q, m in parts:
                p = p * q ** m
            if p.degree < 1:
                continue
            rebuilt = IntPolynomial.one()
            for q, m in squarefree_decomposition(p):
                rebuilt = rebuilt * q ** m
            assert rebuilt == p.primitive_part()


    @staticmethod
    def record_gcds(monkeypatch) -> list:
        calls = []
        real = polylab.gcd_z
        monkeypatch.setattr(polylab, "gcd_z", lambda a, b: calls.append((a, b)) or real(a, b))
        return calls

    def test_squarefree_modulo_small_prime_skips_yun(self, monkeypatch):
        calls = self.record_gcds(monkeypatch)
        rng = random.Random(20)
        dense = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(20)] for _ in range(20)])
        for f in (swinnerton_dyer((2, 3, 5, 7)), charpoly(dense)):
            assert polylab._good_reduction_prime(f, 13) is not None
            assert squarefree_decomposition(f) == [(f, 1)]
            assert squarefree_decomposition(f.scale(-6)) == [(f, 1)]
        assert calls == []

    def test_no_good_small_prime_falls_through_to_yun(self, monkeypatch):
        # 30030 = 2 * 3 * 5 * 7 * 11 * 13: modulo each prime the fast path
        # tries, x (x - 30030) reduces to x^2
        f = poly(0, -30030, 1)
        assert polylab._good_reduction_prime(f, 13) is None
        assert polylab._good_reduction_prime(f) == 17
        calls = self.record_gcds(monkeypatch)
        assert squarefree_decomposition(f) == [(f, 1)]
        assert calls


class TestIrreducibleModP:
    def test_quintic_mod_17(self):
        assert irreducible_mod_p(QUINTIC, 17) is True

    def test_octic_mod_11(self):
        assert irreducible_mod_p(OCTIC, 11) is True

    def test_x2_plus_1_mod_2(self):
        assert irreducible_mod_p(poly(1, 0, 1), 2) is False  # (x+1)^2

    def test_prime_validation(self):
        with pytest.raises(ValueError):
            irreducible_mod_p(poly(1, 0, 1), 9)

    def test_leading_coefficient_guard(self):
        with pytest.raises(ValueError):
            irreducible_mod_p(poly(1, 0, 3), 3)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_brute_force_oracle(self, p):
        # every monic polynomial of degree 1..4 over GF(p), squarefree or not
        for n in range(1, 5):
            for low in itertools.product(range(p), repeat=n):
                f = list(low) + [1]
                expected = not has_monic_divisor_mod(f, p)
                assert irreducible_mod_p(poly(*f), p) is expected, (f, p)


class TestIsPrime:
    def test_trial_division_oracle(self):
        sieve = bytearray([1]) * 100_000
        sieve[0] = sieve[1] = 0
        for d in range(2, 317):
            if sieve[d]:
                sieve[d * d::d] = bytes(len(range(d * d, 100_000, d)))
        assert [n for n in range(100_000) if _is_prime(n) != bool(sieve[n])] == []

    def test_strong_pseudoprime_to_bases_2_to_31(self):
        # a strong probable prime to every prime base up to 31: only base 37
        # shows that 3825123056546413051 = 149491 * 747451 * 34233211
        assert 149491 * 747451 * 34233211 == 3825123056546413051
        assert _is_prime(3825123056546413051) is False

    def test_large_primes(self):
        assert _is_prime(2**61 - 1) and _is_prime(2**64 - 59)
        assert not _is_prime((2**31 - 1) * (2**61 - 1))


class TestCriterion:
    def test_even_degree_square(self):
        rep = criterion(poly(9, 0, 1) * poly(9, 0, 1))
        assert rep.verdict == INCONCLUSIVE
        assert rep.reasons["even_degree_split"] is True

    def test_two_odd_factors(self):
        rep = criterion(QUINTIC * QUINTIC)
        assert rep.verdict == CERTIFIED
        assert rep.reasons["two_odd_irreducible_factors"] is True

    def test_irreducible_octic(self):
        rep = criterion(OCTIC)
        assert rep.verdict == CERTIFIED
        assert rep.reasons["irreducible"] is True

    def test_linear_factors(self):
        rep = criterion(poly(-1, 0, 1))
        assert rep.verdict == INCONCLUSIVE
        assert rep.reasons["degree_one_factor"] is True

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            criterion(poly(1, 0, 2))

    def test_closed_form_suite(self):
        check_criterion_closed_form(12)

    def test_certificate_selection(self):
        rep = criterion(QUINTIC * QUINTIC, primes=[17])
        assert rep.certificates[0].prime == 17
        assert rep.certificates[0].method == "distinct-degree-gcd"

    def test_certifying_job_prime_ends_the_scan(self, monkeypatch):
        tested = record_tests(monkeypatch)
        rep = criterion(QUINTIC * QUINTIC, primes=[17])
        assert rep.certificates[0].prime == 17
        assert tested == [(QUINTIC, 17)]

    def test_job_primes_scanned_first(self, monkeypatch):
        # neither 19 nor 3 certifies QUINTIC; the default 17 does, after 2..13
        tested = record_tests(monkeypatch)
        rep = criterion(QUINTIC * QUINTIC, primes=[19, 3])
        assert rep.certificates == (None,)
        assert [p for _, p in tested] == [19, 3, 2, 5, 7, 11, 13, 17]

    @pytest.mark.parametrize("primes", [None, [19, 3], [3, 5, 7], [], [17, 17, 3]])
    def test_each_factor_prime_pair_tested_once(self, monkeypatch, primes):
        tested = record_tests(monkeypatch)
        for p in (QUINTIC * QUINTIC, OCTIC * poly(-1, 1), poly(1, 0, 0, 0, 1),
                  poly(1, 0, -10, 0, 1) * cyclotomic(7) ** 2, cyclotomic(9) * cyclotomic(15)):
            tested.clear()
            rep = criterion(p, primes)
            assert len(tested) == len(set(tested)), p
            for (q, _), cert in zip(rep.factors, rep.certificates):
                assert cert == find_certificate(q, primes)

    def test_scaling_robustness(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.choice((4, 6))
            m = IntMatrix.from_rows([[2 * rng.randrange(-3, 4) for _ in range(n)]
                                     for _ in range(n)])
            half = m.exact_divide(2)
            assert criterion(charpoly(m)).verdict == criterion(charpoly(half)).verdict


# irreducible over Z: linear (one non-monic), cyclotomic (x^4 + 1 and Phi_12 are
# reducible modulo every prime), the certified QUINTIC and OCTIC, SD-8 and the
# non-monic g(2x) for g = x^4 - 10x^2 + 1 (no certificate at all)
CERTIFICATE_POOL = ([poly(-1, 1), poly(1, 1), poly(2, 1), poly(3, 2)]
                    + [cyclotomic(d) for d in (3, 5, 7, 8, 9, 12)]
                    + [QUINTIC, OCTIC, swinnerton_dyer((2, 3, 5)), poly(1, 0, -40, 0, 16)])


def certificate_oracle(q: IntPolynomial, primes):
    """Brute force: the first prime, listed or (when none are listed) default,
    not dividing the leading coefficient, modulo which q is irreducible."""
    scan = DEFAULT_CERT_PRIMES if primes is None else primes
    return next((r for r in scan if q.leading % r and irreducible_mod_p(q, r)), None)


class TestCertificateRule:
    @pytest.mark.parametrize("primes", [None, [], [19, 3], [17, 17, 3], [3] * 50],
                             ids=["none", "empty", "19-3", "17-17-3", "3x50"])
    def test_certificates_match_oracle(self, monkeypatch, primes):
        rng = random.Random(0x5045524D)
        tested = record_tests(monkeypatch)
        for _ in range(12):
            chosen = {q: rng.randrange(1, 4) for q in rng.sample(CERTIFICATE_POOL, 3)}
            p = IntPolynomial.one()
            for q, m in chosen.items():
                p = p * q ** m
            oracle = {q: certificate_oracle(q, primes) for q in chosen}
            tested.clear()
            fz = factor_z(p, primes)
            assert dict(fz.factors) == chosen
            assert fz.certificates == {q: r for q, r in oracle.items() if r is not None}
            assert len(tested) == len(set(tested)), p
            if p.is_monic():
                rep = criterion(p, primes)
                assert rep.certificates == tuple(
                    None if oracle[q] is None else Certificate(oracle[q]) for q, _ in rep.factors)

    def test_repeated_listed_prime_tested_once(self, monkeypatch):
        tested = record_tests(monkeypatch)
        p = poly(1, 0, 0, 0, 1) * poly(1, *[0] * 9, 1)  # (x^4 + 1)(x^10 + 1)
        once = criterion(p, [2])
        calls = len(tested)
        tested.clear()
        assert criterion(p, [2] * 1000) == once
        assert len(tested) == calls
        tested.clear()
        assert find_certificate(poly(1, 0, 0, 0, 1), [3] * 1000) is None
        assert tested == [(poly(1, 0, 0, 0, 1), 3)]


class TestRootsOfUnity:
    """The cyclotomic oracle that the factoring tests compare against."""

    def test_cyclotomic_table(self):
        assert cyclotomic(1) == poly(-1, 1)
        assert cyclotomic(2) == poly(1, 1)
        assert cyclotomic(6) == poly(1, -1, 1)
        assert cyclotomic(12) == poly(1, 0, -1, 0, 1)

    def test_cyclotomic_product(self):
        for n in (1, 2, 6, 12, 18, 20):
            prod = IntPolynomial.one()
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic(d)
            assert prod == poly(*([-1] + [0] * (n - 1) + [1]))


class TestPolynomialBasics:
    def test_divmod_exact(self):
        q, r = poly(-1, 0, 1).divmod_exact(poly(-1, 1))
        assert q == poly(1, 1) and r.is_zero()

    def test_divmod_non_divisible(self):
        assert poly(1, 1).divmod_exact(poly(0, 2)) is None

    def test_str(self):
        assert str(poly(81, 0, 18, 0, 1)) == "x^4 + 18x^2 + 81"
        assert str(poly(-1, 1)) == "x - 1"
        assert str(IntPolynomial.zero()) == "0"

    def test_oracle_agreement_small(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert charpoly(m) == naive_charpoly(m)

    def test_transvection_charpoly_unipotent(self):
        t = transvection(HVector(2, (1, 2, 0, -1)))
        assert charpoly(t) == poly(1, -4, 6, -4, 1)  # (x-1)^4
