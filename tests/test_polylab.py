import itertools
import math
import random
import sys

import pytest

from checks import (check_charpoly_oracle, check_criterion_closed_form,
                    check_factor_roundtrip, cyclotomic, expand_factorization,
                    linear_hensel_lift, list_gf_gcd, list_gf_resultant, naive_charpoly,
                    poly_mul, poly_pow, schoolbook_gf_divmod, schoolbook_gf_mul,
                    schoolbook_gf_pow_mod, swinnerton_dyer, transvection)
from psicert import polylab
from psicert.homology import HVector, IntMatrix
from psicert.jobs import MAX_MATRIX_DIMENSION
from psicert.polylab import (CERTIFIED, DEFAULT_CERT_PRIMES, INCONCLUSIVE,
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
        m = IntMatrix.from_rows([[3, 0, 0, 0], [0, 3, 0, 0], [0] * 4, [0] * 4])
        assert charpoly(m) == poly(0, 0, 9, -6, 1)

    def test_worked_four_by_four(self):
        m = IntMatrix.from_rows([[-3, 0, 3, 3], [0, -3, 3, -3], [-3, -3, 3, 0], [-3, 3, 0, 3]])
        chi = charpoly(m)
        assert chi == poly(81, 0, 18, 0, 1)
        assert chi == poly_mul(poly(9, 0, 1), poly(9, 0, 1))

    def test_zero_matrix(self):
        assert charpoly(IntMatrix.from_rows([[0] * 5] * 5)) == poly(0, 0, 0, 0, 0, 1)

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
        fz = factor_z(poly_mul(poly(9, 0, 1), poly(9, 0, 1)))
        assert [(q.coeffs, m) for q, m in fz.factors] == [((9, 0, 1), 2)]

    def test_quintic_square(self):
        fz = factor_z(poly_mul(QUINTIC, QUINTIC))
        assert [(q, m) for q, m in fz.factors] == [(QUINTIC, 2)]

    def test_content_and_sign(self):
        p = poly(-6, 0, 6).scale(2)  # 12(x^2 - 1)
        fz = factor_z(p)
        assert expand_factorization(fz) == p
        assert fz.constant == 12

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor_z(IntPolynomial.zero())

    def test_roundtrip_suite(self):
        check_factor_roundtrip(60)

    def test_swinnerton_dyer_style_recombination(self):
        # (x^2-2)(x^2-3): reducible over Z but every prime splits it further;
        # forces the lifting/recombination path rather than any certificate
        p = poly_mul(poly(-2, 0, 1), poly(-3, 0, 1))
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
        assert expand_factorization(fz) == p
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
        p = poly_mul(hard, poly(1, 0, 0, 0, 1))
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
            assert factor_z(f).certificates == {f: find_certificate(f)}

    def test_non_monic_recombination(self):
        # g(2x) and g(3x) for g = x^4 - 10x^2 + 1: irreducible, and reducible
        # modulo every prime not dividing the leading coefficient
        g2, g3 = poly(1, 0, -40, 0, 16), poly(1, 0, -90, 0, 81)
        assert find_certificate(g2) is None and find_certificate(g3) is None
        fz = factor_z(poly_mul(g2, g3, poly(-7, 2)).scale(-14))
        assert fz.constant == -14
        assert [q for q, _ in fz.factors] == [poly(-7, 2), g3, g2]

    def test_repeated_cyclotomic_square(self):
        p = poly_pow(poly_mul(cyclotomic(5), cyclotomic(8)), 2)
        fz = factor_z(p)
        assert [(q, m) for q, m in fz.factors] == [
            (cyclotomic(8), 2), (cyclotomic(5), 2)]

    def test_constant_term_skips_divisions(self, monkeypatch):
        # SD-16 splits into 8 quadratics modulo its working prime, so proving
        # it irreducible rules out all 8 + 28 + 56 + 70 = 162 subsets of at most
        # 4; only candidates that pass the trace test and whose constant term
        # divides 46225 reach a division
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
        recombination = polylab._recombine.__code__
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
        fz = factor_z(poly_mul(poly(0, 1), sd8))
        assert fz.constant == 1
        assert [(q, m) for q, m in fz.factors] == [(poly(0, 1), 1), (sd8, 1)]


class TestFactorOrder:
    """A squarefree part is factored modulo its working prime, lifted and
    recombined before any certificate scan; only a part proven irreducible
    is scanned over the job's primes and the defaults."""

    @pytest.mark.parametrize("primes", [None, [19, 3], [5]], ids=["none", "19-3", "5"])
    @pytest.mark.parametrize("f", [poly_mul(cyclotomic(5), cyclotomic(8)),
                                   poly_mul(poly(-2, 0, 1), poly(-3, 0, 1))],
                             ids=["phi5-phi8", "(x2-2)(x2-3)"])
    def test_reducible_part_is_never_scanned(self, monkeypatch, f, primes):
        tested = record_tests(monkeypatch)
        fz = factor_z(f, primes)
        assert len(fz.factors) == 2
        assert all(g != f for g, _ in tested)
        # each factor gets exactly one scan, over the listed primes alone
        during = sorted(tested, key=repr)
        tested.clear()
        expected = {}
        for q, _ in fz.factors:
            cert = find_certificate(q, primes)
            if cert is not None:
                expected[q] = cert
        assert fz.certificates == expected
        assert during == sorted(tested, key=repr)

    def test_irreducible_part_is_scanned_once_after_recombination(self, monkeypatch):
        events = record_tests(monkeypatch)
        real_lift, real_div = polylab._hensel_lift, IntPolynomial.divmod_exact
        monkeypatch.setattr(polylab, "_hensel_lift",
                            lambda *args: events.append("lift") or real_lift(*args))
        monkeypatch.setattr(IntPolynomial, "divmod_exact",
                            lambda self, d: events.append("division") or real_div(self, d))
        sd16 = swinnerton_dyer((2, 3, 5, 7))
        fz = factor_z(sd16)
        assert [q for q, _ in fz.factors] == [sd16] and fz.certificates == {}
        scan = [(sd16, r) for r in DEFAULT_CERT_PRIMES]
        assert events[0] == "lift"
        assert set(events[1:-len(scan)]) == {"division"}
        assert events[-len(scan):] == scan

    def test_rng_state_changes_no_factor_list(self):
        # factoring an irreducible part before its scan draws from the rng
        # that factor_z shares between parts; the modular factors are sorted,
        # so the next part's factors and certificates do not depend on it
        f = poly_mul(cyclotomic(5), cyclotomic(8), swinnerton_dyer((2, 3, 5)))
        results = {tuple(polylab._zassenhaus_squarefree(f, random.Random(seed), None))
                   for seed in range(8)}
        assert results == {((cyclotomic(5), 2), (cyclotomic(8), None),
                            (swinnerton_dyer((2, 3, 5)), None))}


class TestHenselLift:
    # lc(g(2x) g(3x)) = 1296 is 1 modulo the working prime 7; with the factor
    # 2x - 7 of test_non_monic_recombination it is 2
    @pytest.mark.parametrize("f", [
        swinnerton_dyer((2, 3, 5, 7)),
        poly_mul(poly(1, 0, -40, 0, 16), poly(1, 0, -90, 0, 81)),
        poly_mul(poly(1, 0, -40, 0, 16), poly(1, 0, -90, 0, 81), poly(-7, 2)),
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
        for g, orig in zip(lifted, modular, strict=True):
            assert len(g) == len(orig) and g[-1] == 1
            assert all(0 <= c < modulus for c in g)
            assert [c % p for c in g] == orig
        product = poly_mul(IntPolynomial.constant(f.leading), *map(IntPolynomial.of_coeffs, lifted))
        assert all(c % modulus == 0 for c in (f - product).coeffs)

    def test_swinnerton_dyer_oracle(self):
        assert swinnerton_dyer((2,)) == poly(-2, 0, 1)
        assert swinnerton_dyer((2, 3)) == poly(1, 0, -10, 0, 1)
        assert swinnerton_dyer((2, 3, 5, 7)).degree == 16

    @pytest.mark.parametrize("monic", [True, False], ids=["monic", "non-monic"])
    def test_matches_linear_lifting(self, monic):
        # seeded f = lc * prod(g_i) + p * h with r pairwise coprime monic g_i mod p
        # (r = 2 is one tree node), lifted to exponents from 1 to 120
        rng = random.Random(0x4C494654 + monic)
        primes = [p for p in range(3, 98) if _is_prime(p)]
        checked = 0
        for p in primes:
            for r in (2, rng.randrange(3, 7)):
                factors, product = [], [1]
                while len(factors) < r:
                    g = [rng.randrange(p) for _ in range(rng.randrange(1, 5))] + [1]
                    if len(polylab._gf_gcd(g, product, p)) == 1:
                        factors.append(g)
                        product = polylab._gf_mul(product, g, p)
                lc = 1
                while not monic and lc % p in (0, 1):
                    lc = rng.choice([-1, 1]) * rng.randrange(2, 200)
                f = IntPolynomial.of_coeffs(
                    [lc * c + p * rng.randrange(-99, 100) for c in product[:-1]] + [lc])
                exponents = [1, 2, 3, 5, rng.randrange(6, 121), 120] if r == 2 else [
                    rng.randrange(1, 121)]
                for a in exponents:
                    lifted = polylab._hensel_lift(f, p, factors, a)
                    assert lifted == linear_hensel_lift(f, p, factors, a), (p, r, a)
                    checked += 1
        assert checked == 7 * len(primes)

    @pytest.mark.parametrize("p", [3, 5, 97])
    def test_exponents_two_to_twelve_match_linear_lifting(self, p):
        # four coprime factors (a tree of three inner nodes) of a non-monic f,
        # lifted along every schedule from 1 -> 2 up to 1 -> 2 -> 3 -> 6 -> 12
        rng = random.Random(0x48454E53 + p)
        factors, product = [], [1]
        while len(factors) < 4:
            g = [rng.randrange(p) for _ in range(rng.randrange(1, 4))] + [1]
            if len(polylab._gf_gcd(g, product, p)) == 1:
                factors.append(g)
                product = polylab._gf_mul(product, g, p)
        lc = p + 2
        f = IntPolynomial.of_coeffs([lc * c + p * rng.randrange(-99, 100) for c in product[:-1]]
                                    + [lc])
        for a in range(2, 13):
            assert polylab._hensel_lift(f, p, factors, a) == \
                linear_hensel_lift(f, p, factors, a), (p, a)

    def test_one_lift_equals_the_monic_reduction(self):
        # a single factor lifts to f / lc mod p^a
        f = poly(3, 1, 4, 1, 5)
        assert polylab._hensel_lift(f, 7, [polylab._gf_monic([3, 1, 4, 1, 5], 7)], 9) == (
            [[c * pow(5, -1, 7 ** 9) % 7 ** 9 for c in f.coeffs]], 7 ** 9)


class TestRecombination:
    """The meet-in-the-middle trace search and the middle-size rule of
    `_recombine`."""

    def test_walk_matches_combinations(self):
        # the search yields what filtering itertools.combinations by both tests
        # yields, in order; small moduli and bounds up to (p^a - 1) / 2 make
        # windows that wrap past 0 and p^a, and t0 = 0, zero constants and
        # zero traces exercise both branches of the constant-term test
        rng = random.Random(0x57414C4B)
        seen = set()
        for _ in range(80):
            n = rng.randrange(1, 10)
            modulus = rng.choice([97, 3 ** 5, 7 ** 3, 2 ** 61 - 1])
            bound = rng.choice([0, 1, rng.randrange(modulus // 8), modulus // 4,
                                (modulus - 1) // 2])
            traces = [rng.choice([0, rng.randrange(modulus)]) for _ in range(n)]
            constants = [rng.choice([0, rng.randrange(modulus)]) for _ in range(n)]
            lc, t0 = rng.randrange(1, 40), rng.choice([0, 720720, -360360, 97])

            def trace(combo):
                return polylab._symmetric(lc * sum(traces[i] for i in combo), modulus)

            def passes(combo):
                g0 = lc
                for i in combo:
                    g0 = g0 * constants[i] % modulus
                g0 = polylab._symmetric(g0, modulus)
                return abs(trace(combo)) <= bound and not ((t0 % g0) if g0 else t0)

            for size in range(1, n + 1):
                for first in (False, True):
                    combos = [c for c in itertools.combinations(range(n), size)
                              if not first or c[0] == 0]
                    expected = [list(c) for c in combos if passes(c)]
                    assert list(polylab._trace_passes(traces, constants, size, lc, t0, modulus,
                                                      bound, first)) == expected
                    seen.update((trace(c) > 0) - (trace(c) < 0) for c in map(tuple, expected))
                    seen.update("rejected" for c in combos if abs(trace(c)) > bound)
        assert seen == {-1, 0, 1, "rejected"}

    @pytest.mark.parametrize("g, h, k", [
        (poly(9, 0, -14, 0, 1), poly(1, 0, -10, 0, 1), 2),
        (poly(36, 0, -32, 0, 1), poly(16, 0, -36, 0, 1), 4),
    ], ids=["(sqrt2+sqrt5)(sqrt2+sqrt3) mod 7", "(sqrt5+sqrt11)(sqrt7+sqrt11) mod 19"])
    def test_true_factor_found_at_the_middle_size(self, monkeypatch, g, h, k):
        # g and h are irreducible and each splits into k modular factors, so
        # the split is a subset of k of the 2k factors: the middle size, where
        # only the subsets holding the first factor are tried
        walks = []
        real = polylab._trace_passes

        def walk(traces, constants, size, lc, t0, modulus, bound, first):
            walks.append((size, first, list(real(traces, constants, size, lc, t0, modulus,
                                                 bound, first))))
            return iter(walks[-1][2])

        monkeypatch.setattr(polylab, "_trace_passes", walk)
        fz = factor_z(poly_mul(g, h))
        assert [q for q, _ in fz.factors] == sorted([g, h], key=lambda q: q.coeffs)
        assert [(size, first) for size, first, _ in walks] == (
            [(s, False) for s in range(1, k)] + [(k, True)])
        assert all(combo[0] == 0 for combo in walks[-1][2])


class TestKernel:
    """The lazy-reduction `_gf_mul` and `_gf_divmod` against the schoolbook
    versions in checks.py, which reduce after every product."""

    @pytest.mark.parametrize("m", [2, 3, 97, 3 ** 20, 97 ** 5])
    def test_against_schoolbook(self, m):
        rng = random.Random(m)
        # empty a, deg a < deg b, a constant b; b's leading coefficient is a
        # unit mod m (2 is one mod odd m), monic or not
        cases = [([], [1, 1]), ([1, 1], [0, 0, 0, 1]), ([1, 0, 1], [1])]
        if m > 2:
            cases += [([1, 2, 0, 1], [1, 2]), ([1, 2, 0, 1], [2])]
        for _ in range(300):
            la, lb = rng.randrange(0, 14), rng.randrange(1, 9)
            a = [rng.randrange(m) for _ in range(la)]
            if a:
                a[-1] = rng.randrange(1, m)
            b = [rng.randrange(m) for _ in range(lb - 1)]
            lead = rng.randrange(1, m)
            while math.gcd(lead, m) != 1:
                lead = rng.randrange(1, m)
            b.append(rng.choice([1, lead]))
            cases.append((a, b))
        for a, b in cases:
            assert polylab._gf_mul(a, b, m) == schoolbook_gf_mul(a, b, m)
            assert polylab._gf_mul(b, a, m) == schoolbook_gf_mul(b, a, m)
            q, r = polylab._gf_divmod(a, b, m)
            assert (q, r) == schoolbook_gf_divmod(a, b, m)
            assert len(r) < len(b) and all(0 <= c < m for c in q + r)
            back = polylab._gf_trim([(x + y) % m for x, y in itertools.zip_longest(
                polylab._gf_mul(q, b, m), r, fillvalue=0)])
            assert back == a

    @pytest.mark.parametrize("m", [2, 3, 97, 3 ** 20, 97 ** 5])
    def test_normal_step_against_schoolbook(self, m):
        # Euclid's normal step, deg a = deg b + 1; b monic or with a unit
        # leading coefficient, and a = (q1 x + q0) b + r with r of full length,
        # shorter (it trims) or zero
        rng = random.Random(m + 1)

        def unit():
            lead = rng.randrange(1, m)
            while math.gcd(lead, m) != 1:
                lead = rng.randrange(1, m)
            return lead

        kinds = set()
        for _ in range(300):
            n = rng.randrange(1, 9)
            b = [rng.randrange(m) for _ in range(n)] + [rng.choice([1, unit()])]
            r = [rng.randrange(m) for _ in range(rng.choice([0, rng.randrange(n + 1)]))]
            a = polylab._gf_trim([(x + y) % m for x, y in itertools.zip_longest(
                schoolbook_gf_mul([rng.randrange(m), unit()], b, m), r, fillvalue=0)])
            assert len(a) == len(b) + 1
            rem = polylab._gf_divmod(a, b, m)[1]
            assert rem == schoolbook_gf_divmod(a, b, m)[1] == polylab._gf_trim(r)
            kinds.add("full" if len(rem) == n else "short" if rem else "empty")
        assert kinds == {"full", "short", "empty"}


LARGEST_PRIME_BELOW_2_64 = (1 << 64) - 59


class TestPackedPowers:
    """`_gf_pow_mod` on packed ints against the schoolbook square and multiply
    in checks.py, and one `_Barrett` set-up per modulus."""

    @pytest.mark.parametrize("p", [2, 3, 97, (1 << 31) - 1, (1 << 61) - 1,
                                   LARGEST_PRIME_BELOW_2_64])
    def test_against_schoolbook(self, p):
        rng = random.Random(p)
        top = MAX_MATRIX_DIMENSION
        # every degree at p = 2 and 3; 12 of them, the ends included, above
        degrees = (range(1, top + 1) if p < 97
                   else [1, 2, *sorted(rng.sample(range(3, top), 9)), top])
        for n in degrees:
            f = [rng.randrange(p) for _ in range(n)] + [1]
            modulus = polylab._Barrett(f, p)
            # a reduced base, one of degree up to 2n + 2, and the empty one
            bases = [polylab._gf_trim([rng.randrange(p) for _ in range(length)])
                     for length in (n, rng.randrange(n + 1, 2 * n + 4))] + [[]]
            d = rng.randrange(1, 4)
            exponents = [0, 1, p, (p ** d - 1) // 2]
            for i, base in enumerate(bases):
                e = exponents[(n + i) % 4]
                assert polylab._gf_pow_mod(base, e, modulus) == \
                    schoolbook_gf_pow_mod(base, e, f, p), (n, base, e)

    @pytest.mark.parametrize("p", [2, 97, LARGEST_PRIME_BELOW_2_64])
    def test_largest_slot_values(self, p):
        # every coefficient p - 1 fills the slots to the sizing bound
        n = MAX_MATRIX_DIMENSION
        f = [p - 1] * n + [1]
        modulus = polylab._Barrett(f, p)
        assert modulus.words == -(-(n * n * (p - 1) ** 3).bit_length() // 64)
        for e in (2, 3, p):
            assert polylab._gf_pow_mod([p - 1] * n, e, modulus) == \
                schoolbook_gf_pow_mod([p - 1] * n, e, f, p)

    def test_largest_prime_below_2_64(self):
        assert _is_prime(LARGEST_PRIME_BELOW_2_64)
        assert not any(_is_prime(q) for q in range(LARGEST_PRIME_BELOW_2_64 + 1, 1 << 64))

    @staticmethod
    def record_setups(monkeypatch) -> tuple[list, list]:
        """Every `_Barrett` set-up, and the modulus of every power, in order."""
        built, used = [], []
        real_barrett, real_pow = polylab._Barrett, polylab._gf_pow_mod
        monkeypatch.setattr(polylab, "_Barrett",
                            lambda f, p: built.append(real_barrett(f, p)) or built[-1])
        monkeypatch.setattr(polylab, "_gf_pow_mod",
                            lambda base, e, modulus: used.append(modulus) or
                            real_pow(base, e, modulus))
        return built, used

    def test_distinct_degree_sets_up_once_per_modulus(self, monkeypatch):
        # 11 is a primitive root mod 59, so the cyclotomic polynomial
        # phi_59 (degree 58) stays irreducible modulo 11
        p = 11
        phi = polylab._gf_from_int_poly(cyclotomic(59), p)
        fbar = polylab._gf_mul(polylab._gf_from_int_poly(poly_mul(poly(-1, 1), poly(-2, 1)), p),
                               phi, p)
        assert len(fbar) - 1 == 60
        built, used = self.record_setups(monkeypatch)
        pairs = list(polylab._distinct_degree(fbar, p))
        assert pairs == [(polylab._gf_from_int_poly(poly(2, -3, 1), p), 1), (phi, 58)]
        # one set-up for f and one for the quotient left by the divided product
        assert [modulus.f for modulus in built] == [fbar, phi]
        assert used == [built[0]] + [built[1]] * 28

    def test_equal_degree_sets_up_once_per_call(self, monkeypatch):
        p = 11
        calls = []
        real = polylab._equal_degree
        monkeypatch.setattr(polylab, "_equal_degree", lambda f, d, q, rng: calls.append(
            (f, d)) or real(f, d, q, rng))
        built, used = self.record_setups(monkeypatch)
        # x^11 - x: every residue mod 11 is a root
        roots = polylab._equal_degree([0, p - 1] + [0] * 9 + [1], 1, p, random.Random(1))
        assert sorted(roots) == sorted([-a % p, 1] for a in range(p))
        # 11 roots take 10 splitting calls; the 11 calls on one root build none
        splitting = [f for f, d in calls if len(f) - 1 > d]
        assert len(splitting) == p - 1
        assert [modulus.f for modulus in built] == splitting
        assert all(any(modulus is m for m in built) for modulus in used)


class TestPackedEuclid:
    """`_gf_resultant` and `_gf_gcd`, one remainder sequence on packed ints,
    against the list loops in checks.py."""

    @staticmethod
    def cases(p, rng):
        """(a, b) pairs over GF(p), degrees 0 to 72: random, monic and unit-led
        divisors, remainders that drop the degree by more than one, shared
        factors, zero and constant inputs."""

        def rand(n, lead=None):
            return [rng.randrange(p) for _ in range(n)] + [lead or rng.randrange(1, p)]

        top = MAX_MATRIX_DIMENSION
        out = [([], []), ([], rand(3)), (rand(4), []), ([5 % p or 1], rand(7)),
               (rand(9), [3 % p or 1]), ([1], [2 % p or 1]), (rand(top), rand(0))]
        for _ in range(12):
            m, n = rng.randrange(top + 1), rng.randrange(top + 1)
            out.append((rand(m), rand(n, rng.choice([1, None]))))
        for _ in range(6):
            # a = q b + r with deg r <= deg b - 2, then steps that drop by more
            n = rng.randrange(2, top - 4)
            b = rand(n, rng.choice([1, None]))
            r = rand(rng.randrange(n - 1))
            q = rand(rng.randrange(1, top - n + 1))
            a = polylab._gf_trim([(x + y) % p for x, y in itertools.zip_longest(
                polylab._gf_mul(q, b, p), r, fillvalue=0)])
            out.append((a, b))
        for _ in range(6):
            # a shared factor: the resultant is 0 and the gcd has degree >= 1
            c = rand(rng.randrange(1, 12), 1)
            m, n = rng.randrange(top - 12), rng.randrange(top - 12)
            out.append((polylab._gf_mul(rand(m), c, p), polylab._gf_mul(rand(n), c, p)))
        # every coefficient p - 1, the largest slot values; a linear divisor,
        # whose 72 quotient steps each add to the slots; and (x^36 + ... + 1)
        # times a divisor of 37 coefficients p - 1, whose 37 quotient digits 1
        # each add (p - 1)^2 to the middle slot
        half = top // 2
        wide = polylab._gf_mul([1] * (half + 1), [p - 1] * (half + 1), p)
        out += [([p - 1] * (top + 1), [p - 1] * top), ([p - 1] * (top + 1), [p - 1, p - 1]),
                (polylab._gf_trim([(c + 1) % p for c in wide]), [p - 1] * (half + 1))]
        return out

    # 2^40 - 87 is a prime whose slot width depends on the degree: it takes
    # three words at degree 144 where the bound 2p^2 alone fits in two
    @pytest.mark.parametrize("p", [2, 3, 5, 97, (1 << 31) - 1, (1 << 40) - 87, (1 << 61) - 1,
                                   LARGEST_PRIME_BELOW_2_64])
    def test_against_list_loops(self, p):
        rng = random.Random(0x45554C + p)
        kinds = set()
        for a, b in self.cases(p, rng):
            for x, y in ((a, b), (b, a)):
                res = polylab._gf_resultant(x, y, p)
                assert res == list_gf_resultant(x, y, p), (p, x, y)
                gcd = polylab._gf_gcd(x, y, p)
                assert gcd == list_gf_gcd(x, y, p), (p, x, y)
                kinds.add("zero" if not res else "unit")
                kinds.add("coprime" if len(gcd) == 1 else "shared" if gcd else "both zero")
        assert kinds == {"zero", "unit", "coprime", "shared", "both zero"}

    def test_slot_width_from_p(self):
        # one 64-bit word for the default scan primes at degree 144; more for
        # primes up to 2^64, whose slot bound (degree + 2) 2p^2 has 137 bits
        assert all(polylab._gf_euclid_layout(p, 144)[1] == 1 for p in DEFAULT_CERT_PRIMES)
        assert polylab._gf_euclid_layout((1 << 31) - 1, 144)[1] == 2
        assert polylab._gf_euclid_layout((1 << 40) - 87, 144)[1] == 3
        assert polylab._gf_euclid_layout(LARGEST_PRIME_BELOW_2_64, 144)[1] == 4


class TestSquarefree:
    def test_multiplicities(self):
        p = poly_mul(poly(-1, 1), poly(-1, 1), poly(2, 1))
        decomp = squarefree_decomposition(p)
        assert decomp == [(poly(2, 1), 1, None), (poly(-1, 1), 2, None)]

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
            p = poly_mul(*(poly_pow(q, m) for q, m in parts))
            if p.degree < 1:
                continue
            rebuilt = poly_mul(*(poly_pow(q, m) for q, m, _ in squarefree_decomposition(p)))
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
        # kept whole, with the prime that proved it squarefree
        for f, prime in ((swinnerton_dyer((2, 3, 5, 7)), 11), (charpoly(dense), 3)):
            assert polylab._good_reduction_prime(f, 13) == prime
            assert squarefree_decomposition(f) == [(f, 1, prime)]
            assert squarefree_decomposition(f.scale(-6)) == [(f, 1, prime)]
        assert calls == []

    def test_good_reduction_prime_found_once_per_part(self, monkeypatch):
        calls = []
        real = polylab._good_reduction_prime
        monkeypatch.setattr(polylab, "_good_reduction_prime",
                            lambda f, bound=None: calls.append((f, bound)) or real(f, bound))
        # kept whole: the prime that proved it squarefree is the working prime
        sd16 = swinnerton_dyer((2, 3, 5, 7))
        factor_z(sd16)
        assert calls == [(sd16, 13)]
        # split by Yun: each part of degree 2 or more scans for its own prime
        calls.clear()
        f = poly(0, -30030, 1)
        g = poly_mul(poly(-2, 0, 1), poly(-2, 0, 1), poly(-3, 0, 1))
        factor_z(f)
        factor_z(g)
        assert calls == [(f, 13), (f, None), (g, 13),
                         (poly(-3, 0, 1), None), (poly(-2, 0, 1), None)]

    def test_factor_z_reads_squarefree_decomposition_once(self, monkeypatch):
        # kept whole or split by Yun, each factor_z call takes its parts from
        # one squarefree_decomposition of its input
        calls = []
        real = polylab.squarefree_decomposition
        monkeypatch.setattr(polylab, "squarefree_decomposition",
                            lambda p: calls.append(p) or real(p))
        inputs = [swinnerton_dyer((2, 3, 5, 7)), poly(0, -30030, 1).scale(-6),
                  poly_mul(poly(-1, 1), poly(-1, 1), poly(2, 1)), poly(5)]
        for f in inputs:
            factor_z(f)
        assert calls == inputs

    def test_no_good_small_prime_falls_through_to_yun(self, monkeypatch):
        # 30030 = 2 * 3 * 5 * 7 * 11 * 13: modulo each prime the fast path
        # tries, x (x - 30030) reduces to x^2
        f = poly(0, -30030, 1)
        assert polylab._good_reduction_prime(f, 13) is None
        assert polylab._good_reduction_prime(f) == 17
        calls = self.record_gcds(monkeypatch)
        assert squarefree_decomposition(f) == [(f, 1, None)]
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


def filter_inputs() -> list[IntPolynomial]:
    """Seeded polynomials of degree 2..40 (every other one non-monic), and
    known cases: QUINTIC, OCTIC, cyclotomic Phi_d and the Artin-Schreier
    x^p - x - 1 are irreducible modulo some prime (the last modulo p, where
    its derivative drops to the constant -1); SD-8, SD-16 and x^p - 2, which
    is (x - 2)^p with a zero derivative modulo p, are reducible modulo every
    prime."""
    rng = random.Random(0x44495343)
    seeded = [IntPolynomial.of_coeffs([rng.randint(-20, 20) for _ in range(n)]
                                      + [1 if n % 2 else rng.randint(2, 40)])
              for n in range(2, 41)]
    artin_schreier = [poly(-1, -1, *[0] * (p - 2), 1) for p in (3, 5, 7, 11, 13)]
    pth_powers = [poly(-2, *[0] * (p - 1), 1) for p in (3, 5, 7)]
    return (seeded + [QUINTIC, OCTIC] + [cyclotomic(d) for d in (5, 7, 9, 11, 13, 25, 27)]
            + artin_schreier + pth_powers
            + [swinnerton_dyer((2, 3, 5)), swinnerton_dyer((2, 3, 5, 7))])


class TestDiscriminantFilter:
    """`irreducible_mod_p` rejects a prime by the parity of the discriminant
    before the distinct-degree loop; the answers must be those of the loop."""

    def test_filter_matches_distinct_degree(self):
        irreducible = set()
        for f in filter_inputs():
            for p in DEFAULT_CERT_PRIMES:
                if f.leading % p == 0:
                    continue
                fbar = polylab._gf_monic(polylab._gf_from_int_poly(f, p), p)
                expected = next(polylab._distinct_degree(fbar, p))[1] == f.degree
                assert irreducible_mod_p(f, p) is expected, (f.coeffs, p)
                if expected:
                    irreducible.add((f, p))
        assert {(QUINTIC, 17), (OCTIC, 11), (cyclotomic(5), 3), (cyclotomic(27), 5),
                (poly(-1, -1, 0, 0, 0, 1), 5)} <= irreducible
        assert len(irreducible) > 200

    def test_wrong_parity_skips_the_loop(self, monkeypatch):
        runs = []
        real = polylab._distinct_degree
        monkeypatch.setattr(polylab, "_distinct_degree",
                            lambda fbar, p: runs.append(p) or real(fbar, p))
        assert irreducible_mod_p(poly(-1, 0, 1), 5) is False  # disc 4: a square, n even
        assert irreducible_mod_p(poly(0, 0, 1), 3) is False  # disc 0: x^2 is not squarefree
        assert irreducible_mod_p(poly(0, 1, 0, 1), 3) is False  # x (x^2 + 1): disc -4 = 2, n odd
        assert runs == []
        assert irreducible_mod_p(poly(1, 0, 1), 3) is True  # disc -4 = 2, a nonsquare mod 3
        assert irreducible_mod_p(poly(1, 1, 1), 2) is True  # p = 2 always runs the loop
        assert runs == [3, 2]

    def test_resultant_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.symbols("x")

        def to_sympy(f):
            return sympy.Poly(list(reversed(f.coeffs)), x).as_expr()

        rng = random.Random(0x52455355)
        for trial in range(80):
            p = rng.choice(DEFAULT_CERT_PRIMES)
            degrees = sorted((rng.randrange(1, 9), rng.randrange(0, 9)), reverse=True)
            a, b = (IntPolynomial.of_coeffs([rng.randint(-50, 50) for _ in range(d)]
                                            + [rng.randrange(1, p) + p * rng.randint(0, 3)])
                    for d in degrees)
            if trial % 4 == 0:  # a common factor: the resultant is 0
                common = IntPolynomial.of_coeffs([rng.randint(-5, 5), 1])
                a, b = poly_mul(a, common), poly_mul(b, common)
            # sympy's resultant(f, g) omits the sign (-1)^(deg f deg g) when
            # deg f < deg g, so it is asked with the larger degree first
            expected = int(sympy.resultant(to_sympy(a), to_sympy(b), x)) % p
            abar, bbar = polylab._gf_from_int_poly(a, p), polylab._gf_from_int_poly(b, p)
            swapped = (-1) ** (a.degree * b.degree) * expected % p
            assert polylab._gf_resultant(abar, bbar, p) == expected, (a.coeffs, b.coeffs, p)
            assert polylab._gf_resultant(bbar, abar, p) == swapped, (a.coeffs, b.coeffs, p)
        assert polylab._gf_resultant([], [1, 1], 5) == 0
        assert polylab._gf_resultant([1, 1], [], 5) == 0


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
        rep = criterion(poly_mul(poly(9, 0, 1), poly(9, 0, 1)))
        assert rep.verdict == INCONCLUSIVE
        assert rep.reasons["even_degree_split"] is True

    def test_two_odd_factors(self):
        rep = criterion(poly_mul(QUINTIC, QUINTIC))
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
        rep = criterion(poly_mul(QUINTIC, QUINTIC), primes=[17])
        assert rep.certificates[0] == 17
        assert rep.to_json_obj()["factors"][0]["certificate"] == {
            "prime": 17, "method": "distinct-degree-gcd"}

    def test_certifying_job_prime_ends_the_scan(self, monkeypatch):
        tested = record_tests(monkeypatch)
        rep = criterion(poly_mul(QUINTIC, QUINTIC), primes=[17])
        assert rep.certificates[0] == 17
        assert tested == [(QUINTIC, 17)]

    def test_job_primes_scanned_first(self, monkeypatch):
        # neither 19 nor 3 certifies QUINTIC, and no default prime is tried
        tested = record_tests(monkeypatch)
        rep = criterion(poly_mul(QUINTIC, QUINTIC), primes=[19, 3])
        assert rep.certificates == (None,)
        assert [p for _, p in tested] == [19, 3]

    @pytest.mark.parametrize("primes", [None, [19, 3], [3, 5, 7], [], [17, 17, 3]])
    def test_each_factor_prime_pair_tested_once(self, monkeypatch, primes):
        tested = record_tests(monkeypatch)
        for p in (poly_mul(QUINTIC, QUINTIC), poly_mul(OCTIC, poly(-1, 1)), poly(1, 0, 0, 0, 1),
                  poly_mul(poly(1, 0, -10, 0, 1), poly_pow(cyclotomic(7), 2)),
                  poly_mul(cyclotomic(9), cyclotomic(15))):
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
            p = poly_mul(*(poly_pow(q, m) for q, m in chosen.items()))
            oracle = {q: certificate_oracle(q, primes) for q in chosen}
            tested.clear()
            fz = factor_z(p, primes)
            assert dict(fz.factors) == chosen
            assert fz.certificates == {q: r for q, r in oracle.items() if r is not None}
            assert len(tested) == len(set(tested)), p
            if primes is not None:
                assert {r for _, r in tested} <= set(primes), p
            if p.is_monic():
                rep = criterion(p, primes)
                assert rep.certificates == tuple(oracle[q] for q, _ in rep.factors)

    def test_repeated_listed_prime_tested_once(self, monkeypatch):
        tested = record_tests(monkeypatch)
        p = poly_mul(poly(1, 0, 0, 0, 1), poly(1, *[0] * 9, 1))  # (x^4 + 1)(x^10 + 1)
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
            prod = poly_mul(*(cyclotomic(d) for d in range(1, n + 1) if n % d == 0))
            assert prod == poly(*([-1] + [0] * (n - 1) + [1]))


class TestPolynomialBasics:
    def test_divmod_exact(self):
        q, r = poly(-1, 0, 1).divmod_exact(poly(-1, 1))
        assert q == poly(1, 1) and r.is_zero()

    def test_divmod_non_divisible(self):
        assert poly(1, 1).divmod_exact(poly(0, 2)) is None

    def test_oracle_agreement_small(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert charpoly(m) == naive_charpoly(m)

    def test_transvection_charpoly_unipotent(self):
        t = transvection(HVector(2, (1, 2, 0, -1)))
        assert charpoly(t) == poly(1, -4, 6, -4, 1)  # (x-1)^4
