"""factor_z against sympy's factor_list on inputs that stress recombination,
and gcd_z and squarefree_decomposition against sympy's gcd and sqf_list.

sympy is not a dependency of psicert; without it these tests are skipped.
Both sides write a polynomial as an integer constant (content and sign)
times primitive factors with positive leading coefficient, so the two
factorizations must agree exactly.
"""
import random

import pytest

from psicert.polylab import IntPolynomial, factor_z, gcd_z, squarefree_decomposition

sympy = pytest.importorskip("sympy")
X = sympy.symbols("x")


def to_sympy(p: IntPolynomial):
    return sympy.Poly(list(reversed(p.coeffs)), X)


def from_sympy(expr) -> IntPolynomial:
    return IntPolynomial.of_coeffs(reversed(sympy.Poly(expr, X).all_coeffs()))


def assert_same_factorization(p: IntPolynomial):
    constant, factors = sympy.factor_list(to_sympy(p).as_expr())
    fz = factor_z(p)
    assert fz.constant == int(constant)
    assert sorted((q.coeffs, m) for q, m in fz.factors) == sorted(
        (from_sympy(q).coeffs, m) for q, m in factors)


def random_poly(rng: random.Random, degree: int, bound: int, lead: int = 1) -> IntPolynomial:
    return IntPolynomial.of_coeffs([rng.randint(-bound, bound) for _ in range(degree)] + [lead])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_swinnerton_dyer(n):
    # degrees 4, 8 and 16: irreducible, yet split into linear or quadratic
    # factors modulo every prime, so only recombination proves irreducibility
    sd = from_sympy(sympy.swinnerton_dyer_poly(n, X))
    assert_same_factorization(sd)
    assert_same_factorization(sd * from_sympy(sympy.swinnerton_dyer_poly(n - 1, X)))


@pytest.mark.parametrize("n", [3, 4])
def test_zero_constant_term(n):
    # x joins the modular factors of SD-8 or SD-16 in recombination; the
    # constant-term test must not reject it
    sd = from_sympy(sympy.swinnerton_dyer_poly(n, X))
    assert_same_factorization(IntPolynomial.of_coeffs([0, 1]) * sd)
    assert_same_factorization(IntPolynomial.of_coeffs([0, 0, 1]) * sd)


@pytest.mark.parametrize("orders", [(1, 2, 3, 4), (5, 8, 12), (7, 7, 9), (15, 16, 20, 24),
                                    (3, 6, 9, 18, 30)])
def test_cyclotomic_products(orders):
    p = IntPolynomial.one()
    for d in orders:
        p = p * from_sympy(sympy.cyclotomic_poly(d, X))
    assert_same_factorization(p)


def test_even_polynomials():
    rng = random.Random(0x45564E)
    for _ in range(12):
        q = random_poly(rng, rng.randrange(2, 7), 6)
        even = IntPolynomial.of_coeffs([a for c in q.coeffs for a in (c, 0)][:-1])  # q(x^2)
        assert_same_factorization(even)
        assert_same_factorization(even * q)


def test_non_monic_large_coefficients():
    rng = random.Random(0x4C415247)
    for _ in range(12):
        parts = [random_poly(rng, rng.randrange(1, 5), 10**6, lead=rng.randint(2, 10**4))
                 for _ in range(rng.randrange(2, 4))]
        p = IntPolynomial.constant(rng.choice((-1, 1)) * rng.randint(1, 60))
        for q in parts:
            p = p * q
        assert_same_factorization(p)
        assert_same_factorization(p * parts[0])



def random_with_content(rng: random.Random, q: IntPolynomial) -> IntPolynomial:
    """q times a random content, and a random sign that may make lc negative."""
    return q.scale(rng.choice((-1, 1)) * rng.randint(1, 12))


def test_gcd_against_sympy():
    # gcd_z gives the primitive gcd, or the gcd of the contents when the
    # primitive parts are coprime; sympy's gcd keeps the content gcd throughout
    rng = random.Random(0x47434421)
    for _ in range(40):
        common = IntPolynomial.one()
        for _ in range(rng.randrange(0, 3)):
            common = common * random_poly(rng, rng.randrange(1, 4), 5, lead=rng.randint(1, 3))
        a = random_with_content(rng, common * random_poly(rng, rng.randrange(0, 4), 5))
        b = random_with_content(rng, common * random_poly(rng, rng.randrange(0, 4), 5))
        expected = from_sympy(sympy.gcd(to_sympy(a), to_sympy(b)).as_expr())
        if expected.degree > 0:
            expected = expected.primitive_part()
        assert gcd_z(a, b) == expected, (a.coeffs, b.coeffs)
        assert gcd_z(b, a) == expected


def assert_same_squarefree(p: IntPolynomial):
    _, factors = sympy.sqf_list(to_sympy(p).as_expr())
    assert sorted((q.coeffs, m) for q, m in squarefree_decomposition(p)) == sorted(
        (from_sympy(q).coeffs, m) for q, m in factors), p.coeffs


def test_squarefree_fast_path_against_sympy():
    # SD-16 and a dense charpoly are squarefree modulo a prime up to 13 and
    # skip Yun's algorithm; x (x - 30030) is not (30030 = 2*3*5*7*11*13), and
    # Phi_a^2 Phi_b is not squarefree at all, so both run it
    rng = random.Random(0x53514650)
    dense = [[rng.randint(-3, 3) for _ in range(20)] for _ in range(20)]
    charpoly = from_sympy(sympy.Matrix(dense).charpoly(X).as_expr())
    inputs = [from_sympy(sympy.swinnerton_dyer_poly(4, X)), charpoly,
              IntPolynomial.of_coeffs([0, -30030, 1])]
    for a, b in ((1, 2), (5, 8), (12, 3), (7, 9)):
        phi_a = from_sympy(sympy.cyclotomic_poly(a, X))
        inputs.append(phi_a * phi_a * from_sympy(sympy.cyclotomic_poly(b, X)))
    for p in inputs:
        assert_same_squarefree(p)
        assert_same_squarefree(p.scale(-6))


def test_squarefree_against_sympy():
    rng = random.Random(0x53514621)
    for trial in range(40):
        p = IntPolynomial.one()
        for mult in range(1, 5):
            if rng.random() < 0.6:
                q = random_poly(rng, rng.randrange(1, 3), 6, lead=rng.randint(1, 3))
                p = p * q ** mult
        if trial % 4 == 0:  # squarefree input
            p = random_poly(rng, rng.randrange(1, 8), 9)
        p = random_with_content(rng, p)
        if p.degree < 1:
            continue
        assert_same_squarefree(p)
