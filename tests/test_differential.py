"""factor_z against sympy's factor_list on inputs that stress recombination,
gcd_z and squarefree_decomposition against sympy's gcd and sqf_list, and
char_coeffs (Hessenberg modulo proven primes) against sympy's Matrix.charpoly.

sympy is not a dependency of psicert; without it these tests are skipped.
Both sides write a polynomial as an integer constant (content and sign)
times primitive factors with positive leading coefficient, so the two
factorizations must agree exactly.
"""
import random

import pytest

from checks import poly_mul, poly_pow
from psicert import polylab
from psicert.homology import IntMatrix, char_coeffs
from psicert.jobs import parse_job, run_job
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
    assert_same_factorization(poly_mul(sd, from_sympy(sympy.swinnerton_dyer_poly(n - 1, X))))


@pytest.mark.parametrize("m", [None, 3], ids=["SD-32", "SD-32*SD-8"])
def test_swinnerton_dyer_trace_search(m):
    # 16 quadratic modular factors for SD-32, and 20 with SD-8: the trace
    # test's meet-in-the-middle search must find no split of SD-32, and must
    # find SD-8 among the subsets of size 4 (test_swinnerton_dyer[4] has
    # SD-16*SD-8)
    p = from_sympy(sympy.swinnerton_dyer_poly(5, X))
    if m is not None:
        p = poly_mul(p, from_sympy(sympy.swinnerton_dyer_poly(m, X)))
    assert_same_factorization(p)


def test_non_monic_leading_changes(monkeypatch):
    # the linear factor 2x + 1 is found first, which divides lc(current) from
    # 2 * 3 * 2 = 12 to 6 for the search that follows; 2x^4 + 4x^3 - 2x^2 -
    # 4x - 1 is the primitive part of SD-4 at 2x + 1, irreducible, and splits
    # modulo every prime
    sd4 = from_sympy(sympy.swinnerton_dyer_poly(2, X).subs(X, 2 * X + 1)).primitive_part()
    assert sd4.coeffs == (-1, -4, -2, 4, 2)
    p = poly_mul(IntPolynomial.of_coeffs([1, 2]), IntPolynomial.of_coeffs([7, 1, 3]), sd4)
    seen = []
    real = polylab._trace_passes

    def search(traces, constants, size, lc, *rest):
        seen.append(lc)
        return real(traces, constants, size, lc, *rest)

    monkeypatch.setattr(polylab, "_trace_passes", search)
    assert_same_factorization(p)
    assert seen[:2] == [12, 6]


@pytest.mark.parametrize("n", [3, 4])
def test_zero_constant_term(n):
    # x joins the modular factors of SD-8 or SD-16 in recombination; the
    # constant-term test must not reject it
    sd = from_sympy(sympy.swinnerton_dyer_poly(n, X))
    assert_same_factorization(poly_mul(IntPolynomial.of_coeffs([0, 1]), sd))
    assert_same_factorization(poly_mul(IntPolynomial.of_coeffs([0, 0, 1]), sd))


@pytest.mark.parametrize("orders", [(1, 2, 3, 4), (5, 8, 12), (7, 7, 9), (15, 16, 20, 24),
                                    (3, 6, 9, 18, 30)])
def test_cyclotomic_products(orders):
    assert_same_factorization(poly_mul(*(from_sympy(sympy.cyclotomic_poly(d, X)) for d in orders)))


def even(q: IntPolynomial) -> IntPolynomial:
    return IntPolynomial.of_coeffs([a for c in q.coeffs for a in (c, 0)][:-1])  # q(x^2)


def test_even_polynomials():
    # a subset of modular factors closed under x -> -x has trace 0, so every
    # such subset of an even polynomial passes the trace test and only the
    # later tests reject it
    rng = random.Random(0x45564E)
    for _ in range(12):
        q = random_poly(rng, rng.randrange(2, 7), 6)
        assert_same_factorization(even(q))
        assert_same_factorization(poly_mul(even(q), q))
    rng = random.Random(0x45564E32)
    for _ in range(6):
        q, r = random_poly(rng, rng.randrange(2, 5), 9), random_poly(rng, rng.randrange(2, 5), 9)
        assert_same_factorization(poly_mul(even(q), even(r)))
    sd8 = from_sympy(sympy.swinnerton_dyer_poly(3, X))
    assert_same_factorization(poly_mul(sd8, from_sympy(sympy.cyclotomic_poly(16, X))))


def test_non_monic_large_coefficients():
    rng = random.Random(0x4C415247)
    for _ in range(12):
        parts = [random_poly(rng, rng.randrange(1, 5), 10**6, lead=rng.randint(2, 10**4))
                 for _ in range(rng.randrange(2, 4))]
        p = poly_mul(IntPolynomial.constant(rng.choice((-1, 1)) * rng.randint(1, 60)), *parts)
        assert_same_factorization(p)
        assert_same_factorization(poly_mul(p, parts[0]))



def random_with_content(rng: random.Random, q: IntPolynomial) -> IntPolynomial:
    """q times a random content, and a random sign that may make lc negative."""
    return q.scale(rng.choice((-1, 1)) * rng.randint(1, 12))


def test_gcd_against_sympy():
    # gcd_z gives the primitive gcd, or the gcd of the contents when the
    # primitive parts are coprime; sympy's gcd keeps the content gcd throughout
    rng = random.Random(0x47434421)
    for _ in range(40):
        common = poly_mul(*(random_poly(rng, rng.randrange(1, 4), 5, lead=rng.randint(1, 3))
                            for _ in range(rng.randrange(0, 3))))
        a = random_with_content(rng, poly_mul(common, random_poly(rng, rng.randrange(0, 4), 5)))
        b = random_with_content(rng, poly_mul(common, random_poly(rng, rng.randrange(0, 4), 5)))
        expected = from_sympy(sympy.gcd(to_sympy(a), to_sympy(b)).as_expr())
        if expected.degree > 0:
            expected = expected.primitive_part()
        assert gcd_z(a, b) == expected, (a.coeffs, b.coeffs)
        assert gcd_z(b, a) == expected


def assert_same_squarefree(p: IntPolynomial):
    _, factors = sympy.sqf_list(to_sympy(p).as_expr())
    assert sorted((q.coeffs, m) for q, m, _ in squarefree_decomposition(p)) == sorted(
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
        inputs.append(poly_mul(phi_a, phi_a, from_sympy(sympy.cyclotomic_poly(b, X))))
    for p in inputs:
        assert_same_squarefree(p)
        assert_same_squarefree(p.scale(-6))


def linear(a: int, b: int) -> IntPolynomial:
    return IntPolynomial.of_coeffs([b, a])  # a x + b


@pytest.mark.parametrize("v", [2, 3, 16])
def test_squarefree_reads_off_x_power(v):
    # x^v (v >= 2) is read off the low coefficients and the rest decomposed
    # alone; x must join the rest's part of multiplicity v, or stand alone,
    # as in sympy's grouping, and the parts must come in ascending
    # multiplicity, the order in which factor_z factors them
    x_v = IntPolynomial.of_coeffs([0] * v + [1])
    squarefree = poly_mul(IntPolynomial.of_coeffs([1, 1, 1]), linear(2, -3))
    # parts of multiplicity 1, v - 1 (when above 1), v and v + 1
    shared = poly_mul(linear(1, 5), poly_pow(linear(1, -2), v - 1),
                      poly_pow(IntPolynomial.of_coeffs([-2, 0, 1]), v), poly_pow(linear(3, 1), v + 1))
    for p in (x_v, poly_mul(x_v, squarefree), poly_mul(x_v, shared)):
        for q in (p, p.scale(-6), p.scale(35)):
            assert_same_squarefree(q)
            mults = [m for _, m, _ in squarefree_decomposition(q)]
            assert mults == sorted(mults) and v in mults


def test_nilpotent_charpoly_makes_no_gcd(monkeypatch):
    # bounding-pair/8/8 at k = 1 has a nilpotent psi: its charpoly x^16 is
    # read off at once, so Yun's algorithm and its gcds never run
    calls = []
    real = polylab.gcd_z
    monkeypatch.setattr(polylab, "gcd_z", lambda a, b: calls.append(a) or real(a, b))
    report = run_job(parse_job({"schema": 1, "name": "bounding-pair-8-8", "genus": 8, "k": 1,
                                "pipeline": "homology",
                                "element": {"atom": "bounding_pair", "index": 8}}))
    assert report.result.charpoly == IntPolynomial.of_coeffs([0] * 16 + [1])
    assert [(q.coeffs, m) for q, m in report.result.factors] == [((0, 1), 16)]
    assert calls == []


def test_squarefree_against_sympy():
    rng = random.Random(0x53514621)
    for trial in range(40):
        p = IntPolynomial((1,))
        for mult in range(1, 5):
            if rng.random() < 0.6:
                q = random_poly(rng, rng.randrange(1, 3), 6, lead=rng.randint(1, 3))
                p = poly_mul(p, poly_pow(q, mult))
        if trial % 4 == 0:  # squarefree input
            p = random_poly(rng, rng.randrange(1, 8), 9)
        p = random_with_content(rng, p)
        if p.degree < 1:
            continue
        assert_same_squarefree(p)


def dense_companion(rng: random.Random, p: IntPolynomial) -> list[list[int]]:
    """The companion matrix of monic p, conjugated by 3n random elementary
    matrices E = I + c e_i e_j^T (row i += c row j, then column j -= c column
    i), so that it is dense and its characteristic polynomial is still p."""
    n = p.degree
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        if i:
            m[i][i - 1] = 1
        m[i][n - 1] = -p.coeffs[i]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        for row in m:
            row[j] -= c * row[i]
    return m


def assert_same_charpoly(rows: list[list[int]]) -> IntPolynomial:
    expected = sympy.Matrix(len(rows), len(rows), [x for r in rows for x in r]).charpoly(X)
    got = char_coeffs(IntMatrix.from_rows(rows))
    assert got == [int(c) for c in reversed(expected.all_coeffs())], rows
    return IntPolynomial.of_coeffs(got)


def test_char_coeffs_of_companions():
    rng = random.Random(0x43484152)
    cyclotomic_products = [(5, 8, 12), (7, 9), (15, 16, 20)]
    inputs = [from_sympy(sympy.swinnerton_dyer_poly(n, X)) for n in (2, 3, 4)]
    for orders in cyclotomic_products:
        inputs.append(poly_mul(*(from_sympy(sympy.cyclotomic_poly(d, X)) for d in orders)))
    q = random_poly(rng, 8, 9)
    inputs.append(IntPolynomial.of_coeffs([a for c in q.coeffs for a in (c, 0)][:-1]))  # q(x^2)
    for p in inputs:
        assert assert_same_charpoly(dense_companion(rng, p)) == p


def test_char_coeffs_of_large_entries():
    rng = random.Random(0x42495453)
    for n in range(2, 9):
        for bits in (8, 64, 200):
            assert_same_charpoly([[rng.randint(-(1 << bits), 1 << bits) for _ in range(n)]
                                  for _ in range(n)])


def test_char_coeffs_edge_cases():
    assert char_coeffs(IntMatrix(())) == [1]
    assert_same_charpoly([])
    assert assert_same_charpoly([[-(1 << 200)]]) == IntPolynomial.of_coeffs([1 << 200, 1])
