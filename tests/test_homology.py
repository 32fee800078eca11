import os
import random
import re
import subprocess
import sys
from math import isqrt, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checks import (berkowitz_char_coeffs, determinant, intersection, symplectic_inverse,
                    transvection)
from psicert import homology
from psicert.errors import GenusMismatchError
from psicert.homology import (HVector, IntMatrix, basis_position, char_coeffs, conjugate, pairing,
                              sp_check, symbol_intersection)

# the 10x10 symplectic conjugator used by the bundled genus-5 example
REFERENCE_CONJUGATOR = [
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
]


def hv(genus, *coords):
    return HVector(genus, tuple(coords))


def coords_strategy(genus=2):
    return st.tuples(*[st.integers(-5, 5) for _ in range(2 * genus)])


class TestBasisPosition:
    @pytest.mark.parametrize("name", ["a\u0661", "b\u00b9", "a", "c1", "a-1", "a+1"])
    def test_generator_names_take_ascii_digits_only(self, name):
        # an Arabic-Indic one and a superscript one are digits to str.isdigit
        with pytest.raises(ValueError, match=f"^bad generator name {re.escape(repr(name))}$"):
            basis_position(name, 2)

    @pytest.mark.parametrize("name, position", [("a1", 0), ("b2", 3), (" b01 ", 1)])
    def test_generator_names(self, name, position):
        assert basis_position(name, 2) == position

    def test_long_generator_index_out_of_range(self):
        # refused from its digit count, before int() is asked to read it
        with pytest.raises(ValueError, match="out of range for genus 2$"):
            basis_position("b" + "7" * 5000, 2)


class TestIntersection:
    def test_dual_pair(self):
        assert intersection(HVector.from_name("a1", 2), HVector.from_name("b1", 2)) == 1
        assert intersection(HVector.from_name("b1", 2), HVector.from_name("a1", 2)) == -1

    def test_unrelated(self):
        assert intersection(HVector.from_name("a1", 2), HVector.from_name("a2", 2)) == 0

    def test_bilinear_example(self):
        u = hv(2, 1, 0, 1, 0)  # a1 + a2
        assert intersection(u, HVector.from_name("b1", 2)) == 1

    def test_genus_mismatch(self):
        with pytest.raises(GenusMismatchError):
            intersection(HVector.from_name("a1", 2), HVector.from_name("a1", 3))

    @pytest.mark.parametrize("genus", [1, 2, 3, 4])
    def test_one_pairing_on_basis_symbols(self, genus):
        for p in range(2 * genus):
            for q in range(2 * genus):
                e_p, e_q = HVector.basis(genus, p), HVector.basis(genus, q)
                assert symbol_intersection(p + 1, q + 1) == intersection(e_p, e_q)

    @given(coords_strategy(), coords_strategy(), coords_strategy(), st.integers(-4, 4))
    @settings(max_examples=60)
    def test_antisymmetric_bilinear(self, a, b, c, k):
        u, v, w = hv(2, *a), hv(2, *b), hv(2, *c)
        assert intersection(u, v) == -intersection(v, u)
        u_kw = hv(2, *(x + k * y for x, y in zip(a, c)))
        assert intersection(u_kw, v) == intersection(u, v) + k * intersection(w, v)

    @pytest.mark.parametrize("genus", range(1, 37))
    def test_pairing_row(self, genus):
        rng = random.Random(genus)
        for _ in range(4):
            v = HVector(genus, tuple(rng.randint(-9, 9) for _ in range(2 * genus)))
            assert pairing(v) == [intersection(v, HVector.basis(genus, p))
                                  for p in range(2 * genus)]


class TestTransvection:
    def test_basic(self):
        t = transvection(HVector.from_name("a1", 2))
        assert t.apply((0, 1, 0, 0)) == (1, 1, 0, 0)  # b1 -> b1 + a1
        assert t.apply((1, 0, 0, 0)) == (1, 0, 0, 0)

    def test_sum_class(self):
        t = transvection(hv(2, 1, 0, 1, 0))  # a1 + a2
        assert t.apply((0, 1, 0, 0)) == (1, 1, 1, 0)

    def test_zero_class_is_identity(self):
        assert transvection(hv(2, 0, 0, 0, 0)) == IntMatrix.identity(4)

    @given(coords_strategy())
    @settings(max_examples=100)
    def test_symplectic_and_fixes_class(self, coords):
        beta = hv(2, *coords)
        t = transvection(beta)
        assert sp_check(t)
        assert t.apply(beta.coords) == beta.coords


class TestSpCheck:
    def test_identity(self):
        assert sp_check(IntMatrix.identity(4))

    def test_non_symplectic(self):
        assert not sp_check(IntMatrix.from_rows([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                                                 [0, 0, 0, 1]]))

    def test_reference_conjugator(self):
        assert sp_check(IntMatrix.from_rows(REFERENCE_CONJUGATOR))

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            sp_check(IntMatrix.identity(3))


class TestInverse:
    def test_round_trip_random(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randrange(1, 4) * 2
            m = IntMatrix.identity(n)
            for _ in range(4):
                beta = HVector(n // 2, tuple(rng.randrange(-2, 3) for _ in range(n)))
                m = m * transvection(beta)
            assert m * symplectic_inverse(m) == IntMatrix.identity(n)

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            symplectic_inverse(IntMatrix.from_rows([[2, 0], [0, 1]]))

    def test_unimodular_non_symplectic_rejected(self):
        # determinant 1, but e_1 and e_3 stop pairing to zero
        rows = [list(r) for r in IntMatrix.identity(4).rows]
        rows[0][2] = 1
        s = IntMatrix.from_rows(rows)
        assert determinant(s) == 1 and not sp_check(s)
        with pytest.raises(ValueError, match="not symplectic"):
            symplectic_inverse(s)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            symplectic_inverse(IntMatrix.identity(3))


class TestConjugate:
    def test_identity_conjugator(self):
        m = IntMatrix.from_rows([[3, 0, 0, 0], [0, 3, 0, 0], [0] * 4, [0] * 4])
        assert conjugate(IntMatrix.identity(4), m) == m

    def test_identity_operand(self):
        s = transvection(HVector.from_name("a1", 2))
        assert conjugate(s, IntMatrix.identity(4)) == IntMatrix.identity(4)

    def test_worked_subtrahend(self):
        # conjugating diag(3,3,0,0) by the two listed transvections yields the
        # subtrahend of the bundled genus-2 example
        s = transvection(hv(2, 1, 0, 1, 0)) * transvection(hv(2, 0, -1, 0, 1))
        m = IntMatrix.from_rows([[3, 0, 0, 0], [0, 3, 0, 0], [0] * 4, [0] * 4])
        got = conjugate(s, m)
        assert got == IntMatrix.from_rows([
            [6, 0, -3, -3], [0, 6, -3, 3], [3, 3, -3, 0], [3, -3, 0, -3]])

    def test_preserves_charpoly(self):
        rng = random.Random(17)
        for _ in range(25):
            n = 4
            m = IntMatrix.from_rows([[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)])
            s = IntMatrix.identity(n)
            for _ in range(3):
                beta = HVector(2, tuple(rng.randrange(-2, 3) for _ in range(n)))
                s = s * transvection(beta)
            assert char_coeffs(conjugate(s, m)) == char_coeffs(m)

    @pytest.mark.parametrize("genus", [1, 2, 3, 5, 8])
    def test_matches_products_with_the_inverse(self, genus):
        rng = random.Random(genus)
        n = 2 * genus
        for _ in range(5):
            m = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
            s = IntMatrix.identity(n)
            for _ in range(3):
                s = s * transvection(HVector(genus, tuple(rng.randint(-2, 2) for _ in range(n))))
            assert conjugate(s, m) == s * m * symplectic_inverse(s)


class TestCharCoeffsBasics:
    def test_diagonal(self):
        m = IntMatrix.from_rows([[3, 0, 0, 0], [0, 3, 0, 0], [0] * 4, [0] * 4])
        assert char_coeffs(m) == [0, 0, 9, -6, 1]

    def test_zero_matrix(self):
        assert char_coeffs(IntMatrix.from_rows([[0] * 3] * 3)) == [0, 0, 0, 1]

    def test_determinant(self):
        m = IntMatrix.from_rows([[2, 1], [1, 1]])
        assert determinant(m) == 1

    def test_symplectic_form_unimodular(self):
        j = IntMatrix.from_rows([[symbol_intersection(p, q) for q in range(1, 7)]
                                 for p in range(1, 7)])
        assert determinant(j) == 1
        assert symplectic_inverse(j) == IntMatrix(tuple(zip(*j.rows)))


def seeded_matrix(rng, n, bits, density):
    return IntMatrix.from_rows([[rng.randint(-(1 << bits), 1 << bits) if rng.random() < density else 0
                                 for _ in range(n)] for _ in range(n)])


class TestCharCoeffsAgainstBerkowitz:
    """The Hessenberg route modulo proven primes equals the Berkowitz oracle over Z."""

    @pytest.mark.parametrize("density", [0.1, 0.6, 1.0])
    def test_seeded_densities(self, density):
        rng = random.Random(0x48455353 + int(10 * density))
        for _ in range(60):
            m = seeded_matrix(rng, rng.randrange(0, 13), rng.randrange(1, 201), density)
            assert char_coeffs(m) == berkowitz_char_coeffs(m), m.rows

    def test_every_size_and_entry_size(self):
        rng = random.Random(0x53495A45)
        for n in range(15):
            for bits in (1, 2, 8, 32, 64, 128, 200):
                m = seeded_matrix(rng, n, bits, 0.7)
                assert char_coeffs(m) == berkowitz_char_coeffs(m), m.rows

    @pytest.mark.parametrize("rows", [
        [[0, 0, 0], [0, 0, 0], [1, 0, 0]],  # pivot swap in the first column
        [[1, 2, 3], [0, 4, 5], [0, 6, 7]],  # first column already reduced: skipped
        [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]],  # nilpotent
        [[0, 0, 0, 5], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]],  # swap, then a zero column
        # the first step leaves 1 - (p-1)^2, a nonzero multiple of p, in row 3 of
        # column 2; the second has nothing to eliminate, and the third must pivot
        # on row 4
        [[0, 0, 0, 0, 0], [1, 0, -1, 0, 0], [0, 1, 0, 0, 0], [-1, 0, 1, 0, 0], [0, 0, 1, 0, 0]],
    ])
    def test_branches(self, rows):
        m = IntMatrix.from_rows(rows)
        assert char_coeffs(m) == berkowitz_char_coeffs(m)

    def test_special_matrices(self):
        for n in range(6):
            for m in (IntMatrix.from_rows([[0] * n] * n), IntMatrix.identity(n),
                      IntMatrix.from_rows([[int(j == i + 1) for j in range(n)] for i in range(n)])):
                assert char_coeffs(m) == berkowitz_char_coeffs(m)
        assert char_coeffs(IntMatrix(())) == [1]

    def test_entries_divisible_by_the_modulus(self):
        """Entries that vanish modulo the working prime change the pivots, not
        the result: at each table prime, and at the first of the CRT moduli."""
        rng = random.Random(0x5A45524F)
        for p in (*homology._SMALL_MODULI, homology._moduli_above(1 << 256)[0]):
            for _ in range(20):
                n = rng.randrange(2, 7)
                m = IntMatrix.from_rows([[p * rng.randrange(-2, 3) + rng.choice((0, 0, 1, -1))
                                          for _ in range(n)] for _ in range(n)])
                expected = berkowitz_char_coeffs(m)
                assert homology._char_coeffs_mod(m.rows, p) == [c % p for c in expected], (p, m.rows)
                assert char_coeffs(m) == expected

    def test_at_the_job_cap(self):
        """72 x 72 with 64-bit entries, the largest matrix `parse_matrix` admits."""
        rng = random.Random(0x434150)
        m = seeded_matrix(rng, 72, 63, 1.0)
        assert char_coeffs(m) == berkowitz_char_coeffs(m)


class TestCharCoeffsModuli:
    def test_bound_covers_the_coefficients(self, monkeypatch):
        """Every coefficient lies in [-B, B], and `char_coeffs` works modulo the
        moduli above 2B, so the symmetric residues are exact."""
        used = []
        real = homology._char_coeffs_mod
        monkeypatch.setattr(homology, "_char_coeffs_mod",
                            lambda rows, p: used.append(p) or real(rows, p))
        rng = random.Random(0x424F554E)
        # [[c]] has B = 2 + |c| and the coefficient -c: at |c| = p - 3 only a
        # modulus above p reads it right
        near = [IntMatrix.from_rows([[c]]) for p in homology._SMALL_MODULI for c in (p - 3, 3 - p)]
        for m in near + [seeded_matrix(rng, rng.randrange(0, 9), rng.randrange(1, 65),
                                       rng.choice((0.3, 1.0))) for _ in range(40)]:
            bound = homology._coefficient_bound(m)
            # each factor 2 + isqrt(|row|^2) is at least 1 + |row|, as |row| < isqrt(|row|^2) + 1
            norms2 = [sum(x * x for x in row) for row in m.rows]
            assert all((isqrt(s) + 1) ** 2 > s for s in norms2)
            assert bound == prod(2 + isqrt(s) for s in norms2)
            expected = berkowitz_char_coeffs(m)
            assert max(map(abs, expected)) <= bound
            used.clear()
            assert char_coeffs(m) == expected
            assert used == homology._moduli_above(2 * bound) and prod(used) > 2 * bound, m.rows

    def test_every_modulus_is_proven_prime(self):
        table = homology._SMALL_MODULI
        assert len(table) == 8 and list(table) == sorted(set(table))
        for digits, p in enumerate(table, 1):
            # one below each multiple of 30 bits (a CPython digit)
            assert 30 * (digits - 1) < p.bit_length() <= 30 * digits
        homology._moduli_above(1 << 3000)
        moduli = homology._MODULI
        assert len(moduli) >= 12 and moduli == sorted(set(moduli))
        for p in moduli:
            h = p >> 256
            assert p == (h << 256) + 1 and h % 2 == 1 and h < 1 << 256
        for p in (*table, *moduli):
            # Proth's theorem: a^((p-1)/2) = -1 mod p proves p = h * 2^k + 1 prime (h < 2^k)
            k = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = h * 2^k, h odd
            assert (p - 1) >> k < 1 << k
            a = homology._proth_witness(p)
            assert a is not None and pow(a, (p - 1) // 2, p) == p - 1

    def test_one_table_prime_below_the_largest(self):
        """A bound below the last table prime gets the single smallest table
        prime above it; a larger one the shortest prefix of the CRT moduli."""
        table = homology._SMALL_MODULI
        rng = random.Random(0x4D4F44)
        bounds = [0, 1, 2, *(p + d for p in table for d in (-1, 0, 1)),
                  *(rng.getrandbits(rng.randrange(1, 241)) for _ in range(200)),
                  1 << 240, 1 << 246, 1 << 709, 1 << 2000]
        for bound in bounds:
            moduli = homology._moduli_above(bound)
            if bound < table[-1]:
                assert moduli == [min(p for p in table if p > bound)], bound
            else:
                assert moduli == homology._MODULI[:len(moduli)], bound
                assert prod(moduli[:-1]) <= bound < prod(moduli)
        assert len(homology._moduli_above(1 << 246)) == 1
        assert len(homology._moduli_above(1 << 709)) == 3

    def test_no_search_at_import(self):
        code = "import psicert; from psicert import homology; print(homology._MODULI)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                             env=dict(os.environ, PYTHONPATH=str(Path(homology.__file__).parents[1])))
        assert out.stdout.strip() == "[]"
