import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checks import determinant
from psicert.errors import GenusMismatchError
from psicert.homology import (HVector, IntMatrix, char_coeffs, conjugate,
                              intersection, sp_check, symbol_intersection, symplectic_form,
                              symplectic_inverse, transvection)

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
        j = symplectic_form(genus)
        for p in range(2 * genus):
            for q in range(2 * genus):
                e_p, e_q = HVector.basis(genus, p), HVector.basis(genus, q)
                assert j.rows[p][q] == symbol_intersection(p + 1, q + 1) == intersection(e_p, e_q)

    @given(coords_strategy(), coords_strategy(), coords_strategy(), st.integers(-4, 4))
    @settings(max_examples=60)
    def test_antisymmetric_bilinear(self, a, b, c, k):
        u, v, w = hv(2, *a), hv(2, *b), hv(2, *c)
        assert intersection(u, v) == -intersection(v, u)
        assert intersection(u + w.scale(k), v) == intersection(u, v) + k * intersection(w, v)


class TestTransvection:
    def test_basic(self):
        t = transvection(HVector.from_name("a1", 2))
        assert t.apply((0, 1, 0, 0)) == (1, 1, 0, 0)  # b1 -> b1 + a1
        assert t.apply((1, 0, 0, 0)) == (1, 0, 0, 0)

    def test_sum_class(self):
        t = transvection(hv(2, 1, 0, 1, 0))  # a1 + a2
        assert t.apply((0, 1, 0, 0)) == (1, 1, 1, 0)

    def test_zero_class_is_identity(self):
        assert transvection(HVector.zero(2)) == IntMatrix.identity(4)

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
        assert not sp_check(IntMatrix.diagonal([2, 1, 1, 1]))

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
            symplectic_inverse(IntMatrix.diagonal([2, 1]))

    def test_unimodular_non_symplectic_rejected(self):
        # determinant 1, but e_1 and e_3 stop pairing to zero
        rows = [list(r) for r in IntMatrix.identity(4).rows]
        rows[0][2] = 1
        s = IntMatrix.from_rows(rows)
        assert determinant(s) == 1 and not sp_check(s)
        with pytest.raises(ValueError, match="not symplectic"):
            symplectic_inverse(s)
        with pytest.raises(ValueError, match="not symplectic"):
            conjugate(s, IntMatrix.diagonal([3, 3, 0, 0]))

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            symplectic_inverse(IntMatrix.identity(3))


class TestConjugate:
    def test_identity_conjugator(self):
        m = IntMatrix.diagonal([3, 3, 0, 0])
        assert conjugate(IntMatrix.identity(4), m) == m

    def test_identity_operand(self):
        s = transvection(HVector.from_name("a1", 2))
        assert conjugate(s, IntMatrix.identity(4)) == IntMatrix.identity(4)

    def test_worked_subtrahend(self):
        # conjugating diag(3,3,0,0) by the two listed transvections yields the
        # subtrahend of the bundled genus-2 example
        s = transvection(hv(2, 1, 0, 1, 0)) * transvection(hv(2, 0, -1, 0, 1))
        got = conjugate(s, IntMatrix.diagonal([3, 3, 0, 0]))
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


class TestCharCoeffsBasics:
    def test_diagonal(self):
        assert char_coeffs(IntMatrix.diagonal([3, 3, 0, 0])) == [0, 0, 9, -6, 1]

    def test_zero_matrix(self):
        assert char_coeffs(IntMatrix.zero(3)) == [0, 0, 0, 1]

    def test_determinant(self):
        m = IntMatrix.from_rows([[2, 1], [1, 1]])
        assert determinant(m) == 1

    def test_symplectic_form_unimodular(self):
        j = symplectic_form(3)
        assert determinant(j) == 1
        assert symplectic_inverse(j) == j.transpose()
