import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checks import identity_endo
from psicert.errors import GenusMismatchError
from psicert.homology import HVector, IntMatrix, transvection
from psicert.words import (FreeEndomorphism, GroupWord, a_gen, abelianize, apply_endo,
                           b_gen, commutator, compose_endos, format_word,
                           inner_automorphism, parse_word, reduce_word,
                           sep_twist, sep_twist_gamma)


def letters_strategy(genus=2, max_len=12):
    return st.lists(st.tuples(st.integers(1, 2 * genus), st.sampled_from((1, -1))),
                    max_size=max_len)


def words_strategy(genus=2, max_len=10):
    return letters_strategy(genus, max_len).map(lambda ls: reduce_word(genus, ls))


class TestReduce:
    def test_cancellation(self):
        w = reduce_word(2, [(1, 1), (1, -1)])
        assert not w.letters

    def test_interior_cancellation(self):
        w = reduce_word(2, [(1, 1), (2, 1), (2, -1), (3, 1)])
        assert w == reduce_word(2, [(1, 1), (3, 1)])

    def test_already_reduced_unchanged(self):
        raw = [(1, 1), (2, 1), (1, -1)]
        assert reduce_word(2, raw).letters == tuple(raw)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            reduce_word(2, [(5, 1)])

    @given(letters_strategy())
    def test_idempotent_and_nonincreasing(self, raw):
        w = reduce_word(2, raw)
        assert reduce_word(2, w.letters) == w
        assert len(w) <= len(raw)

    @given(words_strategy())
    def test_inverse_cancels(self, w):
        assert not (w * w.inverse()).letters
        assert not (w.inverse() * w).letters


class TestCommutator:
    def test_self_commutator_trivial(self):
        a1 = a_gen(2, 1)
        assert not commutator(a1, a1).letters

    def test_basic(self):
        a1, b1 = a_gen(2, 1), b_gen(2, 1)
        assert commutator(a1, b1).letters == ((1, 1), (2, 1), (1, -1), (2, -1))

    def test_reduction_inside(self):
        a1, b1 = a_gen(2, 1), b_gen(2, 1)
        assert commutator(a1 * b1, b1) == commutator(a1, b1)

    def test_genus_mismatch(self):
        with pytest.raises(GenusMismatchError):
            commutator(a_gen(2, 1), a_gen(3, 1))


class TestParseFormat:
    def test_parse(self):
        w = parse_word("a1 b2^-1 a2^2", 2)
        assert w.letters == ((1, 1), (4, -1), (3, 1), (3, 1))

    def test_format_roundtrip(self):
        w = parse_word("a1 b1^-1 b1^-1 a2", 2)
        assert parse_word(format_word(w), 2) == w

    def test_bad_tokens(self):
        for text in ("c1", "a0", "a3", "a1^0", "a1^"):
            with pytest.raises(ValueError):
                parse_word(text, 2)


class TestApplyEndo:
    def test_identity(self):
        w = parse_word("a1 b2 a1^-1", 2)
        assert apply_endo(identity_endo(2), w) == w

    def test_image_inversion(self):
        f = FreeEndomorphism(2, (parse_word("a1 b1", 2), b_gen(2, 1), a_gen(2, 2), b_gen(2, 2)))
        assert apply_endo(f, parse_word("a1^-1", 2)) == parse_word("b1^-1 a1^-1", 2)

    def test_sep_twist_fixes_later_handles(self):
        assert apply_endo(sep_twist(2, 1), a_gen(2, 2)) == a_gen(2, 2)

    @given(words_strategy(), words_strategy())
    @settings(max_examples=50)
    def test_distributes_over_concatenation(self, u, v):
        f = sep_twist(2, 1)
        assert apply_endo(f, u * v) == apply_endo(f, u) * apply_endo(f, v)


class TestCompose:
    def test_identity_neutral(self):
        f = sep_twist(2, 1)
        assert compose_endos(identity_endo(2), f) == f
        assert compose_endos(f, identity_endo(2)) == f

    def test_inner_inverse(self):
        f = inner_automorphism(a_gen(2, 1))
        g = inner_automorphism(a_gen(2, 1).inverse())
        assert compose_endos(f, g) == identity_endo(2)

    def test_sep_twist_squared_is_gamma_squared_conjugation(self):
        t = sep_twist(2, 1)
        gamma = sep_twist_gamma(2, 1)
        g2 = gamma * gamma
        square = compose_endos(t, t)
        assert square.images[0] == g2 * a_gen(2, 1) * g2.inverse()
        assert square.images[1] == g2 * b_gen(2, 1) * g2.inverse()
        assert square.images[2] == a_gen(2, 2)

    @given(st.integers(1, 2), st.integers(1, 2), st.integers(1, 2))
    @settings(max_examples=20)
    def test_associative(self, i, j, k):
        f, g, h = sep_twist(3, i), sep_twist(3, j), inner_automorphism(a_gen(3, k))
        assert compose_endos(compose_endos(f, g), h) == compose_endos(f, compose_endos(g, h))


class TestInner:
    def test_empty_is_identity(self):
        assert inner_automorphism(GroupWord.identity(2)) == identity_endo(2)

    def test_conjugates(self):
        f = inner_automorphism(a_gen(2, 1))
        assert f.images[1] == parse_word("a1 b1 a1^-1", 2)

    @given(words_strategy())
    @settings(max_examples=30)
    def test_abelianization_trivial(self, w):
        assert abelianize(inner_automorphism(w)) == IntMatrix.identity(4)


class TestSepTwist:
    def test_formula_g2(self):
        t = sep_twist(2, 1)
        gamma = commutator(a_gen(2, 1), b_gen(2, 1))
        assert t.images[0] == gamma * a_gen(2, 1) * gamma.inverse()
        assert t.images[2] == a_gen(2, 2)

    def test_gamma_g3_i2(self):
        gamma = sep_twist_gamma(3, 2)
        expected = commutator(a_gen(3, 1), b_gen(3, 1)) * commutator(a_gen(3, 2), b_gen(3, 2))
        assert gamma == expected
        assert sep_twist(3, 2).images[5] == b_gen(3, 3)

    def test_boundary_parallel_rejected(self):
        with pytest.raises(ValueError):
            sep_twist(2, 2)
        with pytest.raises(ValueError):
            sep_twist(3, 0)

    @pytest.mark.parametrize("genus,index", [(2, 1), (3, 1), (3, 2), (4, 2), (5, 4)])
    def test_lands_in_torelli(self, genus, index):
        assert abelianize(sep_twist(genus, index)) == IntMatrix.identity(2 * genus)


class TestAbelianize:
    def test_identity(self):
        assert abelianize(identity_endo(3)) == IntMatrix.identity(6)

    def test_transvection_image(self):
        # b1 -> b1 a1, rest fixed: the homology action is the transvection along a1
        f = FreeEndomorphism(2, (a_gen(2, 1), parse_word("b1 a1", 2), a_gen(2, 2), b_gen(2, 2)))
        assert abelianize(f) == transvection(HVector.from_name("a1", 2))

    @given(st.sampled_from([1, 2]), st.sampled_from([1, 2]))
    def test_monoid_homomorphism(self, i, j):
        f, g = sep_twist(3, i), inner_automorphism(b_gen(3, j))
        assert abelianize(compose_endos(f, g)) == abelianize(f) * abelianize(g)
