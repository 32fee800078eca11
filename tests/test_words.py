import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checks import (abelianize, exact_length_word, format_word, identity_endo,
                    letterwise_apply_endo, letterwise_compose, random_endo, random_word,
                    transvection)
from psicert.errors import GenusMismatchError
from psicert.homology import HVector, IntMatrix
from psicert.words import (MAX_WORD_LETTERS, FreeEndomorphism, GroupWord, a_gen, apply_endo,
                           b_gen, bounded_int, commutator, compose_endos, inner_automorphism,
                           parse_word, reduce_word, sep_twist, sep_twist_gamma)


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


class TestGroupWordChecks:
    @pytest.mark.parametrize("letters, message", [
        (((1, 1), (5, 1)), "generator index 5 out of range for genus 2"),
        (((0, 1),), "generator index 0 out of range for genus 2"),
        (((1, 1), (2, 0)), "letter sign must be +-1, got 0"),
        (((3, -1), (2, 1), (2, -1)), "word is not freely reduced"),
        # the first fault in letter order is the one named
        (((1, 1), (1, -1), (9, 1)), "word is not freely reduced"),
        (((9, 1), (1, 1), (1, -1)), "generator index 9 out of range for genus 2"),
        (((1, 2), (7, 1)), "letter sign must be +-1, got 2"),
    ])
    def test_direct_construction_names_the_fault(self, letters, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GroupWord(2, letters)

    def test_reduced_words_accepted(self):
        for letters in ((), ((4, -1),), ((1, 1), (1, 1), (2, -1), (1, -1), (4, 1))):
            assert GroupWord(2, letters).letters == letters

    def test_genus_positive(self):
        with pytest.raises(ValueError, match="genus must be positive"):
            GroupWord(0, ())


class TestSeamReduction:
    """Products and images cancel only at block seams; `tests/checks.py` holds
    the letter-by-letter route they replaced, as the oracle."""

    @pytest.mark.parametrize("genus", [2, 3, 4, 5])
    def test_apply_endo_matches_letterwise(self, genus):
        rng = random.Random(0x5EA3 * genus)
        prefix = random_word(rng, genus, 10)
        endos = [sep_twist(genus, rng.randrange(1, genus)),
                 inner_automorphism(random_word(rng, genus, 12)),
                 # images sharing a prefix, so x_i^-1 x_j cancels it and more
                 FreeEndomorphism(genus, tuple(prefix * random_word(rng, genus, 3)
                                               for _ in range(2 * genus)))]
        endos += [random_endo(rng, genus, 8) for _ in range(6)]
        for f in endos:
            for _ in range(25):
                w = random_word(rng, genus, 15)
                assert apply_endo(f, w) == letterwise_apply_endo(f, w)

    @pytest.mark.parametrize("genus", [2, 3, 4, 5])
    def test_full_cancellation(self, genus):
        rng = random.Random(0xC0DE + genus)
        for _ in range(10):
            w = random_word(rng, genus, 20)
            f, g = inner_automorphism(w), inner_automorphism(w.inverse())
            assert compose_endos(f, g) == identity_endo(genus)
            assert letterwise_compose(f, g) == identity_endo(genus)
            u = random_word(rng, genus, 20)
            assert apply_endo(f, apply_endo(g, u)) == u

    @pytest.mark.parametrize("genus, length", [(2, 20), (3, 40), (4, 30), (5, 40), (6, 25)])
    def test_deep_seams_of_inner_powers(self, genus, length):
        """f^e for f: x -> w x w^-1 is f^(e-1) after f, so each letter of w
        maps to w^(e-1) l w^-(e-1), and the seams between them cancel up to
        (e-1)|w| letters."""
        rng = random.Random(0xDEE9 * genus + length)
        w = exact_length_word(rng, genus, length)
        f = inner_automorphism(w)
        power = f
        for e in range(2, 7):
            previous, power = power, compose_endos(power, f)
            assert power == letterwise_compose(previous, f)
            w_e = reduce_word(genus, w.letters * e)
            for i, image in enumerate(power.images, 1):
                raw = w_e.letters + ((i, 1),) + w_e.inverse().letters
                assert image == reduce_word(genus, raw)
            for _ in range(10):
                u = random_word(rng, genus, 15)
                assert apply_endo(power, u) == letterwise_apply_endo(power, u)
                assert apply_endo(power, w_e * u) == letterwise_apply_endo(power, w_e * u)

    @pytest.mark.parametrize("genus", [2, 3, 4, 5])
    def test_mul_matches_letterwise(self, genus):
        rng = random.Random(0x4D55 + genus)
        for _ in range(200):
            u, v = random_word(rng, genus, 20), random_word(rng, genus, 20)
            if rng.random() < 0.5:
                # v starts with part of u's inverse, so the seam cancels deeply
                head = u.inverse().letters[:rng.randrange(len(u) + 1)]
                v = reduce_word(genus, head + v.letters)
            assert u * v == reduce_word(genus, u.letters + v.letters)


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

    @pytest.mark.parametrize("text", ["a\u0661", "b1^\u0662", "a1^\u00b2"])
    def test_digits_are_ascii(self, text):
        with pytest.raises(ValueError, match="^bad word token"):
            parse_word(text, 2)

    def test_leading_zeros_read(self):
        assert parse_word("a01^-0003 b2^000001", 2) == parse_word("a1^-3 b2", 2)

    @pytest.mark.parametrize("text, message", [
        ("a1^" + "9" * 5000, f"word longer than {MAX_WORD_LETTERS} letters"),
        ("b2^-1" + "0" * 5000, f"word longer than {MAX_WORD_LETTERS} letters"),
        ("a1^100000", f"word longer than {MAX_WORD_LETTERS} letters"),
        ("a1^99999", f"word longer than {MAX_WORD_LETTERS} letters"),
        ("b" + "1" * 5000, "out of range for genus 2"),
    ], ids=["exponent-5000-digits", "negative-exponent-5001-digits", "exponent-6-digits",
            "exponent-5-digits", "index-5000-digits"])
    def test_long_numbers_refused_before_int(self, text, message):
        # int() of more than 4300 digits would raise its own error
        with pytest.raises(ValueError, match=re.escape(message)) as info:
            parse_word(text, 2)
        assert "set_int_max_str_digits" not in str(info.value)

    @pytest.mark.parametrize("text, message", [
        ("c1", "bad word token 'c1'"),
        ("c" * 32, f"bad word token {'c' * 32!r}"),
        ("c" * 65536, f"bad word token {'c' * 32 + chr(0x2026)!r}"),
        ("b" + "1" * 5000, f"generator b{'1' * 31}{chr(0x2026)} out of range for genus 2"),
        ("a1^" + "0" * 5000, f"zero exponent in {'a1^' + '0' * 29 + chr(0x2026)!r}"),
    ], ids=["short", "32-letters", "65536-letters", "index-5000-digits", "exponent-5000-zeros"])
    def test_messages_clip_long_tokens(self, text, message):
        # a token longer than 32 characters is echoed as its first 32 and an ellipsis
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_word(text, 2)

    @pytest.mark.parametrize("digits, top, value", [
        ("7", 9, 7), ("0009", 9, 9), ("10", 9, 10), ("100", 9, 10), ("-00065536", 65536, -65536),
        ("-100000", 65536, 65537), ("9" * 5000, 36, 37), ("0" * 5000 + "12", 36, 12),
    ], ids=["7", "0009", "10", "100", "-00065536", "-100000", "5000-nines", "5000-zeros-12"])
    def test_bounded_int(self, digits, top, value):
        # a number with more significant digits than top reads as top + 1, unread
        assert bounded_int(digits, top) == value


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
