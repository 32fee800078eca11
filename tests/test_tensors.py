import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checks import check_magnus_multiplicativity, left_normed_dynkin, random_tensor, random_word
from psicert.errors import GenusMismatchError, TruncationError
from psicert.tensors import (TruncatedTensor, dynkin_image, dynkin_is_lie, graded_part,
                             lie_bracket, magnus_expand, tensor_mul)
from psicert.words import a_gen, b_gen, commutator


def sym(genus, idx, trunc):
    return TruncatedTensor.symbol(genus, idx, trunc)


class TestAdd:
    def test_cancelling_terms_dropped(self):
        t = sym(2, 1, 3) + sym(2, 4, 3)
        assert (t + sym(2, 1, 3).scale(-1)).terms == {(4,): 1}
        assert (t - t).is_zero()

    def test_truncation_is_min(self):
        s = TruncatedTensor(1, 4, {(1, 1, 1): 1, (2,): 1})
        t = TruncatedTensor(1, 2, {(2,): -1, (1, 2): 3})
        assert s + t == TruncatedTensor(1, 2, {(1, 2): 3})


class TestTensorMul:
    def test_unit(self):
        t = sym(2, 1, 3) + sym(2, 4, 3).scale(2)
        assert tensor_mul(TruncatedTensor.unit(2, 3), t) == t

    def test_concatenation(self):
        assert tensor_mul(sym(1, 1, 2), sym(1, 2, 2)).terms == {(1, 2): 1}

    def test_truncated_geometric_inverse(self):
        one_plus = TruncatedTensor(1, 2, {(): 1, (1,): 1})
        series = TruncatedTensor(1, 2, {(): 1, (1,): -1, (1, 1): 1})
        assert tensor_mul(one_plus, series) == TruncatedTensor.unit(1, 2)

    def test_truncation_is_min(self):
        s = TruncatedTensor(1, 4, {(1, 1): 1})
        t = TruncatedTensor(1, 3, {(2,): 1})
        assert tensor_mul(s, t).truncation == 3

    def test_genus_mismatch(self):
        with pytest.raises(GenusMismatchError):
            tensor_mul(sym(1, 1, 2), sym(2, 1, 2))

    def test_associative_random(self):
        rng = random.Random(3)
        for _ in range(40):
            a = random_tensor(rng, 2, rng.randrange(0, 3), 4, terms=3)
            b = random_tensor(rng, 2, rng.randrange(0, 3), 4, terms=3)
            c = random_tensor(rng, 2, rng.randrange(0, 3), 4, terms=3)
            assert tensor_mul(tensor_mul(a, b), c) == tensor_mul(a, tensor_mul(b, c))


class TestLieBracket:
    def test_self_bracket(self):
        assert lie_bracket(sym(1, 1, 2), sym(1, 1, 2)).is_zero()

    def test_basic(self):
        b = lie_bracket(sym(1, 1, 2), sym(1, 2, 2))
        assert b.terms == {(1, 2): 1, (2, 1): -1}

    def test_double_bracket(self):
        a1, b1 = sym(1, 1, 3), sym(1, 2, 3)
        t = lie_bracket(lie_bracket(a1, b1), a1)
        assert t.terms == {(1, 2, 1): 2, (2, 1, 1): -1, (1, 1, 2): -1}

    def test_antisymmetry_and_jacobi_random(self):
        rng = random.Random(11)
        for _ in range(30):
            x = random_tensor(rng, 2, 1, 3, terms=2)
            y = random_tensor(rng, 2, 1, 3, terms=2)
            z = random_tensor(rng, 2, 1, 3, terms=2)
            assert lie_bracket(x, y) == lie_bracket(y, x).scale(-1)
            jac = (lie_bracket(x, lie_bracket(y, z)) + lie_bracket(y, lie_bracket(z, x))
                   + lie_bracket(z, lie_bracket(x, y)))
            assert jac.is_zero()


class TestMagnus:
    def test_generator(self):
        assert magnus_expand(a_gen(1, 1), 2).terms == {(): 1, (1,): 1}

    def test_inverse_series(self):
        assert magnus_expand(a_gen(1, 1).inverse(), 2).terms == {(): 1, (1,): -1, (1, 1): 1}

    def test_commutator_leading_term(self):
        w = commutator(a_gen(1, 1), b_gen(1, 1))
        e = magnus_expand(w, 2)
        assert e.terms == {(): 1, (1, 2): 1, (2, 1): -1}

    def test_truncation_validation(self):
        with pytest.raises(ValueError):
            magnus_expand(a_gen(1, 1), 0)

    def test_multiplicativity_suite(self):
        check_magnus_multiplicativity(200)


class TestGradedPart:
    def test_degree_zero(self):
        t = TruncatedTensor(1, 2, {(): 1, (1,): 1})
        assert graded_part(t, 0).terms == {(): 1}

    def test_commutator_degree_two(self):
        w = commutator(a_gen(1, 1), b_gen(1, 1))
        part = graded_part(magnus_expand(w, 3), 2)
        assert part == lie_bracket(sym(1, 1, 2), sym(1, 2, 2))

    def test_absent_degree_is_zero(self):
        t = TruncatedTensor(1, 3, {(1,): 2})
        assert graded_part(t, 3).is_zero()

    def test_beyond_truncation_errors(self):
        t = TruncatedTensor(1, 2, {(1,): 1})
        with pytest.raises(TruncationError):
            graded_part(t, 3)


class TestDynkin:
    def test_bracket_is_lie(self):
        t = lie_bracket(sym(1, 1, 2), sym(1, 2, 2))
        assert dynkin_is_lie(t)
        assert dynkin_image(t) == t.scale(2)

    def test_square_word_is_not(self):
        assert not dynkin_is_lie(TruncatedTensor(1, 2, {(1, 1): 1}))

    def test_magnus_of_nested_commutator(self):
        w = commutator(commutator(a_gen(2, 1), b_gen(2, 1)), a_gen(2, 2))
        part = graded_part(magnus_expand(w, 3), 3)
        assert not part.is_zero()
        assert dynkin_is_lie(part)

    def test_nonhomogeneous_rejected(self):
        with pytest.raises(ValueError):
            dynkin_is_lie(TruncatedTensor(1, 2, {(1,): 1, (1, 2): 1}))

    def test_zero_passes(self):
        assert dynkin_is_lie(TruncatedTensor.zero(1, 3))

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            dynkin_image(TruncatedTensor(1, 2, {(): 1, (1, 2): 1}))

    def test_matches_left_normed_expansion(self):
        # random sums of words of one degree and of mixed degrees; genus 1 repeats letters
        rng = random.Random(0x44594E4B)
        for genus in (1, 2, 3):
            for degree in range(1, 7):
                for _ in range(6):
                    t = random_tensor(rng, genus, degree, 6, terms=5)
                    mixed = t + random_tensor(rng, genus, rng.randrange(1, 7), 6, terms=3)
                    for x in (t, mixed):
                        assert dynkin_image(x) == left_normed_dynkin(x)

    def test_accepts_brackets_rejects_perturbation(self):
        # a single word of degree >= 2 has coefficient sum 1, a Lie element 0,
        # so adding one word to a Lie element never leaves a Lie element
        rng = random.Random(0x50455254)
        found = 0
        while found < 40:
            weight, genus = rng.randrange(2, 7), rng.randrange(1, 4)
            bracket = random_bracket(rng, genus, weight)[1]
            if bracket.is_zero():
                continue
            found += 1
            assert dynkin_is_lie(bracket)
            word = tuple(rng.randrange(1, 2 * genus + 1) for _ in range(weight))
            assert not dynkin_is_lie(bracket + TruncatedTensor(genus, weight, {word: 1}))


def random_bracket(rng, genus, weight):
    """A random nested commutator and its bracket shadow, as (word, tensor)."""
    if weight == 1:
        i = rng.randrange(1, 2 * genus + 1)
        from psicert.words import generator
        return generator(genus, i), TruncatedTensor.symbol(genus, i, weight)
    left_w = rng.randrange(1, weight)
    lw, lt = random_bracket(rng, genus, left_w)
    rw, rt = random_bracket(rng, genus, weight - left_w)
    return commutator(lw, rw), lie_bracket(lt.with_truncation(weight), rt.with_truncation(weight))


class TestLowerCentralIdentification:
    def test_nested_commutators_weight_up_to_five(self):
        rng = random.Random(0xC0FFEE)
        found = 0
        while found < 40:
            weight = rng.randrange(2, 6)
            genus = rng.randrange(1, 4)
            word, bracket = random_bracket(rng, genus, weight)
            if bracket.is_zero():
                continue  # degenerate tree (e.g. [x, x]); not a weight-m class
            found += 1
            e = magnus_expand(word, weight) - TruncatedTensor.unit(genus, weight)
            assert e.min_degree() == weight
            lead = graded_part(e, weight)
            assert lead == graded_part(bracket, weight)
            assert dynkin_is_lie(lead)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25)
    def test_magnus_of_inverse_word(self, seed):
        rng = random.Random(seed)
        w = random_word(rng, 2, 6)
        t = tensor_mul(magnus_expand(w, 4), magnus_expand(w.inverse(), 4))
        assert t == TruncatedTensor.unit(2, 4)


class TestSerialization:
    def test_canonical_order(self):
        t = TruncatedTensor(1, 2, {(2, 1): -3, (1,): 2})
        assert t.to_json_obj() == [
            {"word": ["a1"], "coeff": "2"},
            {"word": ["b1", "a1"], "coeff": "-3"},
        ]
