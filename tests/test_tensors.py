import dataclasses
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checks import (check_magnus_multiplicativity, graded_part, left_normed_dynkin,
                    linear_combination, random_tensor, random_word, tensor_fault, tensor_mul)
from psicert.errors import GenusMismatchError
from psicert.tensors import (TruncatedTensor, dynkin_is_lie, lie_bracket, magnus_expand, pack,
                             slot_width, unpack)
from psicert.words import a_gen, b_gen, commutator


def sym(genus, idx):
    return TruncatedTensor(genus, {(idx,): 1})


class TestValidation:
    # the ids keep the form they had when each case also named a truncation
    @pytest.mark.parametrize("terms, message", [
        pytest.param({(1, 2): 0}, "stored zero coefficient", id="2-terms0-stored zero coefficient"),
        pytest.param({(0, 1): 1}, "symbol index out of range",
                     id="2-terms2-symbol index out of range"),
        pytest.param({(1, 5): 1}, "symbol index out of range",
                     id="2-terms3-symbol index out of range"),
        pytest.param({(-1,): 1}, "symbol index out of range",
                     id="2-terms4-symbol index out of range"),
        # the first fault in term order is the one named, and within a term
        # the zero, then the symbols
        pytest.param({(1,): 1, (5,): 0, (1, 1, 1): 1}, "stored zero coefficient",
                     id="2-terms5-stored zero coefficient"),
        pytest.param({(0,): 1, (1, 1, 1): 0}, "symbol index out of range",
                     id="2-terms7-symbol index out of range"),
        pytest.param({(5, 5): 2, (0,): 0}, "symbol index out of range",
                     id="symbol before zero"),
        pytest.param({}, None, id="0-terms10-None"),
        pytest.param({(): -1}, None, id="0-terms11-None"),
        pytest.param({(): 2, (4,): -3, (1, 4, 1): 1}, None, id="3-terms12-None"),
        pytest.param({(1,) * 30: 1, (): 1}, None, id="any word length"),
    ])
    def test_construction_names_the_fault(self, terms, message):
        assert tensor_fault(2, terms) == message
        if message is None:
            assert TruncatedTensor(2, terms).terms == terms
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                TruncatedTensor(2, terms)

    def test_genus(self):
        with pytest.raises(ValueError, match="^genus must be positive$"):
            TruncatedTensor(0, {(1,): 0})

    def test_fields_are_genus_and_terms(self):
        assert [f.name for f in dataclasses.fields(TruncatedTensor)] == ["genus", "terms"]

    def test_seeded_faults_match_term_loop(self):
        # valid words with zeros and bad symbols mixed in at random
        rng = random.Random(0x56414C49)
        faulty = 0
        for _ in range(400):
            genus, terms = rng.randrange(1, 4), {}
            for _ in range(rng.randrange(0, 6)):
                length = rng.randrange(0, 5)
                low, high = 1 - (rng.random() < 0.1), 2 * genus + (rng.random() < 0.1)
                word = tuple(rng.choice((low, high, rng.randrange(1, 2 * genus + 1)))
                             for _ in range(length))
                terms[word] = 0 if rng.random() < 0.1 else rng.choice((-2, -1, 1, 3))
            message = tensor_fault(genus, terms)
            if message is None:
                assert TruncatedTensor(genus, terms).terms == terms
            else:
                faulty += 1
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    TruncatedTensor(genus, terms)
        assert 100 < faulty < 300


class TestAdd:
    def test_cancelling_terms_dropped(self):
        t = linear_combination((1, sym(2, 1)), (1, sym(2, 4)))
        assert linear_combination((1, t), (-1, sym(2, 1))).terms == {(4,): 1}
        assert linear_combination((1, t), (-1, t)).is_zero()


class TestTensorMul:
    def test_unit(self):
        t = TruncatedTensor(2, {(1,): 1, (4,): 2})
        assert tensor_mul(TruncatedTensor(2, {(): 1}), t, 3) == t

    def test_concatenation(self):
        assert tensor_mul(sym(1, 1), sym(1, 2), 2).terms == {(1, 2): 1}

    def test_truncated_geometric_inverse(self):
        one_plus = TruncatedTensor(1, {(): 1, (1,): 1})
        series = TruncatedTensor(1, {(): 1, (1,): -1, (1, 1): 1})
        assert tensor_mul(one_plus, series, 2) == TruncatedTensor(1, {(): 1})

    def test_keeps_degrees_up_to_the_truncation(self):
        s = TruncatedTensor(1, {(1, 1): 1, (): 1})
        t = TruncatedTensor(1, {(2,): 1})
        assert tensor_mul(s, t, 3).terms == {(1, 1, 2): 1, (2,): 1}
        assert tensor_mul(s, t, 2).terms == {(2,): 1}

    def test_genus_mismatch(self):
        with pytest.raises(GenusMismatchError):
            tensor_mul(sym(1, 1), sym(2, 1), 2)

    def test_associative_random(self):
        rng = random.Random(3)
        for _ in range(40):
            a = random_tensor(rng, 2, rng.randrange(0, 3), terms=3)
            b = random_tensor(rng, 2, rng.randrange(0, 3), terms=3)
            c = random_tensor(rng, 2, rng.randrange(0, 3), terms=3)
            assert tensor_mul(tensor_mul(a, b, 4), c, 4) == tensor_mul(a, tensor_mul(b, c, 4), 4)


class TestLieBracket:
    def test_self_bracket(self):
        assert lie_bracket(sym(1, 1), sym(1, 1)).is_zero()

    def test_basic(self):
        b = lie_bracket(sym(1, 1), sym(1, 2))
        assert b.terms == {(1, 2): 1, (2, 1): -1}

    def test_exact(self):
        # every degree of the product is kept
        s = TruncatedTensor(1, {(1,): 1, (1, 2): 2})
        t = TruncatedTensor(1, {(2,): 1})
        assert lie_bracket(s, t).terms == {(1, 2): 1, (2, 1): -1, (1, 2, 2): 2, (2, 1, 2): -2}

    def test_double_bracket(self):
        a1, b1 = sym(1, 1), sym(1, 2)
        t = lie_bracket(lie_bracket(a1, b1), a1)
        assert t.terms == {(1, 2, 1): 2, (2, 1, 1): -1, (1, 1, 2): -1}

    def test_antisymmetry_and_jacobi_random(self):
        rng = random.Random(11)
        for _ in range(30):
            x = random_tensor(rng, 2, 1, terms=2)
            y = random_tensor(rng, 2, 1, terms=2)
            z = random_tensor(rng, 2, 1, terms=2)
            assert linear_combination((1, lie_bracket(x, y)), (1, lie_bracket(y, x))).is_zero()
            jac = linear_combination((1, lie_bracket(x, lie_bracket(y, z))),
                                     (1, lie_bracket(y, lie_bracket(z, x))),
                                     (1, lie_bracket(z, lie_bracket(x, y))))
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
        t = TruncatedTensor(1, {(): 1, (1,): 1})
        assert graded_part(t, 0).terms == {(): 1}

    def test_commutator_degree_two(self):
        w = commutator(a_gen(1, 1), b_gen(1, 1))
        part = graded_part(magnus_expand(w, 3), 2)
        assert part == lie_bracket(sym(1, 1), sym(1, 2))

    def test_absent_degree_is_zero(self):
        t = TruncatedTensor(1, {(1,): 2})
        assert graded_part(t, 3).is_zero()


class TestDynkin:
    def test_bracket_is_lie(self):
        t = lie_bracket(sym(1, 1), sym(1, 2))
        assert dynkin_is_lie(t)
        assert left_normed_dynkin(t) == linear_combination((2, t))

    def test_square_word_is_not(self):
        assert not dynkin_is_lie(TruncatedTensor(1, {(1, 1): 1}))

    def test_magnus_of_nested_commutator(self):
        w = commutator(commutator(a_gen(2, 1), b_gen(2, 1)), a_gen(2, 2))
        part = graded_part(magnus_expand(w, 3), 3)
        assert not part.is_zero()
        assert dynkin_is_lie(part)

    def test_nonhomogeneous_rejected(self):
        with pytest.raises(ValueError):
            dynkin_is_lie(TruncatedTensor(1, {(1,): 1, (1, 2): 1}))

    def test_zero_passes(self):
        assert dynkin_is_lie(TruncatedTensor(1, {}))

    def test_empty_word_rejected(self):
        for terms in ({(): 1, (1, 2): 1}, {(): 3}):
            with pytest.raises(ValueError):
                dynkin_is_lie(TruncatedTensor(1, terms))

    def test_matches_left_normed_expansion(self):
        # D(t) = m*t by the word-at-a-time oracle, on brackets, brackets plus
        # one word, sums of brackets and random sums; genus 1 repeats letters
        rng = random.Random(0x44594E4B)
        for genus in range(1, 6):
            for degree in range(1, 8):
                for _ in range(4):
                    bracket = random_bracket(rng, genus, degree)[1]
                    word = tuple(rng.randrange(1, 2 * genus + 1) for _ in range(degree))
                    plus = linear_combination((1, bracket),
                                              (1, TruncatedTensor(genus, {word: 1})))
                    lie_sum = linear_combination((rng.randrange(-3, 4), bracket),
                                                 (1, random_bracket(rng, genus, degree)[1]))
                    words = random_tensor(rng, genus, degree, terms=5)
                    for t in (bracket, plus, lie_sum, words):
                        dynkin = left_normed_dynkin(t)
                        assert dynkin_is_lie(t) == (dynkin == linear_combination((degree, t)))
                    lower = random_tensor(rng, genus, rng.randrange(degree + 1), terms=3)
                    mixed = linear_combination((1, words), (1, lower))
                    if not mixed.is_homogeneous(mixed.max_degree()):
                        with pytest.raises(ValueError):
                            dynkin_is_lie(mixed)

    def test_builds_no_tensor(self, monkeypatch):
        # D(t) goes into a residual dict, never into a validated tensor
        rng = random.Random(0x52455349)
        inputs = [random_bracket(rng, 3, 6)[1] for _ in range(5)]
        inputs += [linear_combination((1, t), (1, TruncatedTensor(3, {(1, 2, 3, 4, 5, 6): 1})))
                   for t in inputs]
        built = []
        real = TruncatedTensor.__post_init__
        monkeypatch.setattr(TruncatedTensor, "__post_init__", lambda t: built.append(t) or real(t))
        verdicts = [dynkin_is_lie(t) for t in inputs]
        assert verdicts == [True] * 5 + [False] * 5
        assert built == []

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
            plus = linear_combination((1, bracket), (1, TruncatedTensor(genus, {word: 1})))
            assert not dynkin_is_lie(plus)


class TestPacking:
    def test_round_trip(self):
        # signed coefficients up to the bound, zeros in any slot, the top slot included
        rng = random.Random(0x534C4F54)
        for _ in range(300):
            genus, degree = rng.randrange(1, 4), rng.randrange(1, 4)
            bound = rng.choice((1, 2, 7, 1 << 20, (1 << 64) - 1))
            tensors = [random_tensor(rng, genus, degree, terms=rng.randrange(4), coeff_bound=bound)
                       for _ in range(rng.randrange(1, 9))]
            # random_tensor may sum a word twice, so the bound is read off the tensors
            width = slot_width(max((abs(c) for t in tensors for c in t.terms.values()), default=0))
            packed = pack(tensors, width)
            assert 0 not in packed.terms.values()
            assert unpack(packed, len(tensors), width) == tensors

    @pytest.mark.parametrize("bound, width", [(0, 1), (1, 2), (2, 3), (3, 3), (4, 4),
                                              ((1 << 64) - 1, 65)])
    def test_slot_width(self, bound, width):
        # every value of absolute value at most `bound` is a balanced digit
        assert slot_width(bound) == width
        assert -(1 << (width - 1)) <= -bound and bound < 1 << (width - 1)

    def test_extremes_of_a_slot(self):
        # -2^(b-1) and 2^(b-1) - 1 in neighbouring slots borrow and carry across them
        width = 5
        low, high = -(1 << (width - 1)), (1 << (width - 1)) - 1
        for values in ((low, high, low), (high, low, high), (low, low, 1), (0, low, 0)):
            tensors = [TruncatedTensor(1, {(1,): v} if v else {}) for v in values]
            assert unpack(pack(tensors, width), 3, width) == tensors

    def test_dynkin_on_a_pack_is_each_tensors(self):
        # with slots for (2^(m-1) + m) |t|_1, a pack passes iff each tensor does
        rng = random.Random(0x50444B4E)
        for _ in range(120):
            genus, degree = rng.randrange(1, 5), rng.randrange(2, 7)
            tensors = []
            for _ in range(rng.randrange(1, 6)):
                t = linear_combination((rng.randrange(-3, 4), random_bracket(rng, genus, degree)[1]),
                                       (rng.randrange(-3, 4), random_bracket(rng, genus, degree)[1]))
                if rng.random() < 0.3:
                    word = tuple(rng.randrange(1, 2 * genus + 1) for _ in range(degree))
                    t = linear_combination((1, t), (rng.choice((-1, 1)),
                                                    TruncatedTensor(genus, {word: 1})))
                tensors.append(t)
            tensors = [t for t in tensors if not t.is_zero()]
            if not tensors:
                continue
            l1 = max(sum(map(abs, t.terms.values())) for t in tensors)
            packed = pack(tensors, slot_width((2 ** (degree - 1) + degree) * l1))
            assert dynkin_is_lie(packed) == all(map(dynkin_is_lie, tensors))

    def test_letters_up_to_the_byte(self):
        # the Lie check codes each letter in one byte: symbols up to 2g = 254
        for genus in (36, 127):
            n = 2 * genus
            t = lie_bracket(lie_bracket(sym(genus, n), sym(genus, n - 1)), sym(genus, 1))
            assert dynkin_is_lie(t)
            assert not dynkin_is_lie(linear_combination((1, t), (1, TruncatedTensor(genus, {(n, n, 1): 1}))))
        with pytest.raises(ValueError, match="genus must be at most 127"):
            dynkin_is_lie(TruncatedTensor(128, {(1, 2): 1}))


def random_bracket(rng, genus, weight):
    """A random nested commutator and its bracket shadow, as (word, tensor)."""
    if weight == 1:
        i = rng.randrange(1, 2 * genus + 1)
        from psicert.words import generator
        return generator(genus, i), sym(genus, i)
    left_w = rng.randrange(1, weight)
    lw, lt = random_bracket(rng, genus, left_w)
    rw, rt = random_bracket(rng, genus, weight - left_w)
    return commutator(lw, rw), lie_bracket(lt, rt)


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
            e = magnus_expand(word, weight)
            assert min(len(w) for w in e.terms if w) == weight
            lead = graded_part(e, weight)
            assert lead == graded_part(bracket, weight)
            assert dynkin_is_lie(lead)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25)
    def test_magnus_of_inverse_word(self, seed):
        rng = random.Random(seed)
        w = random_word(rng, 2, 6)
        t = tensor_mul(magnus_expand(w, 4), magnus_expand(w.inverse(), 4), 4)
        assert t == TruncatedTensor(2, {(): 1})


class TestSerialization:
    def test_canonical_order(self):
        t = TruncatedTensor(1, {(2, 1): -3, (1,): 2})
        assert t.to_json_obj() == [
            {"word": ["a1"], "coeff": "2"},
            {"word": ["b1", "a1"], "coeff": "-3"},
        ]
