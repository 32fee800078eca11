import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from checks import (check_derivation_leibniz, check_tau_additivity, check_tau_images_are_lie,
                    exact_length_word, graded_part, identity_endo, linear_combination,
                    random_tensor)
from ladder import rung, rungs
from test_tensors import random_bracket
from test_tooling import load_bench_module
from psicert import johnson
from psicert.errors import DepthError, GenusMismatchError
from psicert.homology import HVector
from psicert.jobs import parse_job, run_job
from psicert.johnson import (DepthResult, JohnsonCochain, bp_tau, cochain_from_wedge3,
                             depth_and_tau, derivation_apply, filtration_depth, tau_on_H,
                             tau_squared)
from psicert.tensors import PACK_BITS, TruncatedTensor, dynkin_is_lie, lie_bracket, magnus_expand
from psicert.words import (FreeEndomorphism, GroupWord, a_gen, apply_endo, b_gen, commutator,
                           compose_endos, generator, inner_automorphism,
                           parse_word, reduce_word, sep_twist, sep_twist_gamma)


def sep_twist_inverse(genus, index):
    gamma_inv = sep_twist_gamma(genus, index).inverse()
    images = []
    for i in range(1, 2 * genus + 1):
        g = generator(genus, i)
        j = (i + 1) // 2
        images.append(gamma_inv * g * gamma_inv.inverse() if j <= index else g)
    return FreeEndomorphism(genus, images)


class TestFiltrationDepth:
    def test_identity_reports_lower_bound(self):
        d = filtration_depth(identity_endo(2), 4)
        assert d.value == 4 and not d.exact

    def test_inner_depth_one(self):
        d = filtration_depth(inner_automorphism(a_gen(2, 1)), 3)
        assert d.value == 1 and d.exact

    @pytest.mark.parametrize("genus,index", [(2, 1), (3, 1), (3, 2), (4, 3)])
    def test_sep_twist_depth_two(self, genus, index):
        d = filtration_depth(sep_twist(genus, index), 2)
        assert d.value == 2 and d.exact

    def test_depth_zero_when_homology_nontrivial(self):
        f = FreeEndomorphism(2, (a_gen(2, 1), parse_word("b1 a1", 2), a_gen(2, 2), b_gen(2, 2)))
        d = filtration_depth(f, 3)
        assert d.value == 0 and d.exact


class TestTauOnH:
    def test_identity_zero_cochain(self):
        assert tau_on_H(identity_endo(2), 2).is_zero()

    def test_sep_twist_images(self):
        c = tau_on_H(sep_twist(2, 1), 2)
        a1 = TruncatedTensor(2, {(1,): 1})
        b1 = TruncatedTensor(2, {(2,): 1})
        expected = lie_bracket(lie_bracket(a1, b1), a1)
        assert c.images[0] == expected
        assert c.images[0].terms == {(1, 2, 1): 2, (2, 1, 1): -1, (1, 1, 2): -1}
        assert c.images[2].is_zero()  # a2 maps to zero

    def test_composition_doubles(self):
        t = sep_twist(2, 1)
        assert tau_on_H(compose_endos(t, t), 2) == linear_combination((2, tau_on_H(t, 2)))

    def test_depth_failure(self):
        with pytest.raises(DepthError):
            tau_on_H(inner_automorphism(a_gen(2, 1)), 2)

    def test_too_deep_level_gives_zero_or_error(self):
        # a twist has depth exactly 2: at level 3 it is not in the kernel
        with pytest.raises(DepthError):
            tau_on_H(sep_twist(2, 1), 3)

    def test_kernel_property(self):
        # a commutator of twists lies two levels deeper, so the level-2 and
        # level-3 cochains both vanish
        t1, t2 = sep_twist(3, 1), sep_twist(3, 2)
        f = compose_endos(compose_endos(t1, t2),
                          compose_endos(sep_twist_inverse(3, 1), sep_twist_inverse(3, 2)))
        assert filtration_depth(f, 4).value >= 4
        assert tau_on_H(f, 2).is_zero()
        assert tau_on_H(f, 3).is_zero()

    def test_additivity_suite(self):
        check_tau_additivity(50)

    def test_images_are_lie_suite(self):
        check_tau_images_are_lie()


def depth_and_tau_of(f, k, truncation):
    """depth_and_tau over f alone."""
    return depth_and_tau({f: 1}, k, truncation, lambda: f)


class TestDepthAndTau:
    @pytest.mark.parametrize("k,truncation", [(1, 2), (1, 4), (2, 3), (2, 4), (2, 6), (3, 8)])
    def test_matches_separate_routines(self, k, truncation):
        t1, t2 = sep_twist(3, 1), sep_twist(3, 2)
        commutator_of_twists = compose_endos(compose_endos(t1, t2), compose_endos(
            sep_twist_inverse(3, 1), sep_twist_inverse(3, 2)))
        for f in (t1, compose_endos(t1, t2), commutator_of_twists, identity_endo(3)):
            depth = filtration_depth(f, truncation - 1)
            if depth.value < k:
                with pytest.raises(DepthError, match="filtration depth"):
                    depth_and_tau_of(f, k, truncation)
            else:
                assert depth_and_tau_of(f, k, truncation) == (depth, tau_on_H(f, k))

    def test_depth_failure_names_depth_and_level(self):
        with pytest.raises(DepthError, match="depth 1 < k = 2"):
            depth_and_tau_of(inner_automorphism(a_gen(2, 1)), 2, 4)

    def test_truncation_floor(self):
        with pytest.raises(ValueError):
            depth_and_tau_of(sep_twist(2, 1), 2, 2)


def full_expansions(f, truncation):
    """M(f(x) x^{-1}) of every generator, all at the same truncation."""
    return [magnus_expand(img * generator(f.genus, i, -1), truncation)
            for i, img in enumerate(f.images, 1)]


def power(f, e):
    out = f
    for _ in range(e - 1):
        out = compose_endos(f, out)
    return out


def oracle_elements():
    """(name, element) pairs for the lazy-versus-full comparison."""
    t1, t2 = sep_twist(3, 1), sep_twist(3, 2)
    h = inner_automorphism(parse_word("a1 b2 a3^-1", 3))
    h_inv = inner_automorphism(parse_word("a3 b2^-1 a1^-1", 3))
    yield from ((f"sep_twist/{g}/{i}", sep_twist(g, i))
                for g in range(2, 6) for i in sorted({1, g - 1}))
    yield "compose", compose_endos(t1, t2)
    yield "compose/inverse", compose_endos(t2, sep_twist_inverse(3, 1))
    yield "power", power(sep_twist(2, 1), 3)
    yield "conjugated", compose_endos(h, compose_endos(compose_endos(t1, t2), h_inv))
    yield "identity", identity_endo(3)
    yield "inner", inner_automorphism(a_gen(2, 1))


ORACLE_PAIRS = [(1, 2), (1, 4), (2, 3), (2, 4), (2, 6), (3, 4), (3, 8)]


def assert_matches_full_expansions(f, k, truncation):
    full = full_expansions(f, truncation)
    low = min((len(w) for e in full for w in e.terms if w), default=truncation + 1)
    depth = DepthResult(min(low, truncation) - 1, exact=low <= truncation)
    if depth.value < k:
        with pytest.raises(DepthError) as lazy_error:
            depth_and_tau_of(f, k, truncation)
        assert str(lazy_error.value) == (
            f"element has filtration depth {depth} < k = {k}; the level-{k} "
            "invariant is undefined")
        return
    lazy_depth, cochain = depth_and_tau_of(f, k, truncation)
    assert lazy_depth == depth
    assert cochain.images == tuple(graded_part(e, k + 1) for e in full)


def commutator_products(genus):
    """Products of up to two commutators [u, v] and [[u, v], w] of one-letter words."""
    letter = st.builds(lambda i, s: reduce_word(genus, [(i, s)]),
                       st.integers(1, 2 * genus), st.sampled_from((1, -1)))
    simple = st.builds(commutator, letter, letter)
    nested = st.builds(commutator, simple, letter)
    return st.lists(st.one_of(simple, nested), max_size=2).map(
        lambda cs: reduce_word(genus, [x for c in cs for x in c.letters]))


class TestLazyExpansion:
    """depth_and_tau expands every generator at k+1, and again at the
    truncation only when all of them vanish through k+1; the depth, the
    cochain and the DepthError must be those of the full expansions."""

    @pytest.mark.parametrize("k,truncation", ORACLE_PAIRS)
    @pytest.mark.parametrize("f", [pytest.param(f, id=name) for name, f in oracle_elements()])
    def test_matches_full_expansions(self, f, k, truncation):
        assert_matches_full_expansions(f, k, truncation)

    @given(st.lists(commutator_products(2), min_size=4, max_size=4))
    @example([GroupWord.identity(2)] * 4)
    @settings(max_examples=60, deadline=None)
    def test_custom_endomorphisms_match_full_expansions(self, tails):
        # x_i -> x_i c_i, c_i a product of commutators; all c_i empty makes the
        # cochain vanish at every level, and depth_and_tau read the depth again
        f = FreeEndomorphism(2, tuple(generator(2, i + 1) * c for i, c in enumerate(tails)))
        for k, truncation in ORACLE_PAIRS:
            assert_matches_full_expansions(f, k, truncation)

    def test_cases_cover_each_branch(self):
        # zero cochain at k=1, and DepthError at k=2 and at k=3
        depth, cochain = depth_and_tau_of(sep_twist(3, 1), 1, 4)
        assert depth.value == 2 and depth.exact and cochain.is_zero()
        with pytest.raises(DepthError, match="depth 1 < k = 2"):
            depth_and_tau_of(inner_automorphism(a_gen(2, 1)), 2, 4)
        with pytest.raises(DepthError, match="depth 2 < k = 3"):
            depth_and_tau_of(sep_twist(3, 1), 3, 8)

    def test_expands_at_k_plus_one_only(self, monkeypatch):
        genus, k, truncation = 4, 2, 4
        calls = []
        real = johnson.magnus_expand
        monkeypatch.setattr(johnson, "magnus_expand",
                            lambda w, t: calls.append(t) or real(w, t))
        run_job(parse_job({"schema": 1, "name": "lazy", "genus": genus, "k": k,
                           "pipeline": "pi1", "element": {"op": "sep_twist", "index": 2},
                           "options": {"truncation": truncation}}))
        assert calls == [k + 1] * (2 * genus)

    def test_depth_error_expands_each_generator_once(self, monkeypatch):
        # b1 -> b1 [a1, b1] has depth 1: the three one-letter images are expanded
        # first, at k+1, with no term below degree k+1, so b1's term of degree 2
        # fixes the depth and no generator is expanded again
        calls = []
        real = johnson.magnus_expand
        monkeypatch.setattr(johnson, "magnus_expand",
                            lambda w, t: calls.append(t) or real(w, t))
        f = FreeEndomorphism(2, (a_gen(2, 1), b_gen(2, 1) * commutator(a_gen(2, 1), b_gen(2, 1)),
                                 a_gen(2, 2), b_gen(2, 2)))
        with pytest.raises(DepthError, match="depth 1 < k = 2"):
            depth_and_tau_of(f, 2, 4)
        assert calls == [3] * 4

    def test_hostile_document_never_expands_past_k_plus_one(self, monkeypatch):
        # a long inner factor: expanding its images at truncation 8 ran for minutes;
        # the first expansion, at k+1, has a term of degree d = k, so the depth is
        # read from the other generators at truncation d - 1
        genus, k, truncation = 3, 2, 8
        calls = []
        real = johnson.magnus_expand

        def guarded(w, t):
            assert t <= k + 1, f"magnus_expand called at truncation {t}"
            calls.append(t)
            return real(w, t)

        monkeypatch.setattr(johnson, "magnus_expand", guarded)
        f = compose_endos(sep_twist(genus, 1),
                          inner_automorphism(exact_length_word(random.Random(1), genus, 60)))
        with pytest.raises(DepthError, match="depth 1 < k = 2"):
            depth_and_tau_of(f, k, truncation)
        assert calls == [k + 1] + [k - 1] * (2 * genus - 1)


class TestDerivation:
    def test_zero_cochain(self):
        c = JohnsonCochain(2, 3, (TruncatedTensor(2, {}),) * 4)
        t = random_tensor(random.Random(1), 2, 2)
        assert derivation_apply(c, t).is_zero()

    def test_extension_on_degree_one(self):
        c = tau_on_H(sep_twist(2, 1), 2)
        x = TruncatedTensor(2, {(1,): 1})
        assert derivation_apply(c, x) == c.images[0]

    def test_bracket_rule(self):
        c = tau_on_H(sep_twist(2, 1), 2)
        rng = random.Random(2)
        for _ in range(20):
            x = random_tensor(rng, 2, 1, terms=2)
            y = random_tensor(rng, 2, 2, terms=2)
            lhs = derivation_apply(c, lie_bracket(x, y))
            rhs = linear_combination((1, lie_bracket(derivation_apply(c, x), y)),
                                     (1, lie_bracket(x, derivation_apply(c, y))))
            assert lhs == rhs

    def test_leibniz_suite(self):
        check_derivation_leibniz(100)

    def test_cancelling_terms_dropped(self):
        # c(a1) = [a1, a2]: D(a1 a1) = [a1, a2] a1 + a1 [a1, a2], where a1 a2 a1 cancels
        bracket = lie_bracket(TruncatedTensor(2, {(1,): 1}), TruncatedTensor(2, {(3,): 1}))
        zero = TruncatedTensor(2, {})
        c = JohnsonCochain(2, 2, (bracket, zero, zero, zero))
        t = TruncatedTensor(2, {(1, 1): 1})
        assert derivation_apply(c, t).terms == {(1, 1, 3): 1, (3, 1, 1): -1}

    def test_raises_degree_by_weight_minus_one(self):
        # no degree bound: each replacement adds weight - 1 = 2 to the degree
        c = tau_on_H(sep_twist(2, 1), 2)
        t = TruncatedTensor(2, {(1, 2): 1, (2, 1, 1, 2): 3})
        assert set(map(len, derivation_apply(c, t).terms)) == {4, 6}


class TestTauSquared:
    def test_zero(self):
        assert tau_squared(JohnsonCochain(2, 2, (TruncatedTensor(2, {}),) * 4)).is_zero()

    def test_degree_bookkeeping(self):
        c = bp_tau(2, 2)
        sq = tau_squared(c)
        assert sq.weight == 3
        for img in sq.images:
            assert img.is_homogeneous(3)

    def test_matches_group_element_lift(self):
        # independent route: lift the level-2 image to an explicit commutator
        # word and re-extract through the endomorphism action
        genus = 2
        t = sep_twist(genus, 1)
        c = tau_on_H(t, 2)
        sq = tau_squared(c)
        # tau(a1) = [[a1,b1],a1] lifts to the group commutator ([a1,b1], a1)
        lift = commutator(commutator(a_gen(genus, 1), b_gen(genus, 1)), a_gen(genus, 1))
        moved = apply_endo(t, lift) * lift.inverse()
        e = magnus_expand(moved, 5)
        for d in (1, 2, 3, 4):
            assert graded_part(e, d).is_zero()
        assert graded_part(e, 5) == sq.images[0]


class TestWedgeCochain:
    def test_vanishing_contraction(self):
        g = 2
        tri = (HVector.from_name("a1", g), HVector.from_name("b1", g), HVector.from_name("b2", g))
        c = cochain_from_wedge3(g, [(1, tri)])
        assert c.images[3].is_zero()  # evaluated on b2

    def test_alternating(self):
        g = 2
        u, v, w = (HVector.from_name(n, g) for n in ("a1", "b1", "b2"))
        c1 = cochain_from_wedge3(g, [(1, (u, v, w))])
        c2 = cochain_from_wedge3(g, [(1, (v, u, w))])
        c3 = cochain_from_wedge3(g, [(1, (v, w, u))])
        assert c2 == linear_combination((-1, c1))
        assert c3 == c1

    def test_linear_in_terms(self):
        g = 2
        u, v, w = (HVector.from_name(n, g) for n in ("a1", "b1", "b2"))
        c = cochain_from_wedge3(g, [(3, (u, v, w))])
        assert c == linear_combination((3, cochain_from_wedge3(g, [(1, (u, v, w))])))

    def test_opposite_coefficients_cancel(self):
        g = 2
        tri = tuple(HVector.from_name(n, g) for n in ("a1", "b1", "b2"))
        assert cochain_from_wedge3(g, [(1, tri), (-1, tri)]).is_zero()
        c = cochain_from_wedge3(g, [(1, tri), (2, tri), (-1, tri)])
        assert c == cochain_from_wedge3(g, [(2, tri)])


class TestBoundingPair:
    def test_index_one_is_zero(self):
        assert bp_tau(3, 1).is_zero()

    def test_index_two(self):
        g = 4
        expected = cochain_from_wedge3(g, [(1, (HVector.from_name("a1", g),
                                                HVector.from_name("b1", g),
                                                HVector.from_name("b2", g)))])
        assert bp_tau(g, 2) == expected

    def test_range_errors(self):
        with pytest.raises(ValueError):
            bp_tau(3, 0)
        with pytest.raises(ValueError):
            bp_tau(3, 4)

    def test_realized_by_an_automorphism(self):
        # an explicit boundary-preserving automorphism realizing the standard
        # bounding pair in genus 2: its level-1 cochain equals the wedge datum
        g = 2
        a1, b1, a2, b2 = (generator(g, i) for i in (1, 2, 3, 4))
        gamma = commutator(a1, b1)
        u = a2 * b2.inverse() * a2.inverse()
        v = b2.inverse() * a2.inverse() * gamma.inverse() * a2
        second = FreeEndomorphism(g, (u * a1 * u.inverse(), u * b1 * u.inverse(),
                                      a2 * v, b2))
        first = FreeEndomorphism(g, (a1, b1, a2 * b2, b2))
        h = compose_endos(first, second)
        boundary = commutator(a1, b1) * commutator(a2, b2)
        assert apply_endo(h, boundary) == boundary
        assert filtration_depth(h, 2).value == 1
        assert tau_on_H(h, 1) == bp_tau(g, 2)


def outcome(compute):
    """What compute() returns, or the type and text of the ValueError it raises
    (DepthError is one)."""
    try:
        return compute()
    except ValueError as exc:
        return type(exc), str(exc)


class TestSepTwistClosedForm:
    """sep_twist_tau reads a separating twist's cochain off its closed form;
    tau_on_H, which expands the twist's images, is the oracle, error texts
    included."""

    @pytest.mark.parametrize("genus", range(2, 13))
    def test_matches_expansion(self, genus):
        for index in range(genus + 1):  # 0 and genus are out of range
            for k in range(1, 5):
                assert (outcome(lambda: johnson.sep_twist_tau(genus, index, k))
                        == outcome(lambda: tau_on_H(sep_twist(genus, index), k)))

    # at index 35 and k >= 3 the oracle expands 70 words of up to 282 letters
    # at truncation k+1 (12 s at k = 3) to name the depth the genus-2 to 12
    # cases already name
    @pytest.mark.parametrize("index, k", [(1, 1), (1, 2), (1, 3), (1, 4), (35, 1), (35, 2)])
    def test_matches_expansion_at_genus_36(self, index, k):
        assert (outcome(lambda: johnson.sep_twist_tau(36, index, k))
                == outcome(lambda: tau_on_H(sep_twist(36, index), k)))

    def test_depth_two(self):
        assert johnson.sep_twist_tau(4, 2, 1) == JohnsonCochain(
            4, 2, (TruncatedTensor(4, {}),) * 8)
        with pytest.raises(DepthError, match=r"^element has filtration depth 2 < k = 3; "
                                             r"the level-3 invariant is undefined$"):
            johnson.sep_twist_tau(4, 2, 3)

    def test_images(self):
        # x -> [omega, X] on the first `index` handles, 0 on the rest
        c = johnson.sep_twist_tau(3, 2, 2)
        a, b = ([TruncatedTensor(3, {(s,): 1}) for s in range(start, 7, 2)] for start in (1, 2))
        omega = linear_combination((1, lie_bracket(a[0], b[0])), (1, lie_bracket(a[1], b[1])))
        assert c.images[:4] == tuple(lie_bracket(omega, x) for x in (a[0], b[0], a[1], b[1]))
        assert c.images[4:] == (TruncatedTensor(3, {}),) * 2


def random_lie_cochain(rng, genus, weight, scale=3):
    """A cochain of seeded Lie images: sums of nested brackets with signed
    coefficients up to `scale` in absolute value, about one image in six zero."""
    images = []
    for _ in range(2 * genus):
        parts = [(rng.choice((-1, 1)) * rng.randrange(1, scale + 1),
                  random_bracket(rng, genus, weight)[1]) for _ in range(rng.randrange(3))]
        images.append(linear_combination((1, TruncatedTensor(genus, {})), *parts))
    return images


def nudged(img, rng, delta, weight):
    """img with one coefficient changed by delta: of a word it holds, or of a new one."""
    terms = dict(img.terms)
    word = rng.choice(list(terms)) if terms and rng.random() < 0.8 else tuple(
        rng.randrange(1, 2 * img.genus + 1) for _ in range(weight))
    terms[word] = terms.get(word, 0) + delta
    return TruncatedTensor(img.genus, {w: c for w, c in terms.items() if c})


def lie_check_outcome(genus, weight, images):
    try:
        JohnsonCochain(genus, weight, tuple(images))
    except ValueError as exc:
        assert str(exc) == "image fails the Lie-membership check"
        return False
    return True


class TestPackedLieCheck:
    """The cochain checks its images in packs of up to PACK_BITS bits per
    coefficient; the verdict must be that of dynkin_is_lie on each image."""

    def test_agrees_with_each_image(self, monkeypatch):
        rng = random.Random(0x5041434B)
        calls = []
        real = johnson.dynkin_is_lie
        monkeypatch.setattr(johnson, "dynkin_is_lie", lambda t: calls.append(t) or real(t))
        packed = 0
        for genus in range(2, 6):
            for weight in range(2, 8):
                for _ in range(3):
                    images = random_lie_cochain(rng, genus, weight)
                    if rng.random() < 0.5:  # a word added to one image
                        x = rng.randrange(len(images))
                        images[x] = nudged(images[x], rng, rng.choice((-2, -1, 1, 2)), weight)
                    expected = all(dynkin_is_lie(img) for img in images)
                    calls.clear()
                    assert lie_check_outcome(genus, weight, images) == expected
                    nonzero = sum(1 for img in images if not img.is_zero())
                    packed += expected and len(calls) < nonzero
        assert packed > 20  # most cochains share packs

    @pytest.mark.parametrize("scale", [1, 1 << 20, 1 << 62, (1 << 64) - 1],
                             ids=["1", "2^20", "2^62", "2^64-1"])
    def test_unit_change_to_any_image_fails(self, scale):
        # signed coefficients borrow between slots; 2^64 - 1 is the largest wedge coefficient
        rng = random.Random(scale)
        for genus, weight in ((2, 2), (3, 3), (2, 5), (4, 2)):
            images = random_lie_cochain(rng, genus, weight, scale)
            assert lie_check_outcome(genus, weight, images)
            for x in range(len(images)):
                for delta in (1, -1):
                    changed = images[:x] + [nudged(images[x], rng, delta, weight)] + images[x + 1:]
                    assert not lie_check_outcome(genus, weight, changed)

    def test_wedge_coefficients_at_the_cap(self):
        # a wedge3 cochain with 64-bit coefficients of both signs, and its square
        rng = random.Random(0x57454447)
        genus = 3
        vectors = [HVector(genus, tuple(rng.choice((-1, 0, 0, 1)) for _ in range(2 * genus)))
                   for _ in range(12)]
        terms = [(rng.choice((-1, 1)) * ((1 << 64) - 1 - rng.randrange(3)), tuple(vectors[i:i + 3]))
                 for i in range(0, 12, 3)]
        c = cochain_from_wedge3(genus, terms)
        for cochain in (c, tau_squared(c)):
            images = list(cochain.images)
            for x in (x for x, img in enumerate(images) if not img.is_zero()):
                for delta in (1, -1):
                    changed = images[:x] + [nudged(images[x], rng, delta, cochain.weight)] + images[x + 1:]
                    assert not lie_check_outcome(genus, cochain.weight, changed)


def test_slot_widths_follow_the_bounds(monkeypatch):
    # no seeded input comes near either bound, so they are pinned here: the Lie
    # check's slots hold (2^(m-1) + m) max|t|_1; tau_squared packs once, with
    # one width for the derivation and the Lie check of its result
    widths = []
    real = johnson.pack
    monkeypatch.setattr(johnson, "pack", lambda ts, width: widths.append(width) or real(ts, width))
    c = cochain_from_wedge3(3, [(5, tuple(HVector.from_name(n, 3) for n in ("a1", "b1", "a2"))),
                                (-2, tuple(HVector.from_name(n, 3) for n in ("b1", "a3", "b3")))])
    l1 = max(sum(map(abs, img.terms.values())) for img in c.images)
    assert widths == [(4 * l1).bit_length() + 1]
    widths.clear()
    tau_squared(c)
    # |D_c(c(x))|_1 <= weight * |c(x)|_1 * max_s |c(s)|_1 <= 2 l1^2 bounds each
    # derived coefficient (weight * max|coefficient| * l1 is smaller), and 7 times
    # it each coefficient of D(t) - 3t on the derived image t
    assert widths == [(7 * 2 * l1 * l1).bit_length() + 1]


class TestSquaredCheckedWhereMade:
    """tau_squared Lie-checks each derived pack before unpacking it, and
    builds its result without the constructor's own (second) check."""

    def test_one_check_per_derivation_pack(self, monkeypatch):
        rng = random.Random(0x53514348)
        derived, checked = [], []
        real_apply, real_dynkin = johnson.derivation_apply, johnson.dynkin_is_lie
        monkeypatch.setattr(johnson, "derivation_apply",
                            lambda c, t: derived.append(real_apply(c, t)) or derived[-1])
        monkeypatch.setattr(johnson, "dynkin_is_lie", lambda t: checked.append(t) or real_dynkin(t))
        cochains = [bp_tau(8, 8), bp_tau(4, 3)]
        cochains += [JohnsonCochain(genus, weight, tuple(random_lie_cochain(rng, genus, weight)))
                     for genus in (2, 3, 4) for weight in (2, 3)]
        shared = 0
        for c in cochains:
            derived.clear()
            checked.clear()
            tau_squared(c)
            assert [id(t) for t in checked] == [id(t) for t in derived]
            nonzero = sum(1 for img in c.images if not img.is_zero())
            shared += len(derived) < nonzero
        assert shared >= 4  # most cochains share packs

    def test_unchecked_non_lie_images_fail_when_squared(self):
        # x1 -> x1 x1 is not Lie, and the public constructor refuses it; its
        # derivation sends x1 x1 to 2 x1 x1 x1, whose Dynkin image is 0, not 3 times it
        images = (TruncatedTensor(2, {(1, 1): 1}),) + (TruncatedTensor(2, {}),) * 3
        with pytest.raises(ValueError, match="image fails the Lie-membership check"):
            JohnsonCochain(2, 2, images)
        c = JohnsonCochain._lie_checked(2, 2, images)
        with pytest.raises(ValueError, match="image fails the Lie-membership check"):
            tau_squared(c)
        # a non-Lie image packed with Lie ones fails too
        rng = random.Random(0x4E4F4C49)
        lie = random_lie_cochain(rng, 3, 2)
        lie[0] = TruncatedTensor(3, {(1, 1): 1})
        with pytest.raises(ValueError, match="image fails the Lie-membership check"):
            tau_squared(JohnsonCochain._lie_checked(3, 2, tuple(lie)))

    def test_private_constructor_keeps_the_other_checks(self):
        zero = TruncatedTensor(2, {})
        with pytest.raises(ValueError, match="need one image per basis vector"):
            JohnsonCochain._lie_checked(2, 3, (zero,) * 3)
        with pytest.raises(ValueError, match="not homogeneous of degree 3"):
            JohnsonCochain._lie_checked(2, 3, (TruncatedTensor(2, {(1, 2): 1}),) + (zero,) * 3)
        with pytest.raises(ValueError, match="weight must be positive"):
            JohnsonCochain._lie_checked(2, 0, (zero,) * 4)
        with pytest.raises(GenusMismatchError, match="wrong genus"):
            JohnsonCochain._lie_checked(2, 3, (TruncatedTensor(3, {}),) + (zero,) * 3)


def test_packed_tau_squared_matches_each_image(monkeypatch):
    # every cochain the seed-1 odd-level jobs square, and the ladder's up to k = 5
    from psicert import contract
    workloads = load_bench_module("workloads")
    squared = []
    real = contract.tau_squared
    monkeypatch.setattr(contract, "tau_squared", lambda c: squared.append(c) or real(c))
    for case in workloads.generate("odd-level", workloads.DEFAULT_SEED):
        run_job(parse_job(case["input"]))
    assert len(squared) == 36
    squared += [run_job(parse_job(rung(genus, k)[0])).tau for genus, k in rungs(5)]
    for c in squared:
        assert real(c).images == tuple(derivation_apply(c, img) for img in c.images)
