import random

import pytest

from checks import (check_derivation_leibniz, check_tau_additivity, check_tau_images_are_lie,
                    identity_endo, random_tensor)
from psicert import johnson
from psicert.errors import DepthError, TruncationError
from psicert.homology import HVector
from psicert.jobs import parse_job, run_job
from psicert.johnson import (JohnsonCochain, _depth, bp_tau, cochain_from_wedge3, depth_and_tau,
                             derivation_apply, filtration_depth, tau_on_H, tau_squared)
from psicert.tensors import TruncatedTensor, graded_part, lie_bracket, magnus_expand
from psicert.words import (FreeEndomorphism, a_gen, apply_endo, b_gen, commutator,
                           compose_endos, generator, inner_automorphism,
                           parse_word, sep_twist, sep_twist_gamma)


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
        a1 = TruncatedTensor.symbol(2, 1, 3)
        b1 = TruncatedTensor.symbol(2, 2, 3)
        expected = lie_bracket(lie_bracket(a1, b1), a1)
        assert c.images[0] == expected
        assert c.images[0].terms == {(1, 2, 1): 2, (2, 1, 1): -1, (1, 1, 2): -1}
        assert c.images[2].is_zero()  # a2 maps to zero

    def test_composition_doubles(self):
        t = sep_twist(2, 1)
        assert tau_on_H(compose_endos(t, t), 2) == tau_on_H(t, 2).scale(2)

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
                    depth_and_tau(f, k, truncation)
            else:
                assert depth_and_tau(f, k, truncation) == (depth, tau_on_H(f, k))

    def test_depth_failure_names_depth_and_level(self):
        with pytest.raises(DepthError, match="depth 1 < k = 2"):
            depth_and_tau(inner_automorphism(a_gen(2, 1)), 2, 4)

    def test_truncation_floor(self):
        with pytest.raises(ValueError):
            depth_and_tau(sep_twist(2, 1), 2, 2)


def full_expansions(f, truncation):
    """M(f(x) x^{-1}) - 1 of every generator, all at the same truncation."""
    out = []
    for i, img in enumerate(f.images, 1):
        e = magnus_expand(img * generator(f.genus, i, -1), truncation)
        out.append(e - TruncatedTensor.unit(f.genus, truncation))
    return out


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


class TestLazyExpansion:
    """depth_and_tau expands most generators only to degree k+1; the depth,
    the cochain and the DepthError must be those of the full expansions."""

    @pytest.mark.parametrize("k,truncation", [(1, 2), (1, 4), (2, 3), (2, 4), (2, 6), (3, 4), (3, 8)])
    @pytest.mark.parametrize("f", [pytest.param(f, id=name) for name, f in oracle_elements()])
    def test_matches_full_expansions(self, f, k, truncation):
        full = full_expansions(f, truncation)
        depth = _depth(full, truncation - 1)
        if depth.value < k:
            with pytest.raises(DepthError) as lazy_error:
                depth_and_tau(f, k, truncation)
            assert str(lazy_error.value) == (
                f"element has filtration depth {depth} < k = {k}; the level-{k} "
                "invariant is undefined")
            return
        lazy_depth, cochain = depth_and_tau(f, k, truncation)
        assert lazy_depth == depth
        assert cochain.images == tuple(graded_part(e, k + 1) for e in full)

    def test_cases_cover_each_branch(self):
        # zero cochain at k=1, and DepthError at k=2 and at k=3
        depth, cochain = depth_and_tau(sep_twist(3, 1), 1, 4)
        assert depth.value == 2 and depth.exact and cochain.is_zero()
        with pytest.raises(DepthError, match="depth 1 < k = 2"):
            depth_and_tau(inner_automorphism(a_gen(2, 1)), 2, 4)
        with pytest.raises(DepthError, match="depth 2 < k = 3"):
            depth_and_tau(sep_twist(3, 1), 3, 8)

    def test_truncation_drops_after_first_low_part(self, monkeypatch):
        genus, k, truncation = 4, 2, 4
        f = sep_twist(genus, 2)
        calls = []
        real = johnson.magnus_expand
        monkeypatch.setattr(johnson, "magnus_expand",
                            lambda w, t: calls.append((w, t)) or real(w, t))
        run_job(parse_job({"schema": 1, "name": "lazy", "genus": genus, "k": k,
                           "pipeline": "pi1", "element": {"op": "sep_twist", "index": 2},
                           "options": {"truncation": truncation}}))
        order = sorted(range(2 * genus), key=lambda i: len(f.images[i].letters))
        assert [w for w, _ in calls] == [f.images[i] * generator(genus, i + 1, -1) for i in order]
        lows = [e.min_degree() for e in (real(w, t) - TruncatedTensor.unit(genus, t)
                                         for w, t in calls)]
        first = next(n for n, d in enumerate(lows) if d is not None and d <= k + 1)
        assert 0 < first < len(calls) - 1
        assert [t for _, t in calls[:first + 1]] == [truncation] * (first + 1)
        assert [t for _, t in calls[first + 1:]] == [k + 1] * (len(calls) - first - 1)


class TestDerivation:
    def test_zero_cochain(self):
        c = JohnsonCochain.zero(2, 3)
        t = random_tensor(random.Random(1), 2, 2, 4)
        assert derivation_apply(c, t).is_zero()

    def test_extension_on_degree_one(self):
        c = tau_on_H(sep_twist(2, 1), 2)
        x = TruncatedTensor.symbol(2, 1, 3)
        assert derivation_apply(c, x) == c.images[0]

    def test_bracket_rule(self):
        c = tau_on_H(sep_twist(2, 1), 2)
        rng = random.Random(2)
        for _ in range(20):
            x = random_tensor(rng, 2, 1, 5, terms=2)
            y = random_tensor(rng, 2, 2, 5, terms=2)
            lhs = derivation_apply(c, lie_bracket(x, y))
            rhs = lie_bracket(derivation_apply(c, x), y) + lie_bracket(x, derivation_apply(c, y))
            assert lhs == rhs

    def test_leibniz_suite(self):
        check_derivation_leibniz(100)

    def test_cancelling_terms_dropped(self):
        # c(a1) = [a1, a2]: D(a1 a1) = [a1, a2] a1 + a1 [a1, a2], where a1 a2 a1 cancels
        bracket = lie_bracket(TruncatedTensor.symbol(2, 1, 2), TruncatedTensor.symbol(2, 3, 2))
        zero = TruncatedTensor.zero(2, 2)
        c = JohnsonCochain(2, 2, (bracket, zero, zero, zero))
        t = TruncatedTensor(2, 3, {(1, 1): 1})
        assert derivation_apply(c, t).terms == {(1, 1, 3): 1, (3, 1, 1): -1}

    def test_insufficient_truncation(self):
        c = tau_on_H(sep_twist(2, 1), 2)
        t = TruncatedTensor(2, 2, {(1, 2): 1})
        with pytest.raises(TruncationError):
            derivation_apply(c, t)


class TestTauSquared:
    def test_zero(self):
        assert tau_squared(JohnsonCochain.zero(2, 2)).is_zero()

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
        assert c2 == c1.scale(-1)
        assert c3 == c1

    def test_linear_in_terms(self):
        g = 2
        u, v, w = (HVector.from_name(n, g) for n in ("a1", "b1", "b2"))
        c = cochain_from_wedge3(g, [(3, (u, v, w))])
        assert c == cochain_from_wedge3(g, [(1, (u, v, w))]).scale(3)

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
