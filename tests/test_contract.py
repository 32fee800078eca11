import random

import pytest

from checks import (check_inner_conjugation_invariance, check_pairing_positivity,
                    diagonal_action, omega0, random_tensor, tensor_pairing, theta)
from psicert.contract import ContractionSpec, phi_contract, psi_matrix, symbol_intersection
from psicert.homology import HVector, IntMatrix, conjugate, transvection
from psicert.johnson import JohnsonCochain, bp_tau, tau_on_H
from psicert.tensors import TruncatedTensor
from psicert.words import (FreeEndomorphism, a_gen, abelianize, b_gen, compose_endos,
                           parse_word, sep_twist)


def sym(genus, idx, trunc=1):
    return TruncatedTensor.symbol(genus, idx, trunc)


class TestOmega0:
    def test_genus_one(self):
        assert omega0(1).terms == {(1, 2): 1, (2, 1): -1}

    def test_genus_two(self):
        assert omega0(2).terms == {(1, 2): 1, (2, 1): -1, (3, 4): 1, (4, 3): -1}

    def test_invariant_under_transvections(self):
        rng = random.Random(9)
        for _ in range(20):
            beta = HVector(2, tuple(rng.randrange(-2, 3) for _ in range(4)))
            assert diagonal_action(transvection(beta), omega0(2)) == omega0(2)


class TestPhiContract:
    def test_dual_pair_projects(self):
        spec = ContractionSpec.default(3)
        for idx in range(1, 5):
            t = TruncatedTensor(2, 3, {(1, 2, idx): 1})
            out = phi_contract(t, spec)
            assert out == HVector.basis(2, idx - 1)

    def test_non_pairing_slots_vanish(self):
        spec = ContractionSpec.default(3)
        t = TruncatedTensor(2, 3, {(1, 3, 2): 1})  # a1 (x) a2 (x) b1
        assert phi_contract(t, spec).is_zero()

    def test_twist_image_contracts_to_three(self):
        c = tau_on_H(sep_twist(2, 1), 2)
        out = phi_contract(c.images[0], ContractionSpec.default(3))
        assert out == HVector.basis(2, 0).scale(3)

    def test_arity_mismatch(self):
        t = TruncatedTensor(2, 2, {(1, 2): 1})
        with pytest.raises(ValueError):
            phi_contract(t, ContractionSpec.default(3))

    def test_permuted_spec_accepted_and_equivariant(self):
        rng = random.Random(21)
        spec = ContractionSpec(((2, 3),), 1)  # pair the trailing slots, output the first
        for _ in range(20):
            t = random_tensor(rng, 2, 3, 3, terms=4)
            s = IntMatrix.identity(4)
            for _ in range(2):
                beta = HVector(2, tuple(rng.randrange(-2, 3) for _ in range(4)))
                s = s * transvection(beta)
            lhs = phi_contract(diagonal_action(s, t), spec)
            rhs = HVector(2, s.apply(phi_contract(t, spec).coords))
            assert lhs == rhs

    def test_default_spec_equivariance(self):
        rng = random.Random(22)
        spec = ContractionSpec.default(3)
        for _ in range(30):
            t = random_tensor(rng, 2, 3, 3, terms=4)
            s = IntMatrix.identity(4)
            for _ in range(3):
                beta = HVector(2, tuple(rng.randrange(-2, 3) for _ in range(4)))
                s = s * transvection(beta)
            lhs = phi_contract(diagonal_action(s, t), spec)
            rhs = HVector(2, s.apply(phi_contract(t, spec).coords))
            assert lhs == rhs

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ContractionSpec(((1, 2),), 4)
        with pytest.raises(ValueError):
            ContractionSpec(((1, 1),), 2)


class TestTheta:
    def test_on_a(self):
        assert theta(sym(1, 1)).terms == {(2,): 1}

    def test_on_b(self):
        assert theta(sym(1, 2)).terms == {(1,): -1}

    def test_slotwise(self):
        t = TruncatedTensor(2, 2, {(1, 4): 1})  # a1 (x) b2
        assert theta(t).terms == {(2, 3): -1}

    def test_involution_sign(self):
        t = TruncatedTensor(2, 2, {(1, 2): 1, (3, 4): -2})
        assert theta(theta(t)) == t  # degree 2: (-1)^2 = +1
        u = TruncatedTensor(2, 3, {(1, 2, 3): 5})
        assert theta(theta(u)) == u.scale(-1)


class TestTensorPairing:
    def test_isotropic(self):
        t = TruncatedTensor(1, 2, {(1, 2): 1})
        assert tensor_pairing(t, t) == 0

    def test_dual_words(self):
        s = TruncatedTensor(1, 2, {(1, 2): 1})
        t = TruncatedTensor(1, 2, {(2, 1): -1})
        assert tensor_pairing(s, t) == 1

    def test_theta_positivity_example(self):
        p = TruncatedTensor(1, 2, {(1, 2): 1})
        assert tensor_pairing(p, theta(p)) == 1

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            tensor_pairing(sym(1, 1), TruncatedTensor(1, 2, {(1, 2): 1}))

    def test_positivity_suite(self):
        check_pairing_positivity(100)


class TestPsiMatrix:
    def test_zero_cochain(self):
        assert psi_matrix(JohnsonCochain.zero(2, 3), 2) == IntMatrix.zero(4)

    def test_twist_diagonal(self):
        c = tau_on_H(sep_twist(2, 1), 2)
        assert psi_matrix(c, 2) == IntMatrix.diagonal([3, 3, 0, 0])

    def test_weight_mismatch(self):
        with pytest.raises(ValueError):
            psi_matrix(JohnsonCochain.zero(2, 3), 1)

    def test_odd_level_uses_squared_cochain(self):
        m = psi_matrix(bp_tau(2, 2), 1)
        assert m.dimension == 4

    def test_spec_arity_checked(self):
        c = tau_on_H(sep_twist(2, 1), 2)
        with pytest.raises(ValueError):
            psi_matrix(c, 2, ContractionSpec.default(5))

    def test_homomorphism_at_even_level(self):
        for (g, i, j) in [(3, 1, 2), (4, 2, 3), (4, 1, 1)]:
            f, h = sep_twist(g, i), sep_twist(g, j)
            lhs = psi_matrix(tau_on_H(compose_endos(f, h), 2), 2)
            rhs = psi_matrix(tau_on_H(f, 2), 2) + psi_matrix(tau_on_H(h, 2), 2)
            assert lhs == rhs

    def test_full_equivariance_at_pi1_level(self):
        # conjugate a twist by a boundary-preserving automorphism with a
        # nontrivial homology action and compare with matrix conjugation
        g = 2
        phi = FreeEndomorphism(g, (a_gen(g, 1), b_gen(g, 1),
                                   parse_word("a2 b2", g), b_gen(g, 2)))
        phi_inv = FreeEndomorphism(g, (a_gen(g, 1), b_gen(g, 1),
                                       parse_word("a2 b2^-1", g), b_gen(g, 2)))
        assert compose_endos(phi, phi_inv) == FreeEndomorphism(
            g, (a_gen(g, 1), b_gen(g, 1), a_gen(g, 2), b_gen(g, 2)))
        f = sep_twist(g, 1)
        conj_f = compose_endos(phi, compose_endos(f, phi_inv))
        lhs = psi_matrix(tau_on_H(conj_f, 2), 2)
        rhs = conjugate(abelianize(phi), psi_matrix(tau_on_H(f, 2), 2))
        assert lhs == rhs

    def test_inner_conjugation_suite(self):
        check_inner_conjugation_invariance(20)


class TestSymbolIntersection:
    def test_table(self):
        assert symbol_intersection(1, 2) == 1
        assert symbol_intersection(2, 1) == -1
        assert symbol_intersection(1, 3) == 0
        assert symbol_intersection(3, 4) == 1
