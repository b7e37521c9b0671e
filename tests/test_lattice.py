"""Tests for the weight lattice, the norm function, and the explicit cochains."""

import random
from fractions import Fraction

import pytest

from sutwist.cohomology import is_cocycle
from sutwist.lattice import (
    NotDescendable,
    TauVector,
    WeightVec,
    all_tau_vectors,
    c_tau_eval,
    class_mod_Q,
    coboundary3,
    descend_c_tau,
    descend_to_PQ,
    q_coordinates,
    weight_norm,
)
from sutwist.scalars import UnitAngle, ZERO_ANGLE


def ones(n: int) -> WeightVec:
    return WeightVec((1,) * n)


class TestWeightNorm:
    def test_first_basis_weight(self):
        assert weight_norm(WeightVec.L(3, 1)) == 2

    def test_lift_ambiguity_vanishes(self):
        assert weight_norm(ones(3)) == 0

    def test_first_simple_root(self):
        assert weight_norm(WeightVec.alpha(3, 1)) == 3

    def test_other_basis_weights(self):
        for i in range(2, 5):
            assert weight_norm(WeightVec.L(4, i)) == -1


class TestClassModQ:
    def test_roots_lie_in_kernel(self):
        for n in (2, 3, 4):
            for i in range(1, n):
                assert class_mod_Q(WeightVec.alpha(n, i)) == 0

    def test_generator(self):
        assert class_mod_Q(WeightVec.L(3, 1)) == 1

    def test_lift_ambiguity(self):
        assert class_mod_Q(ones(4)) == 0


class TestQCoordinates:
    def test_first_root(self):
        assert q_coordinates(WeightVec.alpha(3, 1)) == (0, (1, 0))

    def test_zero(self):
        assert q_coordinates(WeightVec.zero(4)) == (0, (0, 0, 0))

    def test_section_hit(self):
        assert q_coordinates(WeightVec.L(3, 1)) == (1, (0, 0))

    def test_reconstruction(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.choice((2, 3, 4))
            lam = WeightVec([rng.randrange(-4, 5) for _ in range(n)])
            k, a = q_coordinates(lam)
            rebuilt = WeightVec.L(n, 1).scale(k)
            for i, ai in enumerate(a, start=1):
                rebuilt = rebuilt + WeightVec.alpha(n, i).scale(ai)
            diff = lam - rebuilt
            assert len(set(diff.coords)) == 1  # multiple of (1, ..., 1)


class TestCTau:
    def test_zero_first_argument(self):
        tau = TauVector.from_fractions(3, [Fraction(1, 3), 0])
        assert c_tau_eval(tau, WeightVec.zero(3), WeightVec.L(3, 2)) == ZERO_ANGLE

    def test_single_step_value(self):
        tau = TauVector.from_fractions(3, [Fraction(1, 3), 0])
        got = c_tau_eval(tau, WeightVec.alpha(3, 1), WeightVec.L(3, 1))
        assert got == UnitAngle(Fraction(1, 3))

    def test_recursions(self):
        rng = random.Random(11)
        for n in (2, 3, 4):
            for tau in all_tau_vectors(n)[:5]:
                for _ in range(20):
                    lam = WeightVec([rng.randrange(-3, 4) for _ in range(n)])
                    mu = WeightVec([rng.randrange(-3, 4) for _ in range(n)])
                    for i in range(1, n):
                        shift = UnitAngle(-weight_norm(mu) * tau.angle(i).value)
                        lhs = c_tau_eval(tau, lam + WeightVec.alpha(n, i), mu)
                        assert lhs == shift + c_tau_eval(tau, lam, mu)
                        assert c_tau_eval(tau, lam, mu + WeightVec.alpha(n, i)) == c_tau_eval(
                            tau, lam, mu
                        )

    def test_second_argument_only_through_norm(self):
        tau = TauVector.from_fractions(3, [Fraction(2, 3), Fraction(1, 3)])
        lam = WeightVec([1, -2, 0])
        mu1 = WeightVec([2, 0, 1])
        mu2 = WeightVec([0, 1, 2])
        assert weight_norm(mu1) % 3 == weight_norm(mu2) % 3
        assert c_tau_eval(tau, lam, mu1) == c_tau_eval(tau, lam, mu2)

    def test_lift_invariance(self):
        tau = TauVector.from_fractions(3, [Fraction(1, 3), Fraction(1, 3)])
        lam = WeightVec([2, 0, -1])
        mu = WeightVec([1, 1, 0])
        assert c_tau_eval(tau, lam + ones(3), mu) == c_tau_eval(tau, lam, mu)
        assert c_tau_eval(tau, lam, mu + ones(3)) == c_tau_eval(tau, lam, mu)


class TestCoboundary3:
    def test_zero_cochain(self):
        zero_fn = lambda lam, mu: ZERO_ANGLE
        args = (WeightVec.L(3, 1), WeightVec.alpha(3, 2), WeightVec.L(3, 3))
        assert coboundary3(zero_fn, *args) == ZERO_ANGLE

    def test_bicharacter_is_cocycle(self):
        def bichar(lam, mu):
            return UnitAngle(Fraction(weight_norm(lam) * weight_norm(mu), 5))

        rng = random.Random(3)
        for _ in range(25):
            args = tuple(
                WeightVec([rng.randrange(-2, 3) for _ in range(3)]) for _ in range(3)
            )
            assert coboundary3(bichar, *args) == ZERO_ANGLE


class TestDescent:
    def test_descend_c_tau_gives_cocycles(self):
        for n in (2, 3):
            for tau in all_tau_vectors(n):
                assert is_cocycle(descend_c_tau(tau))

    def test_generic_cochain_fails(self):
        def generic(lam, mu):
            return UnitAngle(Fraction(weight_norm(lam) ** 2 * weight_norm(mu), 9))

        with pytest.raises(NotDescendable):
            descend_to_PQ(generic, 3)

    def test_zero_cochain_descends_trivially(self):
        out = descend_to_PQ(lambda lam, mu: ZERO_ANGLE, 3)
        assert out.is_zero


class TestTauVector:
    def test_counts(self):
        assert len(all_tau_vectors(2)) == 2
        assert len(all_tau_vectors(3)) == 9
        assert len(all_tau_vectors(4)) == 64

    def test_torsion_validation(self):
        with pytest.raises(ValueError):
            TauVector.from_fractions(3, [Fraction(1, 4), 0])

    def test_length_validation(self):
        with pytest.raises(ValueError):
            TauVector.from_fractions(3, [0])
