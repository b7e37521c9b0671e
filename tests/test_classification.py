"""Tests for isomorphism invariants, the mirror transform, and canonical forms."""

from fractions import Fraction

import pytest

from sutwist.classification import (
    IsoCase,
    NonKacDomain,
    ParamTuple,
    RankMismatch,
    SkewBicharacter,
    canonical_form,
    central_invariant,
    is_isomorphic,
    mirror_invariant,
    pair_invariant,
    theta_transform,
    twist_compose,
)
from sutwist.lattice import TauVector
from sutwist.scalars import HALF_ANGLE, UnitAngle, ZERO_ANGLE

Q = Fraction(1, 2)


def make(n, q, taus, omega12=None):
    tau = TauVector.from_fractions(n, taus)
    block = {} if omega12 is None else {(1, 2): UnitAngle(Fraction(omega12))}
    return ParamTuple(n, q, tau, SkewBicharacter.from_upper_block(n, block))


class TestDomainValidation:
    def test_rejects_q_one(self):
        with pytest.raises(NonKacDomain):
            make(3, Fraction(1), [0, 0])

    def test_rejects_q_above_one(self):
        with pytest.raises(NonKacDomain):
            make(3, Fraction(3, 2), [0, 0])

    def test_rejects_rank_mismatch(self):
        tau = TauVector.trivial(3)
        omega = SkewBicharacter.from_upper_block(4, {})
        with pytest.raises(RankMismatch):
            ParamTuple(3, Q, tau, omega)

    def test_skew_bicharacter_invariants(self):
        om = SkewBicharacter.from_upper_block(3, {(1, 2): UnitAngle(Fraction(1, 5))})
        n = om.n
        for i in range(n):
            assert om.angles[i][i] == ZERO_ANGLE
            col = ZERO_ANGLE
            for k in range(n):
                assert om.angles[k][i] == -om.angles[i][k]
                col = col + om.angles[k][i]
            assert col == ZERO_ANGLE


class TestCentralInvariant:
    def test_trivial(self):
        assert central_invariant(TauVector.trivial(4)) == ZERO_ANGLE

    def test_weighted_sum(self):
        assert central_invariant(
            TauVector.from_fractions(3, [Fraction(1, 3), 0])
        ) == UnitAngle(Fraction(1, 3))

    def test_wraparound(self):
        assert central_invariant(
            TauVector.from_fractions(3, [0, Fraction(2, 3)])
        ) == UnitAngle(Fraction(1, 3))


class TestInvariantMatrices:
    def test_trivial_data(self):
        p = make(3, Q, [0, 0])
        assert all(v == ZERO_ANGLE for row in pair_invariant(p) for v in row)
        assert all(v == ZERO_ANGLE for row in mirror_invariant(p) for v in row)

    def test_pair_entry(self):
        p = make(3, Q, [Fraction(1, 3), 0])
        assert pair_invariant(p)[0][0] == UnitAngle(Fraction(1, 3))

    def test_pair_entry_with_omega(self):
        p = make(3, Q, [Fraction(1, 3), 0], omega12=Fraction(1, 3))
        assert pair_invariant(p)[0][0] == ZERO_ANGLE

    def test_mirror_entry(self):
        p = make(3, Q, [0, Fraction(2, 3)])
        assert mirror_invariant(p)[0][0] == UnitAngle(Fraction(1, 3))

    def test_mirror_equals_pair_of_theta(self):
        for taus in ([0, 0], [Fraction(1, 3), Fraction(2, 3)], [Fraction(2, 3), Fraction(2, 3)]):
            for w in (None, Fraction(1, 6), Fraction(5, 6)):
                p = make(3, Q, taus, omega12=w)
                assert mirror_invariant(p) == pair_invariant(theta_transform(p))


class TestThetaTransform:
    def test_trivial_fixed_point(self):
        p = make(3, Q, [0, 0])
        assert theta_transform(p) == p

    def test_rank_two_self_conjugate(self):
        p = make(2, Q, [Fraction(1, 2)])
        assert theta_transform(p).tau == p.tau

    def test_involution_on_invariants(self):
        p = make(3, Q, [Fraction(1, 3), Fraction(2, 3)], omega12=Fraction(1, 6))
        double = theta_transform(theta_transform(p))
        assert pair_invariant(double) == pair_invariant(p)
        assert mirror_invariant(double) == mirror_invariant(p)


class TestIsIsomorphic:
    def test_reflexive_direct(self):
        p = make(3, Q, [Fraction(1, 3), 0])
        assert is_isomorphic(p, p) is IsoCase.DIRECT

    def test_distinct_q_values(self):
        p1 = make(3, Fraction(1, 3), [0, 0])
        p2 = make(3, Fraction(1, 2), [0, 0])
        assert is_isomorphic(p1, p2) is IsoCase.NO

    def test_mirror_pair(self):
        p1 = make(3, Q, [Fraction(1, 3), 0])
        p2 = make(3, Q, [0, Fraction(2, 3)])
        assert is_isomorphic(p1, p2) is IsoCase.MIRROR

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            is_isomorphic(make(2, Q, [0]), make(3, Q, [0, 0]))

    def test_rank_two_reduces_to_tau(self):
        su2 = make(2, Q, [0])
        su2_minus = make(2, Q, [Fraction(1, 2)])
        assert is_isomorphic(su2, su2_minus) is IsoCase.NO
        assert is_isomorphic(su2, make(2, Q, [0])) is IsoCase.DIRECT


class TestCanonicalForm:
    def test_trivial_fixed(self):
        p = make(3, Q, [0, 0])
        assert canonical_form(p) == p

    def test_mirror_pair_collapses(self):
        p1 = make(3, Q, [Fraction(1, 3), 0])
        p2 = make(3, Q, [0, Fraction(2, 3)])
        assert canonical_form(p1) == canonical_form(p2)

    def test_idempotent(self):
        for taus in ([Fraction(1, 3), Fraction(2, 3)], [Fraction(2, 3), 0]):
            p = make(3, Q, taus, omega12=Fraction(1, 6))
            cf = canonical_form(p)
            assert canonical_form(cf) == cf
            assert is_isomorphic(p, cf) is not IsoCase.NO

    def test_tau_concentrated_in_first_entry(self):
        p = make(3, Q, [Fraction(1, 3), Fraction(1, 3)], omega12=Fraction(1, 6))
        cf = canonical_form(p)
        assert cf.tau.angle(1) == central_invariant(p.tau)
        assert all(cf.tau.angle(i) == ZERO_ANGLE for i in range(2, 3))


class TestTwistCompose:
    def test_identity_twist(self):
        p = make(3, Q, [Fraction(1, 3), 0], omega12=Fraction(1, 6))
        zero = SkewBicharacter.from_upper_block(3, {})
        assert twist_compose(p, zero) == p

    def test_inverse_twist(self):
        p = make(3, Q, [0, 0], omega12=Fraction(1, 6))
        om = SkewBicharacter.from_upper_block(3, {(1, 2): UnitAngle(Fraction(1, 3))})
        neg = SkewBicharacter([[-a for a in row] for row in om.angles])
        assert twist_compose(twist_compose(p, om), neg) == p

    def test_pair_invariant_shift(self):
        p = make(3, Q, [Fraction(1, 3), 0])
        om = SkewBicharacter.from_upper_block(3, {(1, 2): UnitAngle(Fraction(1, 6))})
        shifted = pair_invariant(twist_compose(p, om))
        base = pair_invariant(p)
        for i, row in enumerate(shifted, start=1):
            for offset, v in enumerate(row):
                j = i + 1 + offset
                assert v == base[i - 1][offset] + om.angles[i - 1][j - 1].scale(2)

    def test_invisible_twist_preserves_class(self):
        p = make(3, Q, [Fraction(1, 3), Fraction(2, 3)])
        half = SkewBicharacter(
            [[ZERO_ANGLE if i == j else HALF_ANGLE for j in range(3)] for i in range(3)]
        )
        assert is_isomorphic(p, twist_compose(p, half)) is IsoCase.DIRECT


class TestSerialization:
    def test_json_round_trip(self):
        p = make(3, Q, [Fraction(1, 3), Fraction(2, 3)], omega12=Fraction(1, 6))
        assert ParamTuple.from_json(p.to_json()) == p
