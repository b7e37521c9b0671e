"""Tests for isomorphism invariants, the mirror transform, and canonical forms."""

from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

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
                assert v == base[i - 1][offset] + UnitAngle(2 * om.angles[i - 1][j - 1].value)

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


@st.composite
def bicharacters(draw, n):
    """A skew bicharacter of rank n with denominators up to 12."""
    upper = {}
    for i in range(1, n - 1):
        for j in range(i + 1, n):
            d = draw(st.integers(1, 12))
            upper[(i, j)] = UnitAngle(Fraction(draw(st.integers(0, d - 1)), d))
    return SkewBicharacter.from_upper_block(n, upper)


@st.composite
def params(draw, low=2, high=6):
    """A tuple of rank low..high with omega denominators up to 12."""
    n = draw(st.integers(low, high))
    taus = [Fraction(draw(st.integers(0, n - 1)), n) for _ in range(n - 1)]
    omega = draw(bicharacters(n))
    q = draw(st.sampled_from((Q, Fraction(2, 3))))
    return ParamTuple(n, q, TauVector.from_fractions(n, taus), omega)


def tau_sum(p, i, j):
    """tau_i + ... + tau_(j-1) as a Fraction."""
    return sum((p.tau.angle(k).value for k in range(i, j)), Fraction(0))


class TestResidueReference:
    """The integer invariants against Fraction sums of the angles."""

    @settings(max_examples=60, deadline=None)
    @given(params())
    def test_invariants_match_fraction_formulas(self, p):
        n = p.n
        assert central_invariant(p.tau) == UnitAngle(sum(i * p.tau.angle(i).value for i in range(1, n)))
        direct = tuple(
            tuple(UnitAngle(2 * p.omega.angle(i, j).value + tau_sum(p, i, j)) for j in range(i + 1, n))
            for i in range(1, n)
        )
        mirror = tuple(
            tuple(
                UnitAngle(2 * p.omega.angle(n - i + 1, n - j + 1).value - tau_sum(p, n - j + 1, n - i + 1))
                for j in range(i + 1, n)
            )
            for i in range(1, n)
        )
        assert pair_invariant(p) == direct
        assert mirror_invariant(p) == mirror


def table_angle(p, u, v):
    return UnitAngle(Fraction(p.alternation[u][v], p.modulus))


class TestAlternationTable:
    """The alternation table M of `ParamTuple` against the tau and omega angles."""

    @settings(max_examples=60, deadline=None)
    @given(params())
    def test_entries_antisymmetry_and_row_sums(self, p):
        n, L, M = p.n, p.modulus, p.alternation
        assert L == lcm(n, *(a.value.denominator for row in p.omega.angles for a in row))
        for u in range(1, n + 1):
            for v in range(1, n + 1):
                assert 0 <= M[u][v] < L
                assert (M[u][v] + M[v][u]) % L == 0
                if u < v:
                    assert table_angle(p, u, v) == UnitAngle(tau_sum(p, u, v) + 2 * p.omega.angle(u, v).value)
            assert UnitAngle(Fraction(sum(M[u]), L)) == -central_invariant(p.tau)

    @settings(max_examples=60, deadline=None)
    @given(params(), st.data())
    def test_theta_reverses_indices_and_twist_compose_adds_twice_the_twist(self, p, data):
        n, image = p.n, theta_transform(p)
        beta = data.draw(bicharacters(n))
        twisted = twist_compose(p, beta)
        assert image.modulus == p.modulus
        for u in range(1, n + 1):
            for v in range(1, n + 1):
                assert image.alternation[u][v] == p.alternation[n + 1 - u][n + 1 - v]
                assert table_angle(twisted, u, v) == table_angle(p, u, v) + UnitAngle(2 * beta.angle(u, v).value)


def half_turns(n):
    """Every skew bicharacter h of rank n with 2h = 0."""
    block = [(i, j) for i in range(1, n - 1) for j in range(i + 1, n)]
    return [
        SkewBicharacter.from_upper_block(n, {k: HALF_ANGLE for k, bit in zip(block, bits) if bit})
        for bits in product((0, 1), repeat=len(block))
    ]


class TestDecisionRule:
    @settings(max_examples=30, deadline=None)
    @given(params(3, 5))
    def test_half_turn_twists_are_direct(self, p):
        for h in half_turns(p.n):
            assert is_isomorphic(p, twist_compose(p, h)) is IsoCase.DIRECT

    @settings(max_examples=60, deadline=None)
    @given(params(3, 5))
    def test_canonical_form_is_idempotent(self, p):
        cf = canonical_form(p)
        assert canonical_form(cf) == cf

    @settings(max_examples=60, deadline=None)
    @given(params(3, 5), st.data())
    def test_canonical_forms_agree_exactly_on_isomorphic_pairs(self, p, data):
        image = theta_transform(p)
        h = data.draw(st.sampled_from(half_turns(p.n)))
        other = data.draw(params(p.n, p.n))
        for p2 in (image, twist_compose(image, h), other):
            same = canonical_form(p) == canonical_form(p2)
            assert same == (is_isomorphic(p, p2) is not IsoCase.NO)
