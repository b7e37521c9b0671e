"""Tests for exact angle, Laurent, and cyclotomic-coefficient arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sutwist.scalars import (
    CycloLaurent,
    HalfLaurent,
    NonSquareBase,
    UnitAngle,
    ZERO_ANGLE,
    quantum_integer,
)

angles = st.fractions(min_value=-5, max_value=5, max_denominator=24).map(UnitAngle)
laurents = st.dictionaries(
    st.integers(min_value=-6, max_value=6), st.integers(min_value=-9, max_value=9), max_size=5
).map(HalfLaurent)


class TestUnitAngle:
    def test_add_inverse_pair(self):
        assert UnitAngle(Fraction(1, 3)) + UnitAngle(Fraction(2, 3)) == ZERO_ANGLE

    def test_negate(self):
        assert -UnitAngle(Fraction(1, 3)) == UnitAngle(Fraction(2, 3))

    def test_reduction_mod_one(self):
        assert UnitAngle(Fraction(7, 3)) == UnitAngle(Fraction(1, 3))
        assert UnitAngle(Fraction(-1, 4)) == UnitAngle(Fraction(3, 4))

    @given(angles, angles, angles)
    def test_group_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a + ZERO_ANGLE == a
        assert a + (-a) == ZERO_ANGLE

    def test_parse_round_trip(self):
        for text in ("0/1", "1/3", "5/6"):
            assert str(UnitAngle.parse(text)) == text


class TestHalfLaurent:
    def test_half_power_product(self):
        root = HalfLaurent.q_power(1)
        assert root * root == HalfLaurent.q_power(2)

    def test_cancellation(self):
        q = HalfLaurent.q_power(2)
        assert (q + (-q)).is_zero

    def test_product_expansion(self):
        q = HalfLaurent.q_power(2)
        qinv = HalfLaurent.q_power(-2)
        left = q + (-qinv)
        right = q + qinv
        assert left * right == HalfLaurent.q_power(4) + (-HalfLaurent.q_power(-4))

    def test_evaluate_sum(self):
        p = HalfLaurent.q_power(2) + HalfLaurent.q_power(-2)
        assert p.evaluate(Fraction(1, 2)) == Fraction(5, 2)

    def test_evaluate_zero(self):
        assert HalfLaurent.zero().evaluate(Fraction(7, 3)) == 0

    def test_evaluate_half_power(self):
        assert HalfLaurent.q_power(1).evaluate(Fraction(1, 4)) == Fraction(1, 2)

    def test_evaluate_rejects_non_square(self):
        with pytest.raises(NonSquareBase):
            HalfLaurent.q_power(1).evaluate(Fraction(1, 2))

    @given(laurents, laurents, laurents)
    def test_ring_laws(self, p, r, s):
        assert (p * r) * s == p * (r * s)
        assert p * (r + s) == p * r + p * s
        assert p * r == r * p

    @given(laurents, laurents)
    def test_evaluate_is_multiplicative(self, p, r):
        q0 = Fraction(9, 4)
        assert (p * r).evaluate(q0) == p.evaluate(q0) * r.evaluate(q0)


class TestQuantumInteger:
    def test_one(self):
        assert quantum_integer(1) == HalfLaurent.one()

    def test_two(self):
        assert quantum_integer(2) == HalfLaurent.q_power(2) + HalfLaurent.q_power(-2)

    def test_three_at_one(self):
        assert quantum_integer(3).evaluate(Fraction(1)) == 3

    def test_strictly_decreasing_on_unit_interval(self):
        for m in range(2, 9):
            poly = quantum_integer(m)
            grid = [Fraction(k, 12) for k in range(1, 13)]
            values = [poly.evaluate(q) for q in grid]
            assert all(a > b for a, b in zip(values, values[1:]))


class TestCycloLaurent:
    def test_merging(self):
        a = UnitAngle(Fraction(1, 3))
        c = CycloLaurent.from_angle(a, 2) + CycloLaurent.from_angle(a, 2)
        assert c == CycloLaurent.from_angle(a, 2, 2)

    def test_cancellation(self):
        a = UnitAngle(Fraction(1, 4))
        c = CycloLaurent.from_angle(a, 0) + CycloLaurent.from_angle(a, 0, -1)
        assert c.is_zero
