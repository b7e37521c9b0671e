"""Tests for the generators-and-relations output and its sanity checks."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest

from sutwist.classification import ParamTuple, SkewBicharacter
from sutwist.lattice import TauVector
from sutwist.presentation import (
    RelationPoly,
    generate_relations,
    parse_relations,
    quantum_det_relation,
    serialize,
    torus_character_residue,
)
from sutwist.scalars import CycloLaurent, UnitAngle, ZERO_ANGLE

Q = Fraction(1, 2)


def make(n, taus=None, omega=None):
    tau = TauVector.trivial(n) if taus is None else TauVector.from_fractions(n, taus)
    om = SkewBicharacter.from_upper_block(n, omega or {})
    return ParamTuple(n, Q, tau, om)


def qpow(doubled, mult=1, angle=ZERO_ANGLE):
    return CycloLaurent({(angle, doubled): mult})


ONE = CycloLaurent.one()


class TestRelationFamilies:
    def test_rank_two_standard_set(self):
        q_comm = qpow(2) + qpow(-2, -1)
        expected = {
            RelationPoly([(ONE, ((1, 1), (1, 2))), (qpow(2, -1), ((1, 2), (1, 1)))]),
            RelationPoly([(ONE, ((2, 1), (2, 2))), (qpow(2, -1), ((2, 2), (2, 1)))]),
            RelationPoly([(ONE, ((1, 1), (2, 1))), (qpow(2, -1), ((2, 1), (1, 1)))]),
            RelationPoly([(ONE, ((1, 2), (2, 2))), (qpow(2, -1), ((2, 2), (1, 2)))]),
            RelationPoly([(ONE, ((2, 1), (1, 2))), (qpow(0, -1), ((1, 2), (2, 1)))]),
            RelationPoly(
                [
                    (ONE, ((1, 1), (2, 2))),
                    (qpow(0, -1), ((2, 2), (1, 1))),
                    (-q_comm, ((1, 2), (2, 1))),
                ]
            ),
            RelationPoly(
                [
                    (ONE, ((1, 1), (2, 2))),
                    (qpow(2, -1), ((1, 2), (2, 1))),
                    (-ONE, ()),
                ]
            ),
        }
        assert set(generate_relations(make(2))) == expected

    def test_rank_two_sign_twist(self):
        rels = set(generate_relations(make(2, taus=[Fraction(1, 2)])))
        flipped = RelationPoly(
            [(ONE, ((1, 1), (1, 2))), (qpow(2, -1, UnitAngle(Fraction(1, 2))), ((1, 2), (1, 1)))]
        )
        assert flipped in rels

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_census(self, n):
        rels = generate_relations(make(n))
        pairs = comb(n, 2)
        assert len(rels) == 2 * n * pairs + 2 * pairs * pairs + 1


class TestDeterminantRelation:
    def test_rank_two_standard(self):
        rel = quantum_det_relation(make(2))
        expected = RelationPoly(
            [
                (ONE, ((1, 1), (2, 2))),
                (qpow(2, -1), ((1, 2), (2, 1))),
                (-ONE, ()),
            ]
        )
        assert rel == expected

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_term_count(self, n):
        rel = quantum_det_relation(make(n))
        assert len(rel.terms) == factorial(n) + 1

    def test_identity_permutation_coefficient_is_trivial(self):
        rel = quantum_det_relation(make(3, taus=[Fraction(1, 3), Fraction(2, 3)]))
        diag = next(c for c, w in rel.terms if w == ((1, 1), (2, 2), (3, 3)))
        assert diag == ONE

    def test_untwisted_coefficients_are_signed_q_powers(self):
        rel = quantum_det_relation(make(3))
        for coeff, word in rel.terms:
            if not word:
                continue
            ((angle, doubled), mult) = next(iter(coeff.terms.items()))
            assert angle == ZERO_ANGLE
            inv = doubled // 2
            assert mult == (-1 if inv % 2 else 1)


class TestTorusResidue:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_all_relations_vanish(self, n):
        rng = random.Random(100 + n)
        taus = [Fraction(rng.randrange(n), n) for _ in range(n - 1)]
        omega = {
            (i, j): UnitAngle(Fraction(rng.randrange(12), 12))
            for i in range(1, n - 1)
            for j in range(i + 1, n)
            if j <= n - 1
        }
        for rel in generate_relations(make(n, taus=taus, omega=omega)):
            assert torus_character_residue(rel, n) == {}

    def test_empty_relation(self):
        assert torus_character_residue(RelationPoly([]), 3) == {}

    def test_unbalanced_diagonal_term_detected(self):
        bad = RelationPoly([(ONE, ((1, 1), (2, 2))), (qpow(2, -1), ((1, 2), (2, 1)))])
        assert torus_character_residue(bad, 2) != {}


class TestSerialization:
    def test_empty_json(self):
        assert serialize([], "json") == "[]"

    def test_latex_contains_generators(self):
        text = serialize(generate_relations(make(2)), "latex")
        assert "v_{11} v_{12}" in text

    def test_round_trip(self):
        rels = generate_relations(make(3, taus=[Fraction(1, 3), 0], omega={(1, 2): UnitAngle(Fraction(1, 6))}))
        assert parse_relations(serialize(rels, "json")) == rels

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            serialize([], "xml")
