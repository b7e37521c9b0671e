"""Tests for the generators-and-relations output and its sanity checks."""

import gc
import json
import random
from fractions import Fraction
from itertools import permutations
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from sutwist.classification import ParamTuple, SkewBicharacter, pair_invariant
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
from sutwist.selftest import _grid_params

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


def seeded_param(rng, n):
    """tau of order n and omega with denominators up to 12, so the common modulus exceeds n."""
    taus = [Fraction(rng.randrange(n), n) for _ in range(n - 1)]
    omega = {
        (i, j): UnitAngle(Fraction(rng.randrange(d), d))
        for i in range(1, n - 1)
        for j in range(i + 1, n)
        for d in [rng.randrange(1, 13)]
    }
    return make(n, taus=taus, omega=omega)


def tau_sum(p, i, j):
    """tau_i + ... + tau_(j-1) as a Fraction."""
    return sum((p.tau.angle(k).value for k in range(i, j)), Fraction(0))


class TestCrossLayer:
    """The emitted commutation coefficients agree with the classification invariants."""

    @staticmethod
    def check(p):
        n = p.n
        rels = parse_relations(serialize(generate_relations(p), "json"))
        by_words = {frozenset(w for _, w in rel.terms): dict((w, c) for c, w in rel.terms) for rel in rels}
        m = pair_invariant(p)
        for fixed in range(1, n + 1):
            for a in range(1, n + 1):
                for b in range(a + 1, n + 1):
                    # same row `fixed`, columns a < b: e(-M_ab) q, or its tau/omega form when b = n
                    row = by_words[frozenset({((fixed, a), (fixed, b)), ((fixed, b), (fixed, a))})]
                    if b < n:
                        angle = -m[a - 1][b - a - 1]
                    else:
                        angle = UnitAngle(-tau_sum(p, a, b) - 2 * p.omega.angle(a, b).value)
                    assert row[((fixed, a), (fixed, b))] == ONE
                    assert row[((fixed, b), (fixed, a))] == -CycloLaurent.from_angle(angle, 2)
                    # same column `fixed`, rows a < b: e(tau_a + ... + tau_(b-1) + 2 omega_ab) q
                    col = by_words[frozenset({((a, fixed), (b, fixed)), ((b, fixed), (a, fixed))})]
                    angle = UnitAngle(tau_sum(p, a, b) + 2 * p.omega.angle(a, b).value)
                    assert col[((a, fixed), (b, fixed))] == ONE
                    assert col[((b, fixed), (a, fixed))] == -CycloLaurent.from_angle(angle, 2)

    def test_rank_three_grid(self):
        for p in _grid_params():
            self.check(p)

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_rank_four(self, seed):
        self.check(seeded_param(random.Random(seed), 4))


def reference_det_relation(p):
    """The determinant relation term by term, with Fraction sums and no residues.

    sigma contributes tau^m(sigma) (-q)^inv(sigma) conj(omega)(1..n) omega(sigma(1..n)).
    """
    n = p.n
    tau = [p.tau.angle(i).value for i in range(1, n)]

    def omega_sum(seq):
        return sum((p.omega.angle(a, b).value for x, a in enumerate(seq) for b in seq[x + 1 :]), Fraction(0))

    base = omega_sum(range(1, n + 1))
    terms = []
    for sigma in permutations(range(1, n + 1)):
        m = [0] * (n - 1)
        for k in range(2, n + 1):
            for i in range(1, n):
                if k <= i < sigma[k - 1]:
                    m[i - 1] += k - 1
                elif sigma[k - 1] <= i < k:
                    m[i - 1] -= k - 1
        angle = sum((mi * t for mi, t in zip(m, tau)), Fraction(0)) + omega_sum(sigma) - base
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if sigma[a] > sigma[b])
        coeff = CycloLaurent({(UnitAngle(angle), 2 * inv): (-1) ** inv})
        terms.append((coeff, tuple(zip(range(1, n + 1), sigma))))
    terms.append((-ONE, ()))
    return RelationPoly(terms)


@st.composite
def det_params(draw):
    n = draw(st.integers(2, 6))
    taus = [Fraction(draw(st.integers(0, n - 1)), n) for _ in range(n - 1)]
    omega = {}
    for i in range(1, n - 1):
        for j in range(i + 1, n):
            d = draw(st.integers(1, 12))
            omega[(i, j)] = UnitAngle(Fraction(draw(st.integers(0, d - 1)), d))
    return make(n, taus=taus, omega=omega)


@settings(max_examples=40, deadline=None)
@given(det_params())
def test_det_relation_matches_fraction_reference(p):
    assert quantum_det_relation(p) == reference_det_relation(p)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_presorted_det_relation_is_the_normal_form(n):
    """The determinant relation, built without merge or sort, equals the merging constructor's result."""
    rel = quantum_det_relation(seeded_param(random.Random(300 + n), n))
    shuffled = list(rel.terms)
    random.Random(n).shuffle(shuffled)
    assert RelationPoly(shuffled) == rel
    assert RelationPoly(shuffled).terms == rel.terms


def test_det_relation_leaves_no_reference_cycle():
    """The walk's recursive helper must not keep the call's coefficient cache alive after it returns."""
    p = seeded_param(random.Random(7), 5)
    gc.collect()
    gc.disable()
    try:
        quantum_det_relation(p)
        assert gc.collect() == 0
    finally:
        gc.enable()


@st.composite
def present_params(draw):
    """Tuples at n = 2..5 with omega denominators up to 12."""
    n = draw(st.integers(2, 5))
    return seeded_param(random.Random(draw(st.integers(0, 2**32))), n)


def reference_json(rels):
    """The payload serialize('json') stands for, dumped by the json module."""
    payload = [
        [
            {"coeff": [[str(a), e, m] for a, e, m in coeff.sorted_terms()], "word": [list(g) for g in word]}
            for coeff, word in rel.terms
        ]
        for rel in rels
    ]
    return json.dumps(payload, separators=(",", ":"))


@settings(max_examples=30, deadline=None)
@given(present_params())
def test_json_round_trip(p):
    rels = generate_relations(p)
    assert parse_relations(serialize(rels, "json")) == rels


@settings(max_examples=30, deadline=None)
@given(present_params())
def test_json_equals_dumped_payload(p):
    rels = generate_relations(p) + [RelationPoly([])]
    assert serialize(rels, "json") == reference_json(rels)


def test_one_shot_relations_are_not_confused_by_reused_ids():
    """Each relation below is dropped once read, so CPython may hand its coefficient's id to the next one."""

    def fresh():
        for k in range(60):
            yield RelationPoly([(CycloLaurent.from_angle(UnitAngle(Fraction(k, 61)), k, 1), ((1, 2),))])

    assert serialize(fresh(), "json") == reference_json(list(fresh()))
