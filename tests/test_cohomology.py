"""Tests for finite-group cohomology: differentials, witnesses, class data."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from sutwist import cohomology
from sutwist.cohomology import (
    CertificateError,
    Cochain,
    DegreeMismatch,
    FiniteAbelianGroup,
    NotCocycle,
    NotCyclic,
    aut_pullback,
    aut_witness_cochain,
    class_key,
    coboundary,
    cohomologous,
    cyclic_class_invariant,
    is_cocycle,
    klein_cocycles,
    standard_cyclic_3cocycle,
)
from sutwist.scalars import HALF_ANGLE, UnitAngle, ZERO_ANGLE


def random_cochain(group, degree, rng, denom=12):
    return Cochain.from_function(
        group, degree, lambda *args: UnitAngle(Fraction(rng.randrange(denom), denom))
    )


class TestDifferential:
    @pytest.mark.parametrize("factors", [(2,), (3,), (4,), (2, 2)])
    def test_d_squared_is_zero(self, factors):
        rng = random.Random(sum(factors))
        group = FiniteAbelianGroup(factors)
        for degree in (1, 2):
            c = random_cochain(group, degree, rng)
            assert coboundary(coboundary(c)).is_zero

    def test_coboundaries_are_cocycles(self):
        rng = random.Random(5)
        group = FiniteAbelianGroup([3])
        c = random_cochain(group, 2, rng)
        assert is_cocycle(coboundary(c))


class TestStandardCocycle:
    def test_trivial_index(self):
        assert standard_cyclic_3cocycle(4, 0).is_zero

    def test_point_values(self):
        phi = standard_cyclic_3cocycle(3, 1)
        assert phi((1,), (2,), (1,)) == UnitAngle(Fraction(1, 3))
        assert phi((1,), (1,), (1,)) == ZERO_ANGLE

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_all_indices_are_cocycles(self, k):
        for j in range(k):
            assert is_cocycle(standard_cyclic_3cocycle(k, j))

    def test_index_range_validation(self):
        with pytest.raises(ValueError):
            standard_cyclic_3cocycle(3, 3)


class TestCohomologous:
    def test_reflexive(self):
        phi = standard_cyclic_3cocycle(3, 2)
        assert cohomologous(phi, phi) is not None

    def test_distinct_classes(self):
        assert cohomologous(standard_cyclic_3cocycle(3, 1), standard_cyclic_3cocycle(3, 2)) is None

    def test_witness_is_exact(self):
        group = FiniteAbelianGroup([4])
        rng = random.Random(9)
        b = random_cochain(group, 2, rng)
        phi = standard_cyclic_3cocycle(4, 3)
        shifted = phi + coboundary(b)
        witness = cohomologous(shifted, phi)
        assert witness is not None
        assert (coboundary(witness) - (shifted - phi)).is_zero

    def test_symmetry_and_transitivity_on_samples(self):
        group = FiniteAbelianGroup([3])
        rng = random.Random(13)
        base = standard_cyclic_3cocycle(3, 1)
        a = base + coboundary(random_cochain(group, 2, rng))
        b = base + coboundary(random_cochain(group, 2, rng))
        c = base + coboundary(random_cochain(group, 2, rng))
        assert cohomologous(a, b) is not None
        assert cohomologous(b, a) is not None
        assert cohomologous(b, c) is not None
        assert cohomologous(a, c) is not None

    def test_rejects_non_cocycles(self):
        group = FiniteAbelianGroup([3])
        rng = random.Random(1)
        c = random_cochain(group, 3, rng)
        if is_cocycle(c):  # astronomically unlikely, but keep the test honest
            c = c + Cochain.from_function(
                group, 3, lambda a, b, d: UnitAngle(Fraction(1, 7)) if a == (1,) else ZERO_ANGLE
            )
        with pytest.raises(NotCocycle):
            cohomologous(c, Cochain.zero(group, 3))


class TestAutAction:
    def test_trivial_fixed(self):
        zero = Cochain.zero(FiniteAbelianGroup([3]), 3)
        assert aut_pullback(zero) == zero

    def test_point_evaluation(self):
        phi = standard_cyclic_3cocycle(3, 1)
        assert aut_pullback(phi)((1,), (2,), (1,)) == phi((2,), (1,), (2,))
        assert aut_pullback(phi)((1,), (2,), (1,)) == UnitAngle(Fraction(2, 3))

    def test_involution(self):
        phi = standard_cyclic_3cocycle(4, 3)
        assert aut_pullback(aut_pullback(phi)) == phi

    def test_degree_validation(self):
        with pytest.raises(DegreeMismatch):
            aut_pullback(Cochain.zero(FiniteAbelianGroup([3]), 2))

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_explicit_witness(self, k):
        for j in range(k):
            phi = standard_cyclic_3cocycle(k, j)
            psi = aut_pullback(phi)
            beta = aut_witness_cochain(k, j)
            assert (coboundary(beta) - (phi - psi)).is_zero


class TestCyclicClassInvariant:
    def test_trivial(self):
        assert cyclic_class_invariant(Cochain.zero(FiniteAbelianGroup([5]), 3)) == 0

    def test_standard_representatives(self):
        assert cyclic_class_invariant(standard_cyclic_3cocycle(3, 1)) == 1
        assert cyclic_class_invariant(standard_cyclic_3cocycle(4, 2)) == 2

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_agrees_with_cohomologous_classification(self, k):
        rng = random.Random(k)
        group = FiniteAbelianGroup([k])
        for j in range(k):
            phi = standard_cyclic_3cocycle(k, j)
            perturbed = phi + coboundary(random_cochain(group, 2, rng))
            assert cyclic_class_invariant(perturbed) == j
            for j2 in range(k):
                expected = j == j2
                got = cohomologous(perturbed, standard_cyclic_3cocycle(k, j2)) is not None
                assert got == expected

    def test_rejects_non_cyclic(self):
        with pytest.raises(NotCyclic):
            cyclic_class_invariant(Cochain.zero(FiniteAbelianGroup([2, 2]), 3))


class TestKlein:
    def test_all_are_cocycles(self):
        for phi in klein_cocycles():
            assert is_cocycle(phi)

    def test_mixed_cocycle_point_value(self):
        _, _, phi3 = klein_cocycles()
        assert phi3((1, 0), (1, 0), (0, 1)) == HALF_ANGLE

    def test_central_character_signs(self):
        phi1, phi2, phi3 = klein_cocycles()
        plus, minus, vector = (1, 0), (0, 1), (1, 1)
        assert phi1(plus, plus, plus) == HALF_ANGLE
        assert phi1(vector, vector, vector) == HALF_ANGLE
        assert phi1(minus, minus, minus) == ZERO_ANGLE
        assert phi2(minus, minus, minus) == HALF_ANGLE
        assert phi2(vector, vector, vector) == HALF_ANGLE
        assert phi2(plus, plus, plus) == ZERO_ANGLE
        assert phi3(plus, plus, plus) == ZERO_ANGLE
        assert phi3(minus, minus, minus) == ZERO_ANGLE
        assert phi3(vector, vector, vector) == HALF_ANGLE


class TestCertificates:
    def test_class_key_needs_a_cocycle(self):
        c = Cochain.from_numerators(FiniteAbelianGroup([3]), 3, [1] + [0] * 26, 3)
        with pytest.raises(NotCocycle):
            class_key(c)

    def test_smith_data_that_fails_its_factorization_is_refused(self, monkeypatch):
        real = cohomology.smith_normal_form

        def corrupted(a):
            s, u, v = real(a)
            s[0][0] += 1
            return s, u, v

        monkeypatch.setattr(cohomology, "smith_normal_form", corrupted)
        cohomology._solver_data.cache_clear()
        try:
            with pytest.raises(CertificateError):
                cohomology._solver_data((3,), 2)
        finally:
            cohomology._solver_data.cache_clear()

    def test_wrong_witness_is_refused(self, monkeypatch):
        solver = cohomology._solver_data((3,), 3)
        zero_v = [[0] * len(row) for row in solver.v]
        monkeypatch.setattr(cohomology, "_solver_data", lambda *key: solver._replace(v=zero_v))
        b = Cochain.from_numerators(FiniteAbelianGroup([3]), 2, range(9), 3)
        phi = standard_cyclic_3cocycle(3, 1)
        with pytest.raises(CertificateError):
            cohomologous(phi + coboundary(b), phi)


# --- properties -----------------------------------------------------------

FACTORS = [(2,), (3,), (4,), (2, 2)]
angle_values = st.fractions(min_value=-2, max_value=2, max_denominator=12)


@st.composite
def cochains(draw, degrees=(1, 2, 3)):
    group = FiniteAbelianGroup(draw(st.sampled_from(FACTORS)))
    degree = draw(st.sampled_from(degrees))
    keys = list(product(group.elements(), repeat=degree))
    values = draw(st.lists(angle_values, min_size=len(keys), max_size=len(keys)))
    return Cochain(group, degree, {k: UnitAngle(v) for k, v in zip(keys, values)})


def fraction_bar_differential(c: Cochain) -> dict:
    """The bar differential over Fractions, from point values only."""
    factors, degree = c.group.factors, c.degree
    elems = list(product(*(range(k) for k in factors)))

    def add(g, h):
        return tuple((a + b) % k for a, b, k in zip(g, h, factors))

    out = {}
    for args in product(elems, repeat=degree + 1):
        total = c(*args[1:]).value
        for i in range(degree):
            total += (-1) ** (i + 1) * c(*args[:i], add(args[i], args[i + 1]), *args[i + 2 :]).value
        total += (-1) ** (degree + 1) * c(*args[:-1]).value
        out[args] = total % 1
    return out


def klein_combinations() -> list[Cochain]:
    phis = klein_cocycles()
    out = []
    for mask in product((0, 1), repeat=3):
        c = Cochain.zero(phis[0].group, 3)
        for e, phi in zip(mask, phis):
            if e:
                c = c + phi
        out.append(c)
    return out


@st.composite
def perturbed_pairs(draw):
    """Two cocycles with their class labels, each moved by a random coboundary."""
    k = draw(st.sampled_from([2, 3, 4, "klein"]))
    reps = klein_combinations() if k == "klein" else [standard_cyclic_3cocycle(k, j) for j in range(k)]
    group = reps[0].group
    first = draw(st.integers(0, len(reps) - 1))
    second = first if draw(st.booleans()) else draw(st.integers(0, len(reps) - 1))
    out = []
    for label in (first, second):
        nums = draw(st.lists(st.integers(0, 11), min_size=group.order**2, max_size=group.order**2))
        b = Cochain.from_numerators(group, 2, nums, 12)
        out.append((reps[label] + coboundary(b), label))
    return out


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(cochains())
    def test_coboundary_matches_fraction_differential(self, c):
        d = coboundary(c)
        expected = fraction_bar_differential(c)
        assert all(d(*args) == UnitAngle(value) for args, value in expected.items())

    @settings(max_examples=60, deadline=None)
    @given(perturbed_pairs())
    def test_class_key_agrees_with_cohomologous(self, pair):
        (a, label_a), (b, label_b) = pair
        same_key = class_key(a) == class_key(b)
        assert same_key == (cohomologous(a, b) is not None)
        assert same_key == (label_a == label_b)

    @settings(max_examples=30, deadline=None)
    @given(cochains())
    def test_json_round_trip(self, c):
        assert Cochain.from_json(c.to_json()) == c
