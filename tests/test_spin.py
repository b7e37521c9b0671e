"""Spin- and vector-representation checks: bases, Clifford consistency,
sign bookkeeping, intertwiners, pairings, and the invariant vector."""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from sutwist import spin
from sutwist.scalars import HalfLaurent, NonSquareBase
from sutwist.spin import (
    ModeMismatch,
    _as_int,
    Representation,
    SubsetBasis,
    TensorVector,
    VectorBasis,
    build_spin_rep,
    build_vector_rep,
    check_V_intertwiner,
    clifford_quadratic,
    coproduct_action,
    embeddings_g_h,
    index_shift,
    invariant_f,
    pairing_gh,
    pairing_gh_terms,
    sigma_index,
    subset_elements,
    theorem_a1_check,
    tilde_e,
)


class TestBases:
    def test_subset_basis_sizes(self):
        assert len(SubsetBasis(3, "full")) == 8
        assert len(SubsetBasis(3, "odd")) == 4
        assert len(SubsetBasis(3, "even")) == 4
        assert len(SubsetBasis(5, "odd")) == 16

    def test_even_rank_rejected(self):
        with pytest.raises(ValueError):
            SubsetBasis(4, "odd")

    def test_vector_basis_size(self):
        assert len(VectorBasis(3)) == 6

    def test_subset_elements(self):
        assert subset_elements(0b101) == [1, 3]
        assert subset_elements(0) == []

    def test_torus_exponents_are_small_integers(self):
        for rep in (build_spin_rep(3, "quantum", "odd"), build_vector_rep(3, "quantum")):
            for i in range(1, 4):
                assert set(rep.hvals[i]) <= {-1, 0, 1}


class TestCliffordQuadratic:
    def test_skew_symmetry(self):
        basis = SubsetBasis(3, "full")
        for a, b in ((1, 2), (1, 5), (2, 6), (4, 5)):
            qab = clifford_quadratic(3, a, b, basis)
            qba = clifford_quadratic(3, b, a, basis)
            assert qba == {k: -v for k, v in qab.items()}

    def test_diagonal_pair_vanishes(self):
        basis = SubsetBasis(3, "full")
        assert clifford_quadratic(3, 1, 1, basis) == {}
        assert clifford_quadratic(3, 5, 5, basis) == {}

    def test_cartan_pairs_are_half_integer_diagonal(self):
        basis = SubsetBasis(3, "full")
        for a in (1, 2, 3):
            quad = clifford_quadratic(3, a, a + 3, basis)
            assert set(quad) == {(i, i) for i in range(8)}
            for (i, _), v in quad.items():
                member = basis.masks[i] >> (a - 1) & 1
                assert v == (Fraction(-1, 2) if member else Fraction(1, 2))

    def test_raising_generators_match_quadratic_form(self):
        n = 3
        basis = SubsetBasis(n, "full")
        rep = build_spin_rep(n, "classical", "full")
        for i in (1, 2):
            quad = clifford_quadratic(n, i, n + i + 1, basis)
            op = {
                (row, col): coeff
                for col, moves in rep.x_ops[i].items()
                for row, coeff in moves
            }
            assert quad == {k: -v for k, v in op.items()}


class TestIndexShift:
    def test_full_set(self):
        assert index_shift(3, 1, 0b111) == -3

    def test_singleton(self):
        assert index_shift(3, 1, 0b001) == -2

    def test_classical_signs(self):
        assert sigma_index(3, 1, 0b001, "classical") == (-2, HalfLaurent.from_int(1))
        assert sigma_index(3, 1, 0b111, "classical") == (-3, HalfLaurent.from_int(-1))

    def test_quantum_coefficients(self):
        _, c1 = sigma_index(3, 1, 0b001, "quantum")
        _, c2 = sigma_index(3, 1, 0b111, "quantum")
        assert c1 == HalfLaurent({-4: 1})  # q^-2
        assert c2 == HalfLaurent({-6: -1})  # -q^-3

    def test_sign_matches_exponent_parity(self):
        for mask in range(1, 8):
            for i in (1, 2, 3, 4, 5, 6):
                expo, coeff = sigma_index(3, i, mask, "classical")
                assert coeff == HalfLaurent.from_int(-1 if expo % 2 else 1)


class TestTildeE:
    def test_quantum_e1_entries(self):
        plus = build_spin_rep(3, "quantum", "odd")
        vec = tilde_e(3, 1, plus)
        idx = plus.basis.index
        one, full = idx[0b001], idx[0b111]
        assert vec.entries == {
            (one, full): HalfLaurent({-4: 1}),
            (full, one): HalfLaurent({-6: -1}),
        }

    def test_classical_e1_entries(self):
        plus = build_spin_rep(3, "classical", "odd")
        vec = tilde_e(3, 1, plus)
        idx = plus.basis.index
        assert vec.entries == {
            (idx[0b001], idx[0b111]): HalfLaurent.from_int(1),
            (idx[0b111], idx[0b001]): HalfLaurent.from_int(-1),
        }

    def test_first_factor_always_odd(self):
        plus = build_spin_rep(3, "quantum", "odd")
        for gen in range(1, 7):
            vec = tilde_e(3, gen, plus)
            for a, _ in vec.entries:
                mask = plus.basis.masks[a]
                assert bin(mask).count("1") % 2 == 1

    @pytest.mark.parametrize("mode", ["classical", "quantum"])
    def test_raising_kills_lowest_image(self, mode):
        plus = build_spin_rep(3, mode, "odd")
        vec = tilde_e(3, 1, plus)
        assert coproduct_action("X", 1, (plus, plus), vec).is_zero


MODES = ("classical", "quantum")


class TestIntertwiner:
    @pytest.mark.parametrize("mode", MODES)
    def test_rank_three(self, mode):
        assert check_V_intertwiner(3, mode)

    @pytest.mark.parametrize("n", [5, 7])
    @pytest.mark.parametrize("mode", MODES)
    def test_higher_ranks(self, n, mode):
        assert check_V_intertwiner(n, mode)


def _wrap(monkeypatch, name, corrupt):
    """Replace spin.<name> by a builder whose result `corrupt` edits in place."""
    original = getattr(spin, name)

    def built(*args):
        result = original(*args)
        corrupt(*args, result)
        return result

    monkeypatch.setattr(spin, name, built)


class TestIntertwinerMutations:
    """Every single corruption of the data the check reads makes it fail."""

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("mode", MODES)
    def test_flipped_tilde_e_sign(self, monkeypatch, n, mode):
        plus = build_spin_rep(n, mode, "odd")
        stride = 1 if n == 3 else 7  # every entry at n = 3, every 7th at n = 5
        for gen in range(1, 2 * n + 1):
            for key in list(tilde_e(n, gen, plus).entries)[::stride]:
                with monkeypatch.context() as m:

                    def corrupt(n_, i, rep, vec, gen=gen, key=key):
                        if i == gen:
                            vec.entries[key] = -vec.entries[key]

                    _wrap(m, "tilde_e", corrupt)
                    assert not spin.check_V_intertwiner(n, mode), (gen, key)

    @pytest.mark.parametrize("builder", ["build_spin_rep", "build_vector_rep"])
    @pytest.mark.parametrize("mode", MODES)
    def test_changed_generator_entry(self, monkeypatch, builder, mode):
        n = 3
        rep = getattr(spin, builder)(n, mode, *(("odd",) if builder == "build_spin_rep" else ()))
        entries = [
            (kind, i, col)
            for kind, ops in (("X", rep.x_ops), ("Y", rep.y_ops))
            for i, op in ops.items()
            for col in op
        ]
        assert entries
        for kind, i, col in entries:
            with monkeypatch.context() as m:

                def corrupt(*args, kind=kind, i=i, col=col):
                    (row, c), *rest = args[-1].generator(kind, i)[col]
                    args[-1].generator(kind, i)[col] = [(row, -c), *rest]

                _wrap(m, builder, corrupt)
                assert not spin.check_V_intertwiner(n, mode), (kind, i, col)

    @pytest.mark.parametrize("builder", ["build_spin_rep", "build_vector_rep"])
    def test_off_by_one_torus_eigenvalue(self, monkeypatch, builder):
        # Classical K^(1/2) acts as the identity, so the classical check never
        # reads hvals; only the quantum check can see this corruption.
        n = 3
        rep = getattr(spin, builder)(n, "quantum", *(("odd",) if builder == "build_spin_rep" else ()))
        for i, values in rep.hvals.items():
            for idx in range(len(values)):
                with monkeypatch.context() as m:

                    def corrupt(*args, i=i, idx=idx):
                        args[-1].hvals[i][idx] += 1

                    _wrap(m, builder, corrupt)
                    assert not spin.check_V_intertwiner(n, "quantum"), (i, idx)


@lru_cache(maxsize=None)
def _reps(n: int, mode: str) -> dict:
    return {"plus": build_spin_rep(n, mode, "odd"), "vec": build_vector_rep(n, mode)}


def _dense_generator(rep, kind, i):
    d = len(rep.basis)
    m = [[HalfLaurent.zero() for _ in range(d)] for _ in range(d)]
    for col, moves in rep.generator(kind, i).items():
        for row, c in moves:
            m[row][col] = m[row][col] + HalfLaurent.from_int(c)
    return m


def _dense_k_half(rep, i, power):
    """K_i^(power/2): q^(power * h / 2) on the diagonal, the identity classically."""
    d = len(rep.basis)
    m = [[HalfLaurent.zero() for _ in range(d)] for _ in range(d)]
    for idx in range(d):
        m[idx][idx] = HalfLaurent.one() if rep.mode == "classical" else HalfLaurent.q_power(power * rep.hvals[i][idx])
    return m


def _apply_kron(mats, entries):
    """(M_1 tensor ... tensor M_m) on a vector, applying one factor matrix per axis."""
    for axis, m in enumerate(mats):
        out = {}
        for key, v in entries.items():
            for row in range(len(m)):
                c = m[row][key[axis]]
                if not c.is_zero:
                    new_key = key[:axis] + (row,) + key[axis + 1 :]
                    out[new_key] = out.get(new_key, HalfLaurent.zero()) + c * v
        entries = out
    return entries


def _dense_coproduct(kind, i, reps, vec):
    """K^(1/2) tensor ... tensor G tensor K^(-1/2) tensor ..., summed over the slot of G."""
    if kind == "K":
        terms = [[_dense_k_half(r, i, 1) for r in reps]]
    else:
        terms = [
            [_dense_k_half(r, i, 1) for r in reps[:slot]]
            + [_dense_generator(reps[slot], kind, i)]
            + [_dense_k_half(r, i, -1) for r in reps[slot + 1 :]]
            for slot in range(len(reps))
        ]
    total = {}
    for mats in terms:
        for key, v in _apply_kron(mats, vec.entries).items():
            total[key] = total.get(key, HalfLaurent.zero()) + v
    return TensorVector(reps, total)


FACTOR_PATTERNS = {
    3: (("plus", "plus"), ("plus", "vec", "plus"), ("vec",)),
    5: (("plus", "plus"), ("vec", "plus")),
}


@st.composite
def _coproduct_cases(draw):
    n = draw(st.sampled_from(sorted(FACTOR_PATTERNS)))
    mode = draw(st.sampled_from(MODES))
    reps = tuple(_reps(n, mode)[name] for name in draw(st.sampled_from(FACTOR_PATTERNS[n])))
    keys = st.tuples(*(st.integers(0, len(r.basis) - 1) for r in reps))
    coeffs = st.dictionaries(st.integers(-4, 4), st.integers(-3, 3), max_size=3).map(HalfLaurent)
    entries = draw(st.dictionaries(keys, coeffs, max_size=6))
    kind = draw(st.sampled_from(("X", "Y", "K")))
    i = draw(st.integers(1, n))
    return kind, i, reps, TensorVector(reps, entries)


class TestCoproductAgainstDense:
    @settings(max_examples=80, deadline=None)
    @given(_coproduct_cases())
    def test_matches_dense_reference(self, case):
        kind, i, reps, vec = case
        assert coproduct_action(kind, i, reps, vec) == _dense_coproduct(kind, i, reps, vec)


class TestEmbeddings:
    @pytest.mark.parametrize("mode", ["classical", "quantum"])
    def test_both_vectors_are_lowest_weight(self, mode):
        g, h = embeddings_g_h(3, mode)
        for i in (1, 2, 3):
            assert coproduct_action("Y", i, g.factors, g).is_zero
            assert coproduct_action("Y", i, h.factors, h).is_zero

    def test_nonzero(self):
        g, h = embeddings_g_h(3, "quantum")
        assert not g.is_zero and not h.is_zero


class TestPairing:
    def test_classical_values(self):
        assert pairing_gh(3, "classical") == HalfLaurent.from_int(6)
        assert pairing_gh(5, "classical") == HalfLaurent.from_int(-20)

    def test_quantum_specializes_to_classical(self):
        assert pairing_gh(3, "quantum").evaluate(Fraction(1)) == 6

    def test_quantum_value_rank_three(self):
        assert pairing_gh(3, "quantum") == HalfLaurent({-16: 1, -12: 2, -8: 2, -4: 1})

    def test_each_quantum_term_is_signed_power(self):
        for term in pairing_gh_terms(3, "quantum"):
            assert len(term.terms) == 1
            (coeff,) = term.terms.values()
            assert coeff in (1, -1)

    def test_term_count_matches_modes(self):
        assert len(pairing_gh_terms(3, "classical")) == len(pairing_gh_terms(3, "quantum")) == 6


class TestInvariantVector:
    def test_exists_and_integral(self):
        vec = invariant_f(3, Fraction(1, 4))
        assert not vec.is_zero
        assert len(vec.factors) == 4

    def test_scalar_endomorphism(self):
        assert theorem_a1_check(3, Fraction(1))
        assert theorem_a1_check(3, Fraction(1, 4))

    def test_nonsquare_base_rejected(self):
        with pytest.raises(NonSquareBase):
            invariant_f(3, Fraction(1, 2))

    def test_other_ranks_rejected(self):
        with pytest.raises(ValueError):
            invariant_f(5, Fraction(1, 4))

    def test_non_constant_entry_is_an_error(self):
        with pytest.raises(ArithmeticError):
            _as_int(HalfLaurent.q_power(2))


class TestModeMismatch:
    def test_mixed_modes_rejected(self):
        a = build_spin_rep(3, "quantum", "odd")
        b = build_spin_rep(3, "classical", "odd")
        vec = TensorVector((a, b), {(0, 0): HalfLaurent.one()})
        with pytest.raises(ModeMismatch):
            coproduct_action("X", 1, (a, b), vec)
