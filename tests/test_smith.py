"""The exact rational kernel routine of the linear-algebra module.

`kernel_basis` solves systems with at most two nonzeros per row over a
spanning forest.  `gauss_jordan_kernel` below is the dense elimination it
replaced, kept here as the reference it is compared against.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from sutwist import spin
from sutwist.smith import kernel_basis


def gauss_jordan_kernel(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Reduced basis of the right kernel of a dense rational matrix."""
    mat = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(mat):
            break
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for pr, pc in enumerate(pivots):
            vec[pc] = -mat[pr][fc]
        basis.append(vec)
    return basis


def _rows(*rows):
    return [{c: Fraction(x) for c, x in enumerate(row) if x} for row in rows]


def _dense(rows, ncols):
    return [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]


def _annihilates(rows, vec):
    return all(sum(a * vec[c] for c, a in row.items()) == 0 for row in rows)


def test_known_kernel():
    # columns 0 and 1 are tied by two proportional rows; column 2 is free
    rows = _rows((1, 2, 0), (2, 4, 0))
    basis = kernel_basis(rows, 3)
    assert basis == [[-2, 1, 0], [0, 0, 1]]
    assert all(_annihilates(rows, v) for v in basis)


def test_full_rank_has_trivial_kernel():
    assert kernel_basis(_rows((1, 0), (0, 1), (1, 1)), 2) == []


def test_rational_entries():
    rows = _rows((Fraction(1, 3), Fraction(-2, 9), 0), (0, Fraction(4, 9), Fraction(-1, 2)))
    (vec,) = kernel_basis(rows, 3)
    assert _annihilates(rows, vec)
    assert rows == _rows((Fraction(1, 3), Fraction(-2, 9), 0), (0, Fraction(4, 9), Fraction(-1, 2)))


def test_no_rows():
    assert kernel_basis([], 0) == []
    assert kernel_basis([], 2) == [[1, 0], [0, 1]]


def test_three_nonzeros_refused():
    with pytest.raises(ArithmeticError, match="3 nonzeros"):
        kernel_basis(_rows((1, 2, 3), (2, 4, 6)), 3)


NONZERO = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))


@st.composite
def two_term_systems(draw):
    """Systems with at most two nonzeros per row.

    Rows of kind "fit" vanish on a hidden vector, so cycles of them are
    consistent; rows of kind "any" usually close inconsistent cycles.  One-entry
    rows, repeated rows and columns no row touches occur as well.
    """
    ncols = draw(st.integers(1, 6))
    hidden = draw(st.lists(st.sampled_from([0, 1, -2, Fraction(1, 3)]), min_size=ncols, max_size=ncols))
    rows: list[dict[int, Fraction]] = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(["one", "any", "fit", "fit", "repeat"]))
        if kind == "repeat" and rows:
            rows.append(dict(draw(st.sampled_from(rows))))
        elif kind == "one" or ncols == 1:
            rows.append({draw(st.integers(0, ncols - 1)): draw(NONZERO)})
        else:
            u, v = draw(st.lists(st.integers(0, ncols - 1), min_size=2, max_size=2, unique=True))
            a = draw(NONZERO)
            b = -a * hidden[u] / hidden[v] if kind == "fit" and hidden[v] else draw(NONZERO)
            rows.append({c: x for c, x in ((u, a), (v, b)) if x})
    return ncols, rows


@settings(max_examples=100, deadline=None)
@given(two_term_systems())
@example((3, _rows((1, -1, 0))))  # an isolated column
@example((3, _rows((1, -1, 0), (0, 2, 0), (0, 0, 1))))  # one-entry rows
@example((3, _rows((1, -1, 0), (0, 1, -1), (1, 0, -1))))  # a consistent cycle
@example((3, _rows((1, -1, 0), (0, 1, -1), (1, 0, 1))))  # an inconsistent cycle
@example((2, _rows((2, 3), (2, 3))))  # a repeated row
def test_forest_kernel_matches_gauss_jordan(system):
    ncols, rows = system
    basis = kernel_basis(rows, ncols)
    reference = gauss_jordan_kernel(_dense(rows, ncols), ncols)
    assert len(basis) == len(reference)
    assert all(_annihilates(rows, vec) for vec in basis)
    # both return the reduced basis, so even the scale of each vector agrees
    assert basis == reference


def test_invariant_rows_match_gauss_jordan(monkeypatch):
    """The rows `invariant_f` builds give the reference's vector, and so its output."""
    solved = []

    def reference_kernel(rows, ncols):
        solved.append(kernel_basis(rows, ncols))
        return gauss_jordan_kernel(_dense(rows, ncols), ncols)

    for q0 in (Fraction(4, 9), Fraction(1), Fraction(49, 121)):
        forest = spin.invariant_f(3, q0)
        monkeypatch.setattr(spin, "kernel_basis", reference_kernel)
        assert spin.invariant_f(3, q0) == forest
        monkeypatch.undo()
    assert len(solved) == 3 and all(len(basis) == 1 for basis in solved)
