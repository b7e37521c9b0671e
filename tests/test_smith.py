"""The exact rational kernel routine of the linear-algebra module."""

from fractions import Fraction

from sutwist.smith import kernel_basis


def _rows(*rows):
    return [[Fraction(x) for x in row] for row in rows]


def _annihilates(rows, vec):
    return all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows)


def test_known_kernel():
    rows = _rows((1, 2, 3), (2, 4, 6))
    basis = kernel_basis(rows)
    assert len(basis) == 2
    assert all(_annihilates(rows, v) for v in basis)


def test_full_rank_has_trivial_kernel():
    assert kernel_basis(_rows((1, 0), (0, 1), (1, 1))) == []


def test_rational_entries():
    rows = _rows((Fraction(1, 3), Fraction(-2, 9), 0), (0, Fraction(4, 9), Fraction(-1, 2)))
    (vec,) = kernel_basis(rows)
    assert _annihilates(rows, vec)
    assert rows == _rows((Fraction(1, 3), Fraction(-2, 9), 0), (0, Fraction(4, 9), Fraction(-1, 2)))


def test_no_rows():
    assert kernel_basis([]) == []
