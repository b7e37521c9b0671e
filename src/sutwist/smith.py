"""Exact linear algebra: the one module for integer and rational solves.

Two routines, one per caller:

- `smith_normal_form` serves the cohomology solver.  It returns
  S = U * A * V with S diagonal and nonnegative (the divisibility chain of the
  true Smith form is not enforced; solving linear systems over Q/Z only needs
  the diagonal), by a plain pivot-and-reduce loop over Python ints.  The
  solver applies U and V to integer numerators over a common modulus with
  `mat_vec`, and checks the factorization with `mat_mul` once per matrix, so
  no Fraction enters there.  Its matrices stay below a few hundred rows of
  small entries.
- `kernel_basis` serves `spin.invariant_f`: a basis of the right kernel of a
  rational matrix, by Gauss-Jordan elimination over Fraction, with every
  basis vector checked against every row before it is returned.  Routing that
  solve through `smith_normal_form` instead is much slower: the pivot loop
  does nothing to bound coefficient growth, and on the invariant-vector rows
  at q0 = 4/9 (cleared to integers) its entries grow to millions of bits.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return (S, U, V) with S = U @ A @ V, U and V unimodular, S diagonal."""
    s = [row[:] for row in a]
    m = len(s)
    n = len(s[0]) if m else 0
    u = identity(m)
    v = identity(n)

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, factor):
        s[dst] = [x + factor * y for x, y in zip(s[dst], s[src])]
        u[dst] = [x + factor * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, factor):
        for row in s:
            row[dst] += factor * row[src]
        for row in v:
            row[dst] += factor * row[src]

    t = 0
    while t < min(m, n):
        # pick the smallest nonzero entry in the remaining block as pivot
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if s[i][j] != 0 and (pivot is None or abs(s[i][j]) < abs(s[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if s[i][t] != 0:
                    q = s[i][t] // s[t][t]
                    add_row(t, i, -q)
                    if s[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if s[t][j] != 0:
                    q = s[t][j] // s[t][t]
                    add_col(t, j, -q)
                    if s[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return s, u, v


def mat_vec(a: Matrix, x) -> list[int]:
    return [sum(map(mul, row, x)) for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    columns = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in columns] for row in a]


def kernel_basis(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right kernel of a rational matrix given as a list of rows.

    Raises ArithmeticError if a basis vector fails to annihilate some row.
    The check clears denominators first, so it runs on integers.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    mat = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
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
        if r == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for pr, pc in enumerate(pivots):
            vec[pc] = -mat[pr][fc]
        basis.append(vec)
    int_rows = [_cleared(row) for row in rows]
    for k, vec in enumerate(basis):
        int_vec = _cleared(vec)
        for i, row in enumerate(int_rows):
            if sum(map(mul, row, int_vec)) != 0:
                raise ArithmeticError(f"kernel vector {k} does not annihilate row {i}")
    return basis


def _cleared(v: list[Fraction]) -> list[int]:
    """A positive integer multiple of a rational vector."""
    d = lcm(*(x.denominator for x in v))
    return [x.numerator * (d // x.denominator) for x in v]
