"""Smith-style diagonalization of integer matrices with unimodular transforms.

Returns S = U * A * V with S diagonal and nonnegative (the divisibility chain
of the true Smith form is not enforced; solving linear systems over Q/Z only
needs the diagonal).  Sizes in this project stay below a few hundred rows, so
a plain pivot-and-reduce loop over Python ints is exact and fast enough.

`mat_mul` and `mat_vec` are plain integer products.  The cohomology solver
applies U and V to integer numerators over a common modulus, and checks the
factorization with `mat_mul` once per matrix, so no Fraction enters here.
"""

from __future__ import annotations

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
