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
  rational system whose rows have at most two nonzeros, solved over a
  spanning forest of the graph with one node per column and one edge per
  row.  The forest is a certificate (McConnell et al., "Certifying
  algorithms", 2011): its tree edges force every value of a component from
  its root, so each component adds at most one dimension; every row not in
  the forest is then tested exactly, so the dimension found is exact and no
  row is left unchecked.  Each basis vector is also checked against every
  row before it is returned.  No caller builds a row with three nonzeros,
  and one is refused.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Mapping, Sequence

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


def kernel_basis(rows: Sequence[Mapping[int, Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel of a rational matrix with at most two nonzeros per row.

    `rows` are sparse (column -> entry) over columns 0..ncols-1.  Each column
    is a node and each two-entry row an edge; every component, rooted at its
    largest column with value 1, gets the value its spanning tree forces on
    each column.  A one-entry row, or a non-tree row that fails, forces the
    root to zero.  Every other component gives one basis vector, listed by
    root, so the basis is the reduced one that Gauss-Jordan elimination
    returns.  Raises ArithmeticError on a row with more than two nonzeros,
    and if a basis vector fails to annihilate some row.
    """
    edges: list[list[tuple[int, int, Fraction, Fraction]]] = [[] for _ in range(ncols)]
    forced = [False] * ncols
    for i, row in enumerate(rows):
        terms = [(c, a) for c, a in row.items() if a]
        if len(terms) > 2:
            raise ArithmeticError(f"row {i} has {len(terms)} nonzeros; the forest kernel takes at most two")
        if len(terms) == 1:
            forced[terms[0][0]] = True
        elif terms:
            (u, a), (v, b) = terms
            edges[u].append((i, v, a, b))
            edges[v].append((i, u, b, a))
    value: list[Fraction | None] = [None] * ncols
    seen = [False] * len(rows)
    basis = []
    for root in reversed(range(ncols)):
        if value[root] is not None:
            continue
        value[root] = Fraction(1)
        component = [root]
        live = True
        for u in component:
            live = live and not forced[u]
            for i, v, a, b in edges[u]:
                if seen[i]:
                    continue
                seen[i] = True
                # row i reads a * x_u + b * x_v = 0
                if value[v] is None:
                    value[v] = -a * value[u] / b
                    component.append(v)
                elif a * value[u] + b * value[v]:
                    live = False
        if live:
            vec = [Fraction(0)] * ncols
            for c in component:
                vec[c] = value[c]
            basis.append(vec)
    basis.reverse()
    for k, vec in enumerate(basis):
        for i, row in enumerate(rows):
            if sum(a * vec[c] for c, a in row.items()):
                raise ArithmeticError(f"kernel vector {k} does not annihilate row {i}")
    return basis
