"""Half-spin and vector representations of the even orthogonal quantum group.

Everything is exact: generator matrices have integer entries and diagonal
torus operators have entries q^(h/2) with h in {-1, 0, 1}.

A vector in a tensor product of representations has one format, the flat
`FlatVector`: a dict (basis tensor, doubled q-exponent) -> integer
coefficient, so q^(1/2) is exponent 1 and a coefficient that is a Laurent
polynomial in q^(1/2) spreads over several keys.  The intertwiner images
`tilde_e`, the embedding vectors `embeddings_g_h` and the coproduct action all
build and read that format; `pairing_gh` alone sums its terms into the
Laurent polynomial it reports.

There is one coproduct, `coproduct_moves`: the move table of a generator
X_i, Y_i or K_i^(1/2) on a tensor product, which sends a basis tensor to its
terms (new key, integer coefficient, shift of the doubled q-exponent).  X and
Y act in one slot with K^(1/2) on every factor to its left and K^(-1/2) to
its right, so the shift is the sum of the torus eigenvalues to the left minus
the sum to the right (0 in classical mode).  Its consumers:

- `coproduct_action` applies it to a flat vector, and `check_V_intertwiner`
  compares both sides of each equation as one flat difference;
- `invariant_f` evaluates each term at a rational q0 as coefficient *
  sqrt(q0)^shift into sparse rows over the torus-neutral basis tensors.
  Every such row has exactly two nonzeros, so `smith.kernel_basis` solves
  for the invariant vector over a spanning forest and certifies that its
  space has dimension one.

Subsets of {1, ..., n} are bitmasks (bit k-1 is the element k); the basis
vector for a subset is the ascending wedge of its elements.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Literal, Sequence

from .scalars import HalfLaurent, _sqrt_fraction
from .smith import kernel_basis

Mode = Literal["classical", "quantum"]

# sparse operator: column index -> list of (row index, integer coefficient)
SparseOp = dict[int, list[tuple[int, int]]]
# flat tensor vector: (basis tensor, doubled q-exponent) -> integer coefficient
FlatVector = dict[tuple[tuple[int, ...], int], int]


# invariant_f at n = 7 (2016 rows over 448 torus-neutral columns) takes about
# 0.15 s on a 2-core x86-64 host under Python 3.11.  n = 9 has not been run, so
# it has no measured budget and stays refused.
INVARIANT_MAX_N = 7


class MultiplicityNotOne(ValueError):
    """The trivial-subrepresentation space does not have dimension one."""


class ModeMismatch(ValueError):
    pass


def _popcount_below(mask: int, i: int) -> int:
    """Number of elements of the subset below i (elements are 1-based)."""
    return bin(mask & ((1 << (i - 1)) - 1)).count("1")


def _wedge(i: int, mask: int) -> tuple[int, int] | None:
    """e_i wedge e_mask: (sign, new mask), or None if i is already present."""
    bit = 1 << (i - 1)
    if mask & bit:
        return None
    return (-1) ** _popcount_below(mask, i), mask | bit


def _contract(i: int, mask: int) -> tuple[int, int] | None:
    """e_i contraction of e_mask: (sign, new mask), or None if i is absent."""
    bit = 1 << (i - 1)
    if not mask & bit:
        return None
    return (-1) ** _popcount_below(mask, i), mask & ~bit


class SubsetBasis:
    """Basis of a (half-)spinor space indexed by subsets of {1, ..., n}."""

    def __init__(self, n: int, parity: Literal["odd", "even", "full"]) -> None:
        if n < 3 or n % 2 == 0:
            raise ValueError(f"n must be odd and >= 3, got {n}")
        self.n = n
        self.parity = parity
        masks = range(1 << n)
        if parity == "odd":
            masks = (m for m in masks if bin(m).count("1") % 2 == 1)
        elif parity == "even":
            masks = (m for m in masks if bin(m).count("1") % 2 == 0)
        self.masks = tuple(sorted(masks))
        self.index = {m: k for k, m in enumerate(self.masks)}

    def __len__(self) -> int:
        return len(self.masks)

    def doubled_weights(self) -> list[tuple[int, ...]]:
        """Twice the weight of e_X: coordinate k is +1 for k in X, else -1."""
        return [tuple(1 if mask >> k & 1 else -1 for k in range(self.n)) for mask in self.masks]

    def __repr__(self) -> str:
        return f"SubsetBasis(n={self.n}, parity={self.parity!r})"


class VectorBasis:
    """The 2n-dimensional defining representation basis e_1, ..., e_2n."""

    def __init__(self, n: int) -> None:
        self.n = n

    def __len__(self) -> int:
        return 2 * self.n

    def doubled_weights(self) -> list[tuple[int, ...]]:
        """Twice the weight of e_k, which is L_k for k <= n and -L_{k-n} for k > n."""
        return [
            tuple(2 * sign if j == k else 0 for j in range(self.n)) for sign in (1, -1) for k in range(self.n)
        ]

    def __repr__(self) -> str:
        return f"VectorBasis(n={self.n})"


def _hvals_from_weights(n: int, doubled: Sequence[Sequence[int]]) -> dict[int, list[int]]:
    """Torus eigenvalues h_i from twice the weight of each basis vector.

    For i < n the coroot pairing is w_i - w_{i+1}; the exceptional node pairs
    with w_{n-1} + w_n.  Both are integers on these bases, so the doubled
    sums are even.  Deriving h from weights rather than from [X_i, Y_i]
    keeps it independent of the sign conventions chosen for the generator
    matrices (the exceptional wedge pair satisfies [X_n, Y_n] = -H_n).
    """
    hvals: dict[int, list[int]] = {}
    for i in range(1, n):
        hvals[i] = [(w[i - 1] - w[i]) // 2 for w in doubled]
    hvals[n] = [(w[n - 2] + w[n - 1]) // 2 for w in doubled]
    return hvals


class Representation:
    """A module with generator actions X_i, Y_i and torus eigenvalues.

    `hvals[i]` lists the eigenvalue of H_i on each basis vector, derived from
    the basis weights; K_i^(1/2) acts diagonally by q^(h/2) in quantum mode
    and trivially in classical mode.
    """

    def __init__(self, basis, x_ops: dict[int, SparseOp], y_ops: dict[int, SparseOp], mode: Mode) -> None:
        self.basis = basis
        self.mode = mode
        self.n = basis.n
        self.x_ops = x_ops
        self.y_ops = y_ops
        self.hvals = _hvals_from_weights(self.n, basis.doubled_weights())

    def generator(self, kind: str, i: int) -> SparseOp:
        if kind == "X":
            return self.x_ops[i]
        if kind == "Y":
            return self.y_ops[i]
        raise ValueError(f"unknown generator kind {kind!r}")


def build_vector_rep(n: int, mode: Mode) -> Representation:
    """The 2n-dimensional defining representation.

    Generator matrices are the usual two-term matrix-unit combinations; the
    torus eigenvalues on the weights +-L_i are 0 and +-1, so the quantum action
    uses the same matrices.
    """
    basis = VectorBasis(n)
    x_ops: dict[int, SparseOp] = {}
    y_ops: dict[int, SparseOp] = {}
    # indices: e_k is k-1, e_{n+k} is n+k-1 (0-based)
    for i in range(1, n):
        x: SparseOp = {}
        x[i] = [(i - 1, 1)]  # e_{i+1} -> e_i
        x[n + i - 1] = [(n + i, -1)]  # e_{n+i} -> -e_{n+i+1}
        y: SparseOp = {}
        y[i - 1] = [(i, 1)]  # e_i -> e_{i+1}
        y[n + i] = [(n + i - 1, -1)]  # e_{n+i+1} -> -e_{n+i}
        x_ops[i] = x
        y_ops[i] = y
    x: SparseOp = {}
    x[2 * n - 1] = [(n - 2, 1)]  # e_{2n} -> e_{n-1}
    x[2 * n - 2] = [(n - 1, -1)]  # e_{2n-1} -> -e_n
    y = {}
    y[n - 1] = [(2 * n - 2, 1)]  # e_n -> e_{2n-1}
    y[n - 2] = [(2 * n - 1, -1)]  # e_{n-1} -> -e_{2n}
    x_ops[n] = x
    y_ops[n] = y
    return Representation(basis, x_ops, y_ops, mode)


def _spin_op(n: int, basis: SubsetBasis, action) -> SparseOp:
    op: SparseOp = {}
    for col, mask in enumerate(basis.masks):
        image = action(mask)
        if image is None:
            continue
        sign, new_mask = image
        op[col] = [(basis.index[new_mask], sign)]
    return op


def clifford_quadratic(n: int, a: int, b: int, basis: SubsetBasis) -> dict[tuple[int, int], Fraction]:
    """The operator (1/4)[c(e_a), c(e_b)] on the spinor space, 1 <= a, b <= 2n.

    Computed through doubled Clifford generators so that no square roots
    appear: c_i = sqrt(2) * wedge_i and c_{n+i} = -sqrt(2) * contract_i.
    """

    def half_gen(idx: int, mask: int) -> tuple[int, int] | None:
        # c_idx / sqrt(2) as a signed basis move
        if idx <= n:
            return _wedge(idx, mask)
        moved = _contract(idx - n, mask)
        if moved is None:
            return None
        return -moved[0], moved[1]

    out: dict[tuple[int, int], Fraction] = {}
    for col, mask in enumerate(basis.masks):
        for first, second, overall in ((b, a, Fraction(1, 2)), (a, b, Fraction(-1, 2))):
            step1 = half_gen(first, mask)
            if step1 is None:
                continue
            step2 = half_gen(second, step1[1])
            if step2 is None:
                continue
            key = (basis.index[step2[1]], col)
            out[key] = out.get(key, Fraction(0)) + overall * step1[0] * step2[0]
    return {k: v for k, v in out.items() if v}


def build_spin_rep(n: int, mode: Mode, parity: Literal["odd", "even", "full"] = "full") -> Representation:
    """Generator actions on the spinor space (or a half-spin part).

    The compact forms X_i = e_i wedge (e_{i+1} contraction), X_n = double wedge
    with e_n, e_{n-1}, etc., agree with the quadratic Clifford embedding; that
    agreement is a test obligation, not an assumption used here.
    """
    basis = SubsetBasis(n, parity)
    x_ops: dict[int, SparseOp] = {}
    y_ops: dict[int, SparseOp] = {}

    def chain(mask: int, *moves) -> tuple[int, int] | None:
        sign = 1
        for move in moves:
            out = move(mask)
            if out is None:
                return None
            sign *= out[0]
            mask = out[1]
        return sign, mask

    for i in range(1, n):
        x_ops[i] = _spin_op(
            n, basis, lambda m, i=i: chain(m, lambda mm: _contract(i + 1, mm), lambda mm: _wedge(i, mm))
        )
        y_ops[i] = _spin_op(
            n, basis, lambda m, i=i: chain(m, lambda mm: _contract(i, mm), lambda mm: _wedge(i + 1, mm))
        )
    x_ops[n] = _spin_op(
        n, basis, lambda m: chain(m, lambda mm: _wedge(n - 1, mm), lambda mm: _wedge(n, mm))
    )
    y_ops[n] = _spin_op(
        n, basis, lambda m: chain(m, lambda mm: _contract(n - 1, mm), lambda mm: _contract(n, mm))
    )
    return Representation(basis, x_ops, y_ops, mode)


Move = tuple[tuple[int, ...], int, int]


def coproduct_moves(kind: str, i: int, reps: Sequence[Representation]) -> Callable[[tuple[int, ...]], list[Move]]:
    """The move table of the iterated coproduct of a generator on a tensor product.

    Returns a function that sends a basis tensor to its terms (new key,
    integer coefficient, shift of the doubled q-exponent).  K^(1/2) acts as
    the tensor of its single-factor actions, so it keeps the key and shifts
    by the summed torus eigenvalues.  X and Y act in one slot at a time with
    K^(1/2) on every factor to the left and K^(-1/2) to the right (the
    two-term quantum formula iterated left-to-right), so the shift is the sum
    of the eigenvalues to the left minus the sum to the right.  Every shift is
    0 in classical mode, which for X and Y is the Leibniz rule.
    """
    quantum = reps[0].mode == "quantum"
    hvals = [rep.hvals[i] for rep in reps]
    if kind == "K":
        if not quantum:
            return lambda key: [(key, 1, 0)]
        return lambda key: [(key, 1, sum([h[k] for h, k in zip(hvals, key)]))]
    slots = list(enumerate(rep.generator(kind, i) for rep in reps))

    def moves(key: tuple[int, ...]) -> list[Move]:
        out = []
        for slot, op in slots:
            targets = op.get(key[slot])
            if targets:
                shift = 0
                if quantum:
                    for t, h in enumerate(hvals):
                        if t < slot:
                            shift += h[key[t]]
                        elif t > slot:
                            shift -= h[key[t]]
                for row, c in targets:
                    out.append((key[:slot] + (row,) + key[slot + 1 :], c, shift))
        return out

    return moves


def coproduct_action(kind: str, i: int, reps: Sequence[Representation], vec: FlatVector) -> FlatVector:
    """Apply the iterated coproduct of a generator to a flat tensor vector.

    Every term of `vec` goes through `coproduct_moves`.  The result holds no
    zero coefficient, so the zero vector is the empty dict.
    """
    modes = {r.mode for r in reps}
    if len(modes) > 1:
        raise ModeMismatch(f"mixed modes {modes}")
    moves = coproduct_moves(kind, i, reps)
    out: FlatVector = {}
    for (key, e), c in vec.items():
        for new_key, m, shift in moves(key):
            k = (new_key, e + shift)
            out[k] = out.get(k, 0) + m * c
    return {k: v for k, v in out.items() if v}


def subset_elements(mask: int) -> list[int]:
    return [k + 1 for k in range(mask.bit_length()) if mask >> k & 1]


def index_shift(n: int, i: int, mask: int) -> int:
    """The integer exponent I_i(X) (or I_{n+i} for i > n)."""
    elems = subset_elements(mask)
    base = sum(elems) - len(elems) * n
    if i <= n:
        return base + sum(1 for k in elems if k < i) - (i - 1)
    j = i - n
    return base + sum(1 for k in elems if k < j) - (n - 1)


def sigma_index(n: int, i: int, mask: int, mode: Mode) -> tuple[int, int]:
    """The coefficient (-1)^I or (-q)^I, I = I_i(X), as (doubled q-exponent, sign)."""
    expo = index_shift(n, i, mask)
    sign = -1 if expo % 2 else 1
    return (0 if mode == "classical" else 2 * expo), sign


def tilde_e(n: int, i: int, basis: SubsetBasis, mode: Mode) -> FlatVector:
    """The image of the vector-representation basis e_i inside U+ tensor U+.

    For i <= n the summation runs over pairs overlapping exactly in {i}; for
    i = n + j over partitions of the complement of {j}; the first factor
    always has odd size; `basis` is the odd half-spin basis.
    """
    full = (1 << n) - 1
    out: FlatVector = {}
    if i <= n:
        bit = 1 << (i - 1)
        rest = full & ~bit
        for sub in _all_submasks(rest):
            x1 = sub | bit
            if bin(x1).count("1") % 2 == 0:
                continue
            x2 = (rest & ~sub) | bit
            e, sign = sigma_index(n, i, x1, mode)
            out[((basis.index[x1], basis.index[x2]), e)] = sign
    else:
        j = i - n
        rest = full & ~(1 << (j - 1))
        outer = -1 if j % 2 else 1
        for sub in _all_submasks(rest):
            if bin(sub).count("1") % 2 == 0:
                continue
            x2 = rest & ~sub
            e, sign = sigma_index(n, i, sub, mode)
            out[((basis.index[sub], basis.index[x2]), e)] = outer * sign
    return out


def _all_submasks(mask: int) -> Iterable[int]:
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def check_V_intertwiner(n: int, mode: Mode) -> bool:
    """Verify that e_i -> tilde_e_i intertwines every generator action exactly.

    Weights first: every term of tilde_e_col must lie in the torus eigenspace
    of e_col, so the H_i eigenvalues over its basis tensor sum to h_i(e_col).
    This reads the torus eigenvalues in both modes; classically K^(1/2) acts
    as the identity, and the equations below never see them.  Then for each
    generator g and basis vector e_col of V, the coproduct of g on tilde_e_col
    minus the images of g e_col must vanish; both sides go into one flat
    difference dict over (basis tensor, doubled q-exponent).
    """
    plus = build_spin_rep(n, mode, "odd")
    vector = build_vector_rep(n, mode)
    pair = (plus, plus)
    images = [tilde_e(n, idx + 1, plus.basis, mode) for idx in range(2 * n)]
    for i in range(1, n + 1):
        h_plus, h_vec = plus.hvals[i], vector.hvals[i]
        for col, image in enumerate(images):
            if any(h_plus[a] + h_plus[b] != h_vec[col] for (a, b), _ in image):
                return False
        for kind in ("X", "Y", "K"):
            vec_moves = coproduct_moves(kind, i, (vector,))
            for col in range(2 * n):
                diff = coproduct_action(kind, i, pair, images[col])
                for (row,), c, shift in vec_moves((col,)):
                    for (key, e), v in images[row].items():
                        k = (key, e + shift)
                        diff[k] = diff.get(k, 0) - c * v
                if any(diff.values()):
                    return False
    return True


def embeddings_g_h(n: int, mode: Mode) -> tuple[FlatVector, FlatVector]:
    """The two lowest-weight embedding vectors in the triple tensor power of U+.

    g sums e_i tensor tilde_e_{n+i} with weight q^i; h sums tilde_e_{n+j}
    tensor e_j with weight q^(-j); classically both weights are 1.
    """
    basis = SubsetBasis(n, "odd")
    g: FlatVector = {}
    h: FlatVector = {}
    for i in range(1, n + 1):
        singleton = basis.index[1 << (i - 1)]
        weight = 0 if mode == "classical" else 2 * i
        for ((a, b), e), c in tilde_e(n, n + i, basis, mode).items():
            g_key = ((singleton, a, b), e + weight)
            g[g_key] = g.get(g_key, 0) + c
            h_key = ((a, b, singleton), e - weight)
            h[h_key] = h.get(h_key, 0) + c
    return g, h


def pairing_gh_terms(n: int, mode: Mode) -> list[tuple[int, int]]:
    """The monomials of the g-h pairing as (doubled q-exponent, coefficient).

    One monomial per pair of terms of g and h on the same basis tensor.
    """
    g, h = embeddings_g_h(n, mode)
    h_terms: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for (key, e), c in h.items():
        h_terms.setdefault(key, []).append((e, c))
    return [(e1 + e2, c1 * c2) for (key, e1), c1 in g.items() for e2, c2 in h_terms.get(key, ())]


def pairing_gh(n: int, mode: Mode) -> HalfLaurent:
    """The inner product of the two embedding vectors."""
    total: dict[int, int] = {}
    for e, c in pairing_gh_terms(n, mode):
        total[e] = total.get(e, 0) + c
    return HalfLaurent(total)


def invariant_f(n: int, q0: Fraction) -> dict[tuple[int, int, int, int], int]:
    """The invariant vector of U+ tensor V tensor U+ pushed into the 4th tensor power of U+.

    Solves for the joint kernel of all coproduct raising and lowering actions
    at the exact rational q0 (restricted to the torus-neutral subspace, which
    contains any such kernel), checks it is one-dimensional, and applies the
    V -> U+ tensor U+ intertwiner, evaluated at q0, to the middle slot.  The
    result maps basis tensors to integers: it is scaled to clear denominators
    and is not normalized otherwise.
    """
    if n > INVARIANT_MAX_N:
        raise ValueError(
            f"the invariant-vector computation is limited to n <= {INVARIANT_MAX_N}, got n = {n}"
        )
    q0 = Fraction(q0)
    mode: Mode = "quantum"
    plus = build_spin_rep(n, mode, "odd")
    vec = build_vector_rep(n, mode)
    reps = (plus, vec, plus)
    sq = _sqrt_fraction(q0)
    bound = len(reps) * max(abs(h) for r in reps for hs in r.hvals.values() for h in hs)
    powers = {shift: sq**shift for shift in range(-bound, bound + 1)}

    # torus-neutral basis of the triple product, in lexicographic order: the
    # third slot is looked up by the weight that cancels the first two
    plus_w = list(zip(*(plus.hvals[i] for i in range(1, n + 1))))
    vec_w = list(zip(*(vec.hvals[i] for i in range(1, n + 1))))
    by_weight: dict[tuple[int, ...], list[int]] = {}
    for c, w in enumerate(plus_w):
        by_weight.setdefault(w, []).append(c)
    keys = [
        (a, b, c)
        for a, wa in enumerate(plus_w)
        for b, wb in enumerate(vec_w)
        for c in by_weight.get(tuple(-x - y for x, y in zip(wa, wb)), ())
    ]

    rows: list[dict[int, Fraction]] = []
    for i in range(1, n + 1):
        for kind in ("X", "Y"):
            images: dict[tuple[int, int, int], dict[int, Fraction]] = {}
            moves = coproduct_moves(kind, i, reps)
            for ci, key in enumerate(keys):
                for new_key, c, shift in moves(key):
                    row = images.setdefault(new_key, {})
                    x = c * powers[shift]
                    row[ci] = row[ci] + x if ci in row else x
            for image in images.values():
                row = {ci: x for ci, x in image.items() if x}
                if row:
                    rows.append(row)
    kernel = kernel_basis(rows, len(keys))
    if len(kernel) != 1:
        raise MultiplicityNotOne(f"invariant space has dimension {len(kernel)}")
    coords = kernel[0]

    # push the middle V slot through the intertwiner, evaluated at q0
    tilde = [tilde_e(n, idx + 1, plus.basis, mode) for idx in range(2 * n)]
    raw: dict[tuple[int, int, int, int], Fraction] = {}
    for (a, v_idx, d), c in zip(keys, coords):
        if c == 0:
            continue
        for ((x, y), e), t in tilde[v_idx].items():
            if e not in powers:
                powers[e] = sq**e
            k4 = (a, x, y, d)
            raw[k4] = raw.get(k4, 0) + c * t * powers[e]
    raw = {k: v for k, v in raw.items() if v}
    if not raw:
        raise MultiplicityNotOne("invariant vector vanished after the intertwiner")
    # clear denominators; the overall scale is irrelevant downstream
    scale = lcm(*(v.denominator for v in raw.values()))
    return {k: v.numerator * (scale // v.denominator) for k, v in raw.items()}


def theorem_a1_check(n: int, q0: Fraction) -> bool:
    """Contract the invariant vector against itself and test Schur nonvanishing.

    Builds the endomorphism of U+ given by pairing an inserted copy of the
    invariant vector against a shifted one; returns True when that matrix is a
    nonzero multiple of the identity.
    """
    f = invariant_f(n, Fraction(q0))
    dim = len(SubsetBasis(n, "odd"))
    m = [[0] * dim for _ in range(dim)]
    tails: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
    for (a, b, c, d), val in f.items():
        tails.setdefault((a, b, c), []).append((d, val))
    for (a, b, c, d), v1 in f.items():
        for j, v2 in tails.get((b, c, d), []):
            m[a][j] += v1 * v2
    diag = m[0][0]
    if diag == 0:
        return False
    return all(m[i][j] == (diag if i == j else 0) for i in range(dim) for j in range(dim))
