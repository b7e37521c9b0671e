"""Half-spin and vector representations of the even orthogonal quantum group.

Everything is exact: generator matrices have integer entries and diagonal
torus operators have entries q^(h/2) with h in {-1, 0, 1}.

There is one coproduct, `coproduct_moves`: the move table of a generator
X_i, Y_i or K_i^(1/2) on a tensor product, which sends a basis tensor to its
terms (new key, integer coefficient, shift of the doubled q-exponent).  X and
Y act in one slot with K^(1/2) on every factor to its left and K^(-1/2) to
its right, so the shift is the sum of the torus eigenvalues to the left minus
the sum to the right (0 in classical mode).  Its consumers pick their
coefficient map:

- `check_V_intertwiner` keeps vectors flat, as dicts (key, doubled exponent)
  -> int, and compares both sides of each equation as one difference dict;
- `coproduct_action` regroups the same flat terms into a `TensorVector` over
  Laurent polynomials in q^(1/2) (`HalfLaurent`);
- `invariant_f` evaluates each term at a rational q0 as coefficient *
  sqrt(q0)^shift.

Subsets of {1, ..., n} are bitmasks (bit k-1 is the element k); the basis
vector for a subset is the ascending wedge of its elements.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Literal, Sequence

from .scalars import HalfLaurent, _sqrt_fraction

Mode = Literal["classical", "quantum"]

# sparse operator: column index -> list of (row index, integer coefficient)
SparseOp = dict[int, list[tuple[int, int]]]
# flat tensor vector: (basis tensor, doubled q-exponent) -> integer coefficient
FlatVector = dict[tuple[tuple[int, ...], int], int]


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


def _as_int(p: HalfLaurent) -> int:
    if not p.terms:
        return 0
    if set(p.terms) != {0}:
        raise ArithmeticError(f"expected an integer constant, got {p!r}")
    return p.terms[0]


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


class TensorVector:
    """A sparse vector in a tensor product of representations."""

    __slots__ = ("factors", "entries")

    def __init__(self, factors: Sequence[Representation], entries: dict[tuple[int, ...], HalfLaurent]) -> None:
        self.factors = tuple(factors)
        self.entries = {k: v for k, v in entries.items() if not v.is_zero}

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TensorVector) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"TensorVector({len(self.factors)} factors, {len(self.entries)} entries)"


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


def _flatten(vec: TensorVector) -> FlatVector:
    return {(key, e): c for key, coeff in vec.entries.items() for e, c in coeff.terms.items()}


def _act(kind: str, i: int, reps: Sequence[Representation], vec: FlatVector, out: FlatVector) -> None:
    """Add the coproduct action of the generator on vec into out."""
    moves = coproduct_moves(kind, i, reps)
    for (key, e), c in vec.items():
        for new_key, m, shift in moves(key):
            k = (new_key, e + shift)
            out[k] = out.get(k, 0) + m * c


def coproduct_action(kind: str, i: int, reps: Sequence[Representation], vec: TensorVector) -> TensorVector:
    """Apply the iterated coproduct of a generator to a tensor vector.

    The terms of `coproduct_moves`, regrouped per basis tensor as Laurent
    polynomials in q^(1/2).
    """
    modes = {r.mode for r in reps}
    if len(modes) > 1:
        raise ModeMismatch(f"mixed modes {modes}")
    flat: FlatVector = {}
    _act(kind, i, reps, _flatten(vec), flat)
    grouped: dict[tuple[int, ...], dict[int, int]] = {}
    for (key, e), c in flat.items():
        grouped.setdefault(key, {})[e] = c
    return TensorVector(reps, {key: HalfLaurent(terms) for key, terms in grouped.items()})


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


def sigma_index(n: int, i: int, mask: int, mode: Mode) -> tuple[int, HalfLaurent]:
    """The exponent I_i(X) and the coefficient (-1)^I or (-q)^I."""
    expo = index_shift(n, i, mask)
    sign = -1 if expo % 2 else 1
    if mode == "classical":
        return expo, HalfLaurent.from_int(sign)
    return expo, HalfLaurent({2 * expo: sign})


def tilde_e(n: int, i: int, plus_rep: Representation) -> TensorVector:
    """The image of the vector-representation basis e_i inside U+ tensor U+.

    For i <= n the summation runs over pairs overlapping exactly in {i}; for
    i = n + j over partitions of the complement of {j}; the first factor
    always has odd size.
    """
    mode = plus_rep.mode
    basis: SubsetBasis = plus_rep.basis
    full = (1 << n) - 1
    entries: dict[tuple[int, int], HalfLaurent] = {}
    if i <= n:
        bit = 1 << (i - 1)
        rest = full & ~bit
        for sub in _all_submasks(rest):
            x1 = sub | bit
            if bin(x1).count("1") % 2 == 0:
                continue
            x2 = (rest & ~sub) | bit
            _, coeff = sigma_index(n, i, x1, mode)
            entries[(basis.index[x1], basis.index[x2])] = coeff
    else:
        j = i - n
        rest = full & ~(1 << (j - 1))
        outer = -1 if j % 2 else 1
        for sub in _all_submasks(rest):
            if bin(sub).count("1") % 2 == 0:
                continue
            x2 = rest & ~sub
            _, coeff = sigma_index(n, i, sub, mode)
            entries[(basis.index[sub], basis.index[x2])] = coeff.scale(outer)
    return TensorVector((plus_rep, plus_rep), entries)


def _all_submasks(mask: int) -> Iterable[int]:
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def check_V_intertwiner(n: int, mode: Mode) -> bool:
    """Verify that e_i -> tilde_e_i intertwines every generator action exactly.

    For each generator g and basis vector e_col of V, the coproduct of g on
    tilde_e_col minus the images of g e_col must vanish; both sides go into
    one flat difference dict over (basis tensor, doubled q-exponent).
    """
    plus = build_spin_rep(n, mode, "odd")
    vec = (build_vector_rep(n, mode),)
    pair = (plus, plus)
    images = [_flatten(tilde_e(n, idx + 1, plus)) for idx in range(2 * n)]
    for i in range(1, n + 1):
        for kind in ("X", "Y", "K"):
            for col in range(2 * n):
                diff: FlatVector = {}
                _act(kind, i, pair, images[col], diff)
                for (row,), c, shift in coproduct_moves(kind, i, vec)((col,)):
                    for (key, e), v in images[row].items():
                        k = (key, e + shift)
                        diff[k] = diff.get(k, 0) - c * v
                if any(diff.values()):
                    return False
    return True


def embeddings_g_h(n: int, mode: Mode) -> tuple[TensorVector, TensorVector]:
    """The two lowest-weight embedding vectors in the triple tensor power of U+.

    g sums e_i tensor tilde_e_{n+i} with weight q^i; h sums tilde_e_{n+j}
    tensor e_j with weight q^(-j); classically both weights are 1.
    """
    plus = build_spin_rep(n, mode, "odd")
    basis: SubsetBasis = plus.basis
    triple = (plus, plus, plus)
    g_entries: dict[tuple[int, int, int], HalfLaurent] = {}
    h_entries: dict[tuple[int, int, int], HalfLaurent] = {}
    for i in range(1, n + 1):
        singleton = basis.index[1 << (i - 1)]
        tail = tilde_e(n, n + i, plus)
        wg = HalfLaurent.one() if mode == "classical" else HalfLaurent({2 * i: 1})
        wh = HalfLaurent.one() if mode == "classical" else HalfLaurent({-2 * i: 1})
        for (a, b), c in tail.entries.items():
            g_key = (singleton, a, b)
            g_entries[g_key] = g_entries.get(g_key, HalfLaurent.zero()) + wg * c
            h_key = (a, b, singleton)
            h_entries[h_key] = h_entries.get(h_key, HalfLaurent.zero()) + wh * c
    return TensorVector(triple, g_entries), TensorVector(triple, h_entries)


def pairing_gh_terms(n: int, mode: Mode) -> list[HalfLaurent]:
    """The individual monomials of the g-h pairing, one per overlap."""
    g, h = embeddings_g_h(n, mode)
    return [v * h.entries[k] for k, v in g.entries.items() if k in h.entries]


def pairing_gh(n: int, mode: Mode) -> HalfLaurent:
    """The inner product of the two embedding vectors."""
    total = HalfLaurent.zero()
    for term in pairing_gh_terms(n, mode):
        total = total + term
    return total


def _kernel_of_columns(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right kernel of a matrix given as a list of rows."""
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
    return basis


def invariant_f(n: int, q0: Fraction) -> TensorVector:
    """The invariant vector of U+ tensor V tensor U+ pushed into the 4th tensor power of U+.

    Solves for the joint kernel of all coproduct raising and lowering actions
    at the exact rational q0 (restricted to the torus-neutral subspace, which
    contains any such kernel), checks it is one-dimensional, and applies the
    V -> U+ tensor U+ intertwiner to the middle slot.  The result is not
    normalized.
    """
    if n != 3:
        raise ValueError("the invariant-vector computation is implemented for n = 3")
    q0 = Fraction(q0)
    mode: Mode = "quantum"
    plus = build_spin_rep(n, mode, "odd")
    vec = build_vector_rep(n, mode)
    reps = (plus, vec, plus)
    dims = [len(r.basis) for r in reps]
    sq = _sqrt_fraction(q0)
    bound = len(reps) * max(abs(h) for r in reps for hs in r.hvals.values() for h in hs)
    powers = {shift: sq**shift for shift in range(-bound, bound + 1)}

    # torus-neutral basis of the triple product
    keys = [
        (a, b, c)
        for a in range(dims[0])
        for b in range(dims[1])
        for c in range(dims[2])
        if all(
            plus.hvals[i][a] + vec.hvals[i][b] + plus.hvals[i][c] == 0 for i in range(1, n + 1)
        )
    ]

    rows: list[list[Fraction]] = []
    for i in range(1, n + 1):
        for kind in ("X", "Y"):
            images: dict[tuple[int, int, int], list[Fraction]] = {}
            moves = coproduct_moves(kind, i, reps)
            for ci, key in enumerate(keys):
                for new_key, c, shift in moves(key):
                    row = images.get(new_key)
                    if row is None:
                        row = images[new_key] = [Fraction(0)] * len(keys)
                    row[ci] += c * powers[shift]
            rows.extend(r for r in images.values() if any(r))
    kernel = _kernel_of_columns(rows)
    if len(kernel) != 1:
        raise MultiplicityNotOne(f"invariant space has dimension {len(kernel)}")
    coords = kernel[0]

    # push the middle V slot through the intertwiner, evaluated at q0
    tilde = {idx: tilde_e(n, idx + 1, plus) for idx in range(2 * n)}
    raw: dict[tuple[int, int, int, int], Fraction] = {}
    for key, c in zip(keys, coords):
        if c == 0:
            continue
        a, v_idx, d = key
        for (x, y), t_coeff in tilde[v_idx].entries.items():
            k4 = (a, x, y, d)
            raw[k4] = raw.get(k4, Fraction(0)) + c * t_coeff.evaluate(q0)
    raw = {k: v for k, v in raw.items() if v}
    if not raw:
        raise MultiplicityNotOne("invariant vector vanished after the intertwiner")
    # clear denominators; the overall scale is irrelevant downstream
    scale = 1
    for v in raw.values():
        scale = scale * v.denominator // gcd(scale, v.denominator)
    quad = (plus, plus, plus, plus)
    return TensorVector(quad, {k: HalfLaurent.from_int(int(v * scale)) for k, v in raw.items()})


def theorem_a1_check(n: int, q0: Fraction) -> bool:
    """Contract the invariant vector against itself and test Schur nonvanishing.

    Builds the endomorphism of U+ given by pairing an inserted copy of the
    invariant vector against a shifted one; returns True when that matrix is a
    nonzero multiple of the identity.
    """
    f = {k: _as_int(v) for k, v in invariant_f(n, Fraction(q0)).entries.items()}
    dim = len(build_spin_rep(n, "quantum", "odd").basis)
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
