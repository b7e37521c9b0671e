"""Low-degree cohomology of finite abelian groups with circle coefficients.

Storage.  A degree-d cochain is a dense function Gamma^d -> Q/Z.  It is held
as one flat tuple of integer numerators over a single modulus N: the value at
the i-th argument tuple is nums[i]/N mod 1.  Argument tuples run in the order
of `itertools.product(elements, repeat=d)`, and elements in product
(mixed-radix) order of the cyclic factors, so the index of (g_1, ..., g_d) is
their residues read as one mixed-radix number.  N is kept reduced, the least
common denominator of the values, so equal cochains have equal storage, `==`
and `hash` compare tuples, and the zero cochain is exactly N = 1.

Face tables.  The bar differential of a d-cochain at a (d+1)-tuple is the
alternating sum of its d+2 face values.  For each (factors, degree) the index
of every face of every tuple is computed once and cached, so `coboundary`,
`is_cocycle` and `cyclic_class_invariant` gather numerators and add ints.

Solving.  The differential C^(d-1) -> C^d is an integer matrix D, and
Smith-style diagonalization gives S = U * D * V with U and V unimodular.
Q/Z is divisible, so t = D(b) is solvable iff (U t)_i = 0 mod 1 on every row
i whose pivot S_ii is zero (rows past the rank included).  `cohomologous`
solves on numerators: U t over N, the zero-pivot rows tested for divisibility
by N, then y = S^+ U t and b = V y over N * lcm(pivots).  `class_key` returns
the zero-pivot entries of U t mod 1; it is linear and vanishes exactly on
coboundaries, so two cocycles are cohomologous iff their keys are equal.

Certificates.  Both verdicts are checked by explicit code, never by `assert`,
and a failed check raises `CertificateError`.  A witness b is re-checked as
d(b) == phi - psi before it is returned.  A refusal rests on a zero-pivot row
u of U with u * D = 0 and u * t not integral: u annihilates every coboundary,
so t is none.  `_solver_data` verifies S = U * D * V, that S is diagonal and
that u * D = 0 on every zero-pivot row, once per (group, degree) and before
any verdict uses them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .scalars import UnitAngle
from .smith import Matrix, mat_mul, mat_vec, smith_normal_form

Element = tuple[int, ...]


class DegreeMismatch(ValueError):
    pass


class GroupMismatch(ValueError):
    pass


class NotCocycle(ValueError):
    pass


class NotCyclic(ValueError):
    pass


class CertificateError(ArithmeticError):
    """A witness or a Smith factorization failed its explicit check."""


class FiniteAbelianGroup:
    """A direct sum of cyclic groups; elements are tuples of residues."""

    __slots__ = ("factors",)

    def __init__(self, factors: Sequence[int]) -> None:
        if any(k < 1 for k in factors):
            raise ValueError(f"cyclic orders must be >= 1, got {factors}")
        self.factors = tuple(int(k) for k in factors)

    def elements(self) -> list[Element]:
        return list(product(*(range(k) for k in self.factors)))

    def add(self, g: Element, h: Element) -> Element:
        return tuple((a + b) % k for a, b, k in zip(g, h, self.factors))

    def neg(self, g: Element) -> Element:
        return tuple((-a) % k for a, k in zip(g, self.factors))

    @property
    def order(self) -> int:
        n = 1
        for k in self.factors:
            n *= k
        return n

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteAbelianGroup) and self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __repr__(self) -> str:
        return f"FiniteAbelianGroup{self.factors}"


def _domain(group: FiniteAbelianGroup, degree: int) -> Iterator[tuple[Element, ...]]:
    """Argument tuples of a degree-`degree` cochain, in storage order."""
    return product(group.elements(), repeat=degree)


def _numerators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The values as numerators in [0, N) over their common denominator N."""
    modulus = lcm(*(v.denominator for v in values))
    return [v.numerator * (modulus // v.denominator) % modulus for v in values], modulus


class Cochain:
    """A dense Q/Z-valued function on Gamma^degree: value i is nums[i]/modulus."""

    __slots__ = ("group", "degree", "modulus", "nums")

    def __init__(
        self,
        group: FiniteAbelianGroup,
        degree: int,
        table: Mapping[tuple[Element, ...], UnitAngle],
    ) -> None:
        expected = group.order**degree
        if len(table) != expected:
            raise ValueError(f"table has {len(table)} entries, domain has {expected}")
        self._assign(group, degree, *_numerators([table[args].value for args in _domain(group, degree)]))

    def _assign(self, group: FiniteAbelianGroup, degree: int, nums: Sequence[int], modulus: int) -> "Cochain":
        """Store nums/modulus with the modulus reduced; nums must lie in [0, modulus)."""
        g = gcd(modulus, *nums)
        if g > 1:
            modulus //= g
            nums = [x // g for x in nums]
        self.group, self.degree, self.modulus, self.nums = group, degree, modulus, tuple(nums)
        return self

    @classmethod
    def _make(cls, group: FiniteAbelianGroup, degree: int, nums: Sequence[int], modulus: int) -> "Cochain":
        return object.__new__(cls)._assign(group, degree, nums, modulus)

    @classmethod
    def from_numerators(
        cls, group: FiniteAbelianGroup, degree: int, numerators: Sequence[int], modulus: int
    ) -> "Cochain":
        """The cochain whose i-th value, in product order, is numerators[i]/modulus mod 1."""
        expected = group.order**degree
        if len(numerators) != expected:
            raise ValueError(f"table has {len(numerators)} entries, domain has {expected}")
        if modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {modulus}")
        return cls._make(group, degree, [x % modulus for x in numerators], modulus)

    @classmethod
    def from_function(cls, group: FiniteAbelianGroup, degree: int, fn) -> "Cochain":
        return cls._make(group, degree, *_numerators([fn(*args).value for args in _domain(group, degree)]))

    @classmethod
    def zero(cls, group: FiniteAbelianGroup, degree: int) -> "Cochain":
        return cls._make(group, degree, [0] * group.order**degree, 1)

    def __call__(self, *args: Element) -> UnitAngle:
        if len(args) != self.degree:
            raise KeyError(args)
        index = 0
        for g in args:
            if len(g) != len(self.group.factors):
                raise KeyError(args)
            for a, k in zip(g, self.group.factors):
                if not 0 <= a < k:
                    raise KeyError(args)
                index = index * k + a
        return UnitAngle(Fraction(self.nums[index], self.modulus))

    def __add__(self, other: "Cochain") -> "Cochain":
        return self._combine(other, 1)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self._combine(other, -1)

    def _combine(self, other: "Cochain", sign: int) -> "Cochain":
        self._check_compatible(other)
        m = lcm(self.modulus, other.modulus)
        a, b = m // self.modulus, sign * (m // other.modulus)
        nums = [(a * x + b * y) % m for x, y in zip(self.nums, other.nums)]
        return Cochain._make(self.group, self.degree, nums, m)

    def __neg__(self) -> "Cochain":
        m = self.modulus
        return Cochain._make(self.group, self.degree, [-x % m for x in self.nums], m)

    def _check_compatible(self, other: "Cochain") -> None:
        if self.group != other.group:
            raise GroupMismatch(f"{self.group} vs {other.group}")
        if self.degree != other.degree:
            raise DegreeMismatch(f"degree {self.degree} vs {other.degree}")

    @property
    def is_zero(self) -> bool:
        return self.modulus == 1

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Cochain)
            and self.group == other.group
            and self.degree == other.degree
            and self.modulus == other.modulus
            and self.nums == other.nums
        )

    def __hash__(self) -> int:
        return hash((self.group, self.degree, self.modulus, self.nums))

    def to_json(self) -> dict:
        n = self.modulus
        values = []
        for x in self.nums:
            g = gcd(x, n)
            values.append(f"{x // g}/{n // g}")
        return {"factors": list(self.group.factors), "degree": self.degree, "values": values}

    @classmethod
    def from_json(cls, data: dict) -> "Cochain":
        group = FiniteAbelianGroup(data["factors"])
        degree = data["degree"]
        values = [Fraction(v) for v in data["values"]]
        if len(values) != group.order**degree:
            raise ValueError("value count does not match the domain")
        return cls._make(group, degree, *_numerators(values))

    def __repr__(self) -> str:
        return f"Cochain({self.group}, degree={self.degree})"


@lru_cache(maxsize=None)
def _faces(factors: tuple[int, ...], degree: int) -> tuple[tuple[int, ...], ...]:
    """Face indices of the bar differential C^degree -> C^(degree+1).

    Entry j lists, for every (degree+1)-tuple in product order, the index of
    its j-th face among the degree-tuples.  Face 0 drops the first argument,
    face j (1 <= j <= degree) adds arguments j and j+1, face degree+1 drops
    the last one; face j carries the sign (-1)^j.
    """
    group = FiniteAbelianGroup(factors)
    elems = group.elements()
    order = len(elems)
    index = {g: i for i, g in enumerate(elems)}
    plus = [[index[group.add(g, h)] for h in elems] for g in elems]
    out: list[list[int]] = [[] for _ in range(degree + 2)]
    for args in product(range(order), repeat=degree + 1):
        merged = [args[:i] + (plus[args[i]][args[i + 1]],) + args[i + 2 :] for i in range(degree)]
        for column, face in zip(out, [args[1:], *merged, args[:-1]]):
            idx = 0
            for e in face:
                idx = idx * order + e
            column.append(idx)
    return tuple(tuple(column) for column in out)


def _gather(indices: tuple[int, ...]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    if len(indices) == 1:
        (i,) = indices
        return lambda seq: (seq[i],)
    return itemgetter(*indices)


@lru_cache(maxsize=None)
def _face_getters(factors: tuple[int, ...], degree: int):
    """Gatherers of the positive and of the negative faces of `_faces`."""
    getters = [_gather(column) for column in _faces(factors, degree)]
    return getters[0::2], getters[1::2]


def coboundary(c: Cochain) -> Cochain:
    """The bar-complex differential, raising degree by one."""
    plus, minus = _face_getters(c.group.factors, c.degree)
    nums, m = c.nums, c.modulus
    pos = map(sum, zip(*(g(nums) for g in plus)))
    neg = map(sum, zip(*(g(nums) for g in minus)))
    return Cochain._make(c.group, c.degree + 1, [(p - q) % m for p, q in zip(pos, neg)], m)


def is_cocycle(c: Cochain) -> bool:
    return coboundary(c).is_zero


class _Solver(NamedTuple):
    u: Matrix
    v: Matrix
    scales: tuple[int, ...]  # per column of D: lcm(pivots) / pivot, 0 off the nonzero pivots
    pivot_lcm: int
    zero_rows: tuple[int, ...]  # rows of U whose pivot is zero; each annihilates D


@lru_cache(maxsize=None)
def _solver_data(factors: tuple[int, ...], target_degree: int) -> _Solver:
    """Verified Smith data of the bar differential D: C^(d-1) -> C^d.

    D has one row per d-tuple and one column per (d-1)-tuple, so it has at
    least as many rows as columns.  Raises CertificateError unless
    S = U * D * V, S is diagonal and every zero-pivot row of U * D vanishes.
    """
    faces = _faces(factors, target_degree - 1)
    rows = len(faces[0])
    cols = FiniteAbelianGroup(factors).order ** (target_degree - 1)
    d_matrix = [[0] * cols for _ in range(rows)]
    for j, column in enumerate(faces):
        sign = -1 if j % 2 else 1
        for r, face in enumerate(column):
            d_matrix[r][face] += sign
    s, u, v = smith_normal_form(d_matrix)
    ud = mat_mul(u, d_matrix)
    if mat_mul(ud, v) != s:
        raise CertificateError(f"Smith data of {factors} in degree {target_degree} fails S = U * D * V")
    if any(x for i, row in enumerate(s) for j, x in enumerate(row) if i != j):
        raise CertificateError(f"Smith form of {factors} in degree {target_degree} is not diagonal")
    pivots = [s[i][i] if i < cols else 0 for i in range(rows)]
    zero_rows = [i for i, p in enumerate(pivots) if p == 0]
    if any(any(ud[i]) for i in zero_rows):
        raise CertificateError(f"a zero-pivot row of U * D is nonzero for {factors} in degree {target_degree}")
    pivot_lcm = lcm(*(p for p in pivots if p))
    scales = tuple(pivot_lcm // p if p else 0 for p in pivots[:cols])
    return _Solver(u, v, scales, pivot_lcm, tuple(zero_rows))


def cohomologous(phi: Cochain, psi: Cochain) -> Cochain | None:
    """Solve d(b) = phi - psi for a cochain b one degree lower, or return None.

    Both inputs must be cocycles on the same group and degree.  A returned
    witness has been checked; None is certified by a zero-pivot row of the
    verified Smith data.
    """
    phi._check_compatible(psi)
    if not is_cocycle(phi):
        raise NotCocycle("first argument is not a cocycle")
    if not is_cocycle(psi):
        raise NotCocycle("second argument is not a cocycle")
    solver = _solver_data(phi.group.factors, phi.degree)
    diff = phi - psi
    n = diff.modulus
    ut = mat_vec(solver.u, diff.nums)
    if any(ut[i] % n for i in solver.zero_rows):
        return None
    y = list(map(mul, ut, solver.scales))
    big = n * solver.pivot_lcm
    witness = Cochain._make(phi.group, phi.degree - 1, [x % big for x in mat_vec(solver.v, y)], big)
    if coboundary(witness) != diff:
        raise CertificateError("the solved witness fails d(b) = phi - psi")
    return witness


def class_key(phi: Cochain) -> tuple[int, tuple[int, ...]]:
    """The cohomology class of a cocycle: the zero-pivot entries of U * phi mod 1.

    Returned as (M, entries) with each entry/M in [0, 1) and M reduced.  Two
    cocycles on the same group and degree are cohomologous iff their keys are
    equal; unequal keys are a refusal certificate, since each zero-pivot row
    of U annihilates every coboundary.
    """
    if not is_cocycle(phi):
        raise NotCocycle("class_key needs a cocycle")
    solver = _solver_data(phi.group.factors, phi.degree)
    m = phi.modulus
    ut = mat_vec(solver.u, phi.nums)
    entries = [ut[i] % m for i in solver.zero_rows]
    g = gcd(m, *entries)
    return m // g, tuple(x // g for x in entries)


def standard_cyclic_3cocycle(k: int, j: int) -> Cochain:
    """The standard degree-3 representative on Z/k indexed by j.

    With canonical lifts a, b, c in {0, ..., k-1} the angle is
    (j/k) * floor((a+b)/k) * c.
    """
    if not 0 <= j < k:
        raise ValueError(f"need 0 <= j < k, got j={j}, k={k}")
    nums = [j * ((a + b) // k) * c for a, b, c in product(range(k), repeat=3)]
    return Cochain.from_numerators(FiniteAbelianGroup([k]), 3, nums, k)


def klein_cocycles() -> tuple[Cochain, Cochain, Cochain]:
    """The three generating 3-cocycles on Z/2 + Z/2.

    phi1 = (-1)^(a*b*c) on the first coordinates, phi2 likewise on the second,
    phi3 = (-1)^(a*b*c') mixing both.
    """
    group = FiniteAbelianGroup([2, 2])
    triples = list(_domain(group, 3))

    def sign_cocycle(exponent) -> Cochain:
        return Cochain.from_numerators(group, 3, [exponent(*args) for args in triples], 2)

    phi1 = sign_cocycle(lambda g, h, l: g[0] * h[0] * l[0])
    phi2 = sign_cocycle(lambda g, h, l: g[1] * h[1] * l[1])
    phi3 = sign_cocycle(lambda g, h, l: g[0] * h[0] * l[1])
    return phi1, phi2, phi3


def aut_pullback(phi: Cochain) -> Cochain:
    """Precompose a degree-3 cochain with negation in every argument."""
    if phi.degree != 3:
        raise DegreeMismatch(f"expected degree 3, got {phi.degree}")
    g = phi.group
    return Cochain.from_function(g, 3, lambda a, b, c: phi(g.neg(a), g.neg(b), g.neg(c)))


def cyclic_class_invariant(phi: Cochain) -> int:
    """The index of the cohomologous standard representative on a cyclic group.

    Computed as k * sum_j phi(1, j, 1) mod k, the sum added on numerators and
    taken as one angle in [0, 1); validated against the cohomologous-based
    classification in the test suite, not assumed.
    """
    if len(phi.group.factors) != 1:
        raise NotCyclic(f"group {phi.group} is not a single cyclic factor")
    if phi.degree != 3 or not is_cocycle(phi):
        raise NotCocycle("need a degree-3 cocycle")
    k = phi.group.factors[0]
    one = 1 % k
    total = UnitAngle(Fraction(sum(phi.nums[(one * k + j) * k + one] for j in range(k)), phi.modulus))
    scaled = k * total.value
    if scaled.denominator != 1:
        raise NotCocycle("summed class is not k-torsion")
    return int(scaled)


def aut_witness_cochain(k: int, j: int) -> Cochain:
    """The explicit degree-2 witness for the pullback of the standard cocycle.

    On canonical lifts: b(a, b) = (j/k) * (floor(a/k) + floor(-a/k)) * (-b),
    whose coboundary equals standard - pullback(standard).
    """
    nums = [j * ((a // k) + ((-a) // k)) * (-b) for a, b in product(range(k), repeat=2)]
    return Cochain.from_numerators(FiniteAbelianGroup([k]), 2, nums, k)
