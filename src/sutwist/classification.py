"""The isomorphism decision procedure for the twisted q-deformations of SU(n).

A parameter tuple (n, q, tau, omega) is compared to another through three
invariants: q itself, the central invariant sum_i i*tau_i, and the upper
triangular matrix combining the doubled omega angles with tau-interval sums.
The mirror case composes the second tuple with the order-2 diagram symmetry.

Each invariant is an integer combination of the tau and omega angles, so it is
computed on the residue record that `ParamTuple` builds once: the angles as
integers over L = lcm(n, the modulus of omega), where tau_i = t_i / n and the
modulus of omega is the lcm of its denominators.  The central invariant is
sum_i i*t_i mod n.  Isomorphic tuples can have different L (a half-turn twist
of omega changes its modulus but no invariant), so `_decide` compares each
matrix reduced to its least modulus, and n*central mod n, never raw residues.
"""

from __future__ import annotations

import enum
import re
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from typing import NamedTuple, Sequence

from .lattice import TauVector
from .scalars import UnitAngle, ZERO_ANGLE, residues

Matrix = tuple[tuple[UnitAngle, ...], ...]


class RankMismatch(ValueError):
    pass


class NonKacDomain(ValueError):
    """q outside (0, 1); the decision procedure does not apply."""


class SkewBicharacter:
    """An n x n matrix of angles: zero diagonal, antisymmetric, zero column sums.

    `nums[i][j] / modulus` is the angle at (i, j), with `modulus` the lcm of
    all denominators; the checks run on these integers.
    """

    __slots__ = ("n", "angles", "modulus", "nums")

    def __init__(self, angles: Sequence[Sequence[UnitAngle]]) -> None:
        n = self.n = len(angles)
        self.angles = tuple(tuple(row) for row in angles)
        if any(len(row) != n for row in self.angles):
            raise ValueError("matrix is not square")
        flat, L = residues(a.value for row in self.angles for a in row)
        m = tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))
        for i in range(n):
            if m[i][i]:
                raise ValueError(f"diagonal entry ({i}, {i}) is nonzero")
            for j in range(n):
                if (m[j][i] + m[i][j]) % L:
                    raise ValueError(f"entries ({i}, {j}) and ({j}, {i}) are not opposite")
        for j in range(n):
            if sum(row[j] for row in m) % L:
                raise ValueError(f"column {j} does not sum to zero")
        self.modulus = L
        self.nums = m

    @classmethod
    def from_upper_block(cls, n: int, upper: dict[tuple[int, int], UnitAngle]) -> "SkewBicharacter":
        """Build from entries omega_{ij}, 1 <= i < j <= n-1 (1-indexed).

        The last row and column are filled from the zero-column-sum constraint.
        """
        for i, j in upper:
            if not 1 <= i < j <= n - 1:
                raise ValueError(f"index ({i}, {j}) outside the upper block")
        nums, L = residues(a.value for a in upper.values())
        m = [[0] * n for _ in range(n)]
        for (i, j), r in zip(upper, nums):
            m[i - 1][j - 1], m[j - 1][i - 1] = r, -r
        for j in range(n - 1):
            col = sum(row[j] for row in m[: n - 1])
            m[n - 1][j], m[j][n - 1] = -col, col
        return cls([[UnitAngle(Fraction(x, L)) for x in row] for row in m])

    def angle(self, i: int, j: int) -> UnitAngle:
        """omega_{ij} as an angle, 1-indexed."""
        return self.angles[i - 1][j - 1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SkewBicharacter) and self.angles == other.angles

    def __hash__(self) -> int:
        return hash(self.angles)

    def __repr__(self) -> str:
        return f"SkewBicharacter(n={self.n})"


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _rational(value: object, what: str) -> Fraction:
    """An exact rational from a JSON int or a "p" / "p/q" string; floats and bools are refused."""
    if type(value) is int or (isinstance(value, str) and _RATIONAL.fullmatch(value)):
        return Fraction(value)
    raise ValueError(f"{what} must be an integer or a rational string like \"1/3\", got {value!r}")


def _list(value: object, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list, got {value!r}")
    return value


class ParamTuple:
    """The full classification datum (n, q, tau, omega), with its residue record.

    The record holds the angles as integers over `modulus` L = lcm(n, the
    modulus of omega): `prefix[j]` = L*(tau_1 + ... + tau_{j-1}) and
    `scaled_omega[i][j]` = L*omega_ij, both 1-indexed (index 0 is padding).
    """

    __slots__ = ("n", "q", "tau", "omega", "modulus", "prefix", "scaled_omega")

    def __init__(self, n: int, q: Fraction, tau: TauVector, omega: SkewBicharacter) -> None:
        if n < 2:
            raise ValueError(f"need n >= 2, got {n}")
        q = Fraction(q)
        if not 0 < q < 1:
            raise NonKacDomain(f"q must lie strictly between 0 and 1, got {q}")
        if tau.n != n or omega.n != n:
            raise RankMismatch(f"n={n} but tau has n={tau.n}, omega has n={omega.n}")
        self.n = n
        self.q = q
        self.tau = tau
        self.omega = omega
        L = self.modulus = lcm(n, omega.modulus)
        s, u = L // n, L // omega.modulus
        self.prefix = (0, *accumulate((s * t for t in tau.t), initial=0))
        self.scaled_omega = ((0,) * (n + 1), *((0, *(u * x for x in row)) for row in omega.nums))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ParamTuple)
            and (self.n, self.q, self.tau, self.omega) == (other.n, other.q, other.tau, other.omega)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.q, self.tau, self.omega))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "q": f"{self.q.numerator}/{self.q.denominator}",
            "tau": [str(a) for a in self.tau.entries],
            "omega": [[str(a) for a in row] for row in self.omega.angles],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ParamTuple":
        """Read `to_json` output: n an integer; q, tau and omega entries integers or "p/q" strings."""
        n = data["n"]
        if type(n) is not int:
            raise ValueError(f"n must be an integer, got {n!r}")
        q = _rational(data["q"], "q")
        tau = TauVector(n, [UnitAngle(_rational(s, "tau entry")) for s in _list(data["tau"], "tau")])
        rows = [_list(row, "omega row") for row in _list(data["omega"], "omega")]
        omega = SkewBicharacter([[UnitAngle(_rational(s, "omega entry")) for s in row] for row in rows])
        return cls(n, q, tau, omega)

    def __repr__(self) -> str:
        return f"ParamTuple(n={self.n}, q={self.q}, tau={self.tau}, omega={self.omega})"


class IsoCase(enum.Enum):
    NO = "no"
    DIRECT = "direct"
    MIRROR = "mirror"


def _central(tau: TauVector) -> int:
    """n * sum_i i*tau_i mod n."""
    return sum(i * t for i, t in enumerate(tau.t, 1)) % tau.n


def _pairs(n: int) -> list[tuple[int, int]]:
    """The index pairs 1 <= i < j <= n-1 of the invariant matrices, row by row."""
    return [(i, j) for i in range(1, n) for j in range(i + 1, n)]


def _matrices(p: ParamTuple) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The direct and the mirror matrix of p as residues mod p.modulus, in `_pairs` order."""
    n, L, P, w = p.n, p.modulus, p.prefix, p.scaled_omega
    pairs = _pairs(n)
    direct = tuple((2 * w[i][j] + P[j] - P[i]) % L for i, j in pairs)
    mirror = tuple((2 * w[n - i + 1][n - j + 1] - P[n - i + 1] + P[n - j + 1]) % L for i, j in pairs)
    return direct, mirror


def _angle_matrix(p: ParamTuple, flat: Sequence[int]) -> Matrix:
    it = iter(flat)
    return tuple(tuple(UnitAngle(Fraction(next(it), p.modulus)) for _ in range(i + 1, p.n)) for i in range(1, p.n))


def central_invariant(tau: TauVector) -> UnitAngle:
    """sum_i i * tau_i as an angle; classifies the associator class."""
    return UnitAngle(Fraction(_central(tau), tau.n))


def pair_invariant(p: ParamTuple) -> Matrix:
    """M_{ij} = 2*omega_{ij} + sum_{k=i}^{j-1} tau_k, over 1 <= i < j <= n-1."""
    return _angle_matrix(p, _matrices(p)[0])


def mirror_invariant(p: ParamTuple) -> Matrix:
    """M'_{ij} = 2*omega_{n-i+1, n-j+1} - sum_{k=i}^{j-1} tau_{n-k}.

    The tau sum runs over tau_{n-j+1}, ..., tau_{n-i}.
    """
    return _angle_matrix(p, _matrices(p)[1])


def theta_transform(p: ParamTuple) -> ParamTuple:
    """Apply the diagram symmetry: reverse and conjugate tau, reverse omega indices."""
    n = p.n
    tau = TauVector(n, tuple(-p.tau.angle(n - i) for i in range(1, n)))
    omega = SkewBicharacter(
        [[p.omega.angle(n - i + 1, n - j + 1) for j in range(1, n + 1)] for i in range(1, n + 1)]
    )
    return ParamTuple(n, p.q, tau, omega)


class Invariants(NamedTuple):
    """What the decision procedure compares, computed once per tuple (see the module docstring)."""

    n: int
    q: Fraction
    central: int
    direct: tuple[int, tuple[int, ...]]
    mirror: tuple[int, tuple[int, ...]]


def _reduced(L: int, flat: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    g = gcd(L, *flat)
    return L // g, tuple(r // g for r in flat)


def invariants(p: ParamTuple) -> Invariants:
    """q, the central invariant and both invariant matrices of p."""
    direct, mirror = _matrices(p)
    return Invariants(p.n, p.q, _central(p.tau), _reduced(p.modulus, direct), _reduced(p.modulus, mirror))


def _decide(a: Invariants, b: Invariants) -> IsoCase:
    """The decision rule; the direct case wins when both cases hold."""
    if a.n != b.n:
        raise RankMismatch(f"n={a.n} vs n={b.n}")
    if a.q != b.q or a.central != b.central:
        return IsoCase.NO
    if a.direct == b.direct:
        return IsoCase.DIRECT
    if a.direct == b.mirror:
        return IsoCase.MIRROR
    return IsoCase.NO


def is_isomorphic(p1: ParamTuple, p2: ParamTuple) -> IsoCase:
    """Decide isomorphism; the direct case wins when both cases hold."""
    return _decide(invariants(p1), invariants(p2))


def isomorphism_matrix(params: Sequence[ParamTuple]) -> list[list[IsoCase]]:
    """`is_isomorphic` on every ordered pair, with each tuple's invariants computed once."""
    invs = [invariants(p) for p in params]
    return [[_decide(a, b) for b in invs] for a in invs]


def twist_compose(p: ParamTuple, extra: SkewBicharacter) -> ParamTuple:
    """Entrywise composition of the omega twist with another bicharacter."""
    if p.n != extra.n:
        raise RankMismatch(f"n={p.n} vs n={extra.n}")
    omega = SkewBicharacter(
        [[a + b for a, b in zip(row, orow)] for row, orow in zip(p.omega.angles, extra.angles)]
    )
    return ParamTuple(p.n, p.q, p.tau, omega)


def canonical_form(p: ParamTuple) -> ParamTuple:
    """The distinguished representative of the isomorphism class of p.

    tau is concentrated in the first entry (carrying the central invariant) and
    omega is reconstructed so the pair invariant is the lexicographically
    smaller of the two invariant matrices of p.  Both matrices are residues
    over the one modulus L of p, so they compare as integer tuples, and the
    omega entry that halves a residue r is r / (2L).
    """
    n, L = p.n, p.modulus
    c = _central(p.tau)
    tau = TauVector(n, (UnitAngle(Fraction(c, n)),) + (ZERO_ANGLE,) * (n - 2))
    shift = c * (L // n)  # L*tau_1 of the new tau, in every tau interval that starts at 1
    upper = {
        (i, j): UnitAngle(Fraction((r - (shift if i == 1 else 0)) % L, 2 * L))
        for (i, j), r in zip(_pairs(n), min(_matrices(p)))
    }
    omega = SkewBicharacter.from_upper_block(n, upper)
    return ParamTuple(n, p.q, tau, omega)
