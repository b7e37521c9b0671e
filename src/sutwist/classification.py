"""The isomorphism decision procedure for the twisted q-deformations of SU(n).

A parameter tuple (n, q, tau, omega) is compared to another through three
invariants: q itself, the central invariant sum_i i*tau_i, and the upper
triangular matrix combining the doubled omega angles with tau-interval sums.
The mirror case composes the second tuple with the order-2 diagram symmetry.
"""

from __future__ import annotations

import enum
import re
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

from .lattice import TauVector
from .scalars import UnitAngle, ZERO_ANGLE

Matrix = tuple[tuple[UnitAngle, ...], ...]


class RankMismatch(ValueError):
    pass


class NonKacDomain(ValueError):
    """q outside (0, 1); the decision procedure does not apply."""


class SkewBicharacter:
    """An n x n matrix of angles: zero diagonal, antisymmetric, zero column sums."""

    __slots__ = ("n", "angles")

    def __init__(self, angles: Sequence[Sequence[UnitAngle]]) -> None:
        self.n = len(angles)
        self.angles = tuple(tuple(row) for row in angles)
        if any(len(row) != self.n for row in self.angles):
            raise ValueError("matrix is not square")
        # the checks run on the integers L*angle, L the lcm of all denominators
        values = [[a.value for a in row] for row in self.angles]
        L = lcm(*(v.denominator for row in values for v in row))
        m = [[v.numerator * (L // v.denominator) for v in row] for row in values]
        for i in range(self.n):
            if m[i][i]:
                raise ValueError(f"diagonal entry ({i}, {i}) is nonzero")
            for j in range(self.n):
                if (m[j][i] + m[i][j]) % L:
                    raise ValueError(f"entries ({i}, {j}) and ({j}, {i}) are not opposite")
        for j in range(self.n):
            if sum(row[j] for row in m) % L:
                raise ValueError(f"column {j} does not sum to zero")

    @classmethod
    def zero(cls, n: int) -> "SkewBicharacter":
        return cls([[ZERO_ANGLE] * n for _ in range(n)])

    @classmethod
    def from_upper_block(cls, n: int, upper: dict[tuple[int, int], UnitAngle]) -> "SkewBicharacter":
        """Build from entries omega_{ij}, 1 <= i < j <= n-1 (1-indexed).

        The last row and column are filled from the zero-column-sum constraint.
        """
        m = [[ZERO_ANGLE] * n for _ in range(n)]
        for (i, j), a in upper.items():
            if not 1 <= i < j <= n - 1:
                raise ValueError(f"index ({i}, {j}) outside the upper block")
            m[i - 1][j - 1] = a
            m[j - 1][i - 1] = -a
        for j in range(n - 1):
            col = ZERO_ANGLE
            for i in range(n - 1):
                col = col + m[i][j]
            m[n - 1][j] = -col
            m[j][n - 1] = col
        return cls(m)

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
    """The full classification datum (n, q, tau, omega)."""

    __slots__ = ("n", "q", "tau", "omega")

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


def central_invariant(tau: TauVector) -> UnitAngle:
    """sum_i i * tau_i as an angle; classifies the associator class."""
    out = ZERO_ANGLE
    for i in range(1, tau.n):
        out = out + tau.angle(i).scale(i)
    return out


def tau_interval(tau: TauVector, i: int, j: int) -> UnitAngle:
    """sum of tau_k angles for i <= k <= j-1."""
    out = ZERO_ANGLE
    for k in range(i, j):
        out = out + tau.angle(k)
    return out


def pair_invariant(p: ParamTuple) -> Matrix:
    """M_{ij} = 2*omega_{ij} + sum_{k=i}^{j-1} tau_k, over 1 <= i < j <= n-1."""
    return tuple(
        tuple(p.omega.angle(i, j).scale(2) + tau_interval(p.tau, i, j) for j in range(i + 1, p.n))
        for i in range(1, p.n)
    )


def mirror_invariant(p: ParamTuple) -> Matrix:
    """M'_{ij} = 2*omega_{n-i+1, n-j+1} - sum_{k=i}^{j-1} tau_{n-k}.

    The tau sum runs over tau_{n-j+1}, ..., tau_{n-i}.
    """
    n = p.n
    return tuple(
        tuple(
            p.omega.angle(n - i + 1, n - j + 1).scale(2) - tau_interval(p.tau, n - j + 1, n - i + 1)
            for j in range(i + 1, n)
        )
        for i in range(1, n)
    )


def theta_transform(p: ParamTuple) -> ParamTuple:
    """Apply the diagram symmetry: reverse and conjugate tau, reverse omega indices."""
    n = p.n
    tau = TauVector(n, tuple(-p.tau.angle(n - i) for i in range(1, n)))
    omega = SkewBicharacter(
        [[p.omega.angle(n - i + 1, n - j + 1) for j in range(1, n + 1)] for i in range(1, n + 1)]
    )
    return ParamTuple(n, p.q, tau, omega)


class Invariants(NamedTuple):
    """What the decision procedure compares, computed once per tuple."""

    n: int
    q: Fraction
    central: UnitAngle
    direct: Matrix
    mirror: Matrix


def invariants(p: ParamTuple) -> Invariants:
    """q, the central invariant and both invariant matrices of p."""
    return Invariants(p.n, p.q, central_invariant(p.tau), pair_invariant(p), mirror_invariant(p))


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


def _lex_key(m: Matrix) -> tuple:
    return tuple(a.value for row in m for a in row)


def canonical_form(p: ParamTuple) -> ParamTuple:
    """The distinguished representative of the isomorphism class of p.

    tau is concentrated in the first entry (carrying the central invariant) and
    omega is reconstructed so the pair invariant is the lexicographically
    smaller of the two invariant matrices of p.
    """
    n = p.n
    inv = invariants(p)
    tau = TauVector(n, (inv.central,) + (ZERO_ANGLE,) * (n - 2))
    target = inv.direct if _lex_key(inv.direct) <= _lex_key(inv.mirror) else inv.mirror
    upper = {}
    for i in range(1, n):
        for j in range(i + 1, n):
            want = target[i - 1][j - i - 1] - tau_interval(tau, i, j)
            upper[(i, j)] = want.halve()
    omega = SkewBicharacter.from_upper_block(n, upper)
    return ParamTuple(n, p.q, tau, omega)
