"""Exact coefficient arithmetic: circle-group angles, Laurent polynomials in q^(1/2).

All circle-group values are torsion points, represented additively as rationals
mod 1 (the angle a stands for e^(2*pi*i*a)).  `residues` turns a set of them
into integers over their common denominator, the form every integer kernel
works in.  Half-integer exponents of q are stored doubled, so q^(1/2) has
stored exponent 1.  `HalfLaurent` and `CycloLaurent` share one sparse-dict core,
`_Sparse`; each adds only its product, named constructors and printing.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable, Mapping


class NonSquareBase(ValueError):
    """Raised when a half-integer power of q is evaluated at a non-square rational."""


class UnitAngle:
    """An element of Q/Z, always stored as a reduced fraction in [0, 1)."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        v = value if type(value) is Fraction else Fraction(value)
        whole = v.numerator // v.denominator
        self.value = v - whole if whole else v

    @classmethod
    def parse(cls, text: str) -> "UnitAngle":
        return cls(Fraction(text))

    def __add__(self, other: "UnitAngle") -> "UnitAngle":
        return UnitAngle(self.value + other.value)

    def __sub__(self, other: "UnitAngle") -> "UnitAngle":
        return UnitAngle(self.value - other.value)

    def __neg__(self) -> "UnitAngle":
        return UnitAngle(-self.value)

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UnitAngle) and self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __repr__(self) -> str:
        return f"UnitAngle({self.value})"

    def __str__(self) -> str:
        return f"{self.value.numerator}/{self.value.denominator}"


ZERO_ANGLE = UnitAngle(0)
HALF_ANGLE = UnitAngle(Fraction(1, 2))


def residues(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """The rationals mod 1 as residues r in [0, L) over L, the lcm of their denominators."""
    values = list(values)
    L = lcm(*(v.denominator for v in values))
    return [v.numerator * (L // v.denominator) % L for v in values], L


def _sqrt_fraction(x: Fraction) -> Fraction:
    """Exact square root of a nonnegative rational, or raise NonSquareBase."""
    if x < 0:
        raise NonSquareBase(f"negative base {x}")
    num, den = x.numerator, x.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise NonSquareBase(f"{x} is not a square of a rational")
    return Fraction(rn, rd)


class _Sparse:
    """A sparse sum of terms: `terms` maps keys to nonzero integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | None = None) -> None:
        self.terms = {k: c for k, c in (terms or {}).items() if c != 0}

    @classmethod
    def zero(cls):
        return cls()

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return type(self)(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))


class HalfLaurent(_Sparse):
    """Laurent polynomial in q^(1/2) with integer coefficients.

    Terms map doubled exponents to nonzero integer coefficients, so
    ``{1: 1}`` is q^(1/2) and ``{-2: 3}`` is 3*q^(-1).
    """

    __slots__ = ()

    @classmethod
    def one(cls) -> "HalfLaurent":
        return cls({0: 1})

    @classmethod
    def q_power(cls, doubled_exponent: int, coeff: int = 1) -> "HalfLaurent":
        """coeff * q^(doubled_exponent / 2)."""
        return cls({doubled_exponent: coeff})

    @classmethod
    def from_int(cls, k: int) -> "HalfLaurent":
        return cls({0: k})

    def __mul__(self, other: "HalfLaurent") -> "HalfLaurent":
        out: dict[int, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return HalfLaurent(out)

    def evaluate(self, q0: Fraction) -> Fraction:
        """Exact evaluation at a positive rational q0.

        Odd stored exponents require q0 to be a perfect square of a rational.
        """
        q0 = Fraction(q0)
        if q0 <= 0:
            raise ValueError(f"q0 must be positive, got {q0}")
        if any(e % 2 for e in self.terms):
            root = _sqrt_fraction(q0)
            return sum((c * root**e for e, c in self.terms.items()), Fraction(0))
        return sum((c * q0 ** (e // 2) for e, c in self.terms.items()), Fraction(0))

    def __repr__(self) -> str:
        if not self.terms:
            return "HalfLaurent(0)"
        parts = []
        for e, c in sorted(self.terms.items()):
            if e == 0:
                parts.append(str(c))
            else:
                exp = e // 2 if e % 2 == 0 else Fraction(e, 2)
                parts.append(f"{c}*q^{exp}")
        return "HalfLaurent(" + " + ".join(parts) + ")"


def quantum_integer(m: int) -> HalfLaurent:
    """The q-integer [m]_q = q^(m-1) + q^(m-3) + ... + q^(1-m)."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return HalfLaurent({2 * (m - 1 - 2 * k): 1 for k in range(m)})


class CycloLaurent(_Sparse):
    """Sum of terms mult * e^(2*pi*i*angle) * q^(exp), exp a half-integer.

    Terms map (angle, doubled exponent) to nonzero integer multiplicities.
    Terms with equal keys are merged; distinct roots of unity are never
    combined, so zero-testing is per matched term.
    """

    __slots__ = ()

    @classmethod
    def one(cls) -> "CycloLaurent":
        return cls({(ZERO_ANGLE, 0): 1})

    @classmethod
    def from_angle(cls, a: UnitAngle, doubled_exponent: int = 0, mult: int = 1) -> "CycloLaurent":
        c = cls.__new__(cls)  # one term: no merge, and the key is hashed once
        c.terms = {(a, doubled_exponent): mult} if mult else {}
        return c

    def __mul__(self, other: "CycloLaurent") -> "CycloLaurent":
        out: dict[tuple[UnitAngle, int], int] = {}
        for (a1, e1), m1 in self.terms.items():
            for (a2, e2), m2 in other.terms.items():
                k = (a1 + a2, e1 + e2)
                out[k] = out.get(k, 0) + m1 * m2
        return CycloLaurent(out)

    def sorted_terms(self) -> list[tuple[UnitAngle, int, int]]:
        return [(a, e, m) for (a, e), m in sorted(self.terms.items(), key=lambda t: (t[0][0].value, t[0][1]))]

    def __repr__(self) -> str:
        if not self.terms:
            return "CycloLaurent(0)"
        parts = [f"{m}*e({a})*q^{Fraction(e, 2)}" for a, e, m in self.sorted_terms()]
        return "CycloLaurent(" + " + ".join(parts) + ")"
