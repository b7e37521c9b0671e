"""Weight lattice of SU(n), the norm function, and the explicit 2-cochains c_tau.

Weights are stored as lifts in Z^n; every operation is invariant under adding
(1, ..., 1).  The section used to normalize c_tau is s(k) = k * L_1 with
k in {0, ..., n-1}.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, product
from operator import add, mul, sub
from typing import Callable, Iterable, Sequence, TypeVar

from .cohomology import Cochain, FiniteAbelianGroup
from .scalars import UnitAngle, ZERO_ANGLE

T = TypeVar("T")


class NotDescendable(ValueError):
    """The coboundary of the given cochain is not invariant under the root lattice."""


class WeightVec:
    """A weight of SU(n) as an integer vector in the lift Z^n of P."""

    __slots__ = ("n", "coords")

    def __init__(self, coords: Iterable[int]) -> None:
        self.coords = tuple(map(int, coords))
        self.n = len(self.coords)

    @classmethod
    def zero(cls, n: int) -> "WeightVec":
        return cls((0,) * n)

    @classmethod
    def L(cls, n: int, i: int) -> "WeightVec":
        """The basis weight L_i, 1-indexed."""
        return cls(tuple(1 if k == i - 1 else 0 for k in range(n)))

    @classmethod
    def alpha(cls, n: int, i: int) -> "WeightVec":
        """The simple root alpha_i = L_i - L_{i+1}, 1-indexed, 1 <= i <= n-1."""
        c = [0] * n
        c[i - 1] = 1
        c[i] = -1
        return cls(c)

    def __add__(self, other: "WeightVec") -> "WeightVec":
        return WeightVec(map(add, self.coords, other.coords))

    def __sub__(self, other: "WeightVec") -> "WeightVec":
        return WeightVec(map(sub, self.coords, other.coords))

    def __neg__(self) -> "WeightVec":
        return WeightVec(tuple(-a for a in self.coords))

    def scale(self, k: int) -> "WeightVec":
        return WeightVec(tuple(k * a for a in self.coords))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WeightVec) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return f"WeightVec({list(self.coords)})"


class TauVector:
    """An (n-1)-tuple of n-th roots of unity, stored as angles."""

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries: Sequence[UnitAngle]) -> None:
        if len(entries) != n - 1:
            raise ValueError(f"expected {n - 1} entries, got {len(entries)}")
        for a in entries:
            if (n * a.value).denominator != 1:
                raise ValueError(f"entry {a} is not an n-th root of unity for n={n}")
        self.n = n
        self.entries = tuple(entries)

    @classmethod
    def trivial(cls, n: int) -> "TauVector":
        return cls(n, (ZERO_ANGLE,) * (n - 1))

    @classmethod
    def from_fractions(cls, n: int, values: Sequence) -> "TauVector":
        return cls(n, tuple(UnitAngle(Fraction(v)) for v in values))

    def angle(self, i: int) -> UnitAngle:
        """The angle of tau_i, 1-indexed."""
        return self.entries[i - 1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TauVector) and (self.n, self.entries) == (other.n, other.entries)

    def __hash__(self) -> int:
        return hash((self.n, self.entries))

    def __repr__(self) -> str:
        return f"TauVector(n={self.n}, {[str(a) for a in self.entries]})"


def weight_norm(lam: WeightVec) -> int:
    """(n-1)*lam_1 - lam_2 - ... - lam_n; kills the lift ambiguity (1, ..., 1)."""
    n = lam.n
    return (n - 1) * lam.coords[0] - sum(lam.coords[1:])


def class_mod_Q(lam: WeightVec) -> int:
    """The residue of lam in P/Q = Z/n, i.e. the coordinate sum mod n."""
    return sum(lam.coords) % lam.n


def q_coordinates(lam: WeightVec) -> tuple[int, tuple[int, ...]]:
    """Decompose lam = k*L_1 + sum_i a_i * alpha_i modulo (1, ..., 1).

    k is the class of lam in P/Q; the a_i are partial sums of the zero-sum
    representative of lam - k*L_1.
    """
    n = lam.n
    k = class_mod_Q(lam)
    shifted = list(lam.coords)
    shifted[0] -= k
    s = sum(shifted)
    if s % n:
        raise ArithmeticError(f"coordinate sum {s} of {lam} - {k}*L_1 is not divisible by {n}")
    return k, tuple(accumulate(c - s // n for c in shifted[: n - 1]))


def c_tau_residue(t: Sequence[int], lam: WeightVec, mu: WeightVec) -> int:
    """n * c_tau(lam, mu) mod n for tau_i = t_i / n, i.e. -sum_i t_i * a_i(lam) * |mu| mod n."""
    _, a = q_coordinates(lam)
    return -sum(map(mul, t, a)) * weight_norm(mu) % lam.n


def _tau_numerators(tau: TauVector) -> tuple[int, ...]:
    """The t_i with tau_i = t_i / n."""
    return tuple(int(tau.n * a.value) for a in tau.entries)


def c_tau_eval(tau: TauVector, lam: WeightVec, mu: WeightVec) -> UnitAngle:
    """The normalized 2-cochain c_tau at (lam, mu), as an angle.

    Equals the product over i of tau_i^(-a_i(lam) * |mu|) where a(lam) are the
    section coordinates; the two defining recursions follow from a(lam + alpha_i)
    = a(lam) + e_i and the n-torsion of tau.
    """
    return UnitAngle(Fraction(c_tau_residue(_tau_numerators(tau), lam, mu), tau.n))


CochainFn = Callable[[WeightVec, WeightVec], UnitAngle]


def coboundary3(c: Callable[[WeightVec, WeightVec], T], lam: WeightVec, mu: WeightVec, nu: WeightVec) -> T:
    """The bar-complex coboundary of a 2-cochain on P, in angle notation."""
    return c(mu, nu) - c(lam + mu, nu) + c(lam, mu + nu) - c(lam, mu)


def _descend(cob: Callable[[WeightVec, WeightVec, WeightVec], T], n: int) -> list[T]:
    """Values of a 3-cochain on P at the section triples of Z/n, in product order.

    Invariance under the root lattice is verified by perturbing each argument
    of each section triple by every simple root and by (1, ..., 1); any failure
    raises NotDescendable.
    """
    section = [WeightVec.L(n, 1).scale(k) for k in range(n)]
    perturbations = [WeightVec.alpha(n, i) for i in range(1, n)] + [WeightVec((1,) * n)]
    values = []
    for a, b, cc in product(range(n), repeat=3):
        args = (section[a], section[b], section[cc])
        base = cob(*args)
        for pos in range(3):
            for pert in perturbations:
                moved = list(args)
                moved[pos] = moved[pos] + pert
                if cob(*moved) != base:
                    raise NotDescendable(
                        f"coboundary not Q-invariant at {(a, b, cc)}, argument {pos}, shift {pert}"
                    )
        values.append(base)
    return values


def descend_to_PQ(c: CochainFn, n: int) -> Cochain:
    """Tabulate the coboundary of c on section representatives as a 3-cochain on Z/n.

    c returns angles; see `_descend` for the Q-invariance checks.
    """
    group = FiniteAbelianGroup([n])
    values = _descend(lambda *args: coboundary3(c, *args), n)
    return Cochain(group, 3, dict(zip(product(group.elements(), repeat=3), values)))


def descend_c_tau(tau: TauVector) -> Cochain:
    """The 3-cocycle on Z/n obtained from the coboundary of c_tau.

    Runs on residues mod n (see `c_tau_residue`), with every Q-invariance
    check of `_descend`.
    """
    n = tau.n
    t = _tau_numerators(tau)

    def residue(lam: WeightVec, mu: WeightVec) -> int:
        return c_tau_residue(t, lam, mu)

    values = _descend(lambda *args: coboundary3(residue, *args) % n, n)
    return Cochain.from_numerators(FiniteAbelianGroup([n]), 3, values, n)


def all_tau_vectors(n: int) -> list[TauVector]:
    """Every (n-1)-tuple of n-th roots of unity."""
    angles = [UnitAngle(Fraction(k, n)) for k in range(n)]
    return [TauVector(n, combo) for combo in product(angles, repeat=n - 1)]
