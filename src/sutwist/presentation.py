"""Generators and relations of the twisted quantum-SU(n) coordinate algebra.

Relations are emitted in sum-to-zero form: a relation is a list of
(coefficient, word) terms, where words are sequences of generator indices
(i, j) for v_{ij} and coefficients are exact root-of-unity times q-power sums.
The quantum determinant relation stores its constant -1 as an empty-word term.

Every coefficient angle is computed as an integer residue.  Let L be the lcm
of the denominators of all tau_k and omega_ij of the tuple; then L*tau_k and
L*omega_ij are integers, and every angle below is an integer combination of
them, reduced mod L.  With P[j] = L*(tau_1 + ... + tau_{j-1}) the prefix sums,
a tau interval tau_i + ... + tau_{j-1} is P[j] - P[i].  The determinant term
of a permutation sigma has q-exponent inv(sigma), sign (-1)^inv(sigma) and
angle

    sum_k (k-1) (P[sigma_k] - P[k])  -  2 sum omega_ij over i < j with j before i in sigma,

which is its tau exponent vector applied to tau, plus the omega sum over the
permuted index sequence minus the one over 1..n.  One pass over the pairs of
sigma gives the omega sum and inv(sigma) together.  A residue becomes a
`UnitAngle` only when an output `CycloLaurent` is built, once per distinct
residue and call (`_Residues.coeff`), so no Fraction arithmetic runs per term.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import accumulate, permutations
from math import lcm
from typing import Iterable, Sequence

from .classification import ParamTuple
from .scalars import CycloLaurent, UnitAngle, ZERO_ANGLE

Gen = tuple[int, int]
Word = tuple[Gen, ...]


class RelationPoly:
    """A polynomial relation: sum over terms of coeff * word = 0."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[CycloLaurent, Word]]) -> None:
        merged: dict[Word, CycloLaurent] = {}
        for coeff, word in terms:
            word = tuple((int(i), int(j)) for i, j in word)
            prev = merged.get(word)
            merged[word] = coeff if prev is None else prev + coeff
        self.terms = tuple(
            sorted(((c, w) for w, c in merged.items() if not c.is_zero), key=lambda t: t[1])
        )

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RelationPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __repr__(self) -> str:
        return f"RelationPoly({len(self.terms)} terms)"


class _Residues:
    """The tau and omega angles of one tuple as integers mod their common modulus L.

    `prefix[j]` = L*(tau_1 + ... + tau_{j-1}) and `omega[i][j]` = L*omega_ij,
    both 1-indexed (index 0 is padding).
    """

    __slots__ = ("modulus", "prefix", "omega", "_angles", "_coeffs")

    def __init__(self, p: ParamTuple) -> None:
        tau = [a.value for a in p.tau.entries]
        rows = [[a.value for a in row] for row in p.omega.angles]
        L = lcm(*(v.denominator for v in tau), *(v.denominator for row in rows for v in row))

        def scaled(v: Fraction) -> int:
            return v.numerator * (L // v.denominator)

        self.modulus = L
        self.prefix = [0, *accumulate(map(scaled, tau), initial=0)]
        self.omega = [[0] * (p.n + 1)] + [[0, *map(scaled, row)] for row in rows]
        self._angles: dict[int, UnitAngle] = {}
        self._coeffs: dict[tuple[int, int, int], CycloLaurent] = {}

    def angle(self, r: int) -> UnitAngle:
        """The angle r / L, made once per residue."""
        r %= self.modulus
        a = self._angles.get(r)
        if a is None:
            a = self._angles[r] = UnitAngle(Fraction(r, self.modulus))
        return a

    def coeff(self, r: int, doubled_exponent: int = 0, mult: int = 1) -> CycloLaurent:
        """mult * e(r / L) * q^(doubled_exponent / 2), one object per distinct term."""
        key = (r % self.modulus, doubled_exponent, mult)
        c = self._coeffs.get(key)
        if c is None:
            c = self._coeffs[key] = CycloLaurent.from_angle(self.angle(r), doubled_exponent, mult)
        return c


def generate_relations(p: ParamTuple) -> list[RelationPoly]:
    """All defining relations, the quantum determinant relation last.

    Specializing to trivial tau and omega recovers the standard FRT relations
    of quantum SU(n).
    """
    n = p.n
    res = _Residues(p)
    P, w, coeff = res.prefix, res.omega, res.coeff
    rels: list[RelationPoly] = []
    one = CycloLaurent.one()
    # same row: v_ij v_il = (prod tau_p^-1, j<=p<l) q conj(omega_jl)^2 v_il v_ij
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for l in range(j + 1, n + 1):
                c = coeff(P[j] - P[l] - 2 * w[j][l], 2, -1)
                rels.append(RelationPoly([(one, ((i, j), (i, l))), (c, ((i, l), (i, j)))]))
    # same column: v_ij v_kj = (prod tau_p, i<=p<k) q omega_ik^2 v_kj v_ij
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            for k in range(i + 1, n + 1):
                c = coeff(P[k] - P[i] + 2 * w[i][k], 2, -1)
                rels.append(RelationPoly([(one, ((i, j), (k, j))), (c, ((k, j), (i, j)))]))
    # crossing, i > k and j < l: v_ij v_kl = (tau products) omega_ik^2 conj(omega_jl)^2 v_kl v_ij
    for i in range(1, n + 1):
        for k in range(1, i):
            for j in range(1, n + 1):
                for l in range(j + 1, n + 1):
                    c = coeff(P[k] - P[i] + P[j] - P[l] + 2 * w[i][k] - 2 * w[j][l], 0, -1)
                    rels.append(RelationPoly([(one, ((i, j), (k, l))), (c, ((k, l), (i, j)))]))
    # crossing, i < k and j < l, with the (q - q^-1) term
    minus_q_comm = CycloLaurent({(ZERO_ANGLE, 2): -1, (ZERO_ANGLE, -2): 1})
    for i in range(1, n + 1):
        for k in range(i + 1, n + 1):
            for j in range(1, n + 1):
                for l in range(j + 1, n + 1):
                    c1 = coeff(P[l] - P[j] + 2 * w[j][l])
                    c2 = coeff(P[k] - P[i] - 2 * w[k][i], 0, -1)
                    rels.append(
                        RelationPoly(
                            [(c1, ((i, j), (k, l))), (c2, ((k, l), (i, j))), (minus_q_comm, ((i, l), (k, j)))]
                        )
                    )
    rels.append(quantum_det_relation(p))
    return rels


def quantum_det_relation(p: ParamTuple) -> RelationPoly:
    """The quantum determinant relation, moved to sum-to-zero form.

    sum over permutations of tau^m(sigma) * (-q)^inv(sigma) * conj(omega)(1..n)
    * omega(sigma(1..n)) * v_{1 sigma(1)} ... v_{n sigma(n)}, minus 1; the angle
    is computed as a residue by the identity in the module docstring.
    """
    n = p.n
    res = _Residues(p)
    P = res.prefix
    w2 = [[2 * x for x in row] for row in res.omega]
    rows = range(1, n + 1)
    base = -sum((k - 1) * P[k] for k in rows)
    terms: list[tuple[CycloLaurent, Word]] = []
    for sigma in permutations(rows):
        r = base
        inv = 0
        for b in range(1, n):  # sigma[b] sits in row b + 1
            v = sigma[b]
            r += b * P[v]
            for u in sigma[:b]:
                if u > v:  # v < u with u first: add -2 omega_vu = 2 omega_uv
                    r += w2[u][v]
                    inv += 1
        terms.append((res.coeff(r, 2 * inv, -1 if inv % 2 else 1), tuple(zip(rows, sigma))))
    terms.append((-CycloLaurent.one(), ()))
    return RelationPoly(terms)


def torus_character_residue(rel: RelationPoly, n: int) -> dict[tuple[int, ...], CycloLaurent]:
    """Substitute v_ij -> delta_ij z_i and reduce modulo z_1...z_n = 1.

    Returns the residue as a map from reduced z-exponent vectors to nonzero
    coefficients; an empty map means the relation restricts to zero on the
    torus, which is the contract for every emitted relation.
    """
    acc: dict[tuple[int, ...], CycloLaurent] = {}
    for coeff, word in rel.terms:
        if any(i != j for i, j in word):
            continue
        expo = [0] * n
        for i, _ in word:
            expo[i - 1] += 1
        low = min(expo)
        key = tuple(e - low for e in expo)
        acc[key] = acc.get(key, CycloLaurent.zero()) + coeff
    return {key: c for key, c in acc.items() if not c.is_zero}


def serialize(rels: Sequence[RelationPoly], fmt: str = "json") -> str:
    """Deterministic JSON or LaTeX rendering of a relation list.

    The star structure (unitarity of the generator matrix) is carried as
    metadata only.
    """
    if fmt == "json":
        payload = []
        for rel in rels:
            payload.append(
                [
                    {
                        "coeff": [[str(a), e, m] for a, e, m in coeff.sorted_terms()],
                        "word": [list(g) for g in word],
                    }
                    for coeff, word in rel.terms
                ]
            )
        return json.dumps(payload, separators=(",", ":"))
    if fmt == "latex":
        lines = ["% star structure: the matrix (v_{ij}) is required to be unitary"]
        for rel in rels:
            parts = []
            for coeff, word in rel.terms:
                cs = " + ".join(
                    f"{m} e^{{2\\pi i \\cdot {a}}} q^{{{e}/2}}" for a, e, m in coeff.sorted_terms()
                )
                ws = " ".join(f"v_{{{i}{j}}}" for i, j in word) or "1"
                parts.append(f"({cs}) {ws}")
            lines.append(" + ".join(parts) + " = 0 \\\\")
        return "\n".join(lines)
    raise ValueError(f"unknown format {fmt!r}")


def parse_relations(text: str) -> list[RelationPoly]:
    """Inverse of serialize(..., 'json')."""
    payload = json.loads(text)
    rels = []
    for rel in payload:
        terms = []
        for term in rel:
            coeff = CycloLaurent(
                {(UnitAngle.parse(a), e): m for a, e, m in term["coeff"]}
            )
            word = tuple((i, j) for i, j in term["word"])
            terms.append((coeff, word))
        rels.append(RelationPoly(terms))
    return rels
