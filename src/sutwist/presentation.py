"""Generators and relations of the twisted quantum-SU(n) coordinate algebra.

Relations are emitted in sum-to-zero form: a relation is a list of
(coefficient, word) terms, where words are sequences of generator indices
(i, j) for v_{ij} and coefficients are exact root-of-unity times q-power sums.
The quantum determinant relation stores its constant -1 as an empty-word term.
"""

from __future__ import annotations

import json
from itertools import permutations
from typing import Iterable, Sequence

from .classification import ParamTuple, SkewBicharacter, tau_interval
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
            merged[word] = merged.get(word, CycloLaurent.zero()) + coeff
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


def generate_relations(p: ParamTuple) -> list[RelationPoly]:
    """All defining relations, the quantum determinant relation last.

    Specializing to trivial tau and omega recovers the standard FRT relations
    of quantum SU(n).
    """
    n = p.n
    tau = p.tau
    om = p.omega
    rels: list[RelationPoly] = []
    one = CycloLaurent.one()
    # same row: v_ij v_il = (prod tau_p^-1, j<=p<l) q conj(omega_jl)^2 v_il v_ij
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for l in range(j + 1, n + 1):
                coeff = CycloLaurent.from_angle(-tau_interval(tau, j, l) - om.angle(j, l).scale(2), 2)
                rels.append(RelationPoly([(one, ((i, j), (i, l))), (-coeff, ((i, l), (i, j)))]))
    # same column: v_ij v_kj = (prod tau_p, i<=p<k) q omega_ik^2 v_kj v_ij
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            for k in range(i + 1, n + 1):
                coeff = CycloLaurent.from_angle(tau_interval(tau, i, k) + om.angle(i, k).scale(2), 2)
                rels.append(RelationPoly([(one, ((i, j), (k, j))), (-coeff, ((k, j), (i, j)))]))
    # crossing, i > k and j < l: v_ij v_kl = (tau products) omega_ik^2 conj(omega_jl)^2 v_kl v_ij
    for i in range(1, n + 1):
        for k in range(1, i):
            for j in range(1, n + 1):
                for l in range(j + 1, n + 1):
                    angle = (
                        -tau_interval(tau, k, i)
                        - tau_interval(tau, j, l)
                        + om.angle(i, k).scale(2)
                        - om.angle(j, l).scale(2)
                    )
                    coeff = CycloLaurent.from_angle(angle)
                    rels.append(RelationPoly([(one, ((i, j), (k, l))), (-coeff, ((k, l), (i, j)))]))
    # crossing, i < k and j < l, with the (q - q^-1) term
    q_comm = CycloLaurent({(ZERO_ANGLE, 2): 1, (ZERO_ANGLE, -2): -1})
    for i in range(1, n + 1):
        for k in range(i + 1, n + 1):
            for j in range(1, n + 1):
                for l in range(j + 1, n + 1):
                    c1 = CycloLaurent.from_angle(tau_interval(tau, j, l) + om.angle(j, l).scale(2))
                    c2 = CycloLaurent.from_angle(tau_interval(tau, i, k) - om.angle(k, i).scale(2))
                    rels.append(
                        RelationPoly(
                            [
                                (c1, ((i, j), (k, l))),
                                (-c2, ((k, l), (i, j))),
                                (-q_comm, ((i, l), (k, j))),
                            ]
                        )
                    )
    rels.append(quantum_det_relation(p))
    return rels


def _multi_index(n: int, sigma: Sequence[int]) -> list[int]:
    """The tau exponent vector of a permutation in the determinant relation."""
    m = [0] * (n - 1)
    for k in range(2, n + 1):
        j = sigma[k - 1]
        for i in range(1, n):
            if k <= i < j:
                m[i - 1] += k - 1
            elif j <= i < k:
                m[i - 1] -= k - 1
    return m


def _inversions(sigma: Sequence[int]) -> int:
    return sum(
        1 for a in range(len(sigma)) for b in range(a + 1, len(sigma)) if sigma[a] > sigma[b]
    )


def _omega_of_sequence(om: SkewBicharacter, seq: Sequence[int]) -> UnitAngle:
    out = ZERO_ANGLE
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            out = out + om.angle(seq[a], seq[b])
    return out


def quantum_det_relation(p: ParamTuple) -> RelationPoly:
    """The quantum determinant relation, moved to sum-to-zero form.

    sum over permutations of tau^m(sigma) * (-q)^inv(sigma) * conj(omega)(1..n)
    * omega(sigma(1..n)) * v_{1 sigma(1)} ... v_{n sigma(n)}, minus 1.
    """
    n = p.n
    base = -_omega_of_sequence(p.omega, range(1, n + 1))
    terms: list[tuple[CycloLaurent, Word]] = []
    for sigma in permutations(range(1, n + 1)):
        m = _multi_index(n, sigma)
        angle = base + _omega_of_sequence(p.omega, sigma)
        for i in range(1, n):
            angle = angle + p.tau.angle(i).scale(m[i - 1])
        inv = _inversions(sigma)
        coeff = CycloLaurent({(angle, 2 * inv): -1 if inv % 2 else 1})
        word = tuple((row, sigma[row - 1]) for row in range(1, n + 1))
        terms.append((coeff, word))
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
