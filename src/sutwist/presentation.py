"""Generators and relations of the twisted quantum-SU(n) coordinate algebra.

Relations are emitted in sum-to-zero form: a relation is a list of
(coefficient, word) terms, where words are sequences of generator indices
(i, j) for v_{ij} and coefficients are exact root-of-unity times q-power sums.
The quantum determinant relation stores its constant -1 as an empty-word term.

Every coefficient angle is computed as an integer residue, read from the
residue record that `ParamTuple` builds once.  Its modulus L is the lcm of n
and of the denominators of all omega_ij; each tau_k is an n-th root of unity,
so L*tau_k and L*omega_ij are integers, and every angle below is an integer
combination of them, reduced mod L.  With P[j] = L*(tau_1 + ... + tau_{j-1})
the prefix sums (`ParamTuple.prefix`) and W[i][j] = L*omega_ij
(`ParamTuple.scaled_omega`), a tau interval tau_i + ... + tau_{j-1} is
P[j] - P[i].  The determinant term of a permutation sigma has q-exponent
inv(sigma), sign (-1)^inv(sigma) and angle

    sum_k (k-1) (P[sigma_k] - P[k])  -  2 sum omega_ij over i < j with j before i in sigma,

which is its tau exponent vector applied to tau, plus the omega sum over the
permuted index sequence minus the one over 1..n.

`quantum_det_relation` walks the permutations depth first, in lexicographic
order, and carries the angle residue and inv along the prefix: placing column
v in row k adds (k-1) P[v], plus 2 omega_uv and one inversion for each column
u > v already placed, so each node of the walk costs O(n).  Every word is
built from one table of generator pairs (i, j).  The n! words are distinct
and come out in sorted order after the constant's empty word, so the relation
is built as it is (`RelationPoly._presorted`), with no merge and no sort;
every other relation goes through the merging constructor.  A residue becomes
a `UnitAngle` only when an output `CycloLaurent` is built, once per distinct
residue and call (`_Residues.coeff`), so no Fraction arithmetic runs per term.

`serialize` formats each distinct coefficient object once: the coefficients
`_Residues` shares recur across terms, and the cache is keyed by object
identity while holding every relation it has read, so a freed object's id is
never reused within a call.  Each generator is formatted once too.  The JSON
framing is written by hand, byte for byte what `json.dumps` gives with
separators (",", ":"), and both formats join one list of pieces once, at the
end.
"""

from __future__ import annotations

import json
from fractions import Fraction
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
            prev = merged.get(word)
            merged[word] = coeff if prev is None else prev + coeff
        self.terms = tuple(
            sorted(((c, w) for w, c in merged.items() if not c.is_zero), key=lambda t: t[1])
        )

    @classmethod
    def _presorted(cls, terms: Iterable[tuple[CycloLaurent, Word]]) -> "RelationPoly":
        """The relation of terms already in word order, with distinct words and nonzero coefficients."""
        rel = cls.__new__(cls)
        rel.terms = tuple(terms)
        return rel

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
    """The coefficient cache of one call: one angle r / L and one coefficient object per distinct key."""

    __slots__ = ("modulus", "_angles", "_coeffs")

    def __init__(self, modulus: int) -> None:
        self.modulus = modulus
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
    P, w, coeff = p.prefix, p.scaled_omega, _Residues(p.modulus).coeff
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
    is computed as a residue by the identity in the module docstring, along
    each prefix of a depth-first walk over the permutations.
    """
    n = p.n
    coeff = _Residues(p.modulus).coeff
    P = p.prefix
    w2 = [[2 * x for x in row] for row in p.scaled_omega]
    gens = [[(i, j) for j in range(n + 1)] for i in range(n + 1)]
    terms: list[tuple[CycloLaurent, Word]] = [(-CycloLaurent.one(), ())]
    word: list[Gen] = []
    placed: list[int] = []

    def extend(row: int, free: list[int], r: int, inv: int) -> None:
        # r and inv: angle residue and inversion count of the prefix in rows 1..row-1
        row_gens, last = gens[row], row == n
        for v in free:
            rv, iv = r + (row - 1) * P[v], inv
            for u in placed:
                if u > v:  # v < u with u first: add -2 omega_vu = 2 omega_uv
                    rv += w2[u][v]
                    iv += 1
            word.append(row_gens[v])
            if last:
                terms.append((coeff(rv, 2 * iv, -1 if iv & 1 else 1), tuple(word)))
            else:
                placed.append(v)
                extend(row + 1, [c for c in free if c != v], rv, iv)
                placed.pop()
            word.pop()

    extend(1, list(range(1, n + 1)), -sum((k - 1) * P[k] for k in range(1, n + 1)), 0)
    del extend  # it refers to itself: without this, the cycle keeps the residue cache alive until a gc pass
    return RelationPoly._presorted(terms)


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


def _json_head(c: CycloLaurent) -> str:
    """A JSON term up to its word: '{"coeff":[["a",e,m],...],"word":['."""
    items = ",".join(f'["{a}",{e},{m}]' for a, e, m in c.sorted_terms())
    return f'{{"coeff":[{items}],"word":['


def _latex_head(c: CycloLaurent) -> str:
    """A LaTeX term up to its word: '(m e^{2\\pi i \\cdot a} q^{e/2} + ...) '."""
    return "(" + " + ".join(f"{m} e^{{2\\pi i \\cdot {a}}} q^{{{e}/2}}" for a, e, m in c.sorted_terms()) + ") "


class _Texts(dict):
    """key -> fmt(key), formatted on first lookup."""

    __slots__ = ("fmt",)

    def __init__(self, fmt) -> None:
        super().__init__()
        self.fmt = fmt

    def __missing__(self, key):
        text = self[key] = self.fmt(key)
        return text


def _term_texts(head, gen, sep: str):
    """A reader of relations that yields (head, word text) per term, for one serialize call.

    Each coefficient's head and each generator is formatted once.  Heads are
    keyed by id(), and every terms tuple read is held until the reader is
    dropped, so no id in the cache can be freed and reused by another object.
    """
    heads: dict[int, str] = {}
    gen_text = _Texts(gen).__getitem__
    held: list[tuple] = []

    def read(rel: RelationPoly):
        held.append(rel.terms)
        for c, word in rel.terms:
            h = heads.get(id(c))
            if h is None:
                h = heads[id(c)] = head(c)
            yield h, sep.join(map(gen_text, word))

    return read


def serialize(rels: Sequence[RelationPoly], fmt: str = "json") -> str:
    """Deterministic JSON or LaTeX rendering of a relation list.

    The star structure (unitarity of the generator matrix) is carried as
    metadata only.  The JSON is written by hand, and equals json.dumps of
    [[{"coeff": [[str(angle), doubled exponent, mult], ...], "word": [[i, j], ...]}, ...], ...]
    with separators (",", ":").
    """
    if fmt == "json":
        texts = _term_texts(_json_head, lambda g: f"[{g[0]},{g[1]}]", ",")
        out = ["["]
        for r, rel in enumerate(rels):
            out.append(",[" if r else "[")
            for t, (head, word) in enumerate(texts(rel)):
                out += ("," if t else "", head, word, "]}")
            out.append("]")
        out.append("]")
        return "".join(out)
    if fmt == "latex":
        texts = _term_texts(_latex_head, lambda g: f"v_{{{g[0]}{g[1]}}}", " ")
        out = ["% star structure: the matrix (v_{ij}) is required to be unitary"]
        for rel in rels:
            out.append("\n")
            for t, (head, word) in enumerate(texts(rel)):
                out += (" + " if t else "", head, word or "1")
            out.append(" = 0 \\\\")
        return "".join(out)
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
