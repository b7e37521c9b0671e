"""Self-contained verification suite covering the package's headline claims.

Each check returns a `CheckResult` with the expected and observed values so
callers (the command-line `selftest` subcommand and the acceptance tests) can
render uniform pass/fail reports.  The `quick` scale keeps every check under a
few seconds; `full` runs the larger ranks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import factorial
from typing import Callable, Iterator, Sequence

from .classification import (
    IsoCase,
    ParamTuple,
    SkewBicharacter,
    canonical_form,
    central_invariant,
    is_isomorphic,
    isomorphism_matrix,
    mirror_invariant,
    pair_invariant,
    theta_transform,
)
from .cohomology import (
    Cochain,
    FiniteAbelianGroup,
    aut_pullback,
    aut_witness_cochain,
    class_key,
    coboundary,
    cohomologous,
    is_cocycle,
    klein_cocycles,
    standard_cyclic_3cocycle,
)
from .lattice import TauVector, all_tau_vectors, descend_c_tau
from .presentation import generate_relations, serialize, torus_character_residue
from .scalars import HALF_ANGLE, ZERO_ANGLE, HalfLaurent, UnitAngle, quantum_integer
from .spin import (
    check_V_intertwiner,
    index_shift,
    pairing_gh,
    pairing_gh_terms,
    theorem_a1_check,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    expected: str
    actual: str


@dataclass(frozen=True)
class Report:
    items: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def to_json(self) -> dict:
        return {
            "status": "pass" if self.passed else "fail",
            "items": [
                {
                    "name": item.name,
                    "status": "pass" if item.passed else "fail",
                    "expected": item.expected,
                    "actual": item.actual,
                }
                for item in self.items
            ],
        }

    def to_text(self) -> str:
        lines = []
        for item in self.items:
            status = "PASS" if item.passed else "FAIL"
            lines.append(f"{status} {item.name}: expected {item.expected}, got {item.actual}")
        lines.append(f"overall: {'pass' if self.passed else 'fail'}")
        return "\n".join(lines)


def check_pairing_values(scale: str = "full") -> CheckResult:
    """Classical pairing of the two embedding vectors equals a signed n(n-1)."""
    ranks = (3,) if scale == "quick" else (3, 5, 7)
    expected = {n: (-1) ** ((n + 1) // 2) * n * (n - 1) for n in ranks}
    actual = {n: pairing_gh(n, "classical") for n in ranks}
    ok = all(actual[n] == HalfLaurent.from_int(expected[n]) for n in ranks)
    return CheckResult(
        "pairing-values",
        ok,
        str(expected),
        str({n: repr(v) for n, v in actual.items()}),
    )


def check_invariant_map(scale: str = "full") -> CheckResult:
    """The spin invariant vector induces a scalar endomorphism at sample q."""
    if scale == "quick":
        ranks, qs = (3,), (Fraction(1), Fraction(1, 4))
    else:
        ranks, qs = (3, 5, 7), (Fraction(1), Fraction(1, 4), Fraction(4))
    # one rank is labelled by q alone
    results = {
        (f"{n},{q}" if len(ranks) > 1 else str(q)): theorem_a1_check(n, q) for n in ranks for q in qs
    }
    return CheckResult(
        "invariant-scalar-map",
        all(results.values()),
        "all true",
        str(results),
    )


def check_intertwiners(scale: str = "full") -> CheckResult:
    """Exact intertwiner property of the vector-into-double-spin embedding."""
    cases = [(3, "classical"), (3, "quantum")]
    if scale != "quick":
        cases.append((5, "quantum"))
    results = {f"{n},{mode}": check_V_intertwiner(n, mode) for n, mode in cases}
    return CheckResult("intertwiner-suite", all(results.values()), "all true", str(results))


def check_quantum_sign_law(scale: str = "full") -> CheckResult:
    """Every quantum pairing monomial is a signed power of q with the
    exponent multiset predicted by the index-shift formula."""
    ranks = (3,) if scale == "quick" else (3, 5)
    ok = True
    detail = {}
    for n in ranks:
        sign = (-1) ** ((n + 1) // 2)
        observed: dict[int, int] = {}
        for doubled, coeff in pairing_gh_terms(n, "quantum"):
            if coeff != sign or doubled % 2 != 0:
                ok = False
            observed[doubled // 2] = observed.get(doubled // 2, 0) + 1
        predicted: dict[int, int] = {}
        full = (1 << n) - 1
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                rest = full & ~(1 << (i - 1)) & ~(1 << (j - 1))
                expo = i - j + index_shift(n, n + i, rest) + index_shift(n, n + j, 1 << (i - 1))
                predicted[expo] = predicted.get(expo, 0) + 1
        if observed != predicted:
            ok = False
        detail[n] = observed == predicted
    return CheckResult("quantum-sign-law", ok, "all multisets match", str(detail))


def _all_two_cochains(k: int) -> Iterator[Cochain]:
    group = FiniteAbelianGroup([k])
    for values in product(range(k), repeat=k * k):
        yield Cochain.from_numerators(group, 2, values, k)


def check_h2_triviality(scale: str = "full") -> CheckResult:
    """Every 2-cocycle on a small cyclic group bounds (exhaustive search)."""
    orders = (2,) if scale == "quick" else (2, 3)
    counts = {}
    ok = True
    for k in orders:
        zero = Cochain.zero(FiniteAbelianGroup([k]), 2)
        cocycles = [c for c in _all_two_cochains(k) if is_cocycle(c)]
        for c in cocycles:
            if cohomologous(c, zero) is None:
                ok = False
        counts[k] = len(cocycles)
    return CheckResult("h2-triviality", ok, "every cocycle bounds", f"cocycle counts {counts}")


def check_h3_class_law(scale: str = "full") -> CheckResult:
    """Descended 3-cocycles are cohomologous exactly when the weighted
    product of torsion parameters agrees.

    Every pair is judged by `class_key`.  Unequal keys certify "not
    cohomologous"; each set of equal keys is certified by witness solves
    against its first member, so no key is trusted unverified.
    """
    ranks = (2, 3) if scale == "quick" else (2, 3, 4)
    ok = True
    counted = {}
    for n in ranks:
        taus = all_tau_vectors(n)
        counted[n] = len(taus)
        cocycles = [descend_c_tau(tau) for tau in taus]
        keys = [class_key(c) for c in cocycles]
        invariants = [central_invariant(tau) for tau in taus]
        for i, j in combinations(range(len(taus)), 2):
            if (keys[i] == keys[j]) != (invariants[i] == invariants[j]):
                ok = False
        first: dict = {}
        for key, c in zip(keys, cocycles):
            rep = first.setdefault(key, c)
            if rep is not c and cohomologous(c, rep) is None:
                ok = False
    return CheckResult("h3-class-law", ok, "class equality iff invariant equality", f"tuple counts {counted}")


def check_aut_triviality(scale: str = "full") -> CheckResult:
    """Negation pullback fixes every cyclic degree-3 class, certified by the
    explicit degree-2 witness."""
    ranks = (3,) if scale == "quick" else (3, 4, 5)
    ok = True
    for n in ranks:
        for j in range(n):
            phi = standard_cyclic_3cocycle(n, j)
            psi = aut_pullback(phi)
            beta = aut_witness_cochain(n, j)
            if not (coboundary(beta) - (phi - psi)).is_zero:
                ok = False
    return CheckResult("aut-triviality", ok, "witness coboundary matches", str(ok))


def check_klein_classes(scale: str = "full") -> CheckResult:
    """The three generating cocycles on the Klein four-group span eight
    distinct classes, and their values on the central characters match the
    reference sign table."""
    phi1, phi2, phi3 = klein_cocycles()
    ok = all(is_cocycle(p) for p in (phi1, phi2, phi3))
    group = phi1.group
    zero = Cochain.zero(group, 3)
    combos = []
    for e1, e2, e3 in product((0, 1), repeat=3):
        c = zero
        for e, p in ((e1, phi1), (e2, phi2), (e3, phi3)):
            if e:
                c = c + p
        combos.append(c)
    distinct = 0
    for a, b in combinations(combos, 2):
        if cohomologous(a, b) is None:
            distinct += 1
    ok = ok and distinct == len(combos) * (len(combos) - 1) // 2
    plus, minus, vector = (1, 0), (0, 1), (1, 1)
    table = {
        ("phi1", "+"): phi1(plus, plus, plus),
        ("phi1", "V"): phi1(vector, vector, vector),
        ("phi1", "-"): phi1(minus, minus, minus),
        ("phi2", "-"): phi2(minus, minus, minus),
        ("phi2", "V"): phi2(vector, vector, vector),
        ("phi2", "+"): phi2(plus, plus, plus),
        ("phi3", "+"): phi3(plus, plus, plus),
        ("phi3", "-"): phi3(minus, minus, minus),
        ("phi3", "V"): phi3(vector, vector, vector),
    }
    expected_signs = {
        ("phi1", "+"): HALF_ANGLE,
        ("phi1", "V"): HALF_ANGLE,
        ("phi1", "-"): ZERO_ANGLE,
        ("phi2", "-"): HALF_ANGLE,
        ("phi2", "V"): HALF_ANGLE,
        ("phi2", "+"): ZERO_ANGLE,
        ("phi3", "+"): ZERO_ANGLE,
        ("phi3", "-"): ZERO_ANGLE,
        ("phi3", "V"): HALF_ANGLE,
    }
    ok = ok and table == expected_signs
    return CheckResult(
        "klein-classes",
        ok,
        "8 classes, sign table exact",
        f"distinct pairs {distinct}, table match {table == expected_signs}",
    )


def _grid_params(n: int = 3) -> list[ParamTuple]:
    """All rank-3 parameter tuples with third-of-a-turn torsion data.

    The omega entries run over all sixths of a turn (their doubled angles are
    thirds), and several deformation values q are included.
    """
    out = []
    thirds = [UnitAngle(Fraction(d, 3)) for d in range(3)]
    sixths = [UnitAngle(Fraction(d, 6)) for d in range(6)]
    qs = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5))
    for t1, t2 in product(thirds, repeat=2):
        tau = TauVector(n, [t1, t2])
        for w in sixths:
            omega = SkewBicharacter.from_upper_block(n, {(1, 2): w})
            for q in qs:
                out.append(ParamTuple(n, q, tau, omega))
    return out


def check_classification_coherence(scale: str = "full") -> CheckResult:
    """On an exhaustive small grid the isomorphism decision is an equivalence
    relation, canonical forms are class constants, and the mirror transform
    always yields an isomorphic tuple."""
    params = _grid_params()
    if scale == "quick":
        params = params[::6]
    ok = True
    forms = {}
    for p in params:
        if is_isomorphic(p, p) is IsoCase.NO:
            ok = False
        cf = canonical_form(p)
        forms[p] = cf
        if canonical_form(cf) != cf or is_isomorphic(p, cf) is IsoCase.NO:
            ok = False
        flipped = theta_transform(p)
        if is_isomorphic(p, flipped) is IsoCase.NO:
            ok = False
        if mirror_invariant(p) != pair_invariant(flipped):
            ok = False
    matrix = isomorphism_matrix(params)
    for a, b in combinations(range(len(params)), 2):
        forward = matrix[a][b]
        backward = matrix[b][a]
        if (forward is IsoCase.NO) != (backward is IsoCase.NO):
            ok = False
        if (forward is not IsoCase.NO) != (forms[params[a]] == forms[params[b]]):
            ok = False
    # canonical-form equality is transitive, so the above also gives transitivity
    classes = set(forms.values())
    return CheckResult(
        "classification-coherence",
        ok,
        "equivalence relation with class-constant canonical forms",
        f"{len(params)} tuples, {len(classes)} classes, ok={ok}",
    )


def _random_param(rng: random.Random, n: int) -> ParamTuple:
    tau_entries = [UnitAngle(Fraction(rng.randrange(n), n)) for _ in range(n - 1)]
    block = {
        (i, j): UnitAngle(Fraction(rng.randrange(12), 12))
        for i in range(1, n - 1)
        for j in range(i + 1, n)
        if j <= n - 1
    }
    return ParamTuple(
        n,
        Fraction(1, 2),
        TauVector(n, tau_entries),
        SkewBicharacter.from_upper_block(n, block),
    )


def check_presentation(scale: str = "full") -> CheckResult:
    """Relation families specialize correctly: the rank-2 untwisted set is the
    standard one, every relation dies on torus characters, and the
    determinant relation has the right number of terms."""
    ok = True
    std = ParamTuple(
        2,
        Fraction(1, 2),
        TauVector.trivial(2),
        SkewBicharacter.from_upper_block(2, {}),
    )
    rels = generate_relations(std)
    text = serialize(rels, "json")
    if "null" in text:
        ok = False
    expected_counts = {}
    actual_counts = {}
    rng = random.Random(20240817)
    ranks = (2, 3) if scale == "quick" else (2, 3, 4)
    for n in ranks:
        p = _random_param(rng, n)
        all_rels = generate_relations(p)
        for rel in all_rels:
            if torus_character_residue(rel, n):
                ok = False
        expected_counts[n] = factorial(n) + 1
        actual_counts[n] = len(all_rels[-1].terms)
    ok = ok and expected_counts == actual_counts
    return CheckResult(
        "presentation",
        ok,
        f"det terms {expected_counts}",
        f"det terms {actual_counts}",
    )


def check_q_integer_monotonicity(scale: str = "full") -> CheckResult:
    """[m]_q strictly decreases in q on (0, 1] for m = 2..8."""
    grid = [Fraction(k, 24) for k in range(1, 25)]
    ok = True
    for m in range(2, 9):
        poly = quantum_integer(m)
        values = [poly.evaluate(q) for q in grid]
        if any(a <= b for a, b in zip(values, values[1:])):
            ok = False
    return CheckResult("q-integer-monotonicity", ok, "strictly decreasing", str(ok))


ALL_CHECKS: tuple[Callable[[str], CheckResult], ...] = (
    check_pairing_values,
    check_invariant_map,
    check_intertwiners,
    check_quantum_sign_law,
    check_h2_triviality,
    check_h3_class_law,
    check_aut_triviality,
    check_klein_classes,
    check_classification_coherence,
    check_presentation,
    check_q_integer_monotonicity,
)


def run_selftest(scale: str = "quick", checks: Sequence[Callable[[str], CheckResult]] = ALL_CHECKS) -> Report:
    if scale not in ("quick", "full"):
        raise ValueError(f"scale must be 'quick' or 'full', got {scale!r}")
    return Report(tuple(check(scale) for check in checks))
