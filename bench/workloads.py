"""Seeded inputs, jobs and output oracles of the four benchmark workloads.

Inputs are generated round by round from a seed, as plain JSON data, by code
that uses only the standard library.  The oracles are written the same way:
they re-derive the expected answer from the inputs with their own exact
arithmetic, so a defect in `sutwist` can corrupt neither the inputs nor the
verdict on its outputs.  Only `Workload.prepare` and the job closures it
returns call into `sutwist`; the oracles read a witness through its
`to_json()` form and CLI results through their printed JSON or LaTeX.

Every workload repeats a fixed round of job kinds; the seed picks the data of
each job.  A fixed mix keeps the median and p90 inside one job kind on every
seed, so that the spread between seeds measures the program, not the mix.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, factorial, lcm
from typing import Callable

from sutwist import cli, cohomology, lattice


def angle(x: Fraction) -> str:
    """An element of Q/Z as the "p/q" string `sutwist` reads and writes."""
    x = Fraction(x) % 1
    return f"{x.numerator}/{x.denominator}"


# --- cochains on finite abelian groups, independent of sutwist -------------


def _elements(factors):
    return list(product(*(range(k) for k in factors)))


@cache
def _faces(factors: tuple, degree: int) -> list[list[tuple[int, int]]]:
    """For each (degree+1)-tuple in product order: (index, sign) of its bar faces."""
    elems = _elements(factors)
    index = {args: i for i, args in enumerate(product(elems, repeat=degree))}

    def add(g, h):
        return tuple((a + b) % k for a, b, k in zip(g, h, factors))

    out = []
    for args in product(elems, repeat=degree + 1):
        last = len(args) - 1
        faces = [(index[args[1:]], 1)]
        for i in range(last):
            faces.append((index[args[:i] + (add(args[i], args[i + 1]),) + args[i + 2 :]], (-1) ** (i + 1)))
        faces.append((index[args[:-1]], (-1) ** (last + 1)))
        out.append(faces)
    return out


def _coboundary_nums(factors, degree: int, nums: list[int], den: int) -> list[int]:
    """The bar differential of the cochain nums/den, as numerators over den."""
    return [sum(sign * nums[i] for i, sign in faces) % den for faces in _faces(tuple(factors), degree)]


def bar_coboundary(factors, degree: int, values: list[Fraction]) -> list[Fraction]:
    """The standard bar differential of a cochain given as values in product order."""
    den = lcm(*(v.denominator for v in values))
    nums = [v.numerator * (den // v.denominator) for v in values]
    return [Fraction(x, den) for x in _coboundary_nums(factors, degree, nums, den)]


def _standard_cyclic(k: int, j: int) -> list[int]:
    """Numerators over k of the standard 3-cocycle (j/k) * floor((a+b)/k) * c."""
    return [j * ((a + b) // k) * c % k for (a,), (b,), (c,) in product(_elements([k]), repeat=3)]


def _klein(mask: int) -> list[int]:
    """Numerators over 2 of the sum of the generating Klein 3-cocycles selected by mask."""
    out = []
    for g, h, l in product(_elements([2, 2]), repeat=3):
        exps = (g[0] * h[0] * l[0], g[1] * h[1] * l[1], g[0] * h[0] * l[1])
        out.append(sum(e for bit, e in enumerate(exps) if mask >> bit & 1) % 2)
    return out


# --- workload definitions ---------------------------------------------------


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


class Workload:
    name = ""
    setup_rounds = 1  # rounds generated and prepared in set-up; the run cycles through them
    trace_rounds = 1  # rounds in the traced pass

    def round(self, rng: random.Random) -> list[dict]:
        raise NotImplementedError

    def generate(self, seed: int, rounds: int | None = None) -> list[list[dict]]:
        rng = random.Random(f"{self.name}:{seed}")
        return [self.round(rng) for _ in range(rounds or self.setup_rounds)]

    def prepare(self, spec: dict, workdir: str, tag: str) -> Job:
        """Build the program's input objects (and files) for one job."""
        raise NotImplementedError

    def warm_specs(self) -> list[dict]:
        """Small jobs run once in set-up so that caches fill before timing."""
        raise NotImplementedError


class CocycleClasses(Workload):
    name = "cocycle-classes"
    setup_rounds = 20
    trace_rounds = 12
    # (factors, degree): the references are the standard cyclic 3-cocycles, the
    # eight Klein combinations and zero in degree 2 (H^2(Z/3, T) = 0).
    KINDS = (((3,), 3), ((4,), 3), ((5,), 3), ((2, 2), 3), ((3,), 2))

    def _reference(self, factors, degree, label):
        """Numerators over lcm(factors) of the reference cocycle with this label."""
        if degree == 2:
            return [0] * (3**2)
        if factors == (2, 2):
            return _klein(label)
        return _standard_cyclic(factors[0], label)

    def round(self, rng):
        jobs = []
        for factors, degree in self.KINDS:
            n_labels = 1 if degree == 2 else (8 if factors == (2, 2) else factors[0])
            den = lcm(*factors)
            order = len(_elements(factors))
            for same in (True, n_labels == 1):
                labels = [rng.randrange(n_labels)] * 2 if same else rng.sample(range(n_labels), 2)
                pair = []
                for label in labels:
                    b = [rng.randrange(den) for _ in range(order ** (degree - 1))]
                    ref = self._reference(factors, degree, label)
                    d_b = _coboundary_nums(factors, degree - 1, b, den)
                    pair.append([angle(Fraction(r + d, den)) for r, d in zip(ref, d_b)])
                jobs.append(
                    dict(factors=list(factors), degree=degree, labels=labels, phi=pair[0], psi=pair[1])
                )
        return jobs

    def warm_specs(self):
        return [job for job in self.round(random.Random(0)) if job["labels"][0] == job["labels"][1]]

    def prepare(self, spec, workdir, tag):
        factors, degree = spec["factors"], spec["degree"]
        phi, psi = (
            cohomology.Cochain.from_json({"factors": factors, "degree": degree, "values": spec[key]})
            for key in ("phi", "psi")
        )
        cyclic3 = len(factors) == 1 and degree == 3

        def run():
            witness = cohomology.cohomologous(phi, psi)
            indices = (
                [cohomology.cyclic_class_invariant(phi), cohomology.cyclic_class_invariant(psi)]
                if cyclic3
                else None
            )
            return witness, indices

        kind = f"Z/{'+'.join(map(str, factors))} degree {degree}"
        return Job(kind, run, lambda out: check_cocycle_job(spec, *out))


def check_cocycle_job(spec: dict, witness, indices) -> str | None:
    """The verdict must match the known classes and any witness w must satisfy d(w) = phi - psi."""
    same = spec["labels"][0] == spec["labels"][1]
    if (witness is not None) != same:
        verdict = "cohomologous" if witness is not None else "not cohomologous"
        return f"verdict {verdict} for labels {spec['labels']}"
    if witness is not None:
        data = witness.to_json()
        factors, degree = spec["factors"], spec["degree"]
        if data["factors"] != factors or data["degree"] != degree - 1:
            return f"witness on {data['factors']} in degree {data['degree']}"
        d_w = bar_coboundary(factors, degree - 1, [Fraction(v) for v in data["values"]])
        diff = [(Fraction(a) - Fraction(b)) % 1 for a, b in zip(spec["phi"], spec["psi"])]
        if d_w != diff:
            return "coboundary of the witness differs from phi - psi"
    if indices is not None and list(indices) != spec["labels"]:
        return f"class indices {indices}, expected {spec['labels']}"
    return None


class TauTable(Workload):
    name = "tau-table"
    setup_rounds = 12
    trace_rounds = 5
    # 40% n=3, 40% n=4, 20% n=5: the median falls among n=4 rows, p90 among n=5 rows.
    ORDER = (3, 4, 5, 3, 4, 3, 4, 5, 3, 4)

    def round(self, rng):
        return [{"n": n, "tau": [rng.randrange(n) for _ in range(n - 1)]} for n in self.ORDER]

    def warm_specs(self):
        return [{"n": 3, "tau": [1, 2]}]

    def prepare(self, spec, workdir, tag):
        n = spec["n"]
        tau = lattice.TauVector.from_fractions(n, [Fraction(t, n) for t in spec["tau"]])

        def run():
            return cohomology.cyclic_class_invariant(lattice.descend_c_tau(tau))

        return Job(f"n={n}", run, lambda out: check_tau_row(spec, out))


def check_tau_row(spec: dict, class_index) -> str | None:
    """class_index must equal n * central_invariant(tau) mod n = sum_i i*t_i mod n."""
    n = spec["n"]
    expected = sum(i * t for i, t in enumerate(spec["tau"], start=1)) % n
    return None if class_index == expected else f"class index {class_index}, expected {expected}"


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """One in-process CLI call; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def _cli_failure(code: int, err: str) -> str | None:
    if code != 0:
        return f"exit code {code}: {err.strip()[:200]}"
    return None


# --- parameter tuples (n, q, tau, omega) as JSON, independent of sutwist ---


def _param(n: int, q: Fraction, tau: list[Fraction], upper: dict) -> dict:
    """A parameter tuple whose omega is filled in from its upper block."""
    m = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), a in upper.items():
        m[i - 1][j - 1] = a
        m[j - 1][i - 1] = -a
    for j in range(n - 1):
        col = sum((m[i][j] for i in range(n - 1)), Fraction(0))
        m[n - 1][j] = -col
        m[j][n - 1] = col
    return {
        "n": n,
        "q": f"{q.numerator}/{q.denominator}",
        "tau": [angle(t) for t in tau],
        "omega": [[angle(a) for a in row] for row in m],
    }


def _theta(p: dict) -> dict:
    """The diagram symmetry: reversed, negated tau; omega with reversed indices."""
    n = p["n"]
    tau = [angle(-Fraction(p["tau"][n - 1 - i])) for i in range(1, n)]
    omega = [[p["omega"][n - 1 - i][n - 1 - j] for j in range(n)] for i in range(n)]
    return {"n": n, "q": p["q"], "tau": tau, "omega": omega}


def _random_param(rng: random.Random, n: int, qs) -> dict:
    tau = [Fraction(rng.randrange(n), n) for _ in range(n - 1)]
    upper = {(i, j): Fraction(rng.randrange(12), 12) for i in range(1, n - 1) for j in range(i + 1, n)}
    return _param(n, rng.choice(qs), tau, upper)


@cache
def rank3_grid() -> list[dict]:
    """The 162 rank-3 tuples of the classification-coherence check."""
    return [
        _param(3, q, [Fraction(t1, 3), Fraction(t2, 3)], {(1, 2): Fraction(w, 6)})
        for t1, t2 in product(range(3), repeat=2)
        for w in range(6)
        for q in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5))
    ]


def central(p: dict) -> Fraction:
    return sum((i * Fraction(t) for i, t in enumerate(p["tau"], start=1)), Fraction(0)) % 1


def relation_count(n: int) -> int:
    """Same-row, same-column and both crossing families, plus the determinant."""
    pairs = comb(n, 2)
    return 2 * n * pairs + 2 * pairs * pairs + 1


def torus_residue(rel: list[dict], n: int) -> dict:
    """Substitute v_ij -> delta_ij z_i and reduce modulo z_1...z_n = 1.

    Returns the nonzero coefficients by reduced z-exponent vector; every
    relation of the presentation must leave none.
    """
    acc: dict = {}
    for term in rel:
        word = term["word"]
        if any(i != j for i, j in word):
            continue
        expo = [0] * n
        for i, _ in word:
            expo[i - 1] += 1
        coeffs = acc.setdefault(tuple(e - min(expo) for e in expo), {})
        for a, e, m in term["coeff"]:
            key = (Fraction(a), e)
            coeffs[key] = coeffs.get(key, 0) + m
    return {key: c for key, c in acc.items() if any(c.values())}


class HopfPresent(Workload):
    name = "hopf-present"
    setup_rounds = 6
    trace_rounds = 3
    QS = tuple(Fraction(a, b) for b in range(2, 10) for a in range(1, b))
    # 10 present, 14 classify and 6 canonical jobs a round.  File sizes grow as the
    # rank falls so that every classify job costs about the same and the median
    # lands among them; p90 lands among the n=6 presentations.
    CLASSIFY_RANKS = (3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5)
    CANONICAL_RANKS = (3, 3, 4, 4, 5, 5)
    FILE_SIZE = {3: 16, 4: 12, 5: 10}  # seeded tuples per file; theta images of half are added

    def _tuples(self, rng, n, command):
        """Seeded tuples of rank n, then the theta images of the first half of them."""
        size = self.FILE_SIZE[n]
        if n == 3:
            base = rng.sample(rank3_grid(), size)
        else:
            base = [_random_param(rng, n, self.QS[:3]) for _ in range(size)]
        return {"command": command, "params": base + [_theta(p) for p in base[: size // 2]]}

    def round(self, rng):
        jobs = []
        for n in range(3, 8):
            p = _random_param(rng, n, self.QS)
            jobs += [{"command": "present", "format": fmt, "params": [p]} for fmt in ("json", "latex")]
        jobs += [self._tuples(rng, n, "classify") for n in self.CLASSIFY_RANKS]
        jobs += [self._tuples(rng, n, "canonical") for n in self.CANONICAL_RANKS]
        return jobs

    def warm_specs(self):
        rng = random.Random(0)
        p = _random_param(rng, 3, self.QS)
        return [
            {"command": "present", "format": "json", "params": [p]},
            {"command": "present", "format": "latex", "params": [p]},
            self._tuples(rng, 3, "classify"),
            self._tuples(rng, 3, "canonical"),
        ]

    def prepare(self, spec, workdir, tag):
        path = os.path.join(workdir, f"{tag}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec["params"], fh)
        argv = [spec["command"], "--param", path]
        if spec["command"] == "present":
            argv += ["--format", spec["format"]]
        kind = f"{spec['command']} n={spec['params'][0]['n']}"
        return Job(kind, lambda: run_cli(argv), lambda out: check_hopf_job(spec, *out))


def check_hopf_job(spec: dict, code: int, out: str, err: str) -> str | None:
    failure = _cli_failure(code, err)
    if failure:
        return failure
    params = spec["params"]
    if spec["command"] == "present":
        return _check_presentation(params[0]["n"], spec["format"], out)
    payload = json.loads(out)
    forms = payload["canonical_forms"]
    if len(forms) != len(params):
        return f"{len(forms)} canonical forms for {len(params)} tuples"
    for p, form in zip(params, forms):
        tau = [Fraction(t) for t in form["tau"]]
        if Fraction(form["q"]) != Fraction(p["q"]) or tau[0] != central(p) or any(tau[1:]):
            return f"canonical form {form} of {p} does not carry q and the central invariant"
    if spec["command"] == "classify":
        matrix = payload["isomorphism_matrix"]
        size = len(params)
        for i in range(size):
            for j in range(size):
                if (matrix[i][j] != "no") != (forms[i] == forms[j]):
                    return f"matrix entry ({i}, {j}) = {matrix[i][j]} disagrees with canonical forms"
        drawn = HopfPresent.FILE_SIZE[params[0]["n"]]
        for i in range(size - drawn):
            if matrix[i][drawn + i] == "no":
                return f"tuple {i} is not isomorphic to its theta image"
    return None


def _check_presentation(n: int, fmt: str, out: str) -> str | None:
    if fmt == "latex":
        lines = out.rstrip("\n").split("\n")
        if len(lines) != relation_count(n) + 1:
            return f"{len(lines) - 1} relations, expected {relation_count(n)}"
        det = lines[-1]
        if det.count(") v_{1") != factorial(n) or det.count(") 1 ") != 1:
            return "determinant relation does not have n! + 1 terms"
        return None
    rels = json.loads(out)
    if len(rels) != relation_count(n):
        return f"{len(rels)} relations, expected {relation_count(n)}"
    if len(rels[-1]) != factorial(n) + 1:
        return f"determinant relation has {len(rels[-1])} terms, expected {factorial(n) + 1}"
    for idx, rel in enumerate(rels):
        if torus_residue(rel, n):
            return f"relation {idx} does not vanish on the torus"
    return None


class SpinVerify(Workload):
    name = "spin-verify"
    setup_rounds = 8
    trace_rounds = 3
    # 12 of 16 jobs are n=3 q-checks, so the median is one of them; n=7 holds p90.
    ORDER = (3, "q", "q", "q", 5, "q", "q", "q", 7, "q", "q", "q", 9, "q", "q", "q")

    def round(self, rng):
        jobs = []
        for item in self.ORDER:
            if item == "q":
                a, b = rng.sample(range(1, 13), 2)
                jobs.append({"argv": ["spin-verify", "--n", "3", "--q", f"{a * a}/{b * b}"]})
            else:
                jobs.append({"argv": ["spin-verify", "--n", str(item)]})
        return jobs

    def warm_specs(self):
        return [{"argv": ["spin-verify", "--n", "3"]}, {"argv": ["spin-verify", "--n", "3", "--q", "4/9"]}]

    def prepare(self, spec, workdir, tag):
        argv = spec["argv"]
        kind = " ".join(argv[1:3]) + (" q" if "--q" in argv else "")
        return Job(kind, lambda: run_cli(argv), lambda out: check_spin_job(*out))


def check_spin_job(code: int, out: str, err: str) -> str | None:
    failure = _cli_failure(code, err)
    if failure:
        return failure
    report = json.loads(out)
    if report["status"] != "pass" or any(item["status"] != "pass" for item in report["items"]):
        return f"status {report['status']}"
    return None


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (CocycleClasses(), TauTable(), HopfPresent(), SpinVerify())
}
