"""Command-line frontend.

Subcommands wrap the library's main capabilities: isomorphism classification,
canonical forms, finite-group cohomology class data, Hopf-algebra
presentations, exact spin-representation verification, and a selftest harness.
All machine output is JSON with sorted keys so identical invocations produce
identical bytes.  Exit codes: 0 success, 1 check failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from math import factorial

from .classification import ParamTuple, canonical_form, isomorphism_matrix
from .cohomology import cyclic_class_invariant
from .lattice import all_tau_vectors, descend_c_tau
from .presentation import generate_relations, serialize
from .scalars import NonSquareBase, _sqrt_fraction
from .selftest import Report, run_selftest, CheckResult
from .spin import INVARIANT_MAX_N, check_V_intertwiner, pairing_gh, theorem_a1_check


class InputError(Exception):
    """Invalid user input; maps to exit code 2."""


def _load_params(path: str) -> list[ParamTuple]:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise InputError(f"{path}: expected a parameter object or a list of them")
    out = []
    for idx, item in enumerate(data):
        try:
            out.append(ParamTuple.from_json(item))
        except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
            raise InputError(f"{path}: entry {idx}: {exc}") from exc
    return out


def _parse_q(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"invalid rational {text!r}") from exc


def _emit(payload: dict, report: str) -> None:
    if report == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for key in sorted(payload):
            print(f"{key}: {json.dumps(payload[key], sort_keys=True)}")


def classify_cmd(args: argparse.Namespace) -> int:
    params = _load_params(args.param)
    matrix = [[case.value for case in row] for row in isomorphism_matrix(params)]
    payload = {
        "count": len(params),
        "isomorphism_matrix": matrix,
        "canonical_forms": [canonical_form(p).to_json() for p in params],
    }
    _emit(payload, args.report)
    return 0


def canonical_cmd(args: argparse.Namespace) -> int:
    params = _load_params(args.param)
    payload = {"canonical_forms": [canonical_form(p).to_json() for p in params]}
    _emit(payload, args.report)
    return 0


def cohomology_cmd(args: argparse.Namespace) -> int:
    n = args.n
    if n is None or n < 2:
        raise InputError("cohomology requires --n with an integer >= 2")
    rows = []
    for tau in all_tau_vectors(n):
        cocycle = descend_c_tau(tau)
        rows.append(
            {
                "tau": [str(a) for a in tau.entries],
                "class_index": cyclic_class_invariant(cocycle),
            }
        )
    payload = {"n": n, "group": f"Z/{n}", "classes": rows}
    _emit(payload, args.report)
    return 0


# Work budgets, measured on a 2-core x86-64 host under Python 3.11.
# present: the quantum determinant relation has n! terms, and memory grows with
# the number of distinct coefficients among them.  n = 8 (40320 terms) takes
# 0.25-0.35 s, 3.8 MB of JSON and 39-53 MB; when all 40320 coefficients are
# distinct, 0.6 s, 5.0 MB and 70 MB.  n = 9 stays out: with all 362880
# coefficients distinct it takes 5.2 s, 50 MB of JSON and 522 MB.
PRESENT_MAX_N = 8
# spin-verify: the checks work on the 2^(n-1)-dimensional half-spin
# representation and its tensor square; --n 13 (dimension 4096) takes about
# 6 s and 46 MB, and each step of 2 in n costs about five times more.
SPIN_MAX_N = 13
# spin-verify --q: the invariant vector is solved on the torus-neutral part of
# U+ tensor V tensor U+.  --n 7 --q 4/9 (2016 rows over 448 columns) takes about
# 0.3 s and 23 MB, interpreter start-up included.  --n 9 has not been run, so
# it has no measured budget and stays refused.
SPIN_Q_MAX_N = INVARIANT_MAX_N


def present_cmd(args: argparse.Namespace) -> int:
    params = _load_params(args.param)
    if len(params) != 1:
        raise InputError("present expects exactly one parameter tuple")
    n = params[0].n
    if n > PRESENT_MAX_N:
        raise InputError(
            f"present at n = {n} exceeds the work budget: the quantum determinant relation has "
            f"n! = {factorial(n)} terms, and the limit is n = {PRESENT_MAX_N} "
            f"({factorial(PRESENT_MAX_N)} terms)"
        )
    rels = generate_relations(params[0])
    print(serialize(rels, args.format))
    return 0


def spin_verify_cmd(args: argparse.Namespace) -> int:
    n = args.n if args.n is not None else 3
    if n < 3 or n % 2 == 0:
        raise InputError("spin-verify requires an odd --n >= 3")
    if n > SPIN_MAX_N:
        raise InputError(
            f"spin-verify --n {n} exceeds the work budget: the half-spin representation has "
            f"dimension 2^{n - 1} = {2 ** (n - 1)}, and the limit is --n {SPIN_MAX_N} "
            f"(dimension {2 ** (SPIN_MAX_N - 1)})"
        )
    if args.q is not None:
        q0 = _parse_q(args.q)
        if q0 <= 0:
            raise InputError(f"--q must be positive, got {q0}")
        try:
            _sqrt_fraction(q0)
        except NonSquareBase as exc:
            raise InputError(f"--q {q0}: {exc}") from exc
        if n > SPIN_Q_MAX_N:
            raise InputError(
                f"the invariant-vector check at --n {n} exceeds the work budget; the limit is --n {SPIN_Q_MAX_N}"
            )
    pairing = pairing_gh(n, "classical")
    expected = (-1) ** ((n + 1) // 2) * n * (n - 1)
    items = [CheckResult("pairing-classical", pairing.terms == {0: expected}, str(expected), str(pairing))]
    for mode in ("classical", "quantum"):
        ok = check_V_intertwiner(n, mode)
        items.append(CheckResult(f"intertwiner-{mode}", ok, "true", str(ok).lower()))
    if args.q is not None:
        outcome = theorem_a1_check(n, q0)
        items.append(CheckResult(f"invariant-scalar-map(q={q0})", outcome, "true", str(outcome).lower()))
    report = Report(tuple(items))
    _emit(report.to_json(), args.report)
    return 0 if report.passed else 1


def selftest_cmd(args: argparse.Namespace) -> int:
    report = run_selftest(args.scale)
    if args.report == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.to_text())
    return 0 if report.passed else 1


# argparse's negative-number pattern, widened to rationals so "--q -1/4" reaches the sign check
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sutwist",
        description="Exact classification, presentation, and verification tools "
        "for twisted q-deformations of SU(n).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str, *, param=False, fmt=False, n=False, q=False, scale=False):
        p = sub.add_parser(name, help=help_text)
        if param:
            p.add_argument("--param", required=True, metavar="FILE", help="JSON parameter file")
        if fmt:
            p.add_argument("--format", choices=["json", "latex"], default="json", help="output format")
        if n:
            p.add_argument("--n", type=int, default=None, help="rank parameter n")
        if q:
            p.add_argument("--q", default=None, metavar="P/Q", help="rational deformation value")
            p._negative_number_matcher = _NEGATIVE_NUMBER
        if scale:
            p.add_argument("--scale", choices=["quick", "full"], default="quick", help="test scale")
        p.add_argument("--report", choices=["json", "text"], default="json", help="report style")
        p.set_defaults(func=func)
        return p

    add("classify", classify_cmd, "decide pairwise isomorphism of parameter tuples", param=True)
    add("canonical", canonical_cmd, "print canonical forms of parameter tuples", param=True)
    add("cohomology", cohomology_cmd, "tabulate descended 3-cocycle classes for rank n", n=True)
    add("present", present_cmd, "emit the Hopf-algebra presentation", param=True, fmt=True)
    add("spin-verify", spin_verify_cmd, "run exact spin-representation checks", n=True, q=True)
    add("selftest", selftest_cmd, "run the built-in verification suite", scale=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
