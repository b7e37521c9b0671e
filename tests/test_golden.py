"""Byte-exact golden outputs of the command line and the cochain layer.

`tests/golden/` holds the stdout of `sutwist cohomology --n {2,3,4} --report
json` and the `Cochain.to_json()` form of the standard cyclic 3-cocycles
(k = 2..5), of the eight Klein combinations and of `descend_c_tau` for every
tau at n = 3, one JSON object per line.  They were captured from the
Fraction-backed cochain implementation; any change of representation must
reproduce them byte for byte.

It also holds the stdout of `sutwist spin-verify` at n = 3, 5, 7, 9 with
`--report json`, and at n = 3 with `--q 4/9` and `--q 1/4` in both report
styles, captured from the HalfLaurent-backed spin implementation.

It also holds `classify` and `canonical` with `--report text` on the 162
rank-3 tuples of `selftest._grid_params()` and on 45 seeded tuples at each of
n = 4 and 5 (`rank_params`), `present` at n = 2..5 in JSON and
LaTeX on fixed tuples with non-trivial tau (and non-trivial omega from n = 3
on; at n = 2 omega is forced to vanish), and `selftest --scale quick --report
json`.  Their parameter files are committed next to them
(`*-params.json`), so the outputs can be reproduced from the shell.

`present` at n = 6 is kept whole in both formats, on a tuple whose tau
denominators (6) differ from its omega denominators (12, 5, 8, ...), so the
common modulus of the relation coefficients is larger than either.  At n = 7
(5040 determinant terms, 0.54 MB in JSON and 0.61 MB in LaTeX) only the byte
length and SHA-256 of both outputs are kept, in `present-n7-digests.json`.
These were captured from the Fraction-backed presentation code.
`present-n8-digests.json` does the same at n = 8 (40320 determinant terms)
on a seeded tuple (`present_param_seeded`), captured from the integer-residue
presentation code before its depth-first determinant and its serializer
rewrite.

The n = 4 and 5 classify/canonical slice was captured from the
`UnitAngle`-backed classification code.  Its tuples come in threes: a seeded
tuple with omega denominators from {1, 2, 3, 4, 5, 6, 8, 12}, its
`theta_transform` image and a half-turn twist of that image, so the verdicts
direct, mirror and no all occur, and at n = 5 isomorphic tuples whose common
modulus lcm(n, omega denominators) differs are compared.  `classify` refuses
to compare tuples of different ranks, so each rank has its own file.

To rewrite them after a deliberate change of output, run
`PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from itertools import product
from pathlib import Path

import pytest

from fractions import Fraction

from sutwist.cli import main
from sutwist.classification import ParamTuple, SkewBicharacter, theta_transform, twist_compose
from sutwist.cohomology import Cochain, klein_cocycles, standard_cyclic_3cocycle
from sutwist.lattice import TauVector, all_tau_vectors, descend_c_tau
from sutwist.scalars import HALF_ANGLE, UnitAngle
from sutwist.selftest import _grid_params

GOLDEN = Path(__file__).parent / "golden"
RANKS = (2, 3, 4)


def cli_stdout(*args: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(args))
    if code != 0:
        raise RuntimeError(f"{' '.join(args)} exited with {code}")
    return out.getvalue()


def cohomology_stdout(n: int) -> str:
    return cli_stdout("cohomology", "--n", str(n), "--report", "json")


def spin_verify_stdout(args: tuple[str, ...]) -> str:
    return cli_stdout("spin-verify", *args)


SPIN_CASES = {
    **{f"spin-verify-n{n}.json": ("--n", str(n), "--report", "json") for n in (3, 5, 7, 9)},
    **{
        f"spin-verify-n3-q{label}.{report}": ("--n", "3", "--q", q, "--report", report)
        for q, label in (("4/9", "4_9"), ("1/4", "1_4"))
        for report in ("json", "text")
    },
}


def _angles(*texts: str) -> list[UnitAngle]:
    return [UnitAngle(Fraction(t)) for t in texts]


def present_param(n: int) -> ParamTuple:
    """A fixed tuple with non-trivial tau and, for n >= 3, non-trivial omega."""
    tau = {
        2: ("1/2",),
        3: ("1/3", "2/3"),
        4: ("1/4", "1/2", "3/4"),
        5: ("1/5", "0", "3/5", "2/5"),
        6: ("1/6", "1/2", "0", "2/3", "5/6"),
        7: ("1/7", "3/7", "0", "5/7", "2/7", "6/7"),
    }[n]
    upper = {
        2: {},
        3: {(1, 2): "1/6"},
        4: {(1, 2): "1/8", (1, 3): "1/3", (2, 3): "5/12"},
        5: {(1, 2): "1/10", (1, 3): "1/4", (1, 4): "0", (2, 3): "2/3", (2, 4): "7/12", (3, 4): "1/6"},
        6: {
            (1, 2): "1/12", (1, 3): "2/5", (1, 4): "3/8", (1, 5): "0", (2, 3): "5/12",
            (2, 4): "1/5", (2, 5): "7/8", (3, 4): "1/3", (3, 5): "3/10", (4, 5): "5/24",
        },
        7: {
            (1, 2): "1/14", (1, 3): "2/9", (1, 4): "1/4", (1, 5): "0", (1, 6): "3/7",
            (2, 3): "5/12", (2, 4): "1/5", (2, 5): "7/8", (2, 6): "1/2", (3, 4): "1/3",
            (3, 5): "3/10", (3, 6): "4/9", (4, 5): "5/24", (4, 6): "0", (5, 6): "2/3",
        },
    }[n]
    omega = SkewBicharacter.from_upper_block(n, {k: UnitAngle(Fraction(v)) for k, v in upper.items()})
    return ParamTuple(n, Fraction(2, 3), TauVector(n, _angles(*tau)), omega)


def present_param_seeded(n: int) -> ParamTuple:
    """A seeded tuple with non-trivial tau and omega whose denominators differ per entry."""
    rng = random.Random(8800 + n)
    tau = TauVector(n, [UnitAngle(Fraction(rng.randrange(1, n), n)) for _ in range(n - 1)])
    upper = {
        (i, j): UnitAngle(Fraction(rng.randrange(d), d))
        for i in range(1, n)
        for j in range(i + 1, n)
        for d in [rng.choice((5, 7, 9, 10, 12, 13, 16))]
    }
    return ParamTuple(n, Fraction(3, 5), tau, SkewBicharacter.from_upper_block(n, upper))


OMEGA_DENOMINATORS = (1, 2, 3, 4, 5, 6, 8, 12)
CLASSIFY_RANKS = (4, 5)


def rank_params(n: int, count: int = 15) -> list[ParamTuple]:
    """Seeded rank-n tuples, each followed by its theta image and a half-turn twist of the image."""
    rng = random.Random(4500 + n)
    out = []
    for _ in range(count):
        d = rng.choice(OMEGA_DENOMINATORS)
        tau = TauVector(n, [UnitAngle(Fraction(rng.randrange(n), n)) for _ in range(n - 1)])
        upper = {(i, j): UnitAngle(Fraction(rng.randrange(d), d)) for i in range(1, n) for j in range(i + 1, n)}
        p = ParamTuple(n, rng.choice((Fraction(1, 2), Fraction(2, 3))), tau, SkewBicharacter.from_upper_block(n, upper))
        image = theta_transform(p)
        half = {k: HALF_ANGLE for k in upper if rng.randrange(2)} or {(1, 2): HALF_ANGLE}
        out += [p, image, twist_compose(image, SkewBicharacter.from_upper_block(n, half))]
    return out


PRESENT_RANKS = (2, 3, 4, 5, 6)
DIGEST_RANK = 7
SEEDED_DIGEST_RANK = 8
PARAM_FILES = {
    "grid-params.json": lambda: [p.to_json() for p in _grid_params()],
    **{f"n{n}-params.json": (lambda n=n: [p.to_json() for p in rank_params(n)]) for n in CLASSIFY_RANKS},
    **{
        f"present-n{n}-params.json": (lambda n=n: present_param(n).to_json())
        for n in PRESENT_RANKS + (DIGEST_RANK,)
    },
    f"present-n{SEEDED_DIGEST_RANK}-params.json": lambda: present_param_seeded(SEEDED_DIGEST_RANK).to_json(),
}


def param_text(name: str) -> str:
    return json.dumps(PARAM_FILES[name](), indent=1, sort_keys=True) + "\n"


def present_cases(n: int) -> dict[str, tuple[str, ...]]:
    return {
        f"present-n{n}.{fmt}": ("present", "--param", f"present-n{n}-params.json", "--format", fmt)
        for fmt in ("json", "latex")
    }


CLI_CASES = {
    **{
        f"{command}-grid.text": (command, "--param", "grid-params.json", "--report", "text")
        for command in ("classify", "canonical")
    },
    **{
        f"{command}-n{n}.text": (command, "--param", f"n{n}-params.json", "--report", "text")
        for command in ("classify", "canonical")
        for n in CLASSIFY_RANKS
    },
    **{name: args for n in PRESENT_RANKS for name, args in present_cases(n).items()},
    "selftest-quick.json": ("selftest", "--scale", "quick", "--report", "json"),
}
DIGESTS = {n: f"present-n{n}-digests.json" for n in (DIGEST_RANK, SEEDED_DIGEST_RANK)}


def cli_case_stdout(args: tuple[str, ...]) -> str:
    """Run a CLI case, reading its parameter file from the golden directory."""
    return cli_stdout(*(str(GOLDEN / a) if a in PARAM_FILES else a for a in args))


def digest_text(n: int) -> str:
    """Byte length and SHA-256 of each rank-n output too large to keep whole."""
    entries = {}
    for name, args in present_cases(n).items():
        data = cli_case_stdout(args).encode()
        entries[name] = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    return json.dumps(entries, indent=1, sort_keys=True) + "\n"


def cochain_lines() -> str:
    labelled = [
        (f"standard_cyclic_3cocycle({k}, {j})", standard_cyclic_3cocycle(k, j))
        for k in range(2, 6)
        for j in range(k)
    ]
    phis = klein_cocycles()
    for mask in product((0, 1), repeat=3):
        c = Cochain.zero(phis[0].group, 3)
        for e, phi in zip(mask, phis):
            if e:
                c = c + phi
        labelled.append(("klein " + "".join(map(str, mask)), c))
    for tau in all_tau_vectors(3):
        entries = ", ".join(str(a) for a in tau.entries)
        labelled.append((f"descend_c_tau(3, [{entries}])", descend_c_tau(tau)))
    return "".join(
        json.dumps({"label": label, "cochain": c.to_json()}, sort_keys=True) + "\n" for label, c in labelled
    )


def expected_files() -> dict[str, str]:
    files = {f"cohomology-n{n}.json": cohomology_stdout(n) for n in RANKS}
    files["cochains.jsonl"] = cochain_lines()
    files.update({name: spin_verify_stdout(args) for name, args in SPIN_CASES.items()})
    files.update({name: cli_case_stdout(args) for name, args in CLI_CASES.items()})
    files.update({name: digest_text(n) for n, name in DIGESTS.items()})
    return files


@pytest.mark.parametrize("n", RANKS)
def test_cohomology_cli_output(n):
    assert cohomology_stdout(n).encode() == (GOLDEN / f"cohomology-n{n}.json").read_bytes()


def test_cochain_json():
    assert cochain_lines().encode() == (GOLDEN / "cochains.jsonl").read_bytes()


@pytest.mark.parametrize("name", sorted(SPIN_CASES))
def test_spin_verify_cli_output(name):
    assert spin_verify_stdout(SPIN_CASES[name]).encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(PARAM_FILES))
def test_param_file(name):
    assert param_text(name).encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_output(name):
    assert cli_case_stdout(CLI_CASES[name]).encode() == (GOLDEN / name).read_bytes()


def test_present_digests():
    assert digest_text(DIGEST_RANK).encode() == (GOLDEN / DIGESTS[DIGEST_RANK]).read_bytes()


def test_present_n8_digests():
    assert digest_text(SEEDED_DIGEST_RANK).encode() == (GOLDEN / DIGESTS[SEEDED_DIGEST_RANK]).read_bytes()


if __name__ == "__main__":
    # parameter files first: the CLI cases read them
    for name in PARAM_FILES:
        (GOLDEN / name).write_bytes(param_text(name).encode())
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
    for name, text in expected_files().items():
        (GOLDEN / name).write_bytes(text.encode())
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
