"""Byte-exact golden outputs of the cohomology and spin layers.

`tests/golden/` holds the stdout of `sutwist cohomology --n {2,3,4} --report
json` and the `Cochain.to_json()` form of the standard cyclic 3-cocycles
(k = 2..5), of the eight Klein combinations and of `descend_c_tau` for every
tau at n = 3, one JSON object per line.  They were captured from the
Fraction-backed cochain implementation; any change of representation must
reproduce them byte for byte.

It also holds the stdout of `sutwist spin-verify` at n = 3, 5, 7, 9 with
`--report json`, and at n = 3 with `--q 4/9` and `--q 1/4` in both report
styles, captured from the HalfLaurent-backed spin implementation.

To rewrite them after a deliberate change of output, run
`PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import io
import json
import sys
from itertools import product
from pathlib import Path

import pytest

from sutwist.cli import main
from sutwist.cohomology import Cochain, klein_cocycles, standard_cyclic_3cocycle
from sutwist.lattice import all_tau_vectors, descend_c_tau

GOLDEN = Path(__file__).parent / "golden"
RANKS = (2, 3, 4)


def cohomology_stdout(n: int) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["cohomology", "--n", str(n), "--report", "json"])
    if code != 0:
        raise RuntimeError(f"cohomology --n {n} exited with {code}")
    return out.getvalue()


def spin_verify_stdout(args: tuple[str, ...]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["spin-verify", *args])
    if code != 0:
        raise RuntimeError(f"spin-verify {' '.join(args)} exited with {code}")
    return out.getvalue()


SPIN_CASES = {
    **{f"spin-verify-n{n}.json": ("--n", str(n), "--report", "json") for n in (3, 5, 7, 9)},
    **{
        f"spin-verify-n3-q{label}.{report}": ("--n", "3", "--q", q, "--report", report)
        for q, label in (("4/9", "4_9"), ("1/4", "1_4"))
        for report in ("json", "text")
    },
}


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
    return files


@pytest.mark.parametrize("n", RANKS)
def test_cohomology_cli_output(n):
    assert cohomology_stdout(n).encode() == (GOLDEN / f"cohomology-n{n}.json").read_bytes()


def test_cochain_json():
    assert cochain_lines().encode() == (GOLDEN / "cochains.jsonl").read_bytes()


@pytest.mark.parametrize("name", sorted(SPIN_CASES))
def test_spin_verify_cli_output(name):
    assert spin_verify_stdout(SPIN_CASES[name]).encode() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    for name, text in expected_files().items():
        (GOLDEN / name).write_bytes(text.encode())
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
