"""Tests of the benchmark itself: seeded inputs, oracles and tracing.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import random
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import pytest  # noqa: E402
from sutwist import cohomology  # noqa: E402

import workloads as W  # noqa: E402
from run import REF_S, at_reference_speed, execute  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


def _dump(rounds) -> bytes:
    return json.dumps(rounds, sort_keys=True).encode()


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_seed_determines_inputs(name):
    workload = W.WORKLOADS[name]
    assert _dump(workload.generate(7, rounds=2)) == _dump(workload.generate(7, rounds=2))
    assert _dump(workload.generate(7, rounds=2)) != _dump(workload.generate(8, rounds=2))


def test_references_are_cocycles():
    for k in (3, 4, 5):
        for j in range(k):
            assert not any(W._coboundary_nums([k], 3, W._standard_cyclic(k, j), k))
    for mask in range(8):
        assert not any(W._coboundary_nums([2, 2], 3, W._klein(mask), 2))


def _cocycle_job(same: bool, factors=(3,)):
    workload = W.WORKLOADS["cocycle-classes"]
    for spec in workload.round(random.Random(1)):
        is_same = spec["labels"][0] == spec["labels"][1]
        if tuple(spec["factors"]) == factors and spec["degree"] == 3 and is_same == same:
            return spec, workload.prepare(spec, "", "t")
    raise AssertionError("no such job in the round")


class _Fixed:
    """A job whose output is given, to feed the oracle a wrong answer."""

    def __init__(self, job, output):
        self.kind, self.check, self.output = job.kind, job.check, output

    def run(self):
        return self.output


def _failures(job, output) -> list:
    failures = []
    execute(_Fixed(job, output), failures, 0)
    return failures


def test_cocycle_oracle_counts_wrong_verdict_and_wrong_witness():
    spec, job = _cocycle_job(same=True)
    witness, indices = job.run()
    assert witness is not None and job.check((witness, indices)) is None
    assert len(_failures(job, (None, indices))) == 1  # refusal where a witness exists

    data = witness.to_json()
    data["values"][0] = W.angle(W.Fraction(data["values"][0]) + W.Fraction(1, 3))
    wrong = cohomology.Cochain.from_json(data)
    assert len(_failures(job, (wrong, indices))) == 1  # d(w) != phi - psi
    assert len(_failures(job, (witness, [indices[0], (indices[1] + 1) % 3]))) == 1

    spec, job = _cocycle_job(same=False)
    assert job.check(job.run()) is None
    assert len(_failures(job, (witness, spec["labels"]))) == 1  # a witness between distinct classes


def test_cocycle_witness_check_does_not_trust_the_program():
    spec, _ = _cocycle_job(same=True)
    zero = cohomology.Cochain.zero(cohomology.FiniteAbelianGroup([3]), 2)
    error = W.check_cocycle_job(spec, zero, spec["labels"])
    assert error == "coboundary of the witness differs from phi - psi"


def test_tau_oracle():
    spec = {"n": 4, "tau": [1, 3, 2]}
    job = W.WORKLOADS["tau-table"].prepare(spec, "", "t")
    out = job.run()
    assert out == (1 + 6 + 6) % 4 and job.check(out) is None
    assert len(_failures(job, (out + 1) % 4)) == 1


@pytest.fixture
def present_job(tmp_path):
    param = W._random_param(random.Random(3), 3, (W.Fraction(1, 2),))
    spec = {"command": "present", "format": "json", "params": [param]}
    return W.WORKLOADS["hopf-present"].prepare(spec, str(tmp_path), "p")


def test_presentation_oracle(present_job):
    code, out, err = present_job.run()
    assert present_job.check((code, out, err)) is None
    rels = json.loads(out)
    short = rels[:-1] + [rels[-1][:-1]]
    assert len(_failures(present_job, (0, json.dumps(short), ""))) == 1  # determinant loses a term
    bent = json.loads(out)
    torus_term = next(t for t in bent[-1] if t["word"] and all(i == j for i, j in t["word"]))
    torus_term["coeff"][0][2] += 1
    assert len(_failures(present_job, (0, json.dumps(bent), ""))) == 1  # nonzero torus residue
    assert len(_failures(present_job, (2, "", "error: bad input"))) == 1


def test_classify_oracle(tmp_path):
    workload = W.WORKLOADS["hopf-present"]
    spec = workload._tuples(random.Random(4), 4, "classify")
    job = workload.prepare(spec, str(tmp_path), "c")
    code, out, err = job.run()
    assert job.check((code, out, err)) is None
    payload = json.loads(out)
    drawn = workload.FILE_SIZE[4]
    payload["isomorphism_matrix"][0][drawn] = "no"  # a tuple and its theta image
    assert len(_failures(job, (0, json.dumps(payload), ""))) == 1


def test_spin_oracle():
    job = W.WORKLOADS["spin-verify"].prepare({"argv": ["spin-verify", "--n", "3", "--q", "4/9"]}, "", "s")
    code, out, err = job.run()
    assert job.check((code, out, err)) is None
    report = json.loads(out)
    report["status"] = "fail"
    assert len(_failures(job, (0, json.dumps(report), ""))) == 1


def test_tracer_records_layers_and_restores_the_package():
    original = cohomology.coboundary
    spec, job = _cocycle_job(same=True)
    tracer = Tracer()
    tracer.install()
    try:
        assert cohomology.coboundary is not original
        tracer.job = 0
        job.run()
    finally:
        tracer.uninstall()
    assert cohomology.coboundary is original
    ends = [end for *_, end in tracer.spans]
    metrics = layer_metrics(tracer.spans, tracer.counts, max(ends) - tracer.spans[0][4])
    assert metrics["cohomology.cohomologous.calls"] == (1, "count")
    assert metrics["cohomology.is_cocycle_per_solve"] == (2.0, "ratio")
    assert metrics["scalars.UnitAngle.created"][0] > 0
    assert 0 < metrics["cohomology.share"][0] + metrics["smith.share"][0] <= 1


def test_reference_speed_scaling():
    samples = [("a", 0.010, REF_S)] * 4 + [("a", 0.020, 2 * REF_S)] * 20
    scaled = at_reference_speed(samples)
    assert scaled[0] == pytest.approx(0.010)
    assert scaled[-1] == pytest.approx(0.010)  # twice the time on a host twice as slow
