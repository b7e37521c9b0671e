"""Run one workload of the sutwist benchmark and print its metrics.

    python3 bench/run.py --workload cocycle-classes --seed 1 --seconds 20 --trace 0

One client runs jobs in a closed loop: the next job starts when the previous
one has returned.  The loop runs whole rounds of the workload's job mix until
the jobs have been busy for --seconds and at least 100 jobs have run, so that
p90 has at least ten samples beyond it.  Each job's output is checked by an
oracle outside its timed interval; a job fails when it raises, exits nonzero
or fails its check.

Times are reported at reference speed.  The speed of the shared host drifts
by a quarter and more over tens of seconds, and it slows every kind of
Python work alike.  So after each job the loop also times a fixed
pure-Python kernel, and every job time is scaled by REF_S over the median
kernel time of the nearby jobs.  Set-up time is scaled the same way.  The
wall-clock figures are printed next to them and kept in the result file.

--trace 0 reports the end-to-end metrics.  --trace 1 patches span wrappers and
counters into the package, runs a fixed number of rounds traced, runs the same
jobs again untraced to measure the tracing overhead, and reports the per-layer
metrics in wall-clock time.  The metric names and units printed are those
BENCHMARK.json declares.  The last line of stdout is the result as JSON; a
fuller result file, with the git sha, Python version, nproc, date and seed,
goes to bench/out/.
"""

import time

T0 = time.perf_counter()  # set-up time runs from here: imports, inputs, warm-up

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from datetime import datetime, timezone
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_SAMPLES = 5  # set-ups per run, each in a fresh interpreter; setup_s is their median
MIN_JOBS = 100
REF_S = 1.5e-3  # the reference kernel's time at reference speed; fixes the unit of every reported time
REF_WINDOW = 3  # a job is scaled by the median kernel time of the jobs within this distance
REF_SETUP_SAMPLES = 15


def reference_kernel() -> Fraction:
    """Fixed pure-Python work of the kind the package does: Fractions, tuples and dicts."""
    table: dict = {}
    acc = Fraction(0)
    for i in range(1, 300):
        value = Fraction(i % 13, i % 17 + 1)
        key = (i % 7, i % 11)
        table[key] = table.get(key, 0) + value
        acc += value
    return acc + sum(table.values())


def time_reference() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip("\n").endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def execute(job, failures: list, index: int) -> float:
    """Run one job, check its output outside the timed interval, and return its latency."""
    start = time.perf_counter()
    try:
        output = job.run()
        error = None
    except Exception:  # a job that raises is a failed job; the loop goes on
        output, error = None, traceback.format_exc(limit=3)
    latency = time.perf_counter() - start
    if error is None:
        try:
            error = job.check(output)
        except Exception:  # malformed output the oracle cannot read
            error = "oracle could not read the output: " + traceback.format_exc(limit=2)
    if error is not None:
        failures.append({"job": index, "kind": job.kind, "error": error})
    return latency


def closed_loop(jobs: list, round_len: int, seconds: float, failures: list) -> list:
    """Whole rounds until busy for `seconds` and MIN_JOBS done.

    Returns (kind, latency, reference kernel time after the job) per job.
    """
    samples = []
    busy = 0.0
    while True:
        job = jobs[len(samples) % len(jobs)]
        latency = execute(job, failures, len(samples))
        samples.append((job.kind, latency, time_reference()))
        busy += latency
        if len(samples) % round_len == 0 and busy >= seconds and len(samples) >= MIN_JOBS:
            return samples


def at_reference_speed(samples: list) -> list[float]:
    refs = [ref for _, _, ref in samples]
    return [
        latency * REF_S / statistics.median(refs[max(0, i - REF_WINDOW) : i + REF_WINDOW + 1])
        for i, (_, latency, _) in enumerate(samples)
    ]


def setup_sample(setup_wall_s: float) -> dict:
    ref = statistics.median(time_reference() for _ in range(REF_SETUP_SAMPLES))
    return {"setup_s": setup_wall_s * REF_S / ref, "wall_s": setup_wall_s}


def latency_metrics(prefix: str, latencies: list[float], ok: int) -> dict:
    return {
        f"{prefix}jobs_per_s": (ok / sum(latencies), "1/s"),
        f"{prefix}job_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        f"{prefix}job_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
    }


def end_to_end(samples: list, failures: list, setups: list[dict]) -> dict:
    ok = len(samples) - len(failures)
    return {
        **latency_metrics("", at_reference_speed(samples), ok),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        **latency_metrics("wall.", [latency for _, latency, _ in samples], ok),
        "wall.setup_s": (statistics.median(s["wall_s"] for s in setups), "s"),
        "reference_kernel_ms": (statistics.median(ref for *_, ref in samples) * 1e3, "ms"),
    }


def traced(jobs: list, round_len: int, tracer, failures: list) -> tuple[dict, list]:
    """Each round of a fixed job list runs traced, then again untraced for the overhead.

    Alternating round by round lets host drift hit both passes alike.  Returns
    the per-layer metrics and the traced pass's (kind, latency, None) samples.
    """
    from tracer import layer_metrics

    counts: Counter = Counter()
    samples = []
    plain_s = 0.0
    for start in range(0, len(jobs), round_len):
        batch = list(enumerate(jobs[start : start + round_len], start))
        before = Counter(tracer.counts)
        tracer.install()
        for index, job in batch:
            tracer.job = index
            samples.append((job.kind, execute(job, failures, index), None))
        tracer.uninstall()
        counts += tracer.counts - before
        plain_s += sum(execute(job, failures, len(jobs) + index) for index, job in batch)
    traced_s = sum(latency for _, latency, _ in samples)
    metrics = layer_metrics(tracer.spans, counts, traced_s)
    metrics["trace.jobs_per_s"] = (len(jobs) / traced_s, "1/s")
    metrics["trace.untraced_jobs_per_s"] = (len(jobs) / plain_s, "1/s")
    metrics["trace.overhead_pct"] = (100.0 * (1.0 - plain_s / traced_s), "%")
    return metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0, help="busy time to measure, in seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="set up, print the set-up sample and exit")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sutwist", "__init__.py")):
        print(f"error: no sutwist package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import sutwist

    if os.path.dirname(os.path.abspath(sutwist.__file__)) != os.path.join(SRC, "sutwist"):
        print(f"error: imported sutwist from {sutwist.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        rounds = workload.generate(args.seed)
        round_len = len(rounds[0])
        jobs = [
            workload.prepare(spec, workdir, f"r{r}j{j}")
            for r, specs in enumerate(rounds)
            for j, spec in enumerate(specs)
        ]
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        for k, spec in enumerate(workload.warm_specs()):
            workload.prepare(spec, workdir, f"warm{k}").run()
        if tracer is not None:
            tracer.uninstall()
        setup = setup_sample(time.perf_counter() - T0)
        if args.setup_only:
            print(json.dumps(setup))
            return 0

        failures: list = []
        if tracer is None:
            setups = [setup] + [setup_child(args) for _ in range(SETUP_SAMPLES - 1)]
            samples = closed_loop(jobs, round_len, args.seconds, failures)
            computed = end_to_end(samples, failures, setups)
            attempted = len(samples)
        else:
            setups = [setup]
            trace_jobs = jobs[: workload.trace_rounds * round_len]
            computed, samples = traced(trace_jobs, round_len, tracer, failures)
            attempted = 2 * len(trace_jobs)
            spans_path = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-spans.json")
            with open(spans_path, "w", encoding="utf-8") as fh:
                fields = ["job", "span", "parent", "name", "start", "end"]
                json.dump({"fields": fields, "spans": tracer.spans}, fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = declared_metrics("per_layer" if args.trace else "end_to_end", computed)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    write_result_file(args, workload, result, computed, samples, setups, failures)
    print(summary_line(args, attempted, failures, len(samples) // round_len, round_len, computed))
    print(json.dumps(result))
    return 0


def setup_child(args) -> dict:
    """One more set-up in a fresh interpreter; returns its set-up sample."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed)]
    cmd.append("--setup-only")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def declared(section: str):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)[section]


def declared_workload_reason(name: str) -> str:
    return next(w["why"] for w in declared("workloads") if w["name"] == name)


def declared_metrics(section: str, computed: dict) -> dict:
    """The metrics BENCHMARK.json declares for this mode, by name, with their units."""
    out = {}
    for entry in declared(section):
        value, unit = computed[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']}: measured in {unit}, declared in {entry['unit']}")
        out[entry["name"]] = {"value": value, "unit": unit}
    return out


def summary_line(args, attempted: int, failures: list, rounds: int, round_len: int, computed: dict) -> str:
    text = (
        f"{args.workload} seed={args.seed} trace={args.trace}: {rounds} rounds of {round_len} jobs,"
        f" {attempted} attempted, error_rate={len(failures) / attempted:g} ({len(failures)}/{attempted})"
    )
    if not args.trace:
        text += f"; latency samples={rounds * round_len}, setup_s median of {SETUP_SAMPLES} set-ups"
        text += "; wall clock:"
        for name, (value, unit) in computed.items():
            if name.startswith("wall."):
                text += f" {name[5:]}={value:.4g} {unit}"
    return text


def write_result_file(args, workload, result, computed, samples, setups, failures) -> None:
    by_kind: dict[str, list[float]] = {}
    for kind, latency, _ in samples:
        by_kind.setdefault(kind, []).append(latency)
    record = {
        "meta": {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "seed": args.seed,
            "workload": workload.name,
            "why": declared_workload_reason(workload.name),
            "seconds": args.seconds,
            "trace": args.trace,
        },
        "result": result,
        "error_rate": len(failures) / result["attempted"],
        "all_metrics": {name: {"value": v, "unit": u} for name, (v, u) in computed.items()},
        "setups": setups,
        "wall_latency_by_kind": {
            kind: {"samples": len(lats), "p50_ms": statistics.median(lats) * 1e3}
            for kind, lats in sorted(by_kind.items())
        },
        "failures": failures[:20],
    }
    path = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main())
