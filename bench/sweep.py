"""Run bench/run.py over several seeds and summarise the spread of each metric.

    python3 bench/sweep.py --seeds 1-10 --out bench/out/sweep.json
    python3 bench/sweep.py --seeds 1 --trace 1 --workloads tau-table

Runs are sequential, one interpreter at a time.  For each workload and
end-to-end metric the summary gives the median, the quartiles from
statistics.quantiles(values, n=4) and the spread (q3 - q1) / median, next to
the metric's bound from BENCHMARK.json.  With --trace 1 it records the
per-layer metrics of each run instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import datetime, timezone

from run import OUT_DIR, ROOT, git_sha


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run's result line, with every metric of its result file under "all_metrics"."""
    cmd = [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    with open(os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json"), encoding="utf-8") as fh:
        result["all_metrics"] = json.load(fh)["all_metrics"]
    return result


def summarise(runs: list[dict], declared: list[dict]) -> dict:
    out = {}
    for entry in declared:
        values = [r["all_metrics"][entry["name"]]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        out[entry["name"]] = {
            "unit": entry["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "bound": entry.get("bound"),
            "values": values,
        }
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    declared = bench["per_layer" if args.trace else "end_to_end"]
    summary = {
        "meta": {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "seeds": seeds,
            "seconds": args.seconds,
            "trace": args.trace,
        },
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: correct={runs[-1]['correct']} "
                  f"failed={runs[-1]['failed']}/{runs[-1]['attempted']}", file=sys.stderr, flush=True)
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
        }
        entry["error_rate"] = entry["failed"] / entry["attempted"]
        if args.trace:
            entry["runs"] = {seed: r["metrics"] for seed, r in zip(seeds, runs)}
        else:
            entry["metrics"] = summarise(runs, declared)
            others = [
                {"name": name, "unit": m["unit"]}
                for name, m in runs[0]["all_metrics"].items()
                if name not in entry["metrics"]
            ]
            entry["wall_clock"] = summarise(runs, others)
            for name, m in {**entry["metrics"], **entry["wall_clock"]}.items():
                flag = "" if m["bound"] is None or m["spread"] < m["bound"] / 3 else "  <-- spread >= bound/3"
                print(f"{workload:16} {name:19} median {m['median']:10.4f} {m['unit']:4} "
                      f"spread {m['spread']:.3f} bound {m['bound']}{flag}")
        summary["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
