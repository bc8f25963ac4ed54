"""Repeat the benchmark over several seeds and record a baseline file.

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

For each workload: `--runs` untraced runs of perfbench/run.py, one seed each,
then one traced run.  Reports, per end-to-end metric, the median, the
quartiles and the spread (interquartile distance over the median) against
a third of the metric's bound in BENCHMARK.json, and the tracing overhead
(traced pass time over the median untraced pass time).  The output file
also records the machine: nproc, CPU model, Python version and git commit.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2][2:])
    return result


def git_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--no-trace", action="store_true", help="skip the traced run")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    report = {"seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    steady = True
    for workload in args.workloads:
        runs = [bench_run(workload, seed, spec["run_seconds"], 0) for seed in seeds]
        entry = {
            "passes": [r["info"]["passes"] for r in runs],
            "pass_wall_median_s": [r["info"]["pass_wall_median_s"] for r in runs],
            "speed_factor_median": [r["info"]["speed_factor_median"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": {},
        }
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            ok = name == "setup_s" or spread < bound / 3
            steady &= ok
            entry["metrics"][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                      "bound": bound, "values": values}
            print(f"{workload:8s} {name:12s} median={median:.6g} spread={spread:.4f} "
                  f"third_of_bound={bound / 3:.4f} {'ok' if ok else 'WIDE'}", flush=True)
        if not args.no_trace:
            traced = bench_run(workload, seeds[0], spec["run_seconds"], 1)
            overhead = (traced["metrics"]["trace.pass_s"]["value"]
                        / entry["metrics"]["pass_s"]["median"])
            entry["trace_overhead"] = overhead
            entry["traced"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["traced_failed"] = traced["failed"]
            print(f"{workload:8s} trace overhead {overhead:.4f}", flush=True)
        report["workloads"][workload] = entry

    report["environment"] = {
        "nproc": os.cpu_count(),
        "cpu": runs[0]["info"]["cpu"],
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
