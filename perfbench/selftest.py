"""Self-tests of the benchmark.

    python3 perfbench/selftest.py [--workloads classes ledger counts cli]

1. Cold reset: two traced cold passes in a row, in one process, give
   identical counts (every per-layer metric that is not a time, among them
   `_type_of_key.misses`, `convolve.pairs` and `ring.misses`).  Without the
   reset of `boundary._CONCRETE_MEMO` the second ledger pass reads warm.
2. Repeatability: two traced runs of run.py, in separate processes with
   different seeds, give identical counts.
3. The metrics each run prints are exactly those BENCHMARK.json declares.
4. The concrete registry at genus 3 holds 1, 63, 1008, 6048, 19908 and
   50148 monomials in degrees 0..5.

Prints one line per check and exits 1 if any fails.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import baseline  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from thetasing import boundary  # noqa: E402

REGISTRY_G3 = (1, 63, 1008, 6048, 19908, 50148)


def counts_of(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items() if v["unit"] != "s"}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer_names = {m["name"] for m in spec["per_layer"]}
    golden = workloads.load_golden()
    results = []

    def report(name: str, ok: bool, detail: str = "") -> None:
        results.append(ok)
        print(f"{'ok' if ok else 'FAIL'} {name} {detail}".rstrip(), flush=True)

    for name in args.workloads:
        workload = workloads.WORKLOADS[name](1, golden)
        trace = tracer.Tracer()
        trace.install()
        try:
            _, layers, _, failed = run.measure(workload, 0, trace, max(2, workload.MIN_PASSES))
        finally:
            trace.remove()
        failures: list[str] = []
        run.per_layer(layers, failures)
        report(f"{name}: two cold passes in one process agree on every count",
               not failures and failed == 0, "; ".join(failures))

        first = baseline.bench_run(name, 1, seconds, 1)
        second = baseline.bench_run(name, 2, seconds, 1)
        a, b = counts_of(first["metrics"]), counts_of(second["metrics"])
        differ = sorted(k for k in a if a[k] != b.get(k))
        report(f"{name}: two traced runs with seeds 1 and 2 agree on every count",
               not differ and first["correct"] and second["correct"], ", ".join(differ))
        report(f"{name}: traced run prints exactly the per_layer metrics",
               set(first["metrics"]) == per_layer_names)
        untraced = baseline.bench_run(name, 1, seconds, 0)
        report(f"{name}: untraced run prints exactly the end_to_end metrics",
               set(untraced["metrics"]) == end_to_end and untraced["correct"])

    workloads.cold_reset()
    sizes = tuple(sum(len(keys) for keys in boundary._registry(3, d).values()) for d in range(6))
    report("registry sizes at genus 3", sizes == REGISTRY_G3, str(sizes))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
