"""Benchmark entry point: one workload, cold passes, metrics as JSON.

    python3 perfbench/run.py --workload classes --seed 1 --seconds 10 --trace 0

Runs cold passes of the workload until --seconds have gone by and at least
the workload's MIN_PASSES have run, checks every output, and prints as its
last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  With --trace 0 the metrics
are the end-to-end ones (set-up time, median pass time, peak memory); with
--trace 1 they are the per-layer spans and counts of a traced run.  The line
before it starts with '#' and carries the pass count, tail percentile and
environment.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 11
IMPORT_REPEATS = 5


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest of p99/p90/p75 with at least ten samples beyond it, if any."""
    n = len(values)
    for p in (99, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def per_layer(passes: list[dict], failures: list[str]) -> dict:
    """Median of each time across passes; counts must agree between passes."""
    import tracer
    import workloads

    names = list(tracer.SPAN_METRICS) + ["boundary.convolve.kept_ratio"] + list(tracer.CACHE_METRICS)
    names += [f"boundary.check_identity.{name}_s" for name in workloads.LEDGER_LINES]
    names += [f"cli.{name}_s" for name, _ in workloads.Cli.COMMANDS]
    metrics = {}
    for name in names:
        values = [p.get(name, (0.0, "s")) for p in passes]
        unit = values[0][1]
        numbers = [v for v, _ in values]
        if unit == "s":
            metrics[name] = {"value": statistics.median(numbers), "unit": unit}
            continue
        if len(set(numbers)) != 1:
            failures.append(f"count {name} differs between passes: {numbers}")
        metrics[name] = {"value": numbers[0], "unit": unit}
    return metrics


def measure(workload, seconds: float, trace=None, min_passes: int = 1):
    """Cold passes until `seconds` have gone by and at least `min_passes` ran.

    Returns the wall interval of each pass, the per-layer metrics of each
    pass (traced runs only), and the checks attempted and failed over all
    passes.
    """
    import workloads

    intervals: list[tuple[float, float]] = []
    layers: list[dict] = []
    attempted = failed = 0
    start = perf_counter()
    while len(intervals) < min_passes or perf_counter() - start < seconds:
        workloads.cold_reset()
        if trace:
            trace.reset()
        t0 = perf_counter()
        outputs = workload.run_pass()
        intervals.append((t0, perf_counter()))
        if trace:
            layer = trace.metrics()
            layer.update((k, (v, "s")) for k, v in workload.layer_times(outputs).items())
            layers.append(layer)
        a, f = workload.check(outputs)
        attempted += a
        failed += f
    return intervals, layers, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "thetasing" / "__init__.py").is_file():
        print(f"perfbench: no thetasing sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import speed
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, workloads.load_golden())

    trace = tracer.Tracer() if args.trace else None
    speed.pin_to_one_cpu()
    with speed.SpeedProbe() as probe:
        # an unmeasured child first, so that every measured one finds bytecode cached
        workloads.measure_setup()
        if trace:
            imports = [workloads.measure_import() for _ in range(IMPORT_REPEATS)]
            trace.install()
        else:
            setups = [workloads.measure_setup() for _ in range(SETUP_REPEATS)]
        intervals, layers, attempted, failed = measure(
            workload, args.seconds, trace, workload.MIN_PASSES)
    pass_s = [probe.correct(t0, t1) for t0, t1 in intervals]
    wall_s = [t1 - t0 for t0, t1 in intervals]

    failures: list[str] = []
    if trace:
        trace.remove()
        for layer, corrected, wall in zip(layers, pass_s, wall_s):
            for name, (value, unit) in layer.items():
                if unit == "s":
                    layer[name] = (value * corrected / wall, unit)
        metrics = per_layer(layers, failures)
        import_s = statistics.median(
            seconds * probe.correct(t0, t1) / (t1 - t0) for seconds, t0, t1 in imports)
        metrics["cli.import_s"] = {"value": import_s, "unit": "s"}
        metrics["trace.pass_s"] = {"value": statistics.median(pass_s), "unit": "s"}
        attempted += 1  # the pass-to-pass agreement of every count
        failed += bool(failures)
    else:
        if args.workload == "cli":
            peak_kib = workload.peak_rss_kib
        else:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": statistics.median(probe.correct(*s) for s in setups),
                        "unit": "s"},
            "pass_s": {"value": statistics.median(pass_s), "unit": "s"},
            "peak_rss_mb": {"value": peak_kib / 1024, "unit": "MB"},
        }

    tail = tail_percentile(pass_s)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(pass_s), "pass_median_s": statistics.median(pass_s),
        "pass_wall_median_s": statistics.median(wall_s),
        "speed_factor_median": statistics.median(probe.factors),
        "tail": f"p{tail[0]}={tail[1]}" if tail else "none (fewer than 40 passes)",
        "fail_ratio": failed / attempted, "nproc": os.cpu_count(),
        "cpu": cpu_model(), "python": platform.python_version(),
        "caches_cleared": len(workloads.CACHES), "failures": failures,
    }
    print("# " + json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
