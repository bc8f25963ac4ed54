"""Write perfbench/golden.json: the reference digests the benchmark checks.

    python3 perfbench/record_golden.py

Records, at the current commit, the sha256 of every `classes` output as
sorted exact records, the sha256 of stdout and the exit code of every `cli`
command, and the number of orthogonal tuples the `counts` workload
enumerates at genus 1..3.  Run it only when an output is meant to change.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from thetasing import characteristics  # noqa: E402


def main() -> int:
    workloads.cold_reset()
    classes = workloads.Classes(0, {"classes": {}})
    cli = workloads.Cli(0, {"cli": {}})
    golden = {
        "classes": classes.digests(classes.run_pass()),
        "cli": {name: {"exit": code, "sha256": digest}
                for name, (code, digest, _) in cli.run_pass().items()},
        "counts_tuples": {str(g): sum(1 for _ in characteristics.orthogonal_tuples(g, 5))
                          for g in (1, 2, 3)},
    }
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
