"""The benchmark's cold reset leaves no concrete-verifier cache warm.

`perfbench/workloads.py` is run as a plain module, as in
`tests/test_perfbench_names.py`, and never edited.  A memo or lookup cache
that `cold_reset()` cannot clear would let every ledger pass after the
first read products it did not build, and time cache hits as a gain.
"""

import runpy
from pathlib import Path

from thetasing import boundary

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def test_cold_reset_makes_the_next_ledger_pass_rebuild_every_chain_and_lookup(monkeypatch):
    workloads = runpy.run_path(str(WORKLOADS), run_name="perfbench_workloads")
    counts = {"chains": 0, "indexes": 0, "lookups": 0}
    pack, compatible = boundary._pack, boundary._compatible

    def counted_pack(groups):
        counts["chains"] += 1  # one a memoized chain, single factors included
        return pack(groups)

    def counted_compatible(spans):
        counts["indexes"] += 1
        lookup, seen = compatible(spans), set()

        def counted(m1):
            if m1 not in seen:  # the first lookup of m1 is the one that searches
                seen.add(m1)
                counts["lookups"] += 1
            return lookup(m1)
        return counted

    monkeypatch.setattr(boundary, "_pack", counted_pack)
    monkeypatch.setattr(boundary, "_compatible", counted_compatible)
    ledger = workloads["Ledger"](1, {})
    passes = []
    for _ in range(2):
        workloads["cold_reset"]()
        _, failed = ledger.run_pass()
        assert failed == 0
        passes.append((dict(counts), len(boundary._CONCRETE_MEMO)))
        counts.update(dict.fromkeys(counts, 0))
    assert passes[0] == passes[1]
    # every chain and every last factor's lookup of a cold genus-3 pass
    assert passes[0] == ({"chains": 15, "indexes": 2, "lookups": 963}, 15)
