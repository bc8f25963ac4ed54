"""The benchmark workloads, their output checks and the cold-state reset.

Each workload runs cold passes: `cold_reset()` first, then `run_pass()`
(timed by the caller), then `check()` on what the pass returned, which
gives (checks attempted, checks failed).  A run makes at least MIN_PASSES
passes.  Calls into thetasing resolve the function through its module at
call time, so that a traced run sees the tracer's wrappers.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import thetasing  # noqa: F401  (loads every submodule)
from thetasing import boundary, characteristics, pipeline, tautring
from thetasing.pipeline import MixedClass, RouteMismatchError
from thetasing.tautring import TautRing

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# Environment for child interpreters: the package is run from the sources,
# and bytecode is cached as an installed package's would be, whatever the
# caller's environment says.
CHILD_ENV = dict(os.environ)
CHILD_ENV["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
)
CHILD_ENV.pop("PYTHONDONTWRITEBYTECODE", None)

SAMPLES_PER_GENUS = 100000  # acceptance criterion 3
LEDGER_GENUS = 3

LEDGER_LINES = (
    "quartic-sum-split", "sigma1-beta3", "sigma1-dependent-triples",
    "sigma2-squared", "sigma1sq-sigma2", "sigma1-fourth", "sigma5-all",
    "sigma1-sigma4", "sigma2-sigma3", "sigma1sq-sigma3", "sigma1-sigma2sq",
    "sigma1cu-sigma2", "sigma1-fifth", "beta5-refine", "sigma1-beta4",
    "sigma2-beta3", "sigma1sq-beta3", "y-sigma1",
)


# --- cold state ----------------------------------------------------------------

def _find_caches() -> list:
    """Every functools cache defined in a thetasing module, once each."""
    found = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name != "thetasing" and not mod_name.startswith("thetasing."):
            continue
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)) and \
                    getattr(obj, "__module__", "").startswith("thetasing"):
                found[id(obj)] = obj
    return list(found.values())


# found at import, before a tracer rebinds any module name to a wrapper
CACHES = _find_caches()


def cold_reset() -> None:
    """Clear every thetasing cache, including the plain-dict concrete memo."""
    for cached in CACHES:
        cached.cache_clear()
    boundary._CONCRETE_MEMO.clear()


# --- exact records and digests -------------------------------------------------

def _frac(v) -> str:
    return f"{v.numerator}/{v.denominator}"


def _mono(m) -> str:
    return ",".join(str(e) for e in m)


def records(obj) -> str:
    """A class, a tautological element or a ring as sorted exact lines."""
    if isinstance(obj, MixedClass):
        lines = [f"lambda={_mono(m)} word={'*'.join(w) or '1'} value={_frac(c)}"
                 for (m, w), c in obj.terms.items()]
    elif isinstance(obj, TautRing):
        lines = [f"genus={obj.g} open={obj.open_variant} top={obj.top}"]
        if not obj.open_variant:
            lines.append(f"top_mono={_mono(obj.top_mono)} top_unit={_frac(obj.top_unit)}")
        lines += [f"basis d={d} " + " ".join(_mono(m) for m in basis)
                  for d, basis in obj.basis.items()]
        lines += [f"reduce {_mono(m)} -> "
                  + " ".join(sorted(f"{_frac(c)}*{_mono(b)}" for b, c in elem.items()))
                  for m, elem in obj.table.items()]
    else:
        lines = [f"lambda={_mono(m)} value={_frac(c)}" for m, c in obj.items()]
    return "".join(line + "\n" for line in sorted(lines))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# --- child processes -----------------------------------------------------------

def run_child(argv: list[str]) -> tuple[int, bytes, float, int]:
    """Run one fresh interpreter; (exit code, stdout, seconds, peak RSS in KiB)."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env=CHILD_ENV, cwd=ROOT)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return proc.returncode, out, seconds, usage.ru_maxrss


_SETUP_CODE = (
    "import thetasing\n"
    "from thetasing import boundary, pipeline, tautring\n"
    "boundary.load_identities()\n"
    "tautring.load_normalizations()\n"
    "pipeline.load_boundary_relations()\n"
    "print('ready', flush=True)\n"
)


def measure_setup() -> tuple[float, float]:
    """Wall interval from starting a fresh interpreter until thetasing is
    imported and the three bundled data files are parsed (the child's exit
    is not counted)."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", _SETUP_CODE], stdout=subprocess.PIPE,
                            env=CHILD_ENV, cwd=ROOT)
    line = proc.stdout.readline()
    t1 = perf_counter()
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or line != b"ready\n":
        raise RuntimeError("set-up child failed")
    return t0, t1


_IMPORT_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import thetasing\n"
    "print(repr(time.perf_counter() - t))\n"
)


def measure_import() -> tuple[float, float, float]:
    """Seconds spent in `import thetasing`, measured inside a fresh
    interpreter, with the wall interval of that child."""
    t0 = perf_counter()
    code, out, _, _ = run_child(["-c", _IMPORT_CODE])
    if code != 0:
        raise RuntimeError("import child failed")
    return float(out), t0, perf_counter()


# --- workloads -----------------------------------------------------------------

class Classes:
    """Every output of the paper, computed in process."""

    MIN_PASSES = 1

    CALLS = (
        [(f"class_compactified.g{g}", pipeline, "class_compactified", (g,), {}) for g in range(2, 6)]
        + [(f"{fn}.g{g}", pipeline, fn, (g,), {})
           for g in range(2, 6) for fn in ("class_open", "taut_projection")]
        + [(f"product_locus_taut.g{g}", pipeline, "product_locus_taut", (g,), {}) for g in range(3, 6)]
        + [(f"theta_null_product_taut.g{g}", pipeline, "theta_null_product_taut", (g,), {})
           for g in (4, 5)]
        + [("ij_taut", pipeline, "ij_taut", (), {})]
        + [(f"ring{suffix}.g{g}", tautring, "ring", (g,), kwargs)
           for g in range(1, 6)
           for suffix, kwargs in (("", {}), ("_open", {"open_variant": True}))]
    )

    def __init__(self, seed: int, golden: dict):
        self.golden = golden["classes"]

    def run_pass(self):
        results = {}
        for name, module, attr, args, kwargs in self.CALLS:
            try:
                results[name] = getattr(module, attr)(*args, **kwargs)
            except RouteMismatchError:
                results[name] = None
        return results

    def digests(self, results) -> dict[str, str | None]:
        return {name: None if obj is None else sha256(records(obj).encode())
                for name, obj in results.items()}

    def check(self, results) -> tuple[int, int]:
        digests = self.digests(results)
        failed = sum(1 for name, d in digests.items() if d is None or d != self.golden.get(name))
        return len(digests), failed

    def layer_times(self, results) -> dict[str, float]:
        return {}


class Ledger:
    """All bundled identity-ledger lines, checked concretely and symbolically."""

    MIN_PASSES = 1

    def __init__(self, seed: int, golden: dict):
        pass

    def run_pass(self):
        identities = boundary.load_identities()
        seconds, failed = {}, 0
        for ident in identities:
            t0 = perf_counter()
            report = boundary.check_identity(ident, LEDGER_GENUS)
            seconds[ident.name] = perf_counter() - t0
            if not (report.concrete_ok and report.symbolic_ok):
                failed += 1
        return seconds, failed

    def check(self, outputs) -> tuple[int, int]:
        seconds, failed = outputs
        # one check per line, plus one that the ledger holds the expected lines
        failed += tuple(seconds) != LEDGER_LINES
        return len(seconds) + 1, failed

    def layer_times(self, outputs) -> dict[str, float]:
        return {f"boundary.check_identity.{name}_s": s for name, s in outputs[0].items()}


class Counts:
    """The counting rule against its brute-force oracle."""

    MIN_PASSES = 1

    def __init__(self, seed: int, golden: dict):
        self.seed = seed
        self.tuples = {int(g): n for g, n in golden["counts_tuples"].items()}

    def run_pass(self):
        ch = characteristics
        failed = 0
        tuples = {}
        for g in (1, 2, 3):
            n = 0
            for labels in ch.orthogonal_tuples(g, 5):
                n += 1
                if ch.count_vanishing(g, labels) != ch.brute_force_count(g, labels):
                    failed += 1
            tuples[g] = n
        rng = random.Random(self.seed)
        for g in (4, 5):
            for _ in range(SAMPLES_PER_GENUS):
                labels = ch.random_orthogonal_tuple(rng, g)
                if ch.count_vanishing(g, labels) != ch.brute_force_count(g, labels):
                    failed += 1
            tuples[g] = SAMPLES_PER_GENUS
        return tuples, failed

    def check(self, outputs) -> tuple[int, int]:
        tuples, failed = outputs
        # one check per tuple, plus one per exhaustive genus on its tuple total
        failed += sum(1 for g, n in self.tuples.items() if tuples.get(g) != n)
        return sum(tuples.values()) + len(self.tuples), failed

    def layer_times(self, outputs) -> dict[str, float]:
        return {}


def _cli_commands() -> list[tuple[str, list[str]]]:
    cmds = []
    for command in ("open-class", "compactified-class", "taut-projection", "ring-info"):
        cmds += [(f"{command}.g{g}", ["--command", command, "--genus", str(g)])
                 for g in range(1, 6)]
    cmds += [(f"ring-info-open.g{g}", ["--command", "ring-info", "--open", "--genus", str(g)])
             for g in range(1, 6)]
    cmds += [(f"product-taut.g{g}", ["--command", "product-taut", "--genus", str(g)])
             for g in range(3, 6)]
    cmds += [
        ("ij-taut.g5", ["--command", "ij-taut"]),
        ("verify-counts.g3", ["--command", "verify-counts", "--genus", "3"]),
        ("verify-identities.g2", ["--command", "verify-identities", "--genus", "2"]),
    ]
    return cmds


class Cli:
    """Each CLI command once, as a fresh subprocess, one after another."""

    # One pass is mostly process start-up, which a short host stall can slow
    # without the speed probe seeing it; the median of three passes cannot
    # be moved by one stalled pass.
    MIN_PASSES = 3
    COMMANDS = _cli_commands()

    def __init__(self, seed: int, golden: dict):
        self.golden = golden["cli"]
        self.peak_rss_kib = 0

    def run_pass(self):
        results = {}
        for name, argv in self.COMMANDS:
            code, out, seconds, rss = run_child(["-m", "thetasing", *argv, "--format", "records"])
            self.peak_rss_kib = max(self.peak_rss_kib, rss)
            results[name] = (code, sha256(out), seconds)
        return results

    def check(self, results) -> tuple[int, int]:
        failed = 0
        for name, (code, digest, _) in results.items():
            want = self.golden.get(name)
            if code != 0 or want is None or want != {"exit": code, "sha256": digest}:
                failed += 1
        return len(results), failed

    def layer_times(self, results) -> dict[str, float]:
        return {f"cli.{name}_s": seconds for name, (_, _, seconds) in results.items()}


WORKLOADS = {"classes": Classes, "ledger": Ledger, "counts": Counts, "cli": Cli}
