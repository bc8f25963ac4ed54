"""Command line front end.

Every command prints deterministic, byte-stable output (sorted keys, exact
fractions) and exits 0 on success, 2 when a verification command finds a
mismatch, a published coefficient is not reproduced, `--samples` is below 1,
`--genus` is missing or outside the command's range in `GENERA`, a `--data`
item or its file is bad, or the normalization table lacks a genus the
command needs.  Every `--data` file is read before any output, and its loaded
table is passed to the computation of that run only.  After a run, each
genus 1..5 where a `--data normalizations` value differs from the derived
one gets a `#` line on stderr; stdout still uses the given value.  When the
reader closes stdout before all output is written (`| head -1`), the run
stops at its next write and exits 1, with no traceback.  The `records`
format emits one self-describing line per term:

    lambda=<e1,...,eg> word=<tag*tag or 1> num=<int> den=<int> prov=<tag>

or `0 prov=<tag>` for a class that is zero, which `parse_record_line`
reads back.  `verify-counts` prints `tuples=`, the
number of label tuples checked, the empty tuple included.
"""
from __future__ import annotations

import argparse
import itertools
import os
import random
import re
import sys
from fractions import Fraction

from . import boundary, characteristics, pipeline, tautring
from .datafile import GENUS_MAX, GENUS_MIN, numeral

DEFAULT_SEED = 20260819
DEFAULT_SAMPLES = 100000

# The commands, each with the --genus values it supports (checked right after
# argument parsing) and the genera it runs without --genus; () means that
# --genus is required.  Every bound is a library constant, read, not restated.
GENERA = {
    "open-class": (range(GENUS_MIN, GENUS_MAX + 1), ()),
    "compactified-class": (range(GENUS_MIN, boundary.DEGREE_MAX + 1), ()),
    "taut-projection": (range(GENUS_MIN, boundary.DEGREE_MAX + 1), ()),
    "product-taut": (range(pipeline.PRODUCT_GENUS_MIN, GENUS_MAX + 1), ()),
    "ij-taut": (range(pipeline.IJ_GENUS, pipeline.IJ_GENUS + 1), (pipeline.IJ_GENUS,)),
    "verify-identities": (range(GENUS_MIN, boundary.CONCRETE_GENUS_MAX + 1),
                          (boundary.CONCRETE_GENUS_MAX,)),
    "verify-counts": (range(GENUS_MIN, characteristics.BRUTE_FORCE_GENUS_MAX + 1),
                      tuple(range(GENUS_MIN, characteristics.BRUTE_FORCE_GENUS_MAX + 1))),
    "ring-info": (range(GENUS_MIN, GENUS_MAX + 1), ()),
}


# --data kinds and the loader that reads each one
DATA_LOADERS = {
    "identities": boundary.load_identities,
    "normalizations": tautring.load_normalizations,
    "boundary-relations": pipeline.load_boundary_relations,
}


def _load_data(parser: argparse.ArgumentParser, items: list[str]) -> dict[str, object]:
    """Each --data KIND=PATH as kind -> loaded table; exits 2 on a bad one."""
    out: dict[str, object] = {}
    for item in items:
        kind, sep, path = item.partition("=")
        if not sep or kind not in DATA_LOADERS:
            parser.exit(2, f"thetasing: bad --data {item!r}; expected KIND=PATH with KIND in "
                           f"{'|'.join(DATA_LOADERS)}\n")
        try:
            out[kind] = DATA_LOADERS[kind](path)
        except (OSError, ValueError) as exc:
            parser.exit(2, f"thetasing: bad --data {kind} file {path}: {exc}\n")
    return out


def _record(mono, word, value: Fraction, prov: str) -> str:
    """One records line: a term, or for mono None the zero class."""
    if mono is None:
        return f"0 prov={prov}"
    lam = ",".join(str(e) for e in mono)
    w = pipeline._format_word(word)
    return f"lambda={lam} word={w} num={value.numerator} den={value.denominator} prov={prov}"


_RECORD = re.compile(r"(?:lambda=(\S+) word=(1|[A-Za-z]\w*(?:\*[A-Za-z]\w*)*) "
                     r"num=(-?)(\S+) den=(\S+)|0) prov=([\w-]+)", re.ASCII)


def parse_record_line(line: str) -> dict:
    """A records line as its lambda, word, value and prov, the zero class
    with lambda and word None; any other line is refused."""
    m = _RECORD.fullmatch(line)
    if not m:
        raise ValueError(f"not a records line: {line!r}")
    lam, word, sign, num, den, prov = m.groups()
    if lam is None:
        return {"lambda": None, "word": None, "value": Fraction(0), "prov": prov}
    p, q = numeral(num, line), numeral(den, line)
    if not q:
        raise ValueError(f"den=0 in {line!r}")
    return {
        "lambda": tuple(numeral(e, line) for e in lam.split(",")),
        "word": () if word == "1" else tuple(word.split("*")),
        "value": Fraction(-p if sign else p, q),
        "prov": prov,
    }


def _emit_rows(rows, fmt: str, out, show_word: bool) -> int:
    """Write ComparisonRows tagged with their status; returns the number of
    rows whose engine value differs from a published one (a missing engine
    term counts as 0).  Text lines name the word only if show_word."""
    mismatches = 0
    for row in rows:
        value = row.engine if row.engine is not None else Fraction(0)
        status = row.status
        if status in ("conflict", "paper-only"):
            mismatches += 1
        if fmt == "records":
            out.write(_record(row.lam_mono, row.word, value, status) + "\n")
            if status in ("conflict", "paper-only"):
                out.write(
                    f"# published value: {row.published.numerator}/{row.published.denominator}\n"
                )
        else:
            term = pipeline._format_lam(row.lam_mono)
            if show_word:
                term += f"*{pipeline._format_word(row.word)}"
            line = f"{value} * {term}  [{status}]"
            if status in ("conflict", "paper-only"):
                line += f"  (published: {row.published})"
            out.write(line + "\n")
    return mismatches


def _emit_taut(g: int, elem, pin_key: str | None, fmt: str, out) -> int:
    """A tautological class against the published pins under pin_key (None
    compares none); returns 2 if a pin is not reproduced, else 0."""
    pins = None if pin_key is None else pipeline.PUBLISHED_TAUT.get((pin_key, g))
    if not elem and not pins:
        prov = "paper" if pins == {} else "derived"
        out.write(f"0  [{prov}]\n" if fmt == "text"
                  else _record(None, None, Fraction(0), prov) + "\n")
        return 0
    rows = pipeline.comparison_rows({(mono, ()): c for mono, c in elem.items()},
                                    {(mono, ()): c for mono, c in (pins or {}).items()})
    return 2 if _emit_rows(rows, fmt, out, False) else 0


def _emit_mixed(g: int, relations, fmt: str, out) -> int:
    raw = pipeline._raw_compactified(g)
    rows = pipeline.comparison_rows(raw.terms, pipeline.PUBLISHED_COMPACTIFIED.get(g, {}))
    mismatches = _emit_rows(rows, fmt, out, True)
    if g == pipeline.RELATION_GENUS:
        vanishes = pipeline._apply_word_relations(raw, relations).is_zero()
        out.write(f"# after the genus-{pipeline.RELATION_GENUS} word relations the class is "
                  + ("0\n" if vanishes else "NOT zero\n"))
        mismatches += not vanishes
    return 2 if mismatches else 0


def _cmd_verify_identities(g: int, identities, out) -> int:
    if identities is None:
        identities = boundary.load_identities()
    failures = 0
    for ident in identities:
        report = boundary.check_identity(ident, g)
        ok = report.concrete_ok and report.symbolic_ok
        if not ok:
            failures += 1
        status = "ok" if ok else "FAIL"
        out.write(
            f"{status} {ident.name} concrete={report.concrete_ok} "
            f"symbolic={report.symbolic_ok}\n"
        )
        if report.counterexample is not None:
            out.write(f"#   first difference: {report.counterexample}\n")
        if not report.symbolic_ok:
            out.write(f"#   symbolic residual: {report.residual!r}\n")
    out.write(f"# checked {len(identities)} identities at genus {g}\n")
    return 2 if failures else 0


def _cmd_verify_counts(args, genera, out) -> int:
    failures = 0
    rng = random.Random(args.seed)
    for g in genera:
        if g <= 3:
            mode = "exhaustive"
            tuples = characteristics.orthogonal_tuples(g, characteristics.DEGREE_MAX)
        else:
            mode = f"sampled({args.samples})"
            tuples = (characteristics.random_orthogonal_tuple(rng, g)
                      for _ in range(args.samples))
        checked = bad = 0
        for labels in itertools.chain([()], tuples):
            expected = characteristics.brute_force_count(g, labels)
            got = characteristics.count_vanishing(g, labels)
            checked += 1
            if got != expected:
                bad += 1
                if bad <= 3:
                    out.write(f"# MISMATCH g={g} labels={labels} {got} != {expected}\n")
        status = "ok" if bad == 0 else "FAIL"
        out.write(f"{status} genus={g} mode={mode} tuples={checked} mismatches={bad}\n")
        failures += bad
    return 2 if failures else 0


def _cmd_ring_info(g: int, open_variant: bool, norms, out) -> int:
    R = tautring.ring(g, open_variant=open_variant)
    if not open_variant:
        table = tautring.load_normalizations() if norms is None else norms
        norm = tautring.normalization(g, table)
        source = table[g][1]
    dims = ",".join(str(R.dimension(d)) for d in range(R.top + 1))
    out.write(f"genus={g} open={open_variant} top={R.top} dims={dims} "
              f"total={R.total_dimension()}\n")
    if not open_variant:
        out.write(
            f"top_basis={pipeline._format_lam(R.top_mono)} "
            f"normalization={norm.numerator}/{norm.denominator}\n"
        )
        out.write(f"# normalization source: {source}\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="thetasing",
        description="Exact boundary and tautological computations for the "
        "singular-theta two-torsion locus, genus up to five.",
    )
    parser.add_argument("--command", required=True, choices=tuple(GENERA))
    parser.add_argument("--genus", type=int, default=None)
    parser.add_argument("--format", choices=("text", "records"), default="text")
    parser.add_argument("--data", action="append", default=[],
                        metavar="KIND=PATH",
                        help="override a bundled data file "
                        "(identities|normalizations|boundary-relations)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    parser.add_argument("--open", action="store_true",
                        help="use the open-variant ring for ring-info")
    args = parser.parse_args(argv)
    if args.samples < 1:
        print(f"thetasing: --samples must be at least 1, got {args.samples}", file=sys.stderr)
        return 2
    supported, default = GENERA[args.command]
    if args.genus is None and not default:
        parser.exit(2, f"thetasing: {args.command} needs --genus\n")
    if args.genus is not None and args.genus not in supported:
        parser.exit(2, f"thetasing: {args.command} supports --genus "
                       f"{supported[0]}..{supported[-1]}, got {args.genus}\n")
    genera = default if args.genus is None else (args.genus,)
    data = _load_data(parser, args.data)
    try:
        code = _run(args, genera, data, sys.stdout)
        sys.stdout.flush()  # a closed pipe fails here, not at shutdown
    except (tautring.MissingNormalizationError, pipeline.RouteMismatchError,
            boundary.InfeasibleBasisError) as exc:
        # raised before the command writes anything; the message is one
        # line, followed by the residual or the differing values if any
        print(f"thetasing: {exc.args[0]}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the flush at
        # interpreter shutdown does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return 1
    _note_normalization_overrides(data.get("normalizations"))
    return code


def _note_normalization_overrides(norms) -> None:
    """One stderr line per genus where a --data normalization differs from
    the Hirzebruch-Mumford derivation."""
    for g in sorted(norms or ()):
        derived = tautring.derived_normalization(g)
        if norms[g][0] != derived:
            print(f"# normalization override differs from the derivation at genus {g}: "
                  f"{norms[g][0]} != {derived}", file=sys.stderr)


def _run(args, genera: tuple[int, ...], data: dict[str, object], out) -> int:
    """Run one command; every command but verify-counts runs at genera[0]."""
    g = genera[0]
    norms = data.get("normalizations")
    # the pins hold for the bundled normalizations; an output computed from
    # another table is compared with none of them
    pinned = norms is None
    if args.command == "open-class":
        return _emit_taut(g, pipeline.class_open(g), "open-class", args.format, out)
    if args.command == "compactified-class":
        return _emit_mixed(g, data.get("boundary-relations"), args.format, out)
    if args.command == "taut-projection":
        return _emit_taut(g, pipeline.taut_projection(g), "taut-projection", args.format, out)
    if args.command == "product-taut":
        return _emit_taut(g, pipeline.product_locus_taut(g, norms),
                          "product-taut" if pinned else None, args.format, out)
    if args.command == "ij-taut":
        return _emit_taut(g, pipeline.ij_taut(norms),
                          "ij-taut" if pinned else None, args.format, out)
    if args.command == "verify-identities":
        return _cmd_verify_identities(g, data.get("identities"), out)
    if args.command == "verify-counts":
        return _cmd_verify_counts(args, genera, out)
    if args.command == "ring-info":
        return _cmd_ring_info(g, args.open, norms, out)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
