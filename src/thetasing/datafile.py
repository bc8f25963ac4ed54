"""Line reader shared by the bundled data files and their replacements, and
the records format that `--format records` writes and `published.txt` holds."""
from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from math import gcd
from typing import Callable, TypeVar

T = TypeVar("T")

# the genera a data file may name, those of the tautological rings
GENUS_MIN, GENUS_MAX = 1, 5


def check_genus(g: int, lo: int, hi: int | None, what: str) -> None:
    """Refuse a genus outside lo..hi (hi None: no cap) in one line naming what."""
    if g < lo or hi is not None and g > hi:
        span = f"{lo}..{hi}" if hi is not None else f">= {lo}"
        raise ValueError(f"{what} supports genus {span}, not {g}")


def numeral(token: str, where: str) -> int:
    """A number in its one spelling in data files: ASCII digits, no leading 0,
    and no more digits than the interpreter converts to an int."""
    if not (token.isascii() and token.isdigit() and (token == "0" or token[0] != "0")):
        raise ValueError(f"bad numeral {token!r} in {where!r}")
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"bad numeral of {len(token)} digits in {where!r}: more than "
                         f"the {sys.get_int_max_str_digits()} an int is read from") from None


def genus(token: str, where: str) -> int:
    """A data file's genus: a numeral in GENUS_MIN..GENUS_MAX."""
    g = numeral(token, where)
    if not GENUS_MIN <= g <= GENUS_MAX:
        raise ValueError(f"genus {g} outside {GENUS_MIN}..{GENUS_MAX}")
    return g


def parse_lines(name: str, path: str | None, parse: Callable[[str], T]) -> list[T]:
    """Parse each stripped, non-blank, non-comment line of a data file.

    Reads the bundled file `name`, parsed once per process, or `path` when
    given, read again on every call so that an edited file is seen.  A
    ValueError from `parse` is raised again naming the line number and the line.
    """
    if path is None:
        return list(_parse_bundled(name, parse))
    with open(path, encoding="utf-8") as fh:
        return _parse_text(fh.read(), parse)


@lru_cache(maxsize=None)
def _parse_bundled(name: str, parse: Callable[[str], T]) -> tuple[T, ...]:
    return tuple(_parse_text(resources.files("thetasing.data").joinpath(name).read_text(), parse))


def _parse_text(text: str, parse: Callable[[str], T]) -> list[T]:
    out = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line and not line.startswith("#"):
            try:
                out.append(parse(line))
            except ValueError as exc:
                raise ValueError(f"line {number} {line!r}: {exc}") from None
    return out


# --- the records format ---------------------------------------------------------

_RECORD = re.compile(r"(?:lambda=(\S+) word=(1|[A-Za-z]\w*(?:\*[A-Za-z]\w*)*) "
                     r"num=(-?)(\S+) den=(\S+)|0) prov=([\w-]+)", re.ASCII)


def format_word(word: tuple[str, ...]) -> str:
    return "*".join(word) or "1"


def record_line(mono, word, value: Fraction, prov: str) -> str:
    """One records line, `lambda=<e1,...,eg> word=<tag*tag or 1> num=<int>
    den=<int> prov=<tag>`, or for mono None the zero class, `0 prov=<tag>`."""
    if mono is None:
        return f"0 prov={prov}"
    lam = ",".join(str(e) for e in mono)
    return (f"lambda={lam} word={format_word(word)} "
            f"num={value.numerator} den={value.denominator} prov={prov}")


def parse_record_line(line: str) -> dict:
    """A records line as its lambda, word, value and prov, the zero class
    with lambda and word None; any other line is refused, a fraction not in
    lowest terms, num=-0 and an unknown prov included.  The number of lambda
    exponents is not checked: a records line does not carry its genus."""
    m = _RECORD.fullmatch(line)
    if not m:
        raise ValueError(f"not a records line: {line!r}")
    lam, word, sign, num, den, prov = m.groups()
    # the tags the writer emits: ComparisonRow.status and cli's zero class
    if prov not in ("paper", "derived", "conflict", "paper-only"):
        raise ValueError(f"unknown prov {prov!r} in {line!r}")
    if lam is None:
        return {"lambda": None, "word": None, "value": Fraction(0), "prov": prov}
    p, q = numeral(num, line), numeral(den, line)
    if not q:
        raise ValueError(f"den=0 in {line!r}")
    if sign and not p:
        raise ValueError(f"num=-0 in {line!r}: zero is written num=0")
    if gcd(p, q) != 1:
        raise ValueError(f"num/den not in lowest terms in {line!r}")
    return {
        "lambda": tuple(numeral(e, line) for e in lam.split(",")),
        "word": () if word == "1" else tuple(word.split("*")),
        "value": Fraction(-p if sign else p, q),
        "prov": prov,
    }
