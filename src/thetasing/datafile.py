"""Line reader shared by the bundled data files and their replacements."""
from __future__ import annotations

from functools import lru_cache
from importlib import resources
from typing import Callable, TypeVar

T = TypeVar("T")


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
