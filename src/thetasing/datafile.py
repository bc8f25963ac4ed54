"""Line reader shared by the bundled data files and their replacements."""
from __future__ import annotations

from importlib import resources
from typing import Callable, TypeVar

T = TypeVar("T")


def parse_lines(name: str, path: str | None, parse: Callable[[str], T]) -> list[T]:
    """Parse each stripped, non-blank, non-comment line of a data file.

    Reads the bundled file `name`, or `path` when given.  A ValueError from
    `parse` is raised again naming the line number and the line.
    """
    if path is None:
        text = resources.files("thetasing.data").joinpath(name).read_text()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    out = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line and not line.startswith("#"):
            try:
                out.append(parse(line))
            except ValueError as exc:
                raise ValueError(f"line {number} {line!r}: {exc}") from None
    return out
