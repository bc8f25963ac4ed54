"""Exact linear algebra over Fraction.

Matrices are lists of row lists.  Sizes here stay below ~100 x 100, so one
elimination is plenty: `rref` scales each row to integers by the lcm of its
denominators and runs a fraction-free Gauss-Jordan (cross-multiplied
elimination, gcd-reduced rows, pivots normalized at the end).  Scaling a row
leaves the row space, hence the reduced form, unchanged.

A Fraction is built only where a value is computed: the zero entries of
`rref`'s output share the one `ZERO`, and `add_into` never multiplies in a
unit int scale nor adds a new key to 0, so each stored value keeps the type
that `old + scale * c` gives.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence, TypeVar

__all__ = ["ZERO", "rref", "rank", "pivot_solution", "add_into", "Combination"]

K = TypeVar("K")

# the shared zero; a Fraction is immutable, so every zero entry can be this one
ZERO = Fraction(0)

Matrix = list[list[Fraction]]


def rref(matrix: Sequence[Sequence[Fraction]],
         pivot_cols: int | None = None) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref_rows, pivot_columns).

    Only the first pivot_cols columns (None: all) take pivots; the rows
    below the rank are zero there.
    """
    rows = []
    for row in matrix:
        m = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (m // x.denominator) for x in row])
    if not rows:
        return [], []
    ncols = len(rows[0]) if pivot_cols is None else pivot_cols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                new = [a * p - f * b for a, b in zip(rows[i], prow)]
                g = gcd(*new)
                rows[i] = [v // g for v in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    # normalize each pivot to 1; the rows below the rank are zero
    scales = [row[c] for row, c in zip(rows, pivots)] + [1] * (len(rows) - len(pivots))
    return [[Fraction(v, p) if v else ZERO for v in row] for row, p in zip(rows, scales)], pivots


def rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(matrix)[1])


def pivot_solution(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[list[Fraction], bool]:
    """The pivot solution of A x = rhs from one reduction of [A | rhs], and
    whether the system is consistent.

    Free variables are set to zero, which keeps the output deterministic.
    The b column takes no pivot, so an inconsistent system still gets the
    pivot values of its unknowns: x solves the reduced equations of rank
    and fails only the equations 0 = b below them.
    """
    rows = [list(r) + [b] for r, b in zip(matrix, rhs)]
    if not rows:
        return [], True
    ncols = len(matrix[0])
    red, pivots = rref(rows, ncols)
    x = [ZERO] * ncols
    for row, c in zip(red, pivots):
        x[c] = row[ncols]
    # a row below the rank with a nonzero b entry is the equation 0 = b
    return x, not any(row[ncols] for row in red[len(pivots):])


def add_into(acc: dict[K, Fraction], terms: Mapping[K, Fraction], scale=1) -> dict[K, Fraction]:
    """acc += scale * terms on sparse linear combinations, in place.

    Keys whose coefficient cancels to zero are dropped; returns acc.  Each
    value has the type of `old + scale * c` (old = 0 for a new key), but a
    unit int scale is never multiplied in and a new key takes its term as is.
    """
    unit = type(scale) is int and scale == 1
    for key, c in terms.items():
        if not unit:
            c = scale * c
        old = acc.get(key)
        val = c if old is None else old + c
        if val:
            acc[key] = val
        else:
            acc.pop(key, None)
    return acc


class Combination:
    """A sparse Q-linear combination of keys, all of one grade.

    A subclass names its keys and grade and is built as Sub(grade, terms).
    Zero coefficients are dropped, so a combination is zero when it has no
    terms.  Only combinations of one type and one grade add or compare equal.
    """

    __slots__ = ("grade", "terms")

    def __init__(self, grade: int, terms: Mapping | None = None):
        self.grade = grade
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    def __add__(self, other: "Combination") -> "Combination":
        if type(other) is not type(self) or other.grade != self.grade:
            raise ValueError(f"cannot add {other!r} to {self!r}")
        return type(self)(self.grade, add_into(dict(self.terms), other.terms))

    def __sub__(self, other: "Combination") -> "Combination":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "Combination":
        return type(self)(self.grade, {k: scalar * c for k, c in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other.grade == self.grade and other.terms == self.terms

    def is_zero(self) -> bool:
        return not self.terms
