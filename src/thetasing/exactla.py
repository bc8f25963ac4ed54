"""Exact linear algebra over Fraction.

Matrices are lists of row lists.  Sizes here stay below ~100 x 100, so a
plain Gauss-Jordan is plenty; all-integer input takes a fraction-free path
(cross-multiplied elimination, gcd-reduced rows, pivots normalized at the
end), which is what the ring presentations feed in.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence, TypeVar

__all__ = ["rref", "rank", "solve", "add_into"]

K = TypeVar("K")

Matrix = list[list[Fraction]]


def _rref_int(matrix: Sequence[Sequence[int]]) -> tuple[Matrix, list[int]]:
    rows = [[int(x) for x in r] for r in matrix]
    ncols = len(rows[0])
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
                g = 0
                for v in new:
                    if v:
                        g = gcd(g, v)
                rows[i] = [v // g for v in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    out: Matrix = []
    for i, row in enumerate(rows):
        if i < len(pivots):
            p = row[pivots[i]]
            out.append([Fraction(v, p) for v in row])
        else:
            out.append([Fraction(v) for v in row])
    return out, pivots


def rref(matrix: Sequence[Sequence[Fraction]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    rows = [list(r) for r in matrix]
    if not rows:
        return [], []
    if all(x.denominator == 1 for r in rows for x in r):
        return _rref_int(rows)
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(matrix)[1])


def solve(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction] | None:
    """One exact solution of A x = rhs, or None if the system is inconsistent.

    Underdetermined systems get free variables set to zero, which keeps the
    output deterministic.
    """
    rows = [list(r) + [b] for r, b in zip(matrix, rhs)]
    if not rows:
        return []
    ncols = len(matrix[0])
    red, pivots = rref(rows)
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        if c == ncols:  # pivot in the augmented column: inconsistent
            return None
        x[c] = red[i][ncols]
    # rows below the pivots must have zero rhs
    for i in range(len(pivots), len(red)):
        if red[i][ncols] != 0:
            return None
    return x


def add_into(acc: dict[K, Fraction], terms: Mapping[K, Fraction], scale=1) -> dict[K, Fraction]:
    """acc += scale * terms on sparse linear combinations, in place.

    Keys whose coefficient cancels to zero are dropped; returns acc.
    """
    for key, c in terms.items():
        val = acc.get(key, 0) + scale * c
        if val:
            acc[key] = val
        else:
            acc.pop(key, None)
    return acc
