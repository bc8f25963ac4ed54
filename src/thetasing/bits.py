"""Small helpers for linear algebra over F_2 on bit-packed vectors.

A vector in F_2^w is an int whose bit i is coordinate i.  Everything here
is deliberately tiny: the spaces involved never exceed a few dozen bits.
"""
from __future__ import annotations

from typing import Iterable, Sequence

__all__ = [
    "parity",
    "rref_f2",
    "span_f2",
    "kernel_f2",
    "min_weight",
]


def parity(x: int) -> int:
    """Parity of the popcount of x (0 or 1)."""
    return x.bit_count() & 1


def rref_f2(rows: Iterable[int]) -> tuple[int, ...]:
    """Reduced row echelon form over F_2.

    Columns are bit positions, processed from bit 0 upward.  Returns the
    nonzero rows sorted by pivot position; this tuple is a canonical
    representative of the row space.
    """
    basis: list[int] = []
    for row in rows:
        for b in basis:
            low = b & -b
            if row & low:
                row ^= b
        if row:
            # eliminate the new pivot from existing rows
            low = row & -row
            basis = [b ^ row if b & low else b for b in basis]
            basis.append(row)
    basis.sort(key=lambda r: r & -r)
    return tuple(basis)


def span_f2(basis: Sequence[int]) -> list[int]:
    """All 2^d vectors spanned by the given rows (duplicates collapse)."""
    out = [0]
    for b in set(basis):
        out.extend([v ^ b for v in out])
    return sorted(set(out))


def kernel_f2(vectors: Sequence[int], width: int) -> tuple[int, ...]:
    """RREF basis of {c in F_2^k : sum of c_i * vectors[i] = 0}.

    k = len(vectors); coordinates of c sit in bits 0..k-1.  ``width`` is the
    ambient bit width of the given vectors.
    """
    k = len(vectors)
    if k == 0:
        return ()
    # Augment each vector with a coordinate tag, reduce, and read off the
    # combinations whose vector part cancelled.
    rows = [(vectors[i] << k) | (1 << i) for i in range(k)]
    mask = (1 << k) - 1
    reduced: list[int] = []
    for row in rows:
        for b in reduced:
            low = (b >> k) & -(b >> k)
            if b >> k and (row >> k) & low:
                row ^= b
        reduced.append(row)
    kernel = [r & mask for r in reduced if r >> k == 0]
    return rref_f2(kernel)


def min_weight(space_basis: Sequence[int]) -> int:
    """Minimum Hamming weight over the nonzero vectors of a spanned space.

    Returns a number larger than any weight (2**30) for the zero space.
    """
    weights = [v.bit_count() for v in span_f2(space_basis) if v]
    return min(weights) if weights else 1 << 30
