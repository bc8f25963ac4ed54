"""Small helpers for linear algebra over F_2 on bit-packed vectors.

A vector in F_2^w is an int whose bit i is coordinate i.  Everything here
is deliberately tiny: the spaces involved never exceed a few dozen bits.
"""
from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["rref_f2", "span_f2", "kernel_f2"]


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


def kernel_f2(vectors: Sequence[int]) -> tuple[int, ...]:
    """RREF basis of {c in F_2^k : sum of c_i * vectors[i] = 0}.

    k = len(vectors); coordinates of c sit in bits 0..k-1.  One rref_f2 of
    the rows v_i | 1 << (w + i), w the vectors' bit width, does it all: the
    reduced rows whose low w bits cancel have their tags in reduced form,
    and they span the kernel.
    """
    w = max(vectors, default=0).bit_length()
    low = (1 << w) - 1
    tagged = rref_f2(v | 1 << (w + i) for i, v in enumerate(vectors))
    return tuple(r >> w for r in tagged if not r & low)
