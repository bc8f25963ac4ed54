"""Exact Bernoulli numbers and zeta values at negative odd integers."""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .datafile import GENUS_MIN, check_genus

__all__ = ["bernoulli", "zeta_negative_odd"]


@lru_cache(maxsize=None)
def bernoulli(k: int) -> Fraction:
    """k-th Bernoulli number with the B_1 = -1/2 convention."""
    if k < 0:
        raise ValueError("Bernoulli numbers are indexed by k >= 0")
    if k == 0:
        return Fraction(1)
    if k > 1 and k % 2 == 1:
        return Fraction(0)
    # sum_{j=0}^{k} C(k+1, j) B_j = 0
    acc = Fraction(0)
    for j in range(k):
        acc += comb(k + 1, j) * bernoulli(j)
    return -acc / (k + 1)


def zeta_negative_odd(g: int) -> Fraction:
    """zeta(1 - 2g) = -B_{2g} / (2g) for g >= 1."""
    check_genus(g, GENUS_MIN, None, "zeta_negative_odd")
    return -bernoulli(2 * g) / (2 * g)
