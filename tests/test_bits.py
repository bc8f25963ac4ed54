"""Tests for the F_2 helpers: the kernel and the relation-space inventory."""

import itertools
from functools import reduce
from operator import xor
from random import Random

from thetasing.bits import kernel_f2, rref_f2, span_f2
from thetasing.boundary import _relation_spaces


def _kernel_brute_force(vectors):
    """Every c with sum c_i v_i = 0, reduced to the RREF basis."""
    k = len(vectors)
    return rref_f2(c for c in range(1 << k)
                   if not reduce(xor, (v for i, v in enumerate(vectors) if c >> i & 1), 0))


def _vector_lists(seed, per_k=40):
    """Seeded lists of k = 0..8 vectors, many with zero, repeated or
    dependent entries, over widths small enough for dependence to be common."""
    rng = Random(seed)
    for k in range(9):
        for _ in range(per_k):
            width = rng.randrange(10)
            vectors = []
            for _ in range(k):
                kind = rng.randrange(4) if vectors else rng.randrange(2)
                if kind == 0:
                    vectors.append(0)
                elif kind == 1:
                    vectors.append(rng.getrandbits(width))
                elif kind == 2:
                    vectors.append(rng.choice(vectors))
                else:
                    vectors.append(rng.choice(vectors) ^ rng.choice(vectors))
            yield vectors


def test_kernel_matches_brute_force():
    seen = set()
    for vectors in _vector_lists(seed=14):
        kernel = kernel_f2(vectors)
        assert kernel == _kernel_brute_force(vectors), vectors
        seen.add((len(vectors), len(kernel)))
    # the inputs reach the empty list, independent, partly dependent and
    # all-dependent lists
    assert (0, 0) in seen and (2, 0) in seen and (8, 4) in seen and (8, 8) in seen
    # a zero vector, a repeat (bits 1, 2) and 5 ^ 3 ^ 6 = 0 (bits 1, 3, 4)
    assert kernel_f2([0, 5, 5, 3, 6]) == (0b1, 0b11010, 0b11100)


def _min_weight(space_basis):
    """Minimum Hamming weight over the nonzero vectors of a spanned space.

    Returns a number larger than any weight (2**30) for the zero space.
    """
    weights = [v.bit_count() for v in span_f2(space_basis) if v]
    return min(weights) if weights else 1 << 30


def _relation_spaces_reference(k):
    # the enumeration that _relation_spaces replaced
    spaces = {()}
    gens = [v for v in range(1, 1 << k) if v.bit_count() >= 3]
    for v in gens:
        spaces.add(rref_f2([v]))
    for v, w in itertools.combinations(gens, 2):
        rows = rref_f2([v, w])
        if len(rows) == 2 and _min_weight(rows) >= 3:
            spaces.add(rows)
    return tuple(sorted(spaces))


def test_relation_spaces_match_min_weight_enumeration():
    for k in range(6):
        assert _relation_spaces(k) == _relation_spaces_reference(k), k
