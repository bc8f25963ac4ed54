"""Two-torsion theta characteristics over F_2, relation patterns and parity counting.

Conventions
-----------
A characteristic m = (eps; delt) is a pair of vectors in F_2^g.  Vectors are
packed into ints MSB-first: coordinate i (0-indexed) of a vector x sits at
bit (g-1-i), so ascending packed ints enumerate vectors lexicographically.
The full characteristic packs as (eps << g) | delt, hence the group law on
characteristics/labels is plain XOR of packed values.

The parity of m is eps . delt mod 2; m is odd iff the parity is 1.  Boundary
labels n = (alpha; beta) are the nonzero elements of the same F_2^{2g}; the
symplectic form is <n1, n2> = alpha1 . beta2 + alpha2 . beta1.  Two boundary
divisors D_{n1}, D_{n2} meet iff <n1, n2> = 0.

The distinguished label set Z_m of an odd m consists of *all* nonzero n
with m + n even; note n equal to the vector of m itself qualifies, since
parity of the zero characteristic is 0.  Its size is 2^{2g-1} + 2^{g-1}, the
number of even characteristics.  Both the odd m and the sets Z_m are
computed where the brute-force oracle needs them, in _vanish_tables.
"""
from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache
from random import Random
from typing import Iterable, Iterator, NamedTuple, Sequence

from .bits import kernel_f2, rref_f2
from .datafile import GENUS_MIN, check_genus

__all__ = [
    "BoundaryLabel",
    "NonOrthogonalError",
    "n_odd",
    "symplectic_form",
    "enumerate_labels",
    "count_vanishing",
    "representative",
    "brute_force_count",
    "orthogonal_tuples",
    "random_orthogonal_tuple",
    "ConfigType",
    "EMPTY",
    "make_type",
]

BRUTE_FORCE_GENUS_MAX = 5
DEGREE_MAX = 5  # the highest boundary degree, so the most labels of a monomial


class NonOrthogonalError(ValueError):
    """A label tuple contains a pair with nonzero symplectic pairing."""


class BoundaryLabel(namedtuple("BoundaryLabel", "genus alpha beta packed")):
    """A nonzero element (alpha; beta) of F_2^{2g} indexing a boundary divisor;
    the counting loops read its stored fourth field packed, (alpha << genus) | beta."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*list(fields)[:3]))  # _replace recomputes packed

    def __new__(cls, genus: int, alpha: int, beta: int) -> "BoundaryLabel":
        check_genus(genus, GENUS_MIN, None, "BoundaryLabel")
        top = 1 << genus
        if not (0 <= alpha < top and 0 <= beta < top):
            raise ValueError("label halves must fit in g bits")
        if alpha == 0 and beta == 0:
            raise ValueError("boundary labels are nonzero")
        return tuple.__new__(cls, (genus, alpha, beta, (alpha << genus) | beta))

    def __repr__(self) -> str:
        return f"BoundaryLabel(genus={self.genus}, alpha={self.alpha}, beta={self.beta})"

    def __getnewargs__(self) -> tuple[int, int, int]:  # copy and pickle call __new__
        return self[:3]

    @classmethod
    def from_packed(cls, genus: int, packed: int) -> "BoundaryLabel":
        mask = (1 << genus) - 1
        return cls(genus, packed >> genus, packed & mask)


def n_odd(g: int) -> int:
    """Number of odd characteristics at genus g."""
    check_genus(g, GENUS_MIN, None, "n_odd")
    return (1 << (g - 1)) * ((1 << g) - 1)


def _sigma_packed(x: int, g: int) -> int:
    return ((x >> g) & x & ((1 << g) - 1)).bit_count() & 1


def _form_packed(x: int, y: int, g: int) -> int:
    mask = (1 << g) - 1
    return (((x >> g) & y & mask).bit_count() + ((y >> g) & x & mask).bit_count()) & 1


def _swap_halves(v: int, g: int) -> int:
    """J(v): exchange the alpha and beta halves, so <x, v> = parity(x & J(v))."""
    return ((v & ((1 << g) - 1)) << g) | (v >> g)


def symplectic_form(n1: BoundaryLabel, n2: BoundaryLabel) -> int:
    if n1.genus != n2.genus:
        raise ValueError("genus mismatch")
    return _form_packed(n1.packed, n2.packed, n1.genus)


@lru_cache(maxsize=8)
def _labels(g: int) -> tuple[BoundaryLabel | None, ...]:
    """Every label at genus g, indexed by packed value (slot 0 is None)."""
    return (None,) + tuple(BoundaryLabel.from_packed(g, p) for p in range(1, 1 << (2 * g)))


def enumerate_labels(g: int) -> list[BoundaryLabel]:
    """All nonzero labels, lexicographic in (alpha, beta)."""
    check_genus(g, GENUS_MIN, None, "enumerate_labels")
    return list(_labels(g)[1:])


# --- relation patterns and the parity count ----------------------------------

class ConfigType(NamedTuple):
    """Canonical (exponents, relation space) shape of a boundary monomial.

    exps is non-increasing; rels is the RREF basis of the relation space,
    written over slot bits and minimized over permutations of equal-exponent
    slots.  Construct through make_type() / canonical_config(), or as the
    least member of a whole orbit (_type_orbit, as boundary._types_of does),
    not directly.
    Being a NamedTuple, a type equals (and hashes as) the bare tuple
    (exps, rels); nothing in the package mixes the two as keys.
    """

    exps: tuple[int, ...]
    rels: tuple[int, ...]

    @property
    def degree(self) -> int:
        return sum(self.exps)

    @property
    def nslots(self) -> int:
        return len(self.exps)

    @property
    def rank(self) -> int:
        """Dimension of the span of the labels."""
        return len(self.exps) - len(self.rels)

    def literal(self) -> str:
        """cfg(...) literal in the ledger grammar (1-based slot indices)."""
        if not self.exps:
            return "cfg()"
        body = ",".join(str(e) for e in self.exps)
        if not self.rels:
            return f"cfg({body})"
        groups = []
        for row in self.rels:
            groups.append(" ".join(str(i + 1) for i in range(self.nslots) if row >> i & 1))
        return f"cfg({body}; {' | '.join(groups)})"


def make_type(exps: Sequence[int], rels: Iterable[int]) -> ConfigType:
    """Canonicalize (exponents, relation rows) into a ConfigType.

    The canonical form sorts the exponents non-increasingly and takes the
    least rref_f2 of the relation rows over every permutation of the slots
    within each run of equal exponents.  Slot i's column, its bits across
    the rows, moves with the slot, so such a permutation only rearranges
    the columns of each run; equal columns give equal rows, and each
    distinct arrangement is reduced once.  Each input is canonicalized
    once per process.
    """
    return _canonical_type(tuple(exps), tuple(rels))


@lru_cache(maxsize=None)
def _canonical_type(exps: tuple[int, ...], rels: tuple[int, ...]) -> ConfigType:
    return ConfigType(tuple(sorted(exps, reverse=True)), min(_type_orbit(exps, rels)))


def _type_orbit(exps: tuple[int, ...], rels: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The orbit of a relation space: its rref_f2 images over every
    permutation of the slots within each run of equal exponents, written
    over the slots in non-increasing exponent order.  The sort is stable,
    so for non-increasing exps every slot keeps its place."""
    if any(e <= 0 for e in exps):
        raise ValueError("exponents must be positive")
    k = len(exps)
    # within a run the slot order is irrelevant: every arrangement is tried
    slots = sorted(range(k), key=lambda i: -exps[i])
    rows = [r for r in rels if r]
    # slot s's column with its bit i at bit i*k: an arrangement's row i is
    # then lane i of the sum of its columns, each shifted to its position
    cols = [sum((r >> s & 1) << (i * k) for i, r in enumerate(rows)) for s in slots]
    runs = []
    for _, run in itertools.groupby(enumerate(cols), key=lambda pc: exps[slots[pc[0]]]):
        positions, run_cols = zip(*run)
        runs.append([sum(c << p for p, c in zip(positions, a))
                     for a in set(itertools.permutations(run_cols))])
    mask = (1 << k) - 1
    return {rref_f2([sum(parts) >> (i * k) & mask for i in range(len(rows))])
            for parts in itertools.product(*runs)}


EMPTY = ConfigType((), ())


def count_vanishing(g: int, labels: Sequence[BoundaryLabel]) -> int:
    """Count odd m whose distinguished set contains every given label.

    Requires the labels to be distinct and pairwise orthogonal.  The count
    is 0 when some relation among the labels has odd weight, and otherwise
    2^(2g-1-r), r the rank of their span W (n_odd(g) for no labels).

    Proof.  Write q(x) = alpha . beta, so q(m + n) = q(m) + q(n) + <m, n>.
    For odd m, q(m) = 1, hence n lies in Z_m exactly when <m, n> = 1 + q(n).
    On a relation sum_S n_i = 0 the left sides sum to <m, 0> = 0, and
    orthogonality gives sum_S q(n_i) = q(sum_S n_i) = 0, so the right sides
    sum to |S|: the conditions are consistent exactly when every relation
    has even weight.  Then, the form being nondegenerate, their solutions
    form a coset of W^perp with 2^(2g-r) elements.  W is isotropic, so n_1
    lies in W^perp, and q(m + n_1) = q(m) + q(n_1) + 1 + q(n_1) = q(m) + 1:
    translating by n_1 pairs the odd solutions with the even ones, and half
    are odd.

    Each label enters the echelon as a << 1 | 1, so a row's low bit is the
    parity of the number of labels it sums.  A label that reduces to the
    bare 1 closes an odd relation; the ones that reduce to 0 close even
    relations and together span the relation space.
    """
    check_genus(g, GENUS_MIN, None, "count_vanishing")
    # One pass: each label is checked against the labels before it, then
    # reduced.  The echelon stays inline rather than calling bits.rref_f2:
    # this is the hot loop of criterion 3, and rref_f2 (full reduction, a
    # sort, a tuple) made the counts workload's 212,741 calls take 1.6-2.2 s
    # against 0.86-1.31 s (2-core Xeon VM, Python 3.11).
    seen: list[int] = []
    echelon: list[int] = []  # distinct leading bits, descending
    odd_relation = False
    low = (1 << g) - 1
    for n in labels:
        if n.genus != g:
            raise ValueError("label genus mismatch")
        a = n.packed
        if a in seen:
            raise ValueError("labels must be distinct")
        ja = ((a & low) << g) | (a >> g)  # _swap_halves(a, g), inlined in the hot loop
        for b in seen:
            if (ja & b).bit_count() & 1:
                raise NonOrthogonalError("labels must be pairwise orthogonal")
        seen.append(a)
        a = a << 1 | 1
        for e in echelon:
            if a ^ e < a:  # a has the leading bit of e
                a ^= e
        if a == 1:
            odd_relation = True
        elif a:
            echelon.append(a)
            echelon.sort(reverse=True)
    if not seen:
        return n_odd(g)
    return 0 if odd_relation else 1 << (2 * g - 1 - len(echelon))


def representative(t: ConfigType, g: int) -> tuple[BoundaryLabel, ...]:
    """Labels of one monomial of type t at genus g, all in the alpha half.

    Label i is column i of a basis of t.rels^perp in F_2^k: bit j of its
    alpha is bit i of basis row j.  So a relation c holds among the labels
    exactly when c lies in (t.rels^perp)^perp = t.rels; the alpha half is a
    Lagrangian, so they are pairwise orthogonal.  By Witt's theorem the
    count is the same at every monomial of type t.  A type with no monomial
    at genus g, of rank above g or with a relation of weight below 3 (a
    zero or a repeated label), is refused.
    """
    check_genus(g, GENUS_MIN, None, "representative")
    if t.rank > g:
        raise ValueError(f"{t.literal()} has rank {t.rank}, above genus {g}")
    # slot i's column: its bits across the relation rows
    cols = [sum((r >> i & 1) << j for j, r in enumerate(t.rels)) for i in range(t.nslots)]
    basis = kernel_f2(cols)
    alphas = [sum((b >> i & 1) << j for j, b in enumerate(basis)) for i in range(t.nslots)]
    if 0 in alphas or len(set(alphas)) < len(alphas):
        raise ValueError(f"{t.literal()} has a relation of weight below 3")
    return tuple(BoundaryLabel(g, a, 0) for a in alphas)


# --- brute-force oracle ------------------------------------------------------

@lru_cache(maxsize=8)
def _vanish_tables(g: int) -> tuple[list[int], int]:
    """Per-label bitsets of {m : parity(m + n) even}, plus the odd-m bitset;
    so n lies in Z_m exactly when bit m of masks[n] is set.

    The set of label n is the even set translated by n.  Translating by one
    bit 2^j swaps adjacent blocks of 2^j bits, so each set comes from the set
    of n without its lowest bit by one block swap.
    """
    size = 1 << (2 * g)
    full = (1 << size) - 1
    odd_mask = 0
    for m in range(size):
        if _sigma_packed(m, g):
            odd_mask |= 1 << m
    # low[j]: the bits m with bit j of m clear
    low = [full // ((1 << (2 << j)) - 1) * ((1 << (1 << j)) - 1) for j in range(2 * g)]
    masks = [full ^ odd_mask] + [0] * (size - 1)
    for n in range(1, size):
        j = (n & -n).bit_length() - 1
        prev, width = masks[n & (n - 1)], 1 << j
        masks[n] = ((prev & low[j]) << width) | ((prev >> width) & low[j])
    return masks, odd_mask


def brute_force_count(g: int, labels: Sequence[BoundaryLabel]) -> int:
    """Direct enumeration over all 4^g characteristics, g <= BRUTE_FORCE_GENUS_MAX."""
    check_genus(g, GENUS_MIN, BRUTE_FORCE_GENUS_MAX, "brute force")
    masks, acc = _vanish_tables(g)
    for n in labels:
        if n.genus != g:
            raise ValueError("label genus mismatch")
        acc &= masks[n.packed]
    return acc.bit_count()


# --- tuple generation --------------------------------------------------------

@lru_cache(maxsize=8)
def _orth_masks(g: int) -> list[int]:
    """Per-label bitsets of the orthogonal labels, self included (slot 0 empty)."""
    size = 1 << (2 * g)
    masks = [0] * size
    for a in range(1, size):
        m = 0
        for b in range(1, size):
            if _form_packed(a, b, g) == 0:
                m |= 1 << b
        masks[a] = m
    return masks


def _orthogonal_sets(g: int, max_size: int) -> Iterator[tuple[int, ...]]:
    """Packed labels of every pairwise-orthogonal set of sizes 1..max_size.

    Depth first: each set ascending, emitted once, right before its
    extensions by larger labels.
    """
    masks = _orth_masks(g)

    def extend(chosen: tuple[int, ...], candidates: int) -> Iterator[tuple[int, ...]]:
        b = candidates
        while b:
            low = b & -b
            n = low.bit_length() - 1
            b ^= low
            picked = chosen + (n,)
            yield picked
            if len(picked) < max_size:
                # restrict to labels above n to emit each set once
                yield from extend(picked, candidates & masks[n] & ~((low << 1) - 1))

    return extend((), (1 << (1 << (2 * g))) - 2)


def orthogonal_tuples(g: int, max_size: int) -> Iterator[tuple[BoundaryLabel, ...]]:
    """All tuples of distinct pairwise-orthogonal labels, sizes 1..max_size.

    Tuples are emitted sorted by packed value, each underlying set once.
    """
    check_genus(g, GENUS_MIN, BRUTE_FORCE_GENUS_MAX, "orthogonal_tuples")
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    labels = _labels(g)
    for combo in _orthogonal_sets(g, max_size):
        yield tuple([labels[p] for p in combo])


# The sampler keeps its g basis vectors in one int, vector i in lane i of W =
# 2g*f bits, f = (2g).bit_length(), with its bit j at bit f*j of the lane.
# Multiplied by `fields`, the sum of the 2g field units, x & J(v) puts its bit
# count in field 2g - 1 of each lane, whose low bit is <x, v>; times v, these
# parities add v to just the lanes that need it.  Nothing carries: field t of
# lane i + 1 sums its bits j <= t and lane i's bits j > t, at most 2g < 2^f,
# and gets none of lane i at t = 2g - 1, as lane i's product ends at 4g - 2.
SAMPLER_GENUS_MAX = 8


@lru_cache(maxsize=8)
def _lane_table(g: int) -> tuple[int, int, int, int, int, list[int], list[int], dict[int, int]]:
    """The sampler's tables (4^g entries, hence its genus cap), as it unpacks them."""
    f = (2 * g).bit_length()
    spread = [0]
    for j in range(2 * g):  # x + 2^j spreads to spread[x] + 2^(f*j)
        spread += [s + (1 << (f * j)) for s in spread]
    ones = sum(1 << (2 * g * f * i) for i in range(g))
    start = sum(1 << ((2 * g + 1) * f * i) for i in range(g))  # vector i is 1 << i
    jvs = [_swap_halves(s, f * g) * ones for s in spread[1:]]  # J swaps g-field halves
    packed = {s: x for x, s in enumerate(spread)}
    return start, ones, spread[-1], f * (2 * g - 1), 2 * g * f, spread[1:], jvs, packed


def random_orthogonal_tuple(rng: Random, g: int) -> tuple[BoundaryLabel, ...]:
    """A random orthogonal tuple, drawn from a random maximal isotropic space.

    Not a uniform distribution over tuples, but reaches every tuple of at
    most DEGREE_MAX labels: any orthogonal set spans an isotropic subspace,
    hence sits inside some maximal one, and transvections act transitively
    on those.

    Draws exactly what rng.randrange(1, 4^g), rng.randint(1, w) and then
    rng.sample(range(n), k), n = 2^g - 1, w = min(DEGREE_MAX, n), draw on
    a random.Random, through the same getrandbits rejection loops and
    sample's choice between a pool and a set.
    """
    check_genus(g, GENUS_MIN, SAMPLER_GENUS_MAX, "random_orthogonal_tuple")
    basis, ones, fields, shift, width, vs, jvs, packed = _lane_table(g)
    getrandbits = rng.getrandbits
    bits = 2 * g
    top = (1 << bits) - 1
    lane = (1 << width) - 1
    for _ in range(12):
        # v = randrange(1, 4^g) = r + 1, drawn as randrange draws it
        r = getrandbits(bits)
        while r >= top:
            r = getrandbits(bits)
        basis ^= ((basis & jvs[r]) * fields >> shift & ones) * vs[r]  # x += <x, v> v
    # Bring the lanes to reduced echelon form: each row's leading bit, its
    # pivot, is clear in every other row.  Transvections are invertible, so
    # the lanes stay independent and none reduces to 0.
    rows: list[int] = []
    for _ in range(g):
        a = packed[basis & lane]
        basis >>= width
        for e in rows:
            if a ^ e < a:  # a has the pivot of e
                a ^= e
        j = 0
        for e in rows:
            if e ^ a < e:  # e has the pivot of a
                rows[j] = e ^ a
            j += 1
        rows.append(a)
    rows.sort()  # pivots ascending: row i goes with bit i of a rank
    # Rank rule.  The element of sorted rank c in the span (0 has rank 0) is
    # the sum of the rows that the bits of c pick.
    #
    # Proof.  Read an element's pivot bits, top pivot first, as a number.  A
    # nonzero sum of rows has the highest pivot among its rows as its top
    # bit, since the other rows lie below that pivot.  So for x != y in the
    # span, x ^ y has a pivot p as its top bit: x and y agree above p and
    # the larger has bit p, while their numbers agree above p and differ at
    # p.  Sorting by value is thus sorting by number.  Each row holds its own
    # pivot and no other, so the sum of the rows that c picks has number c.
    n = (1 << g) - 1  # the nonzero elements, ranks 1..n
    # k = randint(1, w), drawn as randrange draws it
    w = min(DEGREE_MAX, n)
    bits = w.bit_length()
    r = getrandbits(bits)
    while r >= w:
        r = getrandbits(bits)
    k = r + 1
    # the k indices rng.sample(range(n), k) draws: from a pool when n <= 21,
    # its size of a k-set for k <= 5 (so g <= 4), else by rejection in a set
    if n <= 21:
        pool = list(range(n))
        picked = []
        for i in range(n, n - k, -1):
            bits = i.bit_length()
            j = getrandbits(bits)
            while j >= i:
                j = getrandbits(bits)
            picked.append(pool[j])
            pool[j] = pool[i - 1]
    else:
        bits = n.bit_length()
        picked = set()
        for _ in range(k):
            j = getrandbits(bits)
            while j >= n or j in picked:
                j = getrandbits(bits)
            picked.add(j)
    labels = _labels(g)
    out = []
    for c in sorted(picked):
        c += 1  # index j of the nonzero elements is rank j + 1
        x = 0
        for e in rows:
            if c & 1:
                x ^= e
            c >>= 1
        out.append(labels[x])
    return tuple(out)
