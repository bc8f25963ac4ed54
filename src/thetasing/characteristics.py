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
from array import array
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


def symplectic_form(n1: BoundaryLabel, n2: BoundaryLabel) -> int:
    if n1.genus != n2.genus:
        raise ValueError("genus mismatch")
    return _form_packed(n1.packed, n2.packed, n1.genus)


@lru_cache(maxsize=8)
def _labels(g: int) -> tuple[BoundaryLabel | None, ...]:
    """Every label at genus g, indexed by packed value (slot 0 is None)."""
    return (None,) + tuple(BoundaryLabel.from_packed(g, p) for p in range(1, 1 << (2 * g)))


def enumerate_labels(g: int) -> list[BoundaryLabel]:
    """All nonzero labels, lexicographic in (alpha, beta): the 4^g - 1
    entries of the table the sampler shares, so capped as the sampler is."""
    check_genus(g, GENUS_MIN, BRUTE_FORCE_GENUS_MAX, "enumerate_labels")
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
        ja = ((a & low) << g) | (a >> g)  # J(a), the halves swapped: <a, b> = parity(ja & b)
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

def _bit_clear_sets(g: int) -> list[int]:
    """low[j], for each bit j of a packed value at genus g: the bitset of the
    x in 0..4^g - 1 with bit j of x clear (its complement holds those with it set)."""
    full = (1 << (1 << (2 * g))) - 1
    return [full // ((1 << (2 << j)) - 1) * ((1 << (1 << j)) - 1) for j in range(2 * g)]


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
    low = _bit_clear_sets(g)
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
    """Per-label bitsets of the orthogonal labels, self included (slot 0 empty).

    <a, b> = parity(J(a) & b), J the swap of the halves, so the b with
    <a, b> = 1 are the XOR over the bits j of J(a) of the b with bit j set.
    J moves bit j to bit j + g mod 2g, and the sets of a come from those of a
    without its lowest bit by one XOR.
    """
    size = 1 << (2 * g)
    full = (1 << size) - 1
    low = _bit_clear_sets(g)
    odd = [0] * size  # the b with <a, b> = 1
    for a in range(1, size):
        j = (a & -a).bit_length() - 1
        odd[a] = odd[a & (a - 1)] ^ full ^ low[(j + g) % (2 * g)]
    return [0] + [full ^ 1 ^ x for x in odd[1:]]  # label 0 is no label


def _orthogonal_sets(g: int, max_size: int) -> Iterator[tuple[int, ...]]:
    """Packed labels of every pairwise-orthogonal set of sizes 1..max_size.

    Depth first: each set ascending, emitted once, right before its
    extensions by larger labels.  One explicit stack of (set, labels left
    to extend it by), no generator a level: a set's own extensions go on
    top of what is left of its parent's, so they come first.
    """
    masks = _orth_masks(g)
    labels = (1 << (1 << (2 * g))) - 2
    stack = [((), labels)] if labels else []
    while stack:
        chosen, b = stack.pop()
        low = b & -b
        n = low.bit_length() - 1
        b ^= low
        if b:
            stack.append((chosen, b))
        picked = chosen + (n,)
        yield picked
        # restrict to labels above n to emit each set once: b holds no other
        if len(picked) < max_size and (larger := b & masks[n]):
            stack.append((picked, larger))


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


@lru_cache(maxsize=8)
def _chart_tables(g: int) -> tuple[int, tuple[array, ...], tuple[array, ...], int, int, tuple]:
    """The sampler's tables at genus g: the chart draw's width g(g+3)/2,
    by_low, by_high, w = min(DEGREE_MAX, 2^g - 1), w.bit_length() and
    _labels(g).  The triangle draw t of S splits S into S_low, its cells of
    the low 8 bits of t, and S_high, the rest; they share no cell, so
    S c = S_low c ^ S_high c, and the unswapped label (S c) << g | c is
    by_low[t & 255][c] ^ by_high[t >> 8][c].  Entries are below 2^(2g), so
    array('H') rows hold any g <= 8."""
    # triangle bit i sets S[p][q] and S[q][p], row p from its diagonal on
    cells = [(p, q) for p in range(g) for q in range(p, g)]

    def products(chunk: list[tuple[int, int]], keep: int) -> tuple[array, ...]:
        table = []  # row t at c: (S_t c) << g | c & keep; keep is -1 for by_low, 0 for by_high
        for t in range(1 << len(chunk)):
            rows = [0] * g  # row p of S as bits q
            for i, (p, q) in enumerate(chunk):
                if t >> i & 1:
                    rows[p] |= 1 << q
                    rows[q] |= 1 << p
            sc = [0]  # S c is the XOR of the rows c picks (S is symmetric)
            for row in rows:
                sc += [s ^ row for s in sc]
            table.append(array("H", [s << g | c & keep for c, s in enumerate(sc)]))
        return tuple(table)

    w = min(DEGREE_MAX, (1 << g) - 1)
    return (g * (g + 3) // 2, products(cells[:8], -1), products(cells[8:], 0),
            w, w.bit_length(), _labels(g))


def random_orthogonal_tuple(rng: Random, g: int) -> tuple[BoundaryLabel, ...]:
    """A random orthogonal tuple: 1..DEGREE_MAX labels of a random Lagrangian.

    Every Lagrangian of F_2^{2g} is transverse to one of the 2^g coordinate
    Lagrangians (Arnold's lemma), so it is J_I(graph S) = {J_I(S c; c)}, S a
    symmetric g x g matrix and J_I the swap of alpha_i and beta_i for i in I.
    Conversely each such chart is a Lagrangian: graph S is isotropic as S is
    symmetric, and J_I preserves the form.  c -> J_I(S c; c) is linear and
    injective, so the relations among the drawn labels are those among their
    c's: a draw's pattern has the law of a uniform k-set of nonzero c.

    Not a uniform distribution over tuples, but reaches every tuple of at
    most min(DEGREE_MAX, 2^g - 1) labels: their span is isotropic, hence in
    some Lagrangian, whose labels are the images of the nonzero c.

    Draws getrandbits(g(g+3)/2), whose low g bits are I (bit p for bit p of
    a half) and whose rest is the upper triangle of S, row p from its
    diagonal bit p on; then k = randint(1, w), w = min(DEGREE_MAX, 2^g - 1),
    through randrange's getrandbits rejection loop; then k distinct nonzero
    c by getrandbits(g) rejection.  Labels are sorted by packed value.

    The unswapped labels (S c; c) are read from _chart_tables in two
    lookups per c; J_I is then one masked XOR.
    """
    # a drawn tuple is only ever checked against brute force, so capped as it is
    check_genus(g, GENUS_MIN, BRUTE_FORCE_GENUS_MAX, "random_orthogonal_tuple")
    width, by_low, by_high, w, w_bits, labels = _chart_tables(g)
    getrandbits = rng.getrandbits
    r = getrandbits(width)
    swap = r & ((1 << g) - 1)  # I
    r >>= g
    lo, hi = by_low[r & 255], by_high[r >> 8]
    # k = randint(1, w), drawn as randrange draws it
    r = getrandbits(w_bits)
    while r >= w:
        r = getrandbits(w_bits)
    picked: list[int] = []
    for _ in range(r + 1):
        c = getrandbits(g)
        while not c or c in picked:
            c = getrandbits(g)
        picked.append(c)
    both = (1 << g) | 1
    out = []
    for c in picked:
        x = lo[c] ^ hi[c]  # (S c) << g | c
        # J_I trades the halves' bits in I: d = (S c ^ c) & I, at both halves
        out.append(x ^ (((x >> g) ^ x) & swap) * both)
    out.sort()
    return tuple([labels[x] for x in out])
