"""Tests for theta characteristics, distinguished label sets, and parity counts."""

import copy
import gc
import hashlib
import itertools
import math
import operator
import re
import time
import tracemalloc
from array import array
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from thetasing import (
    BoundaryLabel,
    NonOrthogonalError,
    boundary,
    brute_force_count,
    characteristics,
    count_vanishing,
    enumerate_labels,
    pipeline,
    symplectic_form,
)
from thetasing.bits import kernel_f2, rref_f2
from thetasing.boundary import all_types
from thetasing.characteristics import (
    BRUTE_FORCE_GENUS_MAX,
    EMPTY,
    ConfigType,
    _canonical_type,
    _chart_tables,
    _form_packed,
    _labels,
    _orth_masks,
    _orthogonal_sets,
    _sigma_packed,
    _vanish_tables,
    make_type,
    n_odd,
    orthogonal_tuples,
    random_orthogonal_tuple,
    representative,
)
from thetasing.pipeline import ComparisonRow, load_boundary_relations

# criterion 3's seed, and the sha256 of the first 2000 (packed tuple, count)
# rows it gives per genus, recorded when the sampler began drawing one chart
# (I, S) per tuple
STREAM_SEED = 20260819
STREAM_SHA256 = {
    4: "5963d61495d7e127c8be35e1653e80a1c9caa0f7fe290611ab78fb6b1cc19f9a",
    5: "e1a875a0800aaac69728c674420d1d3bc368e748d382d5264944076be55284fc",
}


def label(g, packed):
    return BoundaryLabel.from_packed(g, packed)


def labels_strategy(g):
    return st.builds(lambda p: label(g, p), st.integers(1, (1 << (2 * g)) - 1))


def odd_characteristics(g):
    """Packed odd m, ascending, read off the oracle's odd-m bitset."""
    odd_mask = _vanish_tables(g)[1]
    return [m for m in range(1 << (2 * g)) if odd_mask >> m & 1]


def z_m(g, m):
    """Packed labels of Z_m: the n whose oracle bitset has bit m set."""
    masks = _vanish_tables(g)[0]
    return {n for n in range(1, 1 << (2 * g)) if masks[n] >> m & 1}


# --- parity and the symplectic form ------------------------------------------

def test_odd_characteristic_counts():
    for g in range(1, 5):
        assert len(odd_characteristics(g)) == (1 << (g - 1)) * ((1 << g) - 1)


def test_enumerate_labels_count():
    for g in range(1, 4):
        assert len(enumerate_labels(g)) == (1 << (2 * g)) - 1


def test_enumerate_labels_is_a_fresh_list_of_shared_labels():
    for g in range(1, 4):
        expected = [BoundaryLabel.from_packed(g, p) for p in range(1, 1 << (2 * g))]
        first = enumerate_labels(g)
        assert first == expected
        first.clear()
        assert enumerate_labels(g) == expected
        table = _labels(g)
        assert table[0] is None
        assert all(table[p].packed == p for p in range(1, 1 << (2 * g)))


def test_value_types_are_tuples_with_the_old_contract():
    # a type hashes as its field tuple, so set and dict orders are pinned
    types = [t for d in range(1, 6) for t in all_types(d)]
    assert all(hash(t) == hash((t.exps, t.rels)) for t in types)
    labels = [label(g, p) for g in (3, 2) for p in (9, 1, 14, 6)]
    for values, fields in ((labels, operator.attrgetter("genus", "alpha", "beta")),
                           (types[::-1], operator.attrgetter("exps", "rels"))):
        assert sorted(values) == sorted(values, key=fields)
    rule = load_boundary_relations()[0]
    row = ComparisonRow((1, 0), (), Fraction(1), None)
    for value, name in ((labels[0], "alpha"), (types[0], "rels"),
                        (rule, "word_from"), (row, "engine")):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    with pytest.raises(ValueError, match=r"^label halves must fit in g bits$"):
        BoundaryLabel(2, 0, 4)
    with pytest.raises(ValueError, match=r"^boundary labels are nonzero$"):
        BoundaryLabel(2, 0, 0)
    assert repr(BoundaryLabel(3, 1, 2)) == "BoundaryLabel(genus=3, alpha=1, beta=2)"
    assert copy.deepcopy(labels) == labels
    assert labels[0]._replace(alpha=0) == BoundaryLabel(3, 0, 1)
    with pytest.raises(ValueError, match=r"^boundary labels are nonzero$"):
        labels[0]._replace(alpha=0, beta=0)


def _swap_halves(v, g):
    # J(v): the alpha and beta halves exchanged, as count_vanishing and the
    # transvection reference below write it inline
    return ((v & ((1 << g) - 1)) << g) | (v >> g)


def test_swap_halves_pairing_exhaustive():
    # <x, v> is the parity of x & J(v), J swapping the alpha and beta halves
    for g in range(1, 4):
        for v in range(1 << (2 * g)):
            jv = _swap_halves(v, g)
            for x in range(1 << (2 * g)):
                assert (x & jv).bit_count() & 1 == _form_packed(x, v, g)


@given(labels_strategy(3), labels_strategy(3))
def test_parity_shift_rule(n1, n2):
    # sigma(a + b) = sigma(a) + sigma(b) + <a, b>  (mod 2)
    if n1.packed == n2.packed:
        return
    s1, s2 = _sigma_packed(n1.packed, 3), _sigma_packed(n2.packed, 3)
    total = (s1 + s2 + symplectic_form(n1, n2)) & 1
    assert _sigma_packed(n1.packed ^ n2.packed, 3) == total


@given(labels_strategy(3), labels_strategy(3), labels_strategy(3))
def test_form_bilinear(a, b, c):
    if a.packed == b.packed:
        return
    lhs = symplectic_form(label(3, a.packed ^ b.packed), c)
    rhs = (symplectic_form(a, c) + symplectic_form(b, c)) & 1
    assert lhs == rhs
    assert symplectic_form(a, c) == symplectic_form(c, a)


@given(labels_strategy(4))
def test_form_alternating(a):
    assert symplectic_form(a, a) == 0


def test_form_is_nondegenerate_genus2():
    g = 2
    for a in enumerate_labels(g):
        assert any(symplectic_form(a, b) for b in enumerate_labels(g))


# --- distinguished label sets -------------------------------------------------

def test_z_set_size_and_membership():
    for g in (1, 2, 3):
        expected = (1 << (2 * g - 1)) + (1 << (g - 1))
        for m in odd_characteristics(g):
            zs = z_m(g, m)
            assert len(zs) == expected
            # the label with the same underlying vector as m belongs to the set
            assert m in zs


def test_z_set_total_incidence():
    # sum over odd m of |Z_m| counts (odd, even-shift) incidences
    for g in (1, 2, 3):
        total = sum(len(z_m(g, m)) for m in odd_characteristics(g))
        assert total == ((1 << (2 * g)) - 1) * (1 << (2 * g - 2))


def test_z_set_spot_checks_high_genus():
    for g in (4, 5):
        m = odd_characteristics(g)[0]
        assert len(z_m(g, m)) == (1 << (2 * g - 1)) + (1 << (g - 1))


# --- counting rule ------------------------------------------------------------

def test_count_examples_genus2():
    g = 2
    assert count_vanishing(g, []) == 6
    single = [label(g, 0b0101)]
    assert count_vanishing(g, single) == 4
    # an orthogonal pair: (0;01) and (0;10)
    pair = [label(g, 0b0001), label(g, 0b0010)]
    assert count_vanishing(g, pair) == 2
    # adding the sum gives a weight-3 relation, which kills the count
    triple = pair + [label(g, 0b0011)]
    assert count_vanishing(g, triple) == 0


def test_count_weight_four_relation():
    # four labels with sum zero: an even relation, count 2^(2g-1-3)
    g = 3
    quad = [label(g, p) for p in (0b000001, 0b000010, 0b000100, 0b000111)]
    assert count_vanishing(g, quad) == 1 << (2 * g - 4)
    assert brute_force_count(g, quad) == 1 << (2 * g - 4)


def test_count_empty_genus1():
    assert brute_force_count(1, []) == 1
    assert count_vanishing(1, []) == 1


NON_ORTHOGONAL = (NonOrthogonalError, "labels must be pairwise orthogonal")
REPEAT = (ValueError, "labels must be distinct")
MISMATCH = (ValueError, "label genus mismatch")
# (genus, labels, refusal); a label is packed, or (genus, packed)
BAD_TUPLES = [
    (2, [0b0001, 0b0100], NON_ORTHOGONAL),
    (2, [0b0001, 0b0001], REPEAT),
    # genus-3 beta labels, a Lagrangian: a repeat after an even relation
    # (1 + 2 + 4 + 7 = 0), after an odd one (1 + 2 + 3 = 0), mid-tuple, and
    # of the label that closed a relation; a repeat of 3 in 1, 2, 3 reduces
    # to 0 only because the bare 1 of the odd relation joined the echelon
    (3, [1, 2, 4, 7, 1], REPEAT),
    (3, [1, 2, 3, 1], REPEAT),
    (3, [1, 2, 3, 3], REPEAT),
    (3, [1, 2, 3, 4, 2], REPEAT),
    (3, [1, 2, 1, 4], REPEAT),
    (3, [1, 2, 4, 7, 7], REPEAT),
    # the first refusal in the tuple wins
    (3, [1, (2, 1), 1], MISMATCH),
    (3, [1, 1, (2, 1)], REPEAT),
    (2, [0b0001, 0b0100, 0b0001], NON_ORTHOGONAL),
    (2, [0b0001, 0b0001, 0b0100], REPEAT),
]


def test_count_rejects_bad_input():
    for g, packs, (kind, message) in BAD_TUPLES:
        labels = [label(*p) if isinstance(p, tuple) else label(g, p) for p in packs]
        with pytest.raises(ValueError) as exc:
            count_vanishing(g, labels)
        assert (type(exc.value), str(exc.value)) == (kind, message), packs
    for count in (count_vanishing, brute_force_count):
        with pytest.raises(ValueError, match=r"^label genus mismatch$"):
            count(3, [label(3, 0b000001), label(2, 0b0001)])


# six labels in a Lagrangian with two independent weight-4 relations, the
# relation space spanned by 0b001111 and 0b111100
SIX_LABELS_GENUS4 = (1, 2, 4, 1 ^ 2 ^ 4, 8, 1 ^ 2 ^ 8)


def test_uncertified_pattern_is_refused():
    # an even relation space on more than 5 labels is counted, not refused
    g = 4
    labels = [label(g, p) for p in SIX_LABELS_GENUS4]
    for a, b in itertools.combinations(labels, 2):
        assert symplectic_form(a, b) == 0
    for _ in range(2):
        assert count_vanishing(g, labels) == brute_force_count(g, labels) == 8


def test_certified_patterns_are_types():
    # the weight-4 patterns on 4 and 5 slots (any slot may be the free one):
    # labels in the delta half, a Lagrangian, have exactly that type, and
    # the count at the type's representative equals the oracle's at them
    for packs, t in [
        ((1, 2, 4, 7), make_type((1,) * 4, [0b1111])),
        ((1, 2, 4, 7, 8), make_type((1,) * 5, [0b01111])),
    ]:
        assert make_type((1,) * len(packs), kernel_f2(packs)) == t
        for g in range(4, 6):
            labels = [label(g, p) for p in packs]
            assert count_vanishing(g, representative(t, g)) == brute_force_count(g, labels)


# every type of degree <= 5 with a monomial at genus 1..5
REPRESENTED = [(t, g) for g in range(1, 6) for j in range(6) for t in all_types(j)
               if t.rank <= g]


@pytest.mark.parametrize("t, g", REPRESENTED,
                         ids=[f"g{g}-{t.literal()}" for t, g in REPRESENTED])
def test_representative_has_its_type(t, g):
    labels = representative(t, g)
    packed = [n.packed for n in labels]
    assert len(set(packed)) == len(packed) == t.nslots
    for a, b in itertools.combinations(labels, 2):
        assert symplectic_form(a, b) == 0
    assert make_type(t.exps, kernel_f2(packed)) == t
    assert count_vanishing(g, labels) == brute_force_count(g, labels)


def test_representatives_cover_every_type_of_low_rank():
    assert len(REPRESENTED) == 111


def test_representative_refuses_rank_above_genus():
    # a type of rank above g has no monomial at genus g: refused in one line
    for t, g in [(make_type((1,) * 5, ()), 4), (make_type((2, 1, 1, 1, 1), ()), 4),
                 (ConfigType((1,) * 6, ()), 5)]:
        with pytest.raises(ValueError) as exc:
            representative(t, g)
        assert str(exc.value) == f"{t.literal()} has rank {t.rank}, above genus {g}"
        assert "\n" not in str(exc.value)


@pytest.mark.parametrize("rels", [[0b01], [0b11], [0b0011, 0b1100]])
def test_representative_refuses_a_relation_below_weight_3(rels):
    # no distinct nonzero labels satisfy it, so no monomial has the type
    t = make_type((1,) * max(r.bit_length() for r in rels), rels)
    with pytest.raises(ValueError, match=rf"^{re.escape(t.literal())} has a relation "
                                         r"of weight below 3$"):
        representative(t, 4)


def test_representative_at_a_large_genus_is_fast():
    # built label by label, with no table of the 4^g labels
    t = make_type((1,) * 5, [0b01111])
    start = time.perf_counter()
    labels = representative(t, 40)
    assert time.perf_counter() - start < 1
    assert [n.genus for n in labels] == [40] * 5
    assert count_vanishing(40, labels) == 1 << (2 * 40 - 1 - 4)



# The permutation search make_type used before it searched distinct column
# arrangements only, kept verbatim as the reference for the new search.
def _permute_bits(row, perm):
    out = 0
    for i, target in enumerate(perm):
        if row >> i & 1:
            out |= 1 << target
    return out


def _reference_make_type(exps, rels):
    """Canonicalize (exponents, relation rows) into a ConfigType."""
    exps = tuple(exps)
    if any(e <= 0 for e in exps):
        raise ValueError("exponents must be positive")
    k = len(exps)
    if k == 0:
        return EMPTY
    order = sorted(range(k), key=lambda i: (-exps[i], i))
    sorted_exps = tuple(exps[i] for i in order)
    # move old slot order[j] to new slot j
    inv = [0] * k
    for new, old in enumerate(order):
        inv[old] = new
    base = [_permute_bits(r, inv) for r in rels if r]
    if not base:
        return ConfigType(sorted_exps, ())
    # minimize over permutations within equal-exponent runs
    runs = []
    start = 0
    for i in range(1, k + 1):
        if i == k or sorted_exps[i] != sorted_exps[start]:
            runs.append(range(start, i))
            start = i
    best = None
    for parts in itertools.product(*(itertools.permutations(r) for r in runs)):
        perm = [0] * k
        for run, part in zip(runs, parts):
            for src, dst in zip(run, part):
                perm[src] = dst
        cand = rref_f2(_permute_bits(r, perm) for r in base)
        if best is None or cand < best:
            best = cand
    assert best is not None
    return ConfigType(sorted_exps, best)


def test_make_type_matches_the_permutation_search():
    # every exponent vector over {1, 2} of up to 5 slots, sorted or not, and
    # every relation space spanned by at most two rows, given reduced; with
    # sorted exponents also unreduced, with a zero row and a row repeated
    checked, mismatches = 0, []
    for k in range(6):
        spaces = {rref_f2((a, b)) for a in range(1 << k) for b in range(a, 1 << k)}
        for exps in itertools.product((1, 2), repeat=k):
            for basis in spaces:
                want = _reference_make_type(exps, basis)
                spellings = [basis]
                if list(exps) == sorted(exps, reverse=True):
                    rows = tuple(itertools.accumulate(basis, operator.xor))
                    spellings.append((0,) + rows + rows[-1:])
                for rels in spellings:
                    if make_type(exps, rels) != want:
                        mismatches.append((exps, rels))
                checked += 1
    assert not mismatches
    assert checked == sum(2 ** k * (1 + (2 ** k - 1) + (2 ** k - 1) * (2 ** k - 2) // 6)
                          for k in range(6))


def test_make_type_canonicalizes_each_input_once():
    _canonical_type.cache_clear()
    t = make_type((1, 1, 1, 1, 1), [0b00111])
    assert make_type([1, 1, 1, 1, 1], (0b00111,)) is t
    # a generator is read once, like a tuple
    assert make_type(iter((1,) * 5), iter([0b00111])) is t
    info = _canonical_type.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    # a refused input is refused on every call
    for _ in range(2):
        with pytest.raises(ValueError, match="exponents must be positive"):
            make_type((1, 0), ())


@pytest.mark.parametrize("k", [6, 7, 8, 9])
def test_wide_relation_space_counted_fast(k):
    # an even relation space on k slots is built and counted without trying
    # the k! slot permutations, on every call
    t = ConfigType((1,) * k, rref_f2([0b1111, 0b1111 << (k - 4)]))
    start = time.perf_counter()
    for _ in range(2):
        assert count_vanishing(8, representative(t, 8)) == 1 << (15 - (k - 2))
    assert time.perf_counter() - start < 0.5


def test_count_at_representative_matches_the_oracle():
    # an even relation, an odd one, and two even relations on six slots
    assert count_vanishing(3, representative(make_type((1,) * 4, [0b1111]), 3)) == 1 << 2
    assert count_vanishing(3, representative(make_type((1,) * 4, [0b0111]), 3)) == 0
    rels = [0b001111, 0b111100]
    assert kernel_f2(SIX_LABELS_GENUS4) == rref_f2(rels)
    labels = [label(4, p) for p in SIX_LABELS_GENUS4]
    t = make_type((1,) * 6, rels)
    assert count_vanishing(4, representative(t, 4)) == brute_force_count(4, labels) == 8


def test_count_matches_brute_force_exhaustive_genus2():
    g = 2
    seen = 0
    for tup in orthogonal_tuples(g, 5):
        assert count_vanishing(g, tup) == brute_force_count(g, tup)
        seen += 1
    # 15 singles, 45 orthogonal pairs, 15 triples inside isotropic planes
    assert seen == 75


def test_count_matches_brute_force_genus3_pairs():
    g = 3
    for tup in orthogonal_tuples(g, 2):
        assert count_vanishing(g, tup) == brute_force_count(g, tup)


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1))
def test_random_tuples_match_oracle_genus4(seed):
    g = 4
    tup = random_orthogonal_tuple(Random(seed), g)
    assert count_vanishing(g, tup) == brute_force_count(g, tup)


def test_sample_stream_is_pinned():
    # what criterion 3 certifies must not change with the sampler's internals
    for g, digest in STREAM_SHA256.items():
        rng = Random(STREAM_SEED)
        rows = []
        for _ in range(2000):
            tup = random_orthogonal_tuple(rng, g)
            rows.append([[n.packed for n in tup], count_vanishing(g, tup)])
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


def _reference_random_orthogonal_tuple(rng, g, max_size=5):
    # a second sampler, by twelve random transvections of the beta-side
    # Lagrangian, that draws up to max_size labels; the sampler stops at
    # DEGREE_MAX, so the tests that need longer tuples draw from this one
    mask = (1 << g) - 1
    size = 1 << (2 * g)
    basis = [1 << i for i in range(g)]  # the delta-side coordinate vectors
    for _ in range(12):
        v = rng.randrange(1, size)
        jv = ((v & mask) << g) | (v >> g)  # _swap_halves(v, g)
        basis = [x ^ v if (x & jv).bit_count() & 1 else x for x in basis]
    # transvections are invertible, so the basis stays independent and
    # doubling lists each vector of its span exactly once
    span = [0]
    for b in basis:
        span += [x ^ b for x in span]
    span.sort()
    nonzero = span[1:]
    k = rng.randint(1, min(max_size, len(nonzero)))
    picked = sorted(rng.sample(nonzero, k))
    labels = _labels(g)
    return tuple([labels[p] for p in picked])


def _chart(g, r):
    # the chart (I, S) that the sampler's first draw r gives: I as a list of
    # flags, S as a list of rows (bit q of row p is S[p][q]); the low g bits
    # of r are I, the rest S's upper triangle, row p from its diagonal on
    swap = [r >> p & 1 for p in range(g)]
    r >>= g
    rows = [0] * g
    for p in range(g):
        for q in range(p, g):
            if r & 1:
                rows[p] |= 1 << q
                rows[q] |= 1 << p
            r >>= 1
    return swap, rows


def _chart_label(g, swap, rows, c):
    # packed J_I(S c; c), one coordinate (bit p of each half) at a time
    alpha = beta = 0
    for p in range(g):
        a, b = (rows[p] & c).bit_count() & 1, c >> p & 1
        if swap[p]:
            a, b = b, a
        alpha |= a << p
        beta |= b << p
    return alpha << g | beta


def _reference_chart_tuple(rng, g):
    # the sampler's draws, through the plain chart above
    swap, rows = _chart(g, rng.getrandbits(g * (g + 3) // 2))
    k = rng.randint(1, min(5, 2**g - 1))
    cs = []
    while len(cs) < k:
        c = rng.getrandbits(g)
        if c and c not in cs:
            cs.append(c)
    labels = _labels(g)
    return tuple(labels[x] for x in sorted(_chart_label(g, swap, rows, c) for c in cs))


@pytest.mark.parametrize("g", range(1, 6))
def test_sampler_matches_chart_reference(g):
    # same tuples and the same generator state afterwards, so every later
    # draw from a shared generator is the same too
    for seed in range(3):
        rng, ref = Random(seed), Random(seed)
        for _ in range(200):
            assert random_orthogonal_tuple(rng, g) == _reference_chart_tuple(ref, g)
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_charts_give_every_lagrangian(g):
    # every chart (I, S) the sampler can draw is a Lagrangian, and together
    # they give all prod (2^i + 1) Lagrangians of F_2^{2g} (Arnold's lemma),
    # so every orthogonal tuple of at most DEGREE_MAX labels can be drawn
    seen = set()
    for r in range(1 << (g * (g + 3) // 2)):
        swap, rows = _chart(g, r)
        seen.add(rref_f2([_chart_label(g, swap, rows, 1 << q) for q in range(g)]))
    for space in seen:
        assert len(space) == g
        assert not any(_form_packed(x, y, g) for x, y in itertools.combinations(space, 2))
    assert len(seen) == math.prod(2**i + 1 for i in range(1, g + 1)) == [3, 15, 135, 2295][g - 1]


@pytest.mark.parametrize("g", [5, 6, 7, 8])
def test_charts_are_injective_linear_maps_past_genus4(g):
    # past the exhaustive range, 200 seeded charts: c -> J_I(S c; c) is
    # linear and injective on F_2^g, and its g basis images are pairwise
    # orthogonal, so each chart is a Lagrangian and the relations among the
    # drawn labels are exactly those among their c's
    rng = Random(STREAM_SEED + g)
    for _ in range(200):
        swap, rows = _chart(g, rng.getrandbits(g * (g + 3) // 2))
        images = [_chart_label(g, swap, rows, c) for c in range(1 << g)]
        assert len(set(images)) == 1 << g and images[0] == 0
        for c in range(1, 1 << g):
            assert images[c] == images[c & (c - 1)] ^ images[c & -c], (swap, rows, c)
        basis = [images[1 << q] for q in range(g)]
        assert not any(_form_packed(x, y, g) for x, y in itertools.combinations(basis, 2))


class _Scripted(Random):
    # replays the given (width, value) draws, checking each draw's width
    def __init__(self, draws):
        super().__init__(0)
        self.draws = list(draws)

    def getrandbits(self, k):
        width, value = self.draws.pop(0)
        assert k == width
        return value


def _check_chart_draw(g, r):
    # the sampler's labels at chart draw r, for every nonzero c, against the
    # plain chart: each call draws at most w labels, so the c's go in chunks
    swap, rows = _chart(g, r)
    w = min(5, 2**g - 1)
    cs = list(range(1, 1 << g))
    for i in range(0, len(cs), w):
        chunk = cs[i:i + w]
        rng = _Scripted([(g * (g + 3) // 2, r), (w.bit_length(), len(chunk) - 1)]
                        + [(g, c) for c in chunk])
        got = [n.packed for n in random_orthogonal_tuple(rng, g)]
        assert got == sorted(_chart_label(g, swap, rows, c) for c in chunk), (r, chunk)
        assert not rng.draws


@pytest.mark.parametrize("g", [1, 2, 3])
def test_chart_tables_match_the_plain_chart_exhaustive(g):
    # every I, every triangle of S and every nonzero c
    for r in range(1 << (g * (g + 3) // 2)):
        _check_chart_draw(g, r)


@pytest.mark.parametrize("g", [4, 5])
def test_chart_tables_match_the_plain_chart_seeded(g):
    rng = Random(STREAM_SEED - g)
    for _ in range(300):
        _check_chart_draw(g, rng.getrandbits(g * (g + 3) // 2))


def test_sampler_cap_fits_its_chart_tables():
    # each table row holds the products (S c) << g | c, below 2^(2g), in
    # array('H') rows, so no genus above 8; and S is two byte-table lookups,
    # so its triangle, g(g+1)/2 bits, fits in 16 bits
    g = BRUTE_FORCE_GENUS_MAX
    assert g <= 8
    _, by_low, by_high, *_ = _chart_tables(g)
    assert len(by_low) <= 256 and len(by_high) <= 256
    assert len(by_low) * len(by_high) == 1 << (g * (g + 1) // 2)
    for row in by_low + by_high:
        assert isinstance(row, array) and row.typecode == "H" and len(row) == 1 << g
        assert max(row) < 1 << (2 * g) <= 1 << 16


def test_chart_tables_retain_under_256kb():
    # the tables of genus 4 and 5, their label tables included, built from
    # cold: a bound on what the sampler keeps for its speed
    _chart_tables.cache_clear()
    _labels.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _chart_tables(4), _chart_tables(5)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 256 * 1024


def _table_sizes():
    # the guards run inside these cached builders, which keep no refused genus
    return _chart_tables.cache_info().currsize, _vanish_tables.cache_info().currsize


class _NoDraws(Random):
    # a draw would loop forever on a zero-width range; fail instead
    def getrandbits(self, k):
        raise AssertionError("the sampler drew before refusing")


@pytest.mark.parametrize("g", [0, BRUTE_FORCE_GENUS_MAX + 1])
def test_sampler_refuses_bad_arguments_without_drawing(g):
    rng = _NoDraws(1)
    state = rng.getstate()
    sizes = _table_sizes()
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"supports genus 1\.\.{BRUTE_FORCE_GENUS_MAX}, "):
        random_orthogonal_tuple(rng, g)
    assert time.perf_counter() - start < 0.5
    assert rng.getstate() == state
    assert _table_sizes() == sizes


def _count_by_kernel(g, tup):
    # the lemma kept inline, from the kernel_f2 relation basis: 0 when a
    # relation has odd weight (weight parity is linear, so the basis rows
    # decide), else 2^(2g-1-rank)
    packed = [n.packed for n in tup]
    if not packed:
        return n_odd(g)
    rels = kernel_f2(packed)
    if any(r.bit_count() & 1 for r in rels):
        return 0
    return 1 << (2 * g - 1 - (len(packed) - len(rels)))


def test_count_vanishing_matches_kernel_route():
    # count_vanishing reads the relations off its own echelon; it must agree
    # with the count from the kernel_f2 relation basis on independent,
    # even-relation and odd-relation tuples alike
    branches = {"independent": 0, "even": 0, "odd": 0}
    cases = [(3, tup) for tup in orthogonal_tuples(3, 5)]
    for g in (4, 5):
        rng = Random(STREAM_SEED + g)
        cases += [(g, random_orthogonal_tuple(rng, g)) for _ in range(3000)]
    for g, tup in cases:
        assert count_vanishing(g, tup) == _count_by_kernel(g, tup)
        kernel = kernel_f2([n.packed for n in tup])
        if not kernel:
            branches["independent"] += 1
        else:
            branches["odd" if any(r.bit_count() & 1 for r in kernel) else "even"] += 1
    assert all(branches.values()), branches


def _oracle_mismatches(g, tuples):
    # criterion 3's comparison, reading count_vanishing at call time
    count = characteristics.count_vanishing
    return [tup for tup in tuples if count(g, tup) != brute_force_count(g, tup)]


def test_fault_in_the_counting_rule_the_class_reads_is_caught(monkeypatch):
    # fault B: +1 on every nonzero count of 5 labels.  boundary holds the
    # name too, and each stratum is memoized, the only memo that holds a
    # count, so both names are rebound and the strata cleared
    count = characteristics.count_vanishing

    def faulty(g, labels):
        c = count(g, labels)
        return c + 1 if c and len(labels) == 5 else c

    try:
        for module in (characteristics, boundary):
            monkeypatch.setattr(module, "count_vanishing", faulty)
        pipeline.stratum.cache_clear()
        # exhaustive at genus 3, yet blind there: two weight-4 relations on
        # 5 slots would sum to weight 2, so every 5-label count is 0
        assert not _oracle_mismatches(3, orthogonal_tuples(3, 5))
        for g in (4, 5):
            rng = Random(STREAM_SEED + g)
            assert _oracle_mismatches(g, [random_orthogonal_tuple(rng, g) for _ in range(2000)])
        # the class reads the same rule: only genus 5 has a stratum of degree 5
        conflicts = {g: [r for r in pipeline.compare_with_published(g) if r.status == "conflict"]
                     for g in range(2, 6)}
        assert [g for g, rows in conflicts.items() if rows] == [5]
    finally:
        monkeypatch.undo()
        pipeline.stratum.cache_clear()


def test_count_matches_brute_force_past_five_labels():
    # up to 2g labels per draw, so relation spaces on 6..10 slots too; the
    # sampler stops at DEGREE_MAX labels, so its reference draws these
    sizes, zeros = set(), 0
    for g in range(2, 6):
        rng = Random(STREAM_SEED + 10 * g)
        for _ in range(2000):
            tup = _reference_random_orthogonal_tuple(rng, g, 2 * g)
            count = count_vanishing(g, tup)
            assert count == brute_force_count(g, tup), tup
            sizes.add(len(tup))
            zeros += count == 0
    assert max(sizes) > 5 and zeros


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_vanish_tables_match_definition(g):
    size = 1 << (2 * g)
    masks, odd_mask = _vanish_tables(g)
    assert odd_mask == sum(1 << m for m in range(size) if _sigma_packed(m, g))
    assert len(masks) == size
    for n in range(size):
        acc = 0
        for m in range(size):
            if _sigma_packed(m ^ n, g) == 0:
                acc |= 1 << m
        assert masks[n] == acc


def test_random_tuple_shape():
    rng = Random(7)
    for g in range(1, 6):
        for _ in range(50):
            tup = random_orthogonal_tuple(rng, g)
            assert 1 <= len(tup) <= min(5, 2**g - 1)
            packed = [n.packed for n in tup]
            assert packed == sorted(set(packed))
            for a, b in itertools.combinations(tup, 2):
                assert symplectic_form(a, b) == 0


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_orth_masks_match_the_form(g):
    size = 1 << (2 * g)
    masks = _orth_masks(g)
    assert masks[0] == 0 and len(masks) == size
    for a in range(1, size):
        assert masks[a] == sum(1 << b for b in range(1, size) if _form_packed(a, b, g) == 0), a


@pytest.mark.parametrize("g", [1, 2, 3])
def test_orthogonal_sets_follow_their_prefixes(g):
    # boundary._orth_sets carries each set's span and relation space
    # forward from the set's prefix, so it needs every set of size k >= 2 to
    # come while its (k-1)-prefix is the most recent set of size k - 1
    last = {}
    sizes = set()
    for labels in _orthogonal_sets(g, 5):
        k = len(labels)
        if k >= 2:
            assert last[k - 1] == labels[:-1], labels
        last[k] = labels
        sizes.add(k)
    assert sizes == set(range(1, min(5, 2**g - 1) + 1))


def _orthogonal_sets_recursive(g, max_size):
    """The search as nested generators, one a level: each set's extensions
    by larger labels right after it, the reference for the stack walk."""
    masks = _orth_masks(g)

    def extend(chosen, candidates):
        b = candidates
        while b:
            low = b & -b
            n = low.bit_length() - 1
            b ^= low
            picked = chosen + (n,)
            yield picked
            if len(picked) < max_size:
                yield from extend(picked, candidates & masks[n] & ~((low << 1) - 1))

    return extend((), (1 << (1 << (2 * g))) - 2)


@pytest.mark.parametrize("g", [1, 2, 3])
@pytest.mark.parametrize("max_size", [1, 2, 3, 4, 5])
def test_orthogonal_sets_stack_walk_matches_the_recursive_search(g, max_size):
    # the same sets in the same order, which _orth_sets' carried relation
    # spaces and every registry's key order rely on
    assert list(_orthogonal_sets(g, max_size)) == list(_orthogonal_sets_recursive(g, max_size))


def brute_force_count_naive(g, labels):
    """Loop-and-test reference for the bitset implementation."""
    packed = [n.packed for n in labels]
    count = 0
    for m in range(1 << (2 * g)):
        if not _sigma_packed(m, g):
            continue
        if all(_sigma_packed(m ^ n, g) == 0 for n in packed):
            count += 1
    return count


@settings(max_examples=40)
@given(st.lists(st.integers(1, 63), min_size=0, max_size=4))
def test_brute_bitset_matches_naive(packs):
    g = 3
    labels = [label(g, p) for p in set(packs)]
    assert brute_force_count(g, labels) == brute_force_count_naive(g, labels)


def test_brute_force_genus_cap():
    sizes = _table_sizes()
    for g in (-1, 0, 6):
        with pytest.raises(ValueError, match=rf"^brute force supports genus 1\.\.5, not {g}$"):
            brute_force_count(g, [])
    assert _table_sizes() == sizes


@pytest.mark.parametrize("g", [-1, 0])
@pytest.mark.parametrize("name, call", [
    ("n_odd", n_odd),
    ("representative", lambda g: representative(EMPTY, g)),
    ("representative", lambda g: representative(make_type((1,) * 5, ()), g)),
    ("count_vanishing", lambda g: count_vanishing(g, ())),
    ("count_vanishing", lambda g: count_vanishing(g, [label(2, 0b0001)])),
])
def test_parity_count_refuses_genus_below_one(g, name, call):
    # refused before any label is read, with the genus and the range named
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"^{name} supports genus >= 1, not {g}$"):
        call(g)
    assert time.perf_counter() - start < 1
