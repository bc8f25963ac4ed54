"""Tests for theta characteristics, distinguished label sets, and parity counts."""

import copy
import hashlib
import itertools
import operator
import time
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from thetasing import (
    BoundaryLabel,
    Characteristic,
    NonOrthogonalError,
    brute_force_count,
    count_vanishing,
    enumerate_labels,
    enumerate_odd,
    symplectic_form,
    z_set,
)
from thetasing.bits import kernel_f2, rref_f2
from thetasing.boundary import all_types
from thetasing.characteristics import (
    EMPTY,
    ConfigType,
    _canonical_type,
    _form_packed,
    _labels,
    _sigma_packed,
    _swap_halves,
    _vanish_tables,
    brute_force_count_naive,
    count_from_pattern,
    make_type,
    orthogonal_tuples,
    random_orthogonal_tuple,
)
from thetasing.pipeline import ComparisonRow, load_boundary_relations

# criterion 3's seed, and the sha256 of the first 2000 (packed tuple, count)
# rows it gives per genus, recorded before the sampler was optimised
STREAM_SEED = 20260819
STREAM_SHA256 = {
    4: "b508fef66a55bcb412dc83f4691393eaf5118443808e9f48c99f13fcff8869e4",
    5: "3173c30eb1c5bc921f13afd00126a8d3b1755b333e2af7714469fa78aadf9f9b",
}


def label(g, packed):
    return BoundaryLabel.from_packed(g, packed)


def labels_strategy(g):
    return st.builds(lambda p: label(g, p), st.integers(1, (1 << (2 * g)) - 1))


# --- parity and the symplectic form ------------------------------------------

def test_odd_characteristic_counts():
    for g in range(1, 5):
        assert len(enumerate_odd(g)) == (1 << (g - 1)) * ((1 << g) - 1)


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
    chars = [Characteristic(g, e, d) for g, e, d in ((3, 2, 1), (2, 3, 0), (2, 1, 3), (3, 0, 7))]
    for values, fields in ((labels, operator.attrgetter("genus", "alpha", "beta")),
                           (chars, operator.attrgetter("genus", "eps", "delt")),
                           (types[::-1], operator.attrgetter("exps", "rels"))):
        assert sorted(values) == sorted(values, key=fields)
    rule = load_boundary_relations()[2][0]
    row = ComparisonRow((1, 0), (), Fraction(1), None)
    for value, name in ((labels[0], "alpha"), (chars[0], "eps"), (types[0], "rels"),
                        (rule, "genus"), (row, "engine")):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    with pytest.raises(ValueError, match=r"^characteristic halves must fit in g bits$"):
        Characteristic(2, 4, 0)
    with pytest.raises(ValueError, match=r"^label halves must fit in g bits$"):
        BoundaryLabel(2, 0, 4)
    with pytest.raises(ValueError, match=r"^boundary labels are nonzero$"):
        BoundaryLabel(2, 0, 0)
    assert repr(BoundaryLabel(3, 1, 2)) == "BoundaryLabel(genus=3, alpha=1, beta=2)"
    assert copy.deepcopy(labels) == labels
    assert labels[0]._replace(alpha=0) == BoundaryLabel(3, 0, 1)
    with pytest.raises(ValueError, match=r"^boundary labels are nonzero$"):
        labels[0]._replace(alpha=0, beta=0)


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
    total = (n1.parity + n2.parity + symplectic_form(n1, n2)) & 1
    assert (n1 + n2).parity == total


@given(labels_strategy(3), labels_strategy(3), labels_strategy(3))
def test_form_bilinear(a, b, c):
    if a.packed == b.packed:
        return
    lhs = symplectic_form(a + b, c)
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
        for m in enumerate_odd(g):
            zs = z_set(m)
            assert len(zs) == expected
            # the label with the same underlying vector as m belongs to the set
            assert BoundaryLabel.from_packed(g, m.packed) in zs


def test_z_set_requires_odd():
    with pytest.raises(ValueError):
        z_set(Characteristic(2, 0, 0))


def test_z_set_total_incidence():
    # sum over odd m of |z_set(m)| counts (odd, even-shift) incidences
    for g in (1, 2, 3):
        total = sum(len(z_set(m)) for m in enumerate_odd(g))
        assert total == ((1 << (2 * g)) - 1) * (1 << (2 * g - 2))


def test_z_set_spot_checks_high_genus():
    for g in (4, 5):
        m = enumerate_odd(g)[0]
        assert len(z_set(m)) == (1 << (2 * g - 1)) + (1 << (g - 1))


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


def test_count_rejects_bad_input():
    g = 2
    with pytest.raises(NonOrthogonalError):
        count_vanishing(g, [label(g, 0b0001), label(g, 0b0100)])
    with pytest.raises(ValueError):
        count_vanishing(g, [label(g, 0b0001), label(g, 0b0001)])
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
    # at a representative in the delta half, a Lagrangian, the labels have
    # exactly that type, and the count from the type equals the oracle's
    for packs, t in [
        ((1, 2, 4, 7), make_type((1,) * 4, [0b1111])),
        ((1, 2, 4, 7, 8), make_type((1,) * 5, [0b01111])),
    ]:
        assert make_type((1,) * len(packs), kernel_f2(packs)) == t
        for g in range(4, 6):
            labels = [label(g, p) for p in packs]
            assert count_from_pattern(g, t.nslots, t.rels) == brute_force_count(g, labels)



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
def test_wide_kernel_refused_fast(k):
    # an even relation space on k slots is counted without trying the k!
    # slot permutations, on every call
    rels = [0b1111, 0b1111 << (k - 4)]
    start = time.perf_counter()
    for _ in range(2):
        assert count_from_pattern(8, k, rels) == 1 << (15 - (k - 2))
    assert time.perf_counter() - start < 0.5


def test_count_from_pattern_unrealizable_rank():
    # rank exceeding g cannot come from pairwise-orthogonal labels
    assert count_from_pattern(5, 6, []) == 0


def test_count_from_pattern_takes_any_basis():
    # lists, tuples and non-reduced bases of one relation space agree
    assert count_from_pattern(3, 4, [0b1111]) == 1 << 2
    assert count_from_pattern(3, 4, (0b1111, 0b1111)) == 1 << 2
    assert count_from_pattern(3, 4, [0b0111]) == 0  # odd-weight relation
    rels = [0b001111, 0b111100]
    assert kernel_f2(SIX_LABELS_GENUS4) == rref_f2(rels)
    labels = [label(4, p) for p in SIX_LABELS_GENUS4]
    assert count_from_pattern(4, 6, rels) == brute_force_count(4, labels) == 8


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
    # the sampler as it was before its draws were inlined and its basis
    # lane-packed, kept verbatim as the reference for the rewrite
    mask = (1 << g) - 1
    size = 1 << (2 * g)
    basis = [1 << i for i in range(g)]  # the delta-side coordinate vectors
    for _ in range(12):
        v = rng.randrange(1, size)
        jv = ((v & mask) << g) | (v >> g)  # _swap_halves(v, g), inlined in the hot loop
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


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_sampler_matches_randrange_reference(g):
    # same tuples and the same generator state afterwards, so every later
    # draw from a shared generator is the same too
    for max_size in (1, 2, 3, 5, 7):
        for seed in range(3):
            rng, ref = Random(seed), Random(seed)
            for _ in range(200):
                assert random_orthogonal_tuple(rng, g, max_size) == \
                    _reference_random_orthogonal_tuple(ref, g, max_size)
            assert rng.getstate() == ref.getstate()


class _NoDraws(Random):
    # a draw would loop forever on a zero-width range; fail instead
    def getrandbits(self, k):
        raise AssertionError("the sampler drew before refusing")


@pytest.mark.parametrize("g, max_size, message", [
    (4, 0, "max_size must be at least 1"),
    (4, -3, "max_size must be at least 1"),
    (0, 5, "supports genus 1..8"),
    (9, 5, "supports genus 1..8"),
])
def test_sampler_refuses_bad_arguments_without_drawing(g, max_size, message):
    rng = _NoDraws(1)
    state = rng.getstate()
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        random_orthogonal_tuple(rng, g, max_size)
    assert time.perf_counter() - start < 0.5
    assert rng.getstate() == state


def _count_by_kernel(g, tup):
    packed = [n.packed for n in tup]
    return count_from_pattern(g, len(packed), kernel_f2(packed))


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


def test_count_matches_brute_force_past_five_labels():
    # up to 2g labels per draw, so relation spaces on 6..10 slots too
    sizes, zeros = set(), 0
    for g in range(2, 6):
        rng = Random(STREAM_SEED + 10 * g)
        for _ in range(2000):
            tup = random_orthogonal_tuple(rng, g, 2 * g)
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
    for _ in range(50):
        tup = random_orthogonal_tuple(rng, 5)
        assert 1 <= len(tup) <= 5
        assert len({n.packed for n in tup}) == len(tup)
        for a, b in itertools.combinations(tup, 2):
            assert symplectic_form(a, b) == 0


@settings(max_examples=40)
@given(st.lists(st.integers(1, 63), min_size=0, max_size=4))
def test_brute_bitset_matches_naive(packs):
    g = 3
    labels = [label(g, p) for p in set(packs)]
    assert brute_force_count(g, labels) == brute_force_count_naive(g, labels)


def test_brute_force_genus_cap():
    with pytest.raises(ValueError):
        brute_force_count(6, [])
