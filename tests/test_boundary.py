"""Tests for configuration types, named classes, products, and the identity ledger."""

import gc
import hashlib
import itertools
import re
import sys
import time
import tracemalloc
from array import array
from fractions import Fraction
from functools import lru_cache, reduce
from math import factorial, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from thetasing import (
    BoundaryLabel,
    DegreeOverflowError,
    InfeasibleBasisError,
    all_types,
    canonical_config,
    change_basis,
    check_identity,
    expand_named,
    expand_word,
    expand_zm_power,
    load_identities,
    n_odd,
    product,
    pushforward_level2,
)
from thetasing.boundary import (
    DEFAULT_TARGETS,
    EMPTY,
    NAMED_CLASSES,
    BoundaryPoly,
    Identity,
    _CONCRETE_MEMO,
    _decode,
    _expand_factor,
    _orth_sets,
    _parse_expr,
    _registry,
    concrete_expr,
    convolve,
    expand_expr,
    expr_degree,
    instantiate,
    make_type,
    normalize_word,
    parse_identity,
    value_at,
    word_sort_key,
)
from thetasing import boundary, characteristics, pipeline
from thetasing.bits import kernel_f2, rref_f2, span_f2
from thetasing.characteristics import _form_packed, orthogonal_tuples
from thetasing.exactla import add_into, rank
from thetasing.pipeline import RewriteRule, load_boundary_relations


def cfg(*exps, rels=()):
    return make_type(exps, rels)


def F(a, b=1):
    return Fraction(a, b)


# --- type inventory ------------------------------------------------------------

def test_type_counts_by_degree():
    assert [len(all_types(d)) for d in range(6)] == [1, 1, 2, 4, 8, 16]


def test_degree_cap():
    with pytest.raises(DegreeOverflowError):
        all_types(6)


def test_make_type_sorts_exponents():
    t = make_type((1, 3, 2), ())
    assert t.exps == (3, 2, 1)
    assert t.degree == 6 and t.nslots == 3 and t.rank == 3


def test_make_type_rejects_nonpositive():
    with pytest.raises(ValueError):
        make_type((1, 0), ())


@settings(max_examples=150)
@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=4),
    st.lists(st.integers(0, 15), min_size=0, max_size=2),
    st.randoms(use_true_random=False),
)
def test_make_type_permutation_invariant(exps, rows, rnd):
    k = len(exps)
    rows = [r & ((1 << k) - 1) for r in rows]
    perm = list(range(k))
    rnd.shuffle(perm)
    permuted_exps = [exps[perm[i]] for i in range(k)]
    # move slot perm[i] of the original to slot i of the permuted monomial
    permuted_rows = []
    for r in rows:
        out = 0
        for i in range(k):
            if r >> perm[i] & 1:
                out |= 1 << i
        permuted_rows.append(out)
    assert make_type(exps, rows) == make_type(permuted_exps, permuted_rows)


# --- canonical_config as a complete invariant ----------------------------------

def _symplectic_group_genus2():
    """All of Sp(4, F_2) as permutations of packed labels, built by closure."""
    g, size = 2, 16
    gens = []
    for v in range(1, size):
        gens.append(tuple(x ^ (v if _form_packed(x, v, g) else 0) for x in range(size)))
    identity = tuple(range(size))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for t in gens:
                q = tuple(t[p[x]] for x in range(size))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def test_canonical_config_is_complete_invariant_genus2():
    # two concrete monomials have the same type exactly when a symplectic
    # transformation carries one to the other
    g = 2
    group = _symplectic_group_genus2()
    assert len(group) == 720
    type_of = {}
    orbit_of = {}
    for tup in orthogonal_tuples(g, 3):
        packed = [n.packed for n in tup]
        k = len(packed)
        for exps in itertools.product((1, 2), repeat=k):
            if sum(exps) > 4:
                continue
            mono = tuple(zip(packed, exps))
            t = canonical_config(list(tup), list(exps))
            sig = frozenset(
                tuple(sorted((perm[p], e) for p, e in mono)) for perm in group
            )
            type_of[mono] = t
            orbit_of[mono] = sig
    by_type = {}
    by_orbit = {}
    for mono, t in type_of.items():
        by_type.setdefault(t, set()).add(orbit_of[mono])
        by_orbit.setdefault(orbit_of[mono], set()).add(t)
    assert all(len(sigs) == 1 for sigs in by_type.values())
    assert all(len(ts) == 1 for ts in by_orbit.values())


def test_canonical_config_zero_and_errors():
    g = 2
    a = BoundaryLabel.from_packed(g, 0b0001)
    b = BoundaryLabel.from_packed(g, 0b0100)  # <a, b> = 1
    c = BoundaryLabel.from_packed(g, 0b0010)
    assert canonical_config([a, b], [1, 1]) is None
    assert canonical_config([a, c], [1, 1]) == cfg(1, 1)
    assert canonical_config([], []) == EMPTY
    with pytest.raises(ValueError):
        canonical_config([a, a], [1, 1])
    with pytest.raises(ValueError):
        canonical_config([a], [1, 2])
    with pytest.raises(ValueError):
        canonical_config([a], [0])


def test_canonical_config_weight_three_relation():
    g = 2
    packs = (0b0001, 0b0010, 0b0011)
    labels = [BoundaryLabel.from_packed(g, p) for p in packs]
    assert canonical_config(labels, [1, 1, 1]) == cfg(1, 1, 1, rels=(0b111,))


# --- named classes --------------------------------------------------------------

def test_named_class_shapes():
    assert expand_named("sigma1", 3) == BoundaryPoly(1, {cfg(1): F(1)})
    assert expand_named("beta3", 3) == BoundaryPoly(3, {cfg(1, 1, 1): F(1)})
    assert expand_named("Y", 4) == BoundaryPoly(
        4, {cfg(1, 1, 1, 1, rels=(0b1111,)): F(1)}
    )


def test_named_class_realizability_filter():
    # every A-pattern has rank 3 or more, hence dies at genus 2
    assert expand_named("A", 2).is_zero()
    # at genus 3 only the rank-3 member survives
    a3 = expand_named("A", 3)
    assert len(a3.coeffs) == 1
    assert set(a3.coeffs.values()) == {F(1)}
    # at genus 5 the five canonical five-slot types all appear once
    s5 = expand_named("sigma5", 5)
    assert len(s5.coeffs) == 5
    assert set(s5.coeffs.values()) == {F(1)}


def test_named_class_unknown():
    # sigma0 would be the unit class and sigma01 a second spelling of sigma1
    for name in ("Q", "sigma0", "beta0", "sigma01", "beta05"):
        with pytest.raises(KeyError):
            expand_named(name, 3)
    with pytest.raises(DegreeOverflowError):
        expand_named("sigma7", 3)


def test_named_classes_expand_with_coefficient_one():
    # the concrete factor chains carry no denominator because of this
    for name in NAMED_CLASSES:
        for g in range(1, 6):
            assert set(expand_named(name, g).coeffs.values()) <= {F(1)}, (name, g)


# sha256 of every named class at genus 1..5 and of the type inventory, recorded
# before the named classes were written as ledger literals
NAMED_CLASSES_SHA256 = "6519146a9819e51b61ff8bf8910ec7d48ac8c54d884a6bcd3b1c4f255ce9dd8c"
ALL_TYPES_SHA256 = "018c987c0fe88067ccffdbc92bfe8c9d62d118b7040188ce2c3d2f6df40acafa"


def test_named_classes_are_pinned():
    text = "".join(f"{n} {g} {expand_named(n, g)!r}\n" for n in NAMED_CLASSES for g in range(1, 6))
    assert hashlib.sha256(text.encode()).hexdigest() == NAMED_CLASSES_SHA256


def test_type_inventory_is_pinned():
    text = repr([all_types(d) for d in range(6)])
    assert hashlib.sha256(text.encode()).hexdigest() == ALL_TYPES_SHA256


@pytest.mark.parametrize("g", range(1, 6))
@pytest.mark.parametrize("name, exps", [(f"sigma{k}", "1" + ",1" * (k - 1)) for k in range(1, 6)]
                         + [("A", "1,1,1,1,1"), ("B", "2,1,1,1"), ("C", "2,2,1"), ("D", "3,1,1")]
                         + [("B", "1,1,2,1"), ("C", "1,2,2"), ("D", "1,3,1")])
def test_any_literal_counts_each_type_once(name, exps, g):
    # any(1,1,1,1) used to count a type once per raw relation space reaching
    # it; exponents out of order must reach every orbit all the same
    assert expand_expr(_parse_expr(f"any({exps})"), g) == expand_named(name, g)


def test_cfg_literal_of_impossible_relation_is_zero():
    # two distinct labels never sum to zero, so the class is empty
    assert expand_expr(_parse_expr("cfg(1,1; 1 2)"), 3).is_zero()
    assert expand_expr(_parse_expr("cfg(1,1,1,1; 1 2 3 | 2 3 4)"), 5).is_zero()


# --- products --------------------------------------------------------------------

def test_square_of_sigma1():
    s1 = expand_named("sigma1", 3)
    sq = product(s1, s1, 3)
    assert sq == BoundaryPoly(2, {cfg(2): F(1), cfg(1, 1): F(2)})
    # at genus 1 no orthogonal pair of distinct labels exists
    sq1 = product(expand_named("sigma1", 1), expand_named("sigma1", 1), 1)
    assert sq1 == BoundaryPoly(2, {cfg(2): F(1)})


def test_product_degree_overflow():
    b3 = expand_named("beta3", 3)
    with pytest.raises(DegreeOverflowError):
        product(b3, b3, 3)


def test_product_commutes():
    g = 3
    polys = [expand_named(n, g) for n in ("sigma1", "sigma2", "beta3")]
    for p, q in itertools.combinations(polys, 2):
        if p.degree + q.degree <= 5:
            assert product(p, q, g) == product(q, p, g)


def test_product_matches_concrete_convolution():
    g = 2
    p = expand_named("sigma1", g)
    q = expand_named("sigma2", g)
    symbolic = instantiate(product(p, q, g), g)
    concrete = convolve(instantiate(p, g), instantiate(q, g), g)
    assert symbolic == concrete


# --- concrete verifier -------------------------------------------------------------

def naive_convolve(d1, d2, g):
    """All-pairs reference: multiply every pair of keys whose labels are
    pairwise orthogonal, summing exponents of shared labels."""
    out = {}
    for k1, c1 in d1.items():
        for k2, c2 in d2.items():
            if any(_form_packed(p, q, g) for p, _ in k1 for q, _ in k2):
                continue
            merged = dict(k1)
            for p, e in k2:
                merged[p] = merged.get(p, 0) + e
            key = tuple(sorted(merged.items()))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {k: v for k, v in out.items() if v}


ORTHOGONAL_SETS = {
    g: [tuple(sorted(n.packed for n in tup)) for tup in orthogonal_tuples(g, 3)]
    for g in (2, 3)
}


# one monomial for each of about 25 orthogonal sets, exponents 1, 2, 1, ...
ORTHOGONAL_SETS_KEYS = {
    g: [tuple((p, 1 + i % 2) for i, p in enumerate(labels)) for labels in sets[::len(sets) // 24]]
    for g, sets in ORTHOGONAL_SETS.items()
}


@st.composite
def concrete_dicts(draw, g):
    """Small concrete monomial dictionaries with Fraction values, integral or not."""
    out = {}
    for _ in range(draw(st.integers(0, 8))):
        labels = draw(st.sampled_from(ORTHOGONAL_SETS[g]))
        exps = draw(st.lists(st.integers(1, 3), min_size=len(labels), max_size=len(labels)))
        value = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
        out[tuple(zip(labels, exps))] = value
    return out


def pack(key):
    """A sorted ((label, exponent), ...) monomial as the registry's int key,
    one product a key, independent of the registry's slot-wise encoder."""
    return prod(boundary._PRIMES[p] ** e for p, e in key)


def _convolve_both_ways(d1, d2, g):
    """convolve on packed keys, decoded, and the all-pairs reference."""
    packed = convolve(*({pack(k): c for k, c in d.items()} for d in (d1, d2)), g)
    return {_decode(k): c for k, c in packed.items()}, naive_convolve(d1, d2, g)


@settings(max_examples=200)
@given(st.data())
def test_convolve_matches_all_pairs_reference(data):
    g = data.draw(st.sampled_from((2, 3)))
    d1 = data.draw(concrete_dicts(g))
    d2 = data.draw(concrete_dicts(g))
    got, expected = _convolve_both_ways(d1, d2, g)
    assert got == expected


def test_convolve_is_exact_where_an_exponent_field_would_carry():
    # label 1 at exponent 4, squared: a 3-bit exponent field would carry
    # into label 2's; a product of prime powers cannot
    d = {((1, 4),): F(1)}
    got, expected = _convolve_both_ways(d, d, 3)
    assert got == expected == {((1, 8),): F(1)}


@pytest.mark.parametrize("g", (2, 3))
def test_convolve_with_the_empty_monomial(g):
    # key 1 has no labels: its span mask is -1 and it sits under bit 0 of
    # the least-label index, compatible with every class
    d = {key: F(i + 1, 2) for i, key in enumerate(ORTHOGONAL_SETS_KEYS[g])}
    for d1, d2 in (({(): F(3)}, d), (d, {(): F(-2)}), ({(): F(1, 3)}, {(): F(3)}),
                   ({(): F(1), **d}, {(): F(-1), **d})):
        got, expected = _convolve_both_ways(d1, d2, g)
        assert got == expected and got


@pytest.mark.parametrize("g", (2, 3))
def test_convolve_visits_each_class_under_a_shared_least_label(g):
    # d2 holds the spans of {a} and of {a, q}, both under least label a; d1's
    # one label r is orthogonal to a but not to q, so its mask holds a yet
    # only the first class is compatible with it
    masks = characteristics._orth_masks(g)
    a = 1
    q, r = next((q, r) for q in range(a + 1, len(masks)) for r in range(a + 1, len(masks))
                if masks[a] >> q & masks[a] >> r & 1 and not masks[r] >> q & 1)
    d1 = {((r, 1),): F(5, 3)}
    # one value, so both classes pass in one call; the incompatible class
    # comes first, so a visit that stops there misses the other
    d2 = dict.fromkeys((((a, 1), (q, 1)), ((a, 1),), ((a, 2),)), F(2))
    got, expected = _convolve_both_ways(d1, d2, g)
    assert got == expected == {((a, 1), (r, 1)): F(10, 3), ((a, 2), (r, 1)): F(10, 3)}
    # the lookup itself against a plain filter over all classes, at every
    # span mask of d1 and, at genus 3, of the ledger product sigma2 * sigma2
    spans = [(boundary._span_classes(((pack(k), 1) for k in d), masks) for d in (d1, d2))]
    if g == 3:
        chain = next(tuple(sorted(fs)) for i in load_identities() if i.name == "sigma2-squared"
                     for _, fs in i.lhs)
        spans.append(tuple(boundary._factor_spans(f, g) for f in chain))
    for spans1, spans2 in spans:
        lookup = boundary._compatible(spans2)
        for m1 in spans1:
            found = lookup(m1)
            plain = {m: (t, list(terms)) for m, (t, terms) in spans2.items() if m1 & t == t}
            assert len(found) == len(plain) and {m: (t, keys) for m, t, keys in found} == plain


@pytest.mark.parametrize("g", (2, 3))
def test_convolve_splits_the_second_operand_by_value(g):
    # repeated non-unit values: each value's keys pass as one unit class
    keys = ORTHOGONAL_SETS_KEYS[g]
    d1 = {key: F(i - 2, 3) for i, key in enumerate(keys[::2])}
    values = (-3, F(7, 4), -3, F(7, 4), 1, -3)
    d2 = {key: values[i % len(values)] for i, key in enumerate(keys[1::2])}
    got, expected = _convolve_both_ways(d1, d2, g)
    assert got == expected and got


def test_registry_refuses_degree_above_max():
    with pytest.raises(DegreeOverflowError):
        _registry(3, 6)
    # no type has a negative degree, so such a polynomial has no monomial
    assert instantiate(BoundaryPoly(-1), 3) == {}


def test_registry_types_match_canonical_config():
    for g, max_degree in ((2, 5), (3, 3)):
        for d in range(max_degree + 1):
            for t, keys in _registry(g, d).items():
                for key in map(_decode, keys):
                    labels = [BoundaryLabel.from_packed(g, p) for p, _ in key]
                    assert canonical_config(labels, [e for _, e in key]) == t, key


def test_decode_inverts_every_genus3_registry_key():
    # each monomial of degree 0..5, packed here from its labels, decodes to
    # itself; the verifier decodes degrees 4 and 5 only for their labels
    sets = list(characteristics._orthogonal_sets(3, boundary.DEGREE_MAX))
    total = 0
    for d in range(boundary.DEGREE_MAX + 1):
        monomials = [()] if d == 0 else [
            tuple(zip(labels, exps)) for labels in sets if len(labels) <= d
            for exps in boundary._compositions(d, len(labels))]
        expected = {pack(m): m for m in monomials}
        keys = [key for keys in _registry(3, d).values() for key in keys]
        assert sorted(keys) == sorted(expected), d
        for key in keys:
            assert _decode(key) == expected[key], (d, key)
        total += len(keys)
    assert total == 77176
    # an exponent above DEGREE_MAX, as a product of two keys carries it
    assert _decode(pack(((1, 8), (63, 6)))) == ((1, 8), (63, 6))


def test_convolve_refuses_a_key_that_is_no_monomial():
    # a foreign prime used to be dropped from the span test, a negative key
    # misread and a label of a higher genus raised IndexError; key 0 made
    # _decode divide by 2 forever, so the 0 cases come last
    for d1, d2, g, message in [
        ({2 * 311: 1}, {3: 1}, 3, "key 622 is not a monomial: factor 311 is no label's prime"),
        ({3: 1}, {2 * 311: 1}, 3, "key 622 is not a monomial: factor 311 is no label's prime"),
        ({-2: 1}, {3: 1}, 3, "key -2 is not a monomial: below 1"),
        ({53: 1}, {2: 1}, 2, "key 53 has label 16, above the last label 15"),
        ({3: 1}, {0: 1}, 3, "key 0 is not a monomial: below 1"),
        ({0: 1}, {3: 1}, 3, "key 0 is not a monomial: below 1"),
    ]:
        with pytest.raises(ValueError) as exc:
            convolve(d1, d2, g)
        assert str(exc.value) == message


def test_orth_sets_follow_orthogonal_tuples():
    # one search serves both: the size-k sets are the size-k tuples, grouped
    # by relation space, each group in search order
    for g in (1, 2, 3):
        tuples = [tuple(n.packed for n in tup) for tup in orthogonal_tuples(g, 5)]
        sets = _orth_sets(g)
        for k in range(1, 6):
            order = {t: i for i, t in enumerate(t for t in tuples if len(t) == k)}
            for rels, group in sets[k].items():
                assert [order[labels] for labels in group] == sorted(map(order.get, group))
                for labels in group:
                    assert rref_f2(rels) == kernel_f2(labels)
            assert sorted(labels for group in sets[k].values() for labels in group) == sorted(order)
            # the rows key the space canonically: one group per space
            spaces = [rref_f2(rels) for rels in sets[k]]
            assert len(spaces) == len(set(spaces)), (g, k)
    assert sum(len(group) for v in _orth_sets(3).values() for group in v.values()) == 12663


def test_orth_sets_reduce_no_relation_tuple(monkeypatch):
    # the search keys each group by the rows it closes, with no elimination
    calls = []
    monkeypatch.setattr(boundary, "rref_f2", lambda rows: calls.append(rows) or rref_f2(rows))
    _orth_sets(3)
    assert calls == []


def test_cold_ledger_line_builds_one_table_and_only_the_registries_it_fills(monkeypatch):
    # sigma1 is grouped from the genus-3 table, not from a registry, and the
    # degree-5 registry serves the line's single factors
    identity = next(i for i in load_identities() if i.name == "sigma1-fifth")
    boundary._label_sets.cache_clear()
    _registry.cache_clear()
    _CONCRETE_MEMO.clear()
    built = []
    registry = boundary._registry
    monkeypatch.setattr(boundary, "_registry", lambda g, d: built.append((g, d)) or registry(g, d))
    assert check_identity(identity, 3).concrete_ok
    assert boundary._label_sets.cache_info().misses == 1
    assert set(built) == {(3, 5)}


def _per_key_registry(g, degree):
    """The registry as one _type_of_key call per monomial, over the
    orthogonal sets in search order, each with its relation space."""
    sets_by_size = {k: [] for k in range(1, boundary.DEGREE_MAX + 1)}
    for labels in characteristics._orthogonal_sets(g, boundary.DEGREE_MAX):
        sets_by_size[len(labels)].append((labels, kernel_f2(labels)))
    index = {}
    if degree == 0:
        return {EMPTY: [pack(())]}
    for k, sets in sets_by_size.items():
        if k > degree:
            continue
        for assignment in boundary._compositions(degree, k):
            for labels, rels in sets:
                key = pack(tuple(zip(labels, assignment)))
                index.setdefault(boundary._type_of_key(assignment, rels), []).append(key)
    return index


def test_registry_matches_the_per_key_loop():
    # one type per (composition, relation space) gives every class the
    # monomials the per-key loop gives it, and no monomial two classes
    for g in (1, 2, 3):
        for d in range(6):
            index, expected = _registry(g, d), _per_key_registry(g, d)
            assert index.keys() == expected.keys(), (g, d)
            for t, keys in index.items():
                assert sorted(keys) == sorted(expected[t]), (g, d, t)
            keys = [key for keys in index.values() for key in keys]
            assert len(keys) == len(set(keys)), (g, d)


def test_registry_types_share_the_one_canonical_cache():
    # a concrete monomial's type is memoized once, by make_type's own cache
    assert boundary._type_of_key is characteristics._canonical_type


def test_registry_sizes_genus3():
    sizes = [sum(len(keys) for keys in _registry(3, d).values()) for d in range(6)]
    assert sizes == [1, 63, 1008, 6048, 19908, 50148]
    # a key of degree <= 5 on labels 1..63 is at most 307^5: a wider layout
    # coming back fails here
    assert all(key < 1 << 42 for d in range(6) for keys in _registry(3, d).values()
               for key in keys)


def _stabilizer_order(t):
    """The slot permutations within runs of equal exponents that map t's
    relation space onto itself."""
    k = t.nslots
    space = {reduce(lambda a, b: a ^ b, rows, 0)
             for n in range(len(t.rels) + 1) for rows in itertools.combinations(t.rels, n)}
    count = 0
    for perm in itertools.permutations(range(k)):
        if all(t.exps[perm[i]] == t.exps[i] for i in range(k)):
            count += space == {sum((v >> i & 1) << perm[i] for i in range(k)) for v in space}
    return count


@pytest.mark.parametrize("g", (1, 2, 3))
def test_registry_sizes_follow_the_orbit_count(g):
    # the ordered label tuples with t's relation space put independent,
    # pairwise orthogonal labels on the rank free slots (the i-th avoids the
    # span of the earlier ones inside their orthogonal complement) and fix
    # the rest; the run permutations act freely on those of t's whole orbit,
    # so a type has tuples / |Stab(t)| monomials, 0 above rank g
    for d in range(boundary.DEGREE_MAX + 1):
        index = _registry(g, d)
        assert set(index) <= set(all_types(d))
        for t in all_types(d):
            tuples = prod(2 ** (2 * g - i) - 2 ** i for i in range(t.rank))
            assert len(index.get(t, ())) * _stabilizer_order(t) == tuples, (g, d, t)


def _tuples_by_rank(g, k):
    """The ordered k-tuples of distinct, nonzero, pairwise-orthogonal labels
    at genus g by the rank of their span, one label at a time: after i
    labels of rank r, the next lies in the span (2^r - 1 - i choices) or is
    orthogonal to the span and outside it (2^(2g-r) - 2^r, rank r + 1)."""
    counts = {0: 1}
    for i in range(k):
        step = {}
        for r, n in counts.items():
            for rank, ways in ((r, 2 ** r - 1 - i), (r + 1, 2 ** (2 * g - r) - 2 ** r)):
                if ways > 0:
                    step[rank] = step.get(rank, 0) + n * ways
        counts = step
    return counts


@pytest.mark.parametrize("g", (1, 2, 3, 4, 5))
def test_all_ones_types_follow_the_tuple_recursion(g):
    # the recursion reads no type: k! orderings of each monomial of every
    # all-ones type (the orbit count) must give it rank by rank, so a type
    # missing from the inventory fails here at every genus, rank 4 and 5
    # included, which no genus-3 registry check reaches
    for k in range(1, boundary.DEGREE_MAX + 1):
        by_rank = {}
        for t in all_types(k):
            if t.exps == (1,) * k:
                tuples = prod(2 ** (2 * g - i) - 2 ** i for i in range(t.rank))
                stab = _stabilizer_order(t)
                assert tuples % stab == 0, (g, t)
                by_rank[t.rank] = by_rank.get(t.rank, 0) + factorial(k) * (tuples // stab)
        assert {r: n for r, n in by_rank.items() if n} == _tuples_by_rank(g, k), (g, k)


def test_factor_spans_match_span_classes_of_the_registry():
    # a single factor grouped from the label sets its keys were encoded
    # from, against the same registry keys grouped by decoding each one:
    # every ledger factor and every any(...) up to degree 5, the unit class
    # any() included
    factors = {f for identity in load_identities()
               for _, fs in identity.lhs + identity.rhs for f in fs}
    factors |= {("any", exps) for d in range(boundary.DEGREE_MAX + 1)
                for exps in boundary._partitions(d)}
    assert ("any", ()) in factors and ("name", "sigma1") in factors
    for g in (1, 2, 3):
        masks = characteristics._orth_masks(g)
        for f in sorted(factors):
            keys = [key for t in boundary._unit_types(f, g)
                    for key in _registry(g, t.degree).get(t, ())]
            expected = boundary._span_classes(zip(keys, itertools.repeat(1)), masks)
            got = boundary._factor_spans(f, g)
            assert got.keys() == expected.keys(), (g, f)
            for m, (t, terms) in got.items():
                assert terms == expected[m][1], (g, f, m)
                assert t in {sum(1 << p for p, _ in _decode(key)) for key in terms}, (g, f, m)


def test_factor_spans_share_the_registry_keys():
    # a single factor's keys are the registry's own int objects, not equal
    # copies: every ledger factor and every any(...) up to degree 5
    factors = {f for identity in load_identities()
               for _, fs in identity.lhs + identity.rhs for f in fs}
    factors |= {("any", exps) for d in range(boundary.DEGREE_MAX + 1)
                for exps in boundary._partitions(d)}
    for g in (1, 2, 3):
        registry = {key: key for d in range(boundary.DEGREE_MAX + 1)
                    for keys in _registry(g, d).values() for key in keys}
        keys = {f: [key for _, terms in boundary._factor_spans(f, g).values() for key in terms]
                for f in sorted(factors)}
        assert any(keys.values())
        for f, fkeys in keys.items():
            assert all(registry[key] is key for key in fkeys), (g, f)


def test_check_identity_first_difference_genus3():
    g = 3
    report = check_identity(parse_identity("wrong: sigma1^2 = 2*sigma2"), g)
    assert not report.concrete_ok and not report.symbolic_ok
    s1 = {_decode(k): c for k, c in instantiate(expand_named("sigma1", g), g).items()}
    left = naive_convolve(s1, s1, g)
    right = {_decode(k): 2 * c for k, c in instantiate(expand_named("sigma2", g), g).items()}
    first = min(k for k in left.keys() | right.keys() if left.get(k, 0) != right.get(k, 0))
    key, a, b = report.counterexample
    assert (key, a, b) == (first, left.get(first, F(0)), right.get(first, F(0)))
    assert type(a) is Fraction and type(b) is Fraction
    assert report.counterexample == (((1, 2),), F(1), F(0))


def test_check_identity_fractional_coefficients_genus3():
    # the ledger grammar has integer coefficients only; build the sides
    # directly so that both denominators differ from 1
    g = 3
    s1, s2 = ("name", "sigma1"), ("name", "sigma2")
    lhs = ((F(1, 2), (s1, s1)),)
    rhs = ((F(1, 2), (("cfg", (2,), ()),)), (F(1), (s2,)))
    assert check_identity(Identity("halves", lhs, rhs), g).concrete_ok
    wrong = ((F(1, 3), (("cfg", (2,), ()),)), (F(1), (s2,)))
    report = check_identity(Identity("thirds", lhs, wrong), g)
    assert not report.concrete_ok
    assert report.counterexample == (((1, 2),), F(1, 2), F(1, 3))


def test_check_identity_of_a_zero_difference():
    # a side of zero terms fits any degree; the symbolic side used to compare
    # BoundaryPoly(1, 0) with BoundaryPoly(0, 0) and fail
    report = check_identity(parse_identity("x: sigma1 - sigma1 = 0"), 3)
    assert report.concrete_ok and report.symbolic_ok and report.counterexample is None
    assert report.residual == BoundaryPoly(1)


@pytest.mark.parametrize("line, counterexample", [
    ("sq: any(1)^2 = cfg(2) + 2*any(1,1)", None),
    # a failing line reads its first difference through value_at, so the
    # two sides are not evaluated over the whole genus again
    ("sq: any(1)^2 = cfg(2) + any(1,1)", (((1, 1), (2, 1)), F(2), F(1))),
], ids=["holds", "fails"])
def test_check_identity_expands_the_difference_once(monkeypatch, line, counterexample):
    import thetasing.boundary as boundary

    calls = {"concrete_expr": 0, "expand_expr": 0}
    for name in calls:
        def counted(*args, _inner=getattr(boundary, name), _name=name):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(boundary, name, counted)
    # literals only, so no named class expands through expand_expr
    report = check_identity(parse_identity(line), 3)
    holds = counterexample is None
    assert report.concrete_ok is holds and report.symbolic_ok is holds
    assert report.counterexample == counterexample
    assert calls == {"concrete_expr": 1, "expand_expr": 1}


def test_check_identity_finds_its_least_monomial_without_decoding_every_key(monkeypatch):
    # sigma1^5 is nonzero at 50,148 keys of genus 3; the least one is found
    # by elimination, prime by prime, and only it is decoded
    calls = []

    def counted(key, _inner=boundary._decode):
        calls.append(key)
        return _inner(key)

    monkeypatch.setattr(boundary, "_decode", counted)
    report = check_identity(parse_identity("w: sigma1^5 = 0"), 3)
    assert report.counterexample == (((1, 1), (2, 1), (3, 1), (4, 1), (5, 1)), F(120), F(0))
    assert len(calls) <= 1


@given(st.lists(st.dictionaries(st.integers(1, 8), st.integers(1, 3), max_size=4),
                min_size=1, max_size=12))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_least_key_is_the_key_of_least_decode(monomials):
    # prefixes, repeated labels and unequal exponents at the first difference
    keys = {prod(boundary._PRIMES[p] ** e for p, e in m.items()) for m in monomials}
    assert _decode(boundary._least_key(keys)) == min(map(_decode, keys))


def test_check_identity_residual_is_the_symbolic_difference():
    g = 3
    ident = parse_identity("wrong: sigma1*sigma2 = 3*sigma3 + beta3")
    report = check_identity(ident, g)
    assert not report.concrete_ok and not report.symbolic_ok
    assert report.residual == expand_expr(ident.lhs, g) - expand_expr(ident.rhs, g)
    assert not report.residual.is_zero()


# --- value_at: a ledger expression at one concrete monomial ---------------------

def _raise(*args, **kwargs):
    raise AssertionError("value_at reached the type algebra")


@lru_cache(maxsize=None)
def _ledger_at_representatives():
    """{(g, line, t): ((lhs value, lhs coefficient), (rhs value, rhs coefficient))}
    for every bundled line, at genus 1-5, and every type t of the line's
    degree with rank <= g: each value read by value_at at representative(t, g)
    while product, _split_table, _induced and change_basis raise, and each
    coefficient read off expand_expr before they were rebound."""
    polys = {(g, i): (expand_expr(i.lhs, g), expand_expr(i.rhs, g))
             for g in range(1, 6) for i in load_identities()}
    table = {}
    with pytest.MonkeyPatch.context() as mp:
        for name in ("product", "_split_table", "_induced", "change_basis"):
            mp.setattr(boundary, name, _raise)
        expand_named.cache_clear()  # so the named classes expand with them raising
        for (g, identity), sides in polys.items():
            for t in all_types(expr_degree(identity.lhs + identity.rhs)):
                if t.rank <= g:
                    labels = characteristics.representative(t, g)
                    table[g, identity.name, t] = tuple(
                        (value_at(side, labels, t.exps, g), poly.coeffs.get(t, F(0)))
                        for side, poly in zip((identity.lhs, identity.rhs), sides))
    return table


def test_value_at_reads_the_ledger_without_the_type_algebra():
    table = _ledger_at_representatives()
    compared, nonzero = {}, {}
    for (g, name, t), ((lhs, lhs_coeff), (rhs, rhs_coeff)) in table.items():
        assert type(lhs) is Fraction and type(rhs) is Fraction
        assert lhs == lhs_coeff and rhs == rhs_coeff and lhs == rhs, (g, name, t.literal())
        compared[g] = compared.get(g, 0) + 2
        nonzero[g] = nonzero.get(g, 0) + (lhs != 0) + (rhs != 0)
    assert compared == {1: 36, 2: 168, 3: 348, 4: 456, 5: 480}
    assert nonzero == {1: 4, 2: 50, 3: 174, 4: 262, 5: 284}
    assert (sum(compared.values()), sum(nonzero.values())) == (1488, 774)


def test_vacuous_ledger_lines_by_genus():
    # a line is vacuous at genus g when both sides are 0 at every
    # representative; no line may be vacuous at every genus
    table = _ledger_at_representatives()
    names = {name for _, name, _ in table}
    vacuous = {g: sorted(name for name in names
                         if not any(lhs or rhs for (h, n, _), ((lhs, _), (rhs, _)) in table.items()
                                    if (h, n) == (g, name)))
               for g in range(1, 6)}
    assert [len(vacuous[g]) for g in range(1, 6)] == [16, 9, 2, 1, 0]
    assert vacuous[3] == ["beta5-refine", "sigma1-beta4"]
    assert vacuous[4] == ["beta5-refine"]
    assert not set.intersection(*map(set, vacuous.values()))


@pytest.mark.parametrize("g", [2, 3])
def test_value_at_matches_concrete_expr_on_the_ledger(g):
    # genus 2: every concrete monomial of a line's degree; genus 3: each
    # type's representative.  Each monomial as (key, support, exponents)
    identities = load_identities()
    degrees = {expr_degree(i.lhs + i.rhs) for i in identities}
    monomials = {}
    for d in degrees:
        if g == 2:
            decoded = [_decode(key) for keys in _registry(g, d).values() for key in keys]
        else:
            decoded = [tuple(zip((x.packed for x in characteristics.representative(t, g)), t.exps))
                       for t in all_types(d) if t.rank <= g]
        monomials[d] = [(pack(mono), [BoundaryLabel.from_packed(g, p) for p, _ in mono],
                         [e for _, e in mono]) for mono in decoded]
    compared = 0
    for identity in identities:
        for side in (identity.lhs, identity.rhs):
            den, nums = concrete_expr(side, g)
            for key, support, exps in monomials[expr_degree(identity.lhs + identity.rhs)]:
                assert value_at(side, support, exps, g) == F(nums.get(key, 0), den), \
                    (identity.name, g, key)
                compared += 1
    assert compared == {2: 9180, 3: 348}[g]


def test_value_at_refuses_bad_input_and_reads_zero_off_a_non_orthogonal_support():
    g = 2
    a = BoundaryLabel.from_packed(g, 0b0001)
    b = BoundaryLabel.from_packed(g, 0b0100)  # <a, b> = 1
    c = BoundaryLabel.from_packed(g, 0b0010)
    square = _parse_expr("sigma1^2")
    assert value_at(square, [a, c], [1, 1], g) == 2
    # a monomial of another degree has no factorization into the factors
    assert value_at(square, [a, c], [1, 2], g) == value_at(square, [a], [1], g) == 0
    zero = value_at(square, [a, b], [1, 1], g)
    assert zero == 0 and type(zero) is Fraction
    with pytest.raises(ValueError, match=r"^label of genus 2 at genus 3$"):
        value_at(square, [a, c], [1, 1], 3)
    with pytest.raises(ValueError, match=r"^label genus mismatch$"):
        value_at(square, [a, BoundaryLabel(3, 1, 0)], [1, 1], g)
    with pytest.raises(ValueError, match=r"^support and exponents must have equal length$"):
        value_at(square, [a, c], [2], g)
    for factor in (("cfg", (6,), ()), ("any", (1,) * 6)):
        with pytest.raises(DegreeOverflowError, match=r"^degree 6 exceeds 5$"):
            value_at(((F(1), (factor,)),), [a], [6], g)
        # a term of coefficient 0 is skipped, as expr_degree and concrete_expr skip it
        assert value_at(square + ((F(0), (factor,)),), [a, c], [1, 1], g) == 2


def reference_concrete_expr(expr, g):
    """Reference concrete value of a ledger expression: each term's whole
    chain product through convolve, scaled in with add_into, zeros dropped
    at the end."""
    den = lcm(*(coeff.denominator for coeff, _ in expr))
    out = {}
    for coeff, factors in expr:
        if coeff:
            value = {pack(()): 1}
            for f in sorted(factors):
                value = convolve(value, dict.fromkeys(instantiate(_expand_factor(f, g), g), 1), g)
            add_into(out, value, coeff.numerator * (den // coeff.denominator))
    return den, {k: c for k, c in out.items() if c}


def _difference(identity):
    return identity.lhs + tuple((-c, factors) for c, factors in identity.rhs)


def test_concrete_expr_matches_whole_products_genus2():
    for identity in load_identities():
        for side in (identity.lhs, identity.rhs, _difference(identity)):
            assert concrete_expr(side, 2) == reference_concrete_expr(side, 2), identity.name


def test_concrete_expr_matches_whole_products_on_the_ledger_genus3():
    identities = {identity.name: identity for identity in load_identities()}
    # lines of single-factor terms only, which take the per-type fill alone
    for name in ("sigma5-all", "beta5-refine", "quartic-sum-split"):
        identity = identities[name]
        assert all(len(factors) == 1 for _, factors in identity.lhs + identity.rhs), name
    for identity in identities.values():
        (den_l, left), (den_r, right) = (reference_concrete_expr(side, 3)
                                         for side in (identity.lhs, identity.rhs))
        assert concrete_expr(identity.lhs, 3) == (den_l, left), identity.name
        assert concrete_expr(identity.rhs, 3) == (den_r, right), identity.name
        # the difference's reference value, over the lcm of both sides' dens,
        # without expanding either side's products a second time
        den = lcm(den_l, den_r)
        diff = add_into(add_into({}, left, den // den_l), right, -(den // den_r))
        assert concrete_expr(_difference(identity), 3) == (den, diff), identity.name


def test_concrete_verifier_refuses_a_factor_coefficient_other_than_1(monkeypatch):
    # a factor's types are each read as one class with value 1, on their own
    # and as a factor of a product
    expand = boundary._expand_factor
    monkeypatch.setattr(boundary, "_expand_factor", lambda f, g: 2 * expand(f, g))
    _CONCRETE_MEMO.clear()
    for text in ("cfg(2)", "cfg(1)*cfg(1)"):
        with pytest.raises(ValueError, match=r"^factor .* expands with a coefficient other than 1$"):
            concrete_expr(_parse_expr(text), 3)
    assert not _CONCRETE_MEMO


def test_concrete_expr_matches_whole_products_genus3():
    g = 3
    s1, s2 = ("name", "sigma1"), ("name", "sigma2")
    lhs = ((F(1, 2), (s1, s1)),)
    halves = Identity("halves", lhs, ((F(1, 2), (("cfg", (2,), ()),)), (F(1), (s2,))))
    thirds = Identity("thirds", lhs, ((F(1, 3), (("cfg", (2,), ()),)), (F(1), (s2,))))
    zero = parse_identity("x: sigma1 - sigma1 = 0")
    for identity in (halves, thirds, zero):
        for side in (identity.lhs, identity.rhs, _difference(identity)):
            assert concrete_expr(side, g) == reference_concrete_expr(side, g), identity.name
    assert concrete_expr(_difference(halves), g) == (2, {})
    assert concrete_expr(_difference(zero), g) == (1, {})


def _memo_chains(identities):
    """The memo keys a pass over the lines should leave: each product term's
    factors in non-increasing degree, its prefixes below DEGREE_MAX (its
    single first factor included) and its last factor alone."""
    chains = set()
    for identity in identities:
        for coeff, factors in identity.lhs + identity.rhs:
            chain = boundary._chain_order(factors)
            if coeff and len(chain) > 1:
                chains.add(chain[-1:])
                chains |= {chain[:n] for n in range(1, len(chain) + 1)
                           if sum(map(boundary._factor_degree, chain[:n])) < boundary.DEGREE_MAX}
    return chains


def _assert_packed(val):
    """A memo value is Packed: each span's keys in an array('Q') below 2^42
    and its counts, none zero, in an array('q') of the same length."""
    for m, (t, keys, counts) in val.items():
        assert (type(keys), keys.typecode, type(counts), counts.typecode) == (array, "Q", array, "q")
        assert len(keys) == len(counts) and all(counts) and max(keys) < 1 << 42


def test_concrete_memo_keeps_factors_and_chains_below_degree5_genus3():
    # single factors and every chain below degree 5, its factors in
    # non-increasing degree, all packed; a degree-5 term's product is its
    # memoized prefix times its last factor, summed into its line and never
    # stored
    _CONCRETE_MEMO.clear()
    identities = load_identities()
    for identity in identities:
        assert check_identity(identity, 3).concrete_ok, identity.name
    assert set(_CONCRETE_MEMO) == {(3, chain) for chain in _memo_chains(identities)}
    s1, s2, s3, b3 = (("name", tag) for tag in ("sigma1", "sigma2", "sigma3", "beta3"))
    # the degree-4 products, each the prefix of a degree-5 line
    assert {(s1,) * 4, (s2, s2), (s2, s1, s1), (s3, s1), (b3, s1)} <= {
        chain for _, chain in _CONCRETE_MEMO}
    for g, chain in _CONCRETE_MEMO:
        degrees = [boundary._factor_degree(f) for f in chain]
        assert degrees == sorted(degrees, reverse=True) and sum(degrees) < 5, chain
        _assert_packed(_CONCRETE_MEMO[g, chain])


def test_memoized_products_are_never_decoded(monkeypatch):
    # every memo entry is kept grouped by span, and a single factor is
    # grouped from the label sets its keys were encoded from, so a cold
    # ledger pass factors no key (252 and 41,580 decodes with flat single
    # factors, 63 and 14,553 with single factors grouped by decoding)
    calls = [0]

    def counted(key):
        calls[0] += 1
        return _decode(key)

    monkeypatch.setattr(boundary, "_decode", counted)
    _CONCRETE_MEMO.clear()
    concrete_expr(_parse_expr("sigma1^4"), 3)
    assert calls[0] == 0
    _CONCRETE_MEMO.clear()
    identities = load_identities()
    assert len(identities) == 18
    for identity in identities:
        assert check_identity(identity, 3).concrete_ok, identity.name
    assert calls[0] == 0


def _flat(val):
    """A memo value as one {key: count} dictionary."""
    return {k: c for _, keys, counts in val.values() for k, c in zip(keys, counts)}


def test_memoized_products_match_convolve_and_their_spans():
    _CONCRETE_MEMO.clear()
    for g in (2, 3):
        for identity in load_identities():
            assert check_identity(identity, g).concrete_ok, identity.name
    products = [(g, chain) for g, chain in _CONCRETE_MEMO if len(chain) > 1]
    assert {g for g, _ in products} == {2, 3}
    for g, chain in products:
        masks = characteristics._orth_masks(g)
        groups = _CONCRETE_MEMO[g, chain]
        _assert_packed(groups)
        flat = _flat(groups)
        prefix, last = _CONCRETE_MEMO[g, chain[:-1]], _CONCRETE_MEMO[g, chain[-1:]]
        assert flat == convolve(_flat(prefix), _flat(last), g), chain
        assert sum(len(keys) for _, keys, _ in groups.values()) == len(flat)
        for m, (t, keys, counts) in groups.items():
            terms = dict(zip(keys, counts))
            assert boundary._span_classes(terms.items(), masks) == {m: (t, terms)}, chain


def test_memoized_product_guards_the_exponent_field_genus2():
    # a chain above DEGREE_MAX is refused by its degree, as product() refuses
    # it, before any factor is grouped or multiplied
    _CONCRETE_MEMO.clear()
    for text, degree in (("cfg(2)*cfg(2)*cfg(4)", 8), ("cfg(1)*cfg(2)*cfg(4)", 7)):
        with pytest.raises(DegreeOverflowError, match=rf"^product degree {degree} exceeds 5$"):
            concrete_expr(_parse_expr(text), 2)
        with pytest.raises(DegreeOverflowError, match=rf"^product degree {degree} exceeds 5$"):
            expand_expr(_parse_expr(text), 2)
    assert not _CONCRETE_MEMO
    expr = _parse_expr("cfg(1)*cfg(2)*cfg(2)")
    den, nums = concrete_expr(expr, 2)
    assert (den, nums) == reference_concrete_expr(expr, 2) and len(nums) == 240
    # ordered by degree, cfg(1) last: the degree-4 prefix is stored packed,
    # with its factors and the last one, and the degree-5 product nowhere
    c1, c2 = ("cfg", (1,), ()), ("cfg", (2,), ())
    assert set(_CONCRETE_MEMO) == {(2, (c2,)), (2, (c2, c2)), (2, (c1,))}
    for val in _CONCRETE_MEMO.values():
        _assert_packed(val)
    # a label squared twice has exponent 4, an exponent the key carries exactly
    assert {_decode(k) for k in _flat(_CONCRETE_MEMO[2, (c2, c2)])} >= {((1, 4),)}


def test_concrete_memo_retained_by_a_cold_genus3_ledger_pass():
    # what the verifier keeps between lines, the memo and its factor
    # lookups, as the memory tracemalloc sees freed when both are cleared:
    # about 2.4 MB packed, 4.8 MB when each product was a dict of int keys
    identities = load_identities()
    boundary._label_sets(3)  # the tables are kept either way; not measured
    _CONCRETE_MEMO.clear()
    boundary._factor_lookup.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        for identity in identities:
            concrete_expr(_difference(identity), 3)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
        _CONCRETE_MEMO.clear()
        boundary._factor_lookup.cache_clear()
        gc.collect()
        retained = kept - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 3.6e6


@pytest.mark.parametrize("g", [-1, 0])
@pytest.mark.parametrize("name, call", [
    ("expand_named", lambda g: expand_named("sigma1", g)),
    ("expand_named", lambda g: expand_named("A", g)),
    ("expand_zm_power", lambda g: expand_zm_power(g, 0)),
    ("expand_zm_power", lambda g: expand_zm_power(g, 2)),
])
def test_expansion_refuses_genus_below_one(g, name, call):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"^{name} supports genus >= 1, not {g}$"):
        call(g)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("g", [-1, 0, 4, 6])
def test_check_identity_refuses_genus_outside_1_to_3(g):
    # refused before any registry is enumerated or any class expanded
    registry, named = _registry.cache_info(), expand_named.cache_info()
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"^check_identity supports genus 1\.\.3, not {g}$"):
        check_identity(parse_identity("x: sigma1^2 = cfg(2) + 2*cfg(1,1)"), g)
    assert time.perf_counter() - start < 1
    assert (_registry.cache_info(), expand_named.cache_info()) == (registry, named)


# --- structural expansion of powers ----------------------------------------------

def test_zm_power_degree_zero():
    for g in (1, 2, 3):
        assert expand_zm_power(g, 0) == BoundaryPoly(0, {EMPTY: F(n_odd(g))})


def test_zm_power_genus2():
    assert expand_zm_power(2, 1) == BoundaryPoly(1, {cfg(1): F(4)})
    assert expand_zm_power(2, 3) == BoundaryPoly(3, {cfg(3): F(4), cfg(2, 1): F(6)})


def test_zm_power_genus3():
    assert expand_zm_power(3, 3) == BoundaryPoly(
        3, {cfg(3): F(16), cfg(2, 1): F(24), cfg(1, 1, 1): F(24)}
    )
    y = cfg(1, 1, 1, 1, rels=(0b1111,))
    assert expand_zm_power(3, 4) == BoundaryPoly(
        4,
        {
            cfg(4): F(16),
            cfg(3, 1): F(32),
            cfg(2, 2): F(48),
            cfg(2, 1, 1): F(48),
            y: F(96),
        },
    )


def test_zm_power_y_coefficient_genus4():
    y = cfg(1, 1, 1, 1, rels=(0b1111,))
    assert expand_zm_power(4, 4).coeffs[y] == 24 * (1 << (2 * 4 - 4))


def test_zm_power_range():
    with pytest.raises(DegreeOverflowError):
        expand_zm_power(3, 6)


# --- change of basis and pushforward ----------------------------------------------

def test_pushforward_degree_one():
    assert pushforward_level2(expand_zm_power(3, 1), 3) == {("sigma1",): F(8)}


def test_pushforward_of_zm_powers_scales_by_4_per_genus():
    # no type of degree j has rank above j, so for j <= g the pushforward is
    # 4^(g - j) times its genus-j value; below g = j types drop out
    nonzero = {(g, j): {w: c for w, c in pushforward_level2(expand_zm_power(g, j), g).items() if c}
               for g in range(1, 6) for j in range(1, 6)}
    fails = {(g, j) for (g, j), v in nonzero.items()
             if v != {w: 4 ** (g - j) * c for w, c in nonzero[j, j].items()}}
    assert fails == {(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (1, 5), (2, 5), (3, 5), (4, 5)}
    assert [len(nonzero[j, j]) for j in range(1, 6)] == [1, 2, 4, 7, 15]


def test_pushforward_squares_class():
    # sum of delta_n^2 pushes to (sigma1^2 - 2 sigma2) / 4
    p = BoundaryPoly(2, {cfg(2): F(1)})
    out = pushforward_level2(p, 3)
    assert out[("sigma1", "sigma1")] == F(1, 4)
    assert out[("sigma2",)] == F(-1, 2)


def test_pushforward_triple_class():
    p = BoundaryPoly(3, {cfg(1, 1, 1): F(1)})
    out = pushforward_level2(p, 3)
    assert out[("beta3",)] == F(1, 8)
    assert all(c == 0 for w, c in out.items() if w != ("beta3",))


def test_change_basis_infeasible():
    p = BoundaryPoly(2, {cfg(2): F(1)})
    with pytest.raises(InfeasibleBasisError) as exc:
        change_basis(p, [("sigma2",)], 3)
    assert cfg(2) in exc.value.residual.coeffs
    # a nonzero solution: sigma2 is cfg(1,1) at genus 3, so x = 1 and the
    # residual is exactly p - 1 * sigma2, the lone cfg(2)
    sigma2 = expand_named("sigma2", 3)
    p = sigma2 + BoundaryPoly(2, {cfg(2): F(1)})
    with pytest.raises(InfeasibleBasisError) as exc:
        change_basis(p, [("sigma2",)], 3)
    assert exc.value.residual == p - sigma2 == BoundaryPoly(2, {cfg(2): F(1)})


def test_change_basis_reduces_once(monkeypatch):
    # the solution and, on failure, the residual come from one reduction of
    # the augmented system
    from thetasing import exactla

    calls = []
    reduce_rows = exactla.rref

    def counted(matrix, *pivot_cols):
        calls.append(len(matrix))
        return reduce_rows(matrix, *pivot_cols)

    monkeypatch.setattr(exactla, "rref", counted)
    out = change_basis(expand_zm_power(3, 2), DEFAULT_TARGETS[2], 3)
    assert out == {("sigma1", "sigma1"): F(16), ("sigma2",): F(-16)}
    assert len(calls) == 1
    calls.clear()
    with pytest.raises(InfeasibleBasisError):
        change_basis(BoundaryPoly(2, {cfg(2): F(1)}), [("sigma2",)], 3)
    assert len(calls) == 1


def test_target_words_are_independent():
    # for j <= g the degree-j target words are independent over the types of
    # genus g, so each stratum has exactly one word form
    assert [len(DEFAULT_TARGETS[j]) for j in range(1, 6)] == [1, 2, 4, 8, 15]
    for g in range(1, 6):
        for j in range(1, g + 1):
            expansions = [expand_word(normalize_word(w), g) for w in DEFAULT_TARGETS[j]]
            support = sorted({t for e in expansions for t in e.coeffs})
            matrix = [[e.coeffs.get(t, F(0)) for e in expansions] for t in support]
            assert rank(matrix) == len(expansions), (g, j)


def test_expand_word_empty():
    assert expand_word((), 3) == BoundaryPoly(0, {EMPTY: F(1)})


def _cold():
    """Clear every functools cache of the thetasing modules."""
    for name, mod in list(sys.modules.items()):
        if name == "thetasing" or name.startswith("thetasing."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def test_shared_word_expansions_equal_the_unshared_fold():
    # genus-capped, prefix-sharing expansions against a plain left fold of
    # the factors at each genus, below the word's degree (where the rank
    # filter cuts types) as well as above it
    _cold()
    words = sorted({normalize_word(w) for ws in DEFAULT_TARGETS.values() for w in ws})
    for g in range(1, 6):
        assert expand_word((), g) == BoundaryPoly(0, {EMPTY: F(1)})
        for w in words:
            folded = reduce(lambda p, q: product(p, q, g), [expand_named(t, g) for t in w])
            assert expand_word(w, g) == folded, (w, g)


def _split_table_reference(t):
    """The split table with both factors of each splitting induced apart."""
    counts = {}
    for bvec in itertools.product(*(range(e + 1) for e in t.exps)):
        cvec = tuple(e - b for e, b in zip(t.exps, bvec))
        t1 = boundary._induced(t, tuple(i for i, b in enumerate(bvec) if b > 0),
                               tuple(b for b in bvec if b > 0))
        t2 = boundary._induced(t, tuple(i for i, c in enumerate(cvec) if c > 0),
                               tuple(c for c in cvec if c > 0))
        counts[(t1, t2)] = counts.get((t1, t2), 0) + 1
    return tuple((t1, t2, n) for (t1, t2), n in counts.items())


def test_split_table_matches_its_per_splitting_reference():
    for d in range(1, 6):
        for t in all_types(d):
            assert boundary._split_table(t) == _split_table_reference(t), t


# every type of degree 0-5; each has at most 5 slots, so rank <= 5, and a
# split table does not depend on the genus, so genus 5 reaches every entry
SPLIT_GENUS = 5
SPLIT_TYPES = [t for d in range(6) for t in all_types(d)]


def _split_entry_mismatches():
    """The types whose split table differs from the values at real labels:
    each entry (t1, t2, n) of _split_table(t) is the value of cfg(t1) *
    cfg(t2) at representative(t, 5), read by value_at, which never calls
    _induced; and the n add up to the number of splittings, so no entry is
    missing."""
    bad = []
    for t in SPLIT_TYPES:
        labels = characteristics.representative(t, SPLIT_GENUS)
        table = boundary._split_table(t)
        values = [value_at(((F(1), (("cfg", *t1), ("cfg", *t2))),), labels, t.exps, SPLIT_GENUS)
                  for t1, t2, _ in table]
        if (values != [n for _, _, n in table]
                or sum(values) != prod(e + 1 for e in t.exps)):
            alphas = " ".join(str(label.alpha) for label in labels)
            bad.append(f"{t.literal()} at genus-{SPLIT_GENUS} labels alpha {alphas}, beta 0")
    return bad


def test_split_table_entries_match_the_types_of_real_labels():
    assert len(SPLIT_TYPES) == 32
    assert sum(len(boundary._split_table(t)) for t in SPLIT_TYPES) == 249
    assert _split_entry_mismatches() == []


@pytest.fixture
def fault_i(monkeypatch):
    """_induced drops every induced relation of weight 4; the memos that
    hold split tables are cleared on the way in and on the way out."""
    induced = boundary._induced

    def drop_weight_four(t, slots, exps):
        sub = induced(t, slots, exps)
        return make_type(sub.exps, [v for v in span_f2(sub.rels) if v.bit_count() not in (0, 4)])

    memos = (boundary._split_table, boundary.expand_word, pipeline.stratum)
    for memo in memos:
        memo.cache_clear()
    monkeypatch.setattr(boundary, "_induced", drop_weight_four)
    yield
    monkeypatch.undo()
    for memo in memos:
        memo.cache_clear()


def test_fault_in_induced_is_caught_by_the_entry_check_only(fault_i):
    # the per-splitting reference calls the same _induced, so it is a self-pin
    bad = _split_entry_mismatches()
    assert len(bad) == 4 and bad[0].startswith("cfg(1,1,1,1; 1 2 3 4) at "), bad
    for t in SPLIT_TYPES:
        assert boundary._split_table(t) == _split_table_reference(t), t


@pytest.mark.parametrize("g", [3, 4, 5])
def test_product_is_associative_and_has_a_unit(g):
    singles = [BoundaryPoly(t.degree, {t: F(1)}) for d in (1, 2, 3) for t in all_types(d)]
    triples = [(p, q, r) for p, q, r in itertools.product(singles, repeat=3)
               if p.degree + q.degree + r.degree <= 5]
    assert len(triples) == 31
    for p, q, r in triples:
        assert product(product(p, q, g), r, g) == product(p, product(q, r, g), g), (p, q, r)
    unit = BoundaryPoly(0, {EMPTY: F(1)})
    for t in SPLIT_TYPES:
        if t.rank <= g:
            p = BoundaryPoly(t.degree, {t: F(1)})
            assert product(unit, p, g) == p == product(p, unit, g), t


def test_each_word_prefix_is_multiplied_once(monkeypatch):
    # every class g = 2..5 multiplies each distinct prefix of two or more
    # factors of a target word once: not once per genus, not once per word
    _cold()
    calls = []
    multiply = boundary.product

    def counted(p, q, g):
        calls.append(g)
        return multiply(p, q, g)

    monkeypatch.setattr(boundary, "product", counted)
    for g in range(2, 6):
        pipeline.class_compactified(g)
    prefixes = {normalize_word(w)[:k] for ws in DEFAULT_TARGETS.values() for w in ws
                for k in range(2, len(w) + 1)}
    assert len(calls) == len(prefixes) == 16


def test_each_named_class_is_expanded_once(monkeypatch):
    # above its degree a named class expands as at its degree, so every
    # class g = 2..5 expands each (name, min(g, degree)) once: 14 values,
    # where one per (name, g) asked for would be 27
    _cold()
    values: dict[tuple[str, int], set[int]] = {}
    expand = boundary.expand_named

    def recorded(name, g):
        value = expand(name, g)
        key = (name, min(g, boundary._named(name)[1]))
        values.setdefault(key, set()).add(id(value))
        return value

    monkeypatch.setattr(boundary, "expand_named", recorded)
    for g in range(2, 6):
        pipeline.class_compactified(g)
    assert sum(map(len, values.values())) == len(values) == 14


# --- identity verification ---------------------------------------------------------

def test_verify_identity_catches_mismatch():
    report = check_identity(parse_identity("x: sigma2 = 2*sigma2"), 2)
    assert not report.concrete_ok and not report.symbolic_ok
    key, a, b = report.counterexample
    assert a == 1 and b == 2 and len(key) == 2


def test_verify_identity_accepts_equal():
    report = check_identity(parse_identity("x: sigma1^2 = cfg(2) + 2*cfg(1,1)"), 2)
    assert report.concrete_ok and report.symbolic_ok
    assert report.counterexample is None


def test_ledger_parses_and_holds_symbolically():
    # concrete enumeration is infeasible past genus 3, so compare the two
    # sides in the type basis only
    from thetasing.boundary import expand_expr

    identities = load_identities()
    assert len(identities) == 18
    names = [i.name for i in identities]
    assert len(set(names)) == 18
    for g in (4, 5):
        for identity in identities:
            lhs = expand_expr(identity.lhs, g)
            rhs = expand_expr(identity.rhs, g)
            assert lhs == rhs, (identity.name, g)


def test_ledger_holds_concretely_genus2():
    # full concrete check at the smallest genus where the registry is tiny
    for identity in load_identities():
        report = check_identity(identity, 2)
        assert report.concrete_ok, (identity.name, report.counterexample)
        assert report.symbolic_ok


# --- ledger and relation grammar ----------------------------------------------------

# sha256 of repr(load_identities()) for the bundled ledger, recorded before
# the two grammars were merged into one
BUNDLED_IDENTITIES_SHA256 = "6b6a718e4d2c744e06ddc35918841ceb1f89af757f04649decc974ab8040ddbf"
# the bundled word relations; keyed by genus 2 and each rule carrying genus=2,
# the value had the sha256 1784b0e2... recorded before the grammars merged
BUNDLED_RELATIONS = (
    RewriteRule(("sigma2",), ((F(6), (1, 0), ("sigma1",)),)),
    RewriteRule(("sigma1", "sigma1"),
                ((F(22), (1, 0), ("sigma1",)), (F(-120), (2, 0), ()))),
)


def test_bundled_data_parses_to_pinned_values():
    identities = repr(load_identities()).encode()
    assert hashlib.sha256(identities).hexdigest() == BUNDLED_IDENTITIES_SHA256
    assert repr(load_boundary_relations()) == repr(BUNDLED_RELATIONS)


def test_parse_identity_terms():
    ident = parse_identity("t: -2^3*sigma1^2*beta3 + cfg(2,2,1; 1 2 3) = 0*G - any(2,2,1)")
    assert ident == Identity("t", (
        (F(-8), (("name", "sigma1"), ("name", "sigma1"), ("name", "beta3"))),
        (F(1), (("cfg", (2, 2, 1), (0b111,)),)),
    ), ((F(0), (("name", "G"),)), (F(-1), (("any", (2, 2, 1)),))))
    # cfg(e;) has no relation
    assert parse_identity("n: cfg(1,1,1;) = cfg(1,1,1)") == Identity(
        "n", ((F(1), (("cfg", (1, 1, 1), ()),)),), ((F(1), (("cfg", (1, 1, 1), ()),)),))
    # a term with no class factor is a bare integer of degree 0
    assert parse_identity("z: 0 = 2 - 2") == Identity(
        "z", ((F(0), ()),), ((F(2), ()), (F(-2), ())))


@pytest.mark.parametrize("side", [
    "sigma1 +", "sigma1 -", "sigma1^", "sigma1 ^ +", "", "+", "sigma1 * * sigma2",
    "2 sigma1",
])
@pytest.mark.parametrize("route", ["parse_identity", "load_boundary_relations"])
def test_malformed_side_is_refused(tmp_path, route, side):
    if route == "parse_identity":
        with pytest.raises(ValueError) as exc:
            parse_identity(f"bad: {side} = sigma1")
    else:
        path = tmp_path / "relations.txt"
        path.write_text(f"genus=2: sigma2 = 6*lam1*sigma1\ngenus=2: sigma1^2 = {side}\n")
        with pytest.raises(ValueError) as exc:
            load_boundary_relations(str(path))
        assert "line 2 " in str(exc.value)
    assert repr(side) in str(exc.value)


def _write_side(terms, rng):
    """A side in the ledger grammar, a single space or none around every
    operator: terms are (sign, [((text, value), power or None), ...])."""
    def gap():
        return rng.choice(("", " "))
    out = []
    for i, (sign, factors) in enumerate(terms):
        if i or sign != "+" or rng.random() < 0.5:
            out += [gap(), sign, gap()]
        for j, ((text, _), power) in enumerate(factors):
            if j:
                out += [gap(), "*", gap()]
            out.append(text if power is None else f"{text}{gap()}^{gap()}{power}")
    return "".join(out)


_ATOMS = st.one_of(
    st.sampled_from(NAMED_CLASSES + tuple(f"lam{i}" for i in range(1, 6))).map(
        lambda name: (name, ("name", name))),
    st.sampled_from([t for d in range(boundary.DEGREE_MAX + 1) for t in all_types(d)]).map(
        lambda t: (t.literal(), ("cfg", t.exps, t.rels))),
    st.lists(st.integers(1, 3), max_size=4).map(
        lambda exps: (f"any({','.join(map(str, exps))})", ("any", tuple(exps)))),
    st.integers(0, 40).map(lambda n: (str(n), n)),
)


@settings(max_examples=100, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from("+-"),
                          st.lists(st.tuples(_ATOMS, st.none() | st.integers(0, 3)),
                                   min_size=1, max_size=4)),
                min_size=1, max_size=4),
       st.randoms(use_true_random=False))
def test_written_side_parses_back(terms, rng):
    expected = []
    for sign, factors in terms:
        coeff, read = F(-1 if sign == "-" else 1), []
        for (_, value), power in factors:
            n = 1 if power is None else power
            if isinstance(value, int):
                coeff *= value ** n
            else:
                read += [value] * n
        expected.append((coeff, tuple(read)))
    assert _parse_expr(_write_side(terms, rng)) == tuple(expected)


def test_malformed_side_is_refused_without_backtracking():
    # if a run of spaces could split between two " *" of the grammar, each
    # factor would double the ways to retry; the short side comes first, so
    # such a pattern fails here quickly rather than hanging on the long one
    for side, budget in (("a   *" * 10 + "!", 0.05), ("a   *" * 2000 + "!", 0.5)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="cannot parse"):
            _parse_expr(side)
        assert time.perf_counter() - start < budget, len(side)


@pytest.mark.parametrize("line, token", [
    # 9^30000000 used to be computed (46.7 s), and sigma1^3000000 built a
    # 3,000,000-factor tuple before the degree check refused it
    ("x: 9^30000000*sigma1 = sigma1", "9^30000000"),
    ("x: sigma1^3000000 = sigma1", "sigma1^3000000"),
    ("x: sigma1 = 2 ^ 6*sigma1", "2^6"),
])
def test_power_above_degree_max_is_refused_before_it_is_built(line, token):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"^power above 5 in {re.escape(repr(token))}$"):
        parse_identity(line)
    assert time.perf_counter() - start < 0.1


def test_powers_up_to_degree_max_still_parse():
    assert _parse_expr("-2^3") == ((F(-8), ()),)
    assert _parse_expr("lam1^2") == ((F(1), (("name", "lam1"),) * 2),)
    assert _parse_expr("sigma1^5") == ((F(1), (("name", "sigma1"),) * 5),)


@pytest.mark.parametrize("line, reason", [
    ("bad: sigma9 = sigma1", "unknown class 'sigma9'"),
    ("bad: lam1*sigma1 = sigma2", "unknown class 'lam1'"),
    ("bad: cfg(0,1) = sigma2", "exponents must be positive in 'cfg(0,1)'"),
    ("bad: any(2,0) = sigma2", "exponents must be positive in 'any(2,0)'"),
    ("bad: cfg(1,1; 1 2 3) = sigma2", "slot index out of range in 'cfg(1,1; 1 2 3)'"),
    ("bad: cfg(1,1; 0 1) = sigma2", "slot index out of range in 'cfg(1,1; 0 1)'"),
    ("bad sigma1 = sigma1", "expected '<name>: <lhs> = <rhs>'"),
    ("bad: sigma1 + sigma2 = sigma1 + sigma2", "expression is not homogeneous"),
    ("big: sigma3*sigma3 = sigma3^2", "degree 6 exceeds 5"),
    ("y: sigma1 = sigma2", "expression is not homogeneous: degrees {1, 2}"),
    # a slot named twice used to carry into the next slot's bit
    ("t: cfg(1,1,1; 1 1 2) = sigma3", "repeated slot index in 'cfg(1,1,1; 1 1 2)'"),
    ("t: cfg(1,1,1,1; 1 1 2 3 4) = beta4",
     "repeated slot index in 'cfg(1,1,1,1; 1 1 2 3 4)'"),
    # an empty field used to be skipped
    ("t: any(1,,1) = sigma2", "empty exponent field in 'any(1,,1)'"),
    ("t: cfg(,2) = cfg(2)", "empty exponent field in 'cfg(,2)'"),
    # and so was an empty relation group; only cfg(e;) means no relation
    ("b: cfg(1,1,1; | 1 2 3) = cfg(1,1,1; 1 2 3)",
     "empty relation group in 'cfg(1,1,1; | 1 2 3)'"),
    ("b: cfg(1,1,1; 1 2 3 |) = cfg(1,1,1; 1 2 3)",
     "empty relation group in 'cfg(1,1,1; 1 2 3 |)'"),
    ("b: cfg(1,1,1; 1 2 | | 2 3) = sigma3", "empty relation group in 'cfg(1,1,1; 1 2 | | 2 3)'"),
    ("b: cfg(1,1,1; |) = sigma3", "empty relation group in 'cfg(1,1,1; |)'"),
    # a number has one spelling: zero-padded, underscored and non-ASCII
    # numerals used to be read as the number they spell
    ("x: cfg(01) = sigma1", "bad numeral '01' in 'cfg(01)'"),
    ("y: sigma1^02 = sigma1^2", "bad numeral '02' in 'sigma1^02'"),
    ("z: 01*sigma1 = sigma1", "bad numeral '01' in '01*sigma1'"),
    ("w: cfg(1,1,1; 01 2 3) = cfg(1,1,1; 1 2 3)",
     "bad numeral '01' in 'cfg(1,1,1; 01 2 3)'"),
    ("a: cfg(\u0661) = sigma1", "bad numeral '\u0661' in 'cfg(\u0661)'"),
    ("a: 2*\u0661*sigma1 = 2*sigma1", "bad numeral '\u0661' in '2*\u0661*sigma1'"),
    ("u: cfg(1_1) = sigma1", "bad numeral '1_1' in 'cfg(1_1)'"),
    ("u: cfg(+1) = sigma1", "bad numeral '+1' in 'cfg(+1)'"),
])
def test_bad_identity_line_is_refused(line, reason):
    with pytest.raises(ValueError) as exc:
        parse_identity(line)
    assert reason in str(exc.value)


def test_empty_literal_is_the_unit_class():
    unit = (F(1), (("cfg", (), ()),)), (F(-1), (("any", ()),))
    assert parse_identity("u: cfg() - any() = 0") == Identity("u", unit, ((F(0), ()),))
    assert expand_expr(_parse_expr("cfg()"), 3) == expand_word((), 3)


def test_relation_with_unknown_class_is_refused(tmp_path):
    # lam0 names no class and lam01 would be a second spelling of lam1
    path = tmp_path / "relations.txt"
    for rhs, name in (("6*lam1*sigma9", "sigma9"), ("6*lam0*sigma1", "lam0"),
                      ("6*lam01*sigma1", "lam01")):
        path.write_text(f"genus=2: sigma2 = {rhs}\n")
        with pytest.raises(ValueError, match=re.escape(f"not ('name', '{name}')")):
            load_boundary_relations(str(path))


@pytest.mark.parametrize("rule", [
    "sigma2 = sigma2", "sigma1^2 = sigma2 - lam1*sigma1", "sigma2 = 6*lam1*sigma1^2",
])
def test_relation_that_keeps_the_degree_is_refused(tmp_path, rule):
    # substitution by such a rule never stops
    path = tmp_path / "relations.txt"
    path.write_text(f"genus=2: {rule}\n")
    with pytest.raises(ValueError, match="is not of degree below 2"):
        load_boundary_relations(str(path))


# --- word utilities -----------------------------------------------------------------

def test_normalize_word_orders_tags():
    assert normalize_word(("beta3", "sigma1")) == ("sigma1", "beta3")
    assert normalize_word(("sigma2", "sigma1", "sigma1")) == (
        "sigma1",
        "sigma1",
        "sigma2",
    )


def test_normalize_word_orders_every_name():
    # sigma, beta, Y, then each group before its members
    assert normalize_word(reversed(NAMED_CLASSES)) == (
        "sigma1", "sigma2", "sigma3", "sigma4", "sigma5",
        "beta1", "beta2", "beta3", "beta4", "beta5", "Y",
        "A", "A1", "A2", "A3", "A4", "A5", "B", "B1", "B2", "B3", "B4",
        "C", "C1", "C2", "D", "D1", "D2", "E", "F", "G",
    )


@pytest.mark.parametrize("tag", ["Q", "sigma0"])
def test_normalize_word_rejects_unknown_tag(tag):
    with pytest.raises(KeyError):
        normalize_word((tag,))


def test_sorting_words_again_parses_no_tag():
    words = DEFAULT_TARGETS[5]
    sorted(map(normalize_word, words), key=word_sort_key)
    misses = boundary._named.cache_info().misses
    sorted(map(normalize_word, words), key=word_sort_key)
    assert boundary._named.cache_info().misses == misses


def test_word_sort_key_display_order():
    words = [("beta3",), ("sigma3",), ("sigma1", "sigma2"), ("sigma1",) * 3]
    ordered = sorted(words, key=word_sort_key)
    assert ordered == [
        ("sigma1",) * 3,
        ("sigma1", "sigma2"),
        ("sigma3",),
        ("beta3",),
    ]
