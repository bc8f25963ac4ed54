"""Symbolic algebra of boundary divisor classes on a level-2 toroidal model.

A monomial in boundary divisors delta_n is classified, up to the symplectic
group, by its *configuration type*: the multiset of exponents together with
the space of F_2-linear relations among the (distinct, pairwise-orthogonal)
labels.  A ConfigType is the canonical form of that data; the class of all
monomials of one type, each counted once, is the basic symbol everything
else expands into.

Degrees are capped at 5: the relation-pattern inventory and the ledger
identities are only established up to there.  The concrete verifier writes
a monomial as one int, the product of its labels' primes to their exponents.
"""
from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import lru_cache, partial, reduce
from math import factorial, isqrt, lcm
from operator import and_, mul, or_, sub
from typing import Callable, Iterable, NamedTuple, Sequence

from .bits import kernel_f2, rref_f2, span_f2
from .characteristics import (
    DEGREE_MAX,
    EMPTY,
    BoundaryLabel,
    ConfigType,
    _canonical_type,
    _form_packed,
    _orth_masks,
    _orthogonal_sets,
    _type_orbit,
    count_vanishing,
    make_type,
    n_odd,
    representative,
)
from .datafile import GENUS_MIN, check_genus, numeral, parse_lines
from .exactla import ZERO, Combination, pivot_solution

__all__ = [
    "ConfigType",
    "EMPTY",
    "BoundaryPoly",
    "DegreeOverflowError",
    "InfeasibleBasisError",
    "canonical_config",
    "all_types",
    "expand_named",
    "expand_word",
    "expand_zm_power",
    "product",
    "pushforward_level2",
    "change_basis",
    "Identity",
    "load_identities",
    "check_identity",
    "value_at",
    "DEFAULT_TARGETS",
    "NAMED_CLASSES",
    "word_sort_key",
    "n_odd",
]

# the concrete verifier enumerates every concrete monomial; feasible up to this genus
CONCRETE_GENUS_MAX = 3


class DegreeOverflowError(ValueError):
    """Boundary degree beyond DEGREE_MAX."""


# --- configuration types -----------------------------------------------------

def canonical_config(
    support: Sequence[BoundaryLabel], exponents: Sequence[int]
) -> ConfigType | None:
    """Type of a concrete boundary monomial, or None for the zero class.

    Returns None when two support labels fail to be orthogonal, since the
    divisors are then disjoint and the monomial vanishes.
    """
    if len(support) != len(exponents):
        raise ValueError("support and exponents must have equal length")
    if not support:
        return EMPTY
    g = support[0].genus
    for label in support:
        if label.genus != g:
            raise ValueError("label genus mismatch")
    for e in exponents:
        if e <= 0:
            raise ValueError("exponents must be positive")
    packed = [label.packed for label in support]
    if len(set(packed)) != len(packed):
        raise ValueError("repeated support label")
    for a, b in itertools.combinations(packed, 2):
        if _form_packed(a, b, g):
            return None
    rels: tuple[int, ...] = kernel_f2(tuple(packed))
    return make_type(tuple(exponents), rels)


@lru_cache(maxsize=None)
def _relation_spaces(k: int) -> tuple[tuple[int, ...], ...]:
    """All relation spaces on k slots with minimum weight >= 3.

    Weight-1 and weight-2 relations cannot occur among distinct nonzero
    labels.  For k <= 5 a weight count rules out dimension >= 3, so spans of
    at most two generators exhaust the list; two distinct generators of
    weight >= 3 span such a space exactly when their sum has weight >= 3.
    """
    if k > DEGREE_MAX:
        raise DegreeOverflowError(f"no relation inventory beyond {DEGREE_MAX} slots")
    spaces: set[tuple[int, ...]] = {()}
    gens = [v for v in range(1, 1 << k) if v.bit_count() >= 3]
    for v in gens:
        spaces.add(rref_f2([v]))
    for v, w in itertools.combinations(gens, 2):
        if (v ^ w).bit_count() >= 3:
            spaces.add(rref_f2([v, w]))
    return tuple(sorted(spaces))


@lru_cache(maxsize=None)
def _partitions(d: int, cap: int | None = None) -> tuple[tuple[int, ...], ...]:
    """The partitions of d into parts <= cap (None: d), parts non-increasing;
    each (d, cap) is enumerated once per process."""
    cap = d if cap is None else cap
    if d == 0:
        return ((),)
    return tuple((first,) + rest for first in range(min(d, cap), 0, -1)
                 for rest in _partitions(d - first, first))


@lru_cache(maxsize=None)
def _types_of(exps: tuple[int, ...]) -> frozenset[ConfigType]:
    """Every configuration type with the given exponents, each once.

    Distinct raw relation spaces can be relabelings of one canonical type:
    each orbit is swept once, from its first raw space, and its other
    spaces are skipped.  Sorting the exponents first puts the raw spaces
    and the orbit in the same slot order; as the relation spaces are closed
    under slot permutations, the types are the same.
    """
    exps = tuple(sorted(exps, reverse=True))
    seen: set[tuple[int, ...]] = set()
    types = set()
    for rows in _relation_spaces(len(exps)):
        if rows not in seen:
            orbit = _type_orbit(exps, rows)
            seen |= orbit
            types.add(ConfigType(exps, min(orbit)))
    return frozenset(types)


@lru_cache(maxsize=None)
def all_types(degree: int) -> tuple[ConfigType, ...]:
    """Every configuration type of the given degree, canonically sorted."""
    if degree > DEGREE_MAX:
        raise DegreeOverflowError(f"degree {degree} exceeds {DEGREE_MAX}")
    return tuple(sorted(set().union(*map(_types_of, _partitions(degree)))))


# --- boundary polynomials ----------------------------------------------------

class BoundaryPoly(Combination):
    """Homogeneous formal sum of configuration-type classes; the grade is the degree."""

    __slots__ = ()

    def __init__(self, degree: int, coeffs: dict[ConfigType, Fraction] | None = None):
        self.grade = degree
        self.terms = terms = {}
        for t, c in (coeffs or {}).items():
            if c:
                if t.degree != degree:
                    raise ValueError(f"type {t} has degree {t.degree}, expected {degree}")
                terms[t] = c if type(c) is Fraction else Fraction(c)

    degree = property(lambda self: self.grade)
    coeffs = property(lambda self: self.terms)

    def __repr__(self):
        if not self.terms:
            return f"BoundaryPoly({self.degree}, 0)"
        bits = " + ".join(f"{c}*{t.literal()}" for t, c in sorted(self.terms.items()))
        return f"BoundaryPoly({self.degree}, {bits})"


# --- named classes -----------------------------------------------------------

# Named classes written in the ledger grammar (data/identities.txt), so that
# _expand_factor is the one expansion of a literal.  sigma<k> is any(1,...,1)
# and beta<k> is cfg(1,...,1), both built from the name (_named).  A
# group stays the sum of its members: written as any(...), the ledger line
# `sigma5 = A` would hold by definition and check nothing.
_NAMED: dict[str, str] = {
    "Y": "cfg(1,1,1,1; 1 2 3 4)",
    "A1": "cfg(1,1,1,1,1)",
    "A2": "cfg(1,1,1,1,1; 1 2 3 4 5)",
    "A3": "cfg(1,1,1,1,1; 1 2 3 4)",
    "A4": "cfg(1,1,1,1,1; 1 2 3)",
    "A5": "cfg(1,1,1,1,1; 1 2 3 | 3 4 5)",
    "B1": "cfg(2,1,1,1)",
    "B2": "cfg(2,1,1,1; 1 2 3 4)",
    "B3": "cfg(2,1,1,1; 1 2 3)",
    "B4": "cfg(2,1,1,1; 2 3 4)",
    "C1": "cfg(2,2,1)",
    "C2": "cfg(2,2,1; 1 2 3)",
    "D1": "cfg(3,1,1)",
    "D2": "cfg(3,1,1; 1 2 3)",
    "E": "cfg(3,2)",
    "F": "cfg(4,1)",
    "G": "cfg(5)",
    "A": "A1 + A2 + A3 + A4 + A5",
    "B": "B1 + B2 + B3 + B4",
    "C": "C1 + C2",
    "D": "D1 + D2",
}

NAMED_CLASSES: tuple[str, ...] = tuple(
    [f"sigma{k}" for k in range(1, 6)]
    + [f"beta{k}" for k in range(1, 6)]
    + list(_NAMED)
)


# Display order of the name stems; a group (A) sorts before its members.
_STEMS = ("sigma", "beta", "Y", "A", "B", "C", "D", "E", "F", "G")


@lru_cache(maxsize=None)
def _named(tag: str) -> tuple[tuple[int, int], int, Expr]:
    """A named class as its display key (stem rank, index), degree and
    parsed ledger expression; KeyError for an unknown name."""
    m = re.fullmatch(r"(sigma|beta)([1-9]\d*)", tag)
    if m:
        stem, index = m[1], int(m[2])
        ones = (1,) * index
        factor = ("any", ones) if stem == "sigma" else ("cfg", ones, ())
        expr = ((Fraction(1), (factor,)),)
    elif tag in _NAMED:
        stem = tag.rstrip("0123456789")
        index, expr = int(tag[len(stem):] or 0), _parse_expr(_NAMED[tag])
    else:
        raise KeyError(f"unknown named class {tag!r}")
    return (_STEMS.index(stem), index), expr_degree(expr), expr


@lru_cache(maxsize=None)
def expand_named(name: str, g: int) -> BoundaryPoly:
    """A named class as a sum of configuration types realizable at genus g;
    above genus d, its degree, as at genus d, as for expand_word."""
    check_genus(g, GENUS_MIN, None, "expand_named")
    _, d, expr = _named(name)
    if g > d >= 1:
        return expand_named(name, d)
    return expand_expr(expr, g)


def word_sort_key(word: tuple[str, ...]) -> tuple:
    named = [_named(t) for t in word]
    return (sum(n[1] for n in named), tuple(n[0] for n in named))


def normalize_word(word: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted(word, key=lambda t: _named(t)[0]))


# --- structural expansion of powers of the distinguished-label sum -----------

def _multinomial(total: int, parts: Sequence[int]) -> int:
    out = factorial(total)
    for p in parts:
        out //= factorial(p)
    return out


def expand_zm_power(g: int, j: int) -> BoundaryPoly:
    """Sum over odd m of (sum of delta_n over the distinguished set)^j.

    Each configuration type appears with coefficient multinomial(j; exps)
    times the count of odd m compatible with its representative, the one
    counting rule the oracle certifies; a type of rank above g has no
    monomial at genus g.
    """
    check_genus(g, GENUS_MIN, None, "expand_zm_power")
    if not 0 <= j <= DEGREE_MAX:
        raise DegreeOverflowError(f"power {j} outside 0..{DEGREE_MAX}")
    coeffs: dict[ConfigType, Fraction] = {}
    for t in all_types(j):
        cnt = t.rank <= g and count_vanishing(g, representative(t, g))
        if cnt:
            coeffs[t] = Fraction(_multinomial(j, t.exps) * cnt)
    return BoundaryPoly(j, coeffs)


# --- products ----------------------------------------------------------------

def _induced(t: ConfigType, slots: tuple[int, ...], exps: tuple[int, ...]) -> ConfigType:
    """Type induced on a sub-multiset of slots with the given exponents."""
    if not slots:
        return EMPTY
    mask = 0
    for s in slots:
        mask |= 1 << s
    pos = {s: i for i, s in enumerate(slots)}
    rows = []
    for v in span_f2(t.rels):
        if v and v & ~mask == 0:
            rows.append(sum(1 << pos[s] for s in slots if v >> s & 1))
    return make_type(exps, rref_f2(rows))


@lru_cache(maxsize=None)
def _split_table(t: ConfigType) -> tuple[tuple[ConfigType, ConfigType, int], ...]:
    """Ways to factor a type-t monomial into an ordered pair of monomials.

    Entries (t1, t2, n): n exponent splittings of a fixed monomial of type t
    produce factors of types (t1, t2).  Independent of genus and of the
    concrete monomial.  The factor of each exponent vector is induced once:
    it is the first factor of its own splitting and the second of its
    complement's.
    """
    factors = {bvec: _induced(t, tuple(i for i, b in enumerate(bvec) if b > 0),
                              tuple(b for b in bvec if b > 0))
               for bvec in itertools.product(*(range(e + 1) for e in t.exps))}
    counts: dict[tuple[ConfigType, ConfigType], int] = {}
    for bvec, t1 in factors.items():
        pair = (t1, factors[tuple(e - b for e, b in zip(t.exps, bvec))])
        counts[pair] = counts.get(pair, 0) + 1
    return tuple((t1, t2, n) for (t1, t2), n in counts.items())


def product(p: BoundaryPoly, q: BoundaryPoly, g: int) -> BoundaryPoly:
    """Formal product of boundary polynomials at genus g.

    Works by counting, per result type, the exponent splittings that realize
    a given ordered pair of factor types; orthogonality and realizability
    are already encoded in the type inventory.
    """
    check_genus(g, GENUS_MIN, None, "product")
    degree = p.degree + q.degree
    if degree > DEGREE_MAX:
        raise DegreeOverflowError(f"product degree {degree} exceeds {DEGREE_MAX}")
    out: dict[ConfigType, Fraction] = {}
    pget, qget = p.terms.get, q.terms.get
    for t in all_types(degree):
        if t.rank > g:
            continue
        acc = None
        for t1, t2, n in _split_table(t):
            # a stored coefficient is never zero, so absent is the only zero
            c1 = pget(t1)
            if c1 is None:
                continue
            c2 = qget(t2)
            if c2 is None:
                continue
            term = c1 * c2 if n == 1 else n * c1 * c2
            acc = term if acc is None else acc + term
        if acc:
            out[t] = acc
    return BoundaryPoly(degree, out)


@lru_cache(maxsize=None)
def expand_word(word: tuple[str, ...], g: int) -> BoundaryPoly:
    """Product of named classes as a BoundaryPoly.

    A type of a degree-d word has at most d slots, so rank <= d, and above
    genus d the word expands as at genus d.  A word of two or more factors
    is its cached prefix times its last factor: expand_expr's left fold,
    each prefix computed once.
    """
    check_genus(g, GENUS_MIN, None, "expand_word")
    d = sum(_named(tag)[1] for tag in word)
    if g > d >= 1:
        return expand_word(word, d)
    if len(word) < 2:
        return expand_expr(((Fraction(1), tuple(("name", tag) for tag in word)),), g)
    return product(expand_word(word[:-1], g), expand_named(word[-1], g), g)


# --- change of basis and pushforward -----------------------------------------

class InfeasibleBasisError(ValueError):
    """The polynomial is not in the span of the requested target words."""

    def __init__(self, residual: BoundaryPoly):
        self.residual = residual
        super().__init__(f"not in target span\n  residual: {residual!r}")


def change_basis(
    p: BoundaryPoly, targets: Sequence[tuple[str, ...]], g: int
) -> dict[tuple[str, ...], Fraction]:
    """Exact coefficients of p over the given product-of-named-class words.

    Raises InfeasibleBasisError (carrying the exact residual) when p is not
    in the span; never approximates.  Free coefficients in a degenerate
    target set resolve to zero, keeping the output deterministic.
    """
    check_genus(g, GENUS_MIN, None, "change_basis")
    expansions = [expand_word(normalize_word(w), g) for w in targets]
    support = sorted(set(p.coeffs) | {t for e in expansions for t in e.coeffs})
    matrix = [[e.coeffs.get(t, ZERO) for e in expansions] for t in support]
    rhs = [p.coeffs.get(t, ZERO) for t in support]
    x, consistent = pivot_solution(matrix, rhs)
    if not consistent:
        residual = p
        for coef, e in zip(x, expansions):
            residual = residual - coef * e
        raise InfeasibleBasisError(residual)
    return {normalize_word(w): c for w, c in zip(targets, x)}


DEFAULT_TARGETS: dict[int, tuple[tuple[str, ...], ...]] = {
    1: (("sigma1",),),
    2: (("sigma1", "sigma1"), ("sigma2",)),
    3: (("sigma1",) * 3, ("sigma1", "sigma2"), ("sigma3",), ("beta3",)),
    4: (
        ("sigma4",),
        ("sigma1", "sigma3"),
        ("Y",),
        ("sigma1", "beta3"),
        ("sigma2", "sigma2"),
        ("sigma1", "sigma1", "sigma2"),
        ("sigma1",) * 4,
        ("beta4",),
    ),
    5: (
        ("sigma5",),
        ("beta5",),
        ("A2",),
        ("A3",),
        ("A4",),
        ("C1",),
        ("D1",),
        ("sigma1", "sigma4"),
        ("sigma1", "beta4"),
        ("sigma1", "Y"),
        ("sigma2", "sigma3"),
        ("sigma1", "sigma1", "sigma3"),
        ("sigma1", "sigma2", "sigma2"),
        ("sigma1", "sigma1", "sigma1", "sigma2"),
        ("sigma1",) * 5,
    ),
}


def pushforward_level2(p: BoundaryPoly, g: int) -> dict[tuple[str, ...], Fraction]:
    """Pushforward to level 2 in named-class words: divide degree d by 2^d.

    The named symbols downstairs absorb a factor 2^d by convention, so the
    word coefficients are the upstairs ones divided by 2^degree.
    """
    check_genus(g, GENUS_MIN, None, "pushforward_level2")
    if p.degree == 0:
        return {(): p.coeffs.get(EMPTY, Fraction(0))}
    scale = Fraction(1, 2**p.degree)
    return {w: scale * c for w, c in change_basis(p, DEFAULT_TARGETS[p.degree], g).items()}


# --- concrete instantiation and identity checking ----------------------------

# A concrete monomial is one int, the product of its labels' primes, each
# to its exponent: label p has the p-th prime _PRIMES[p] (2 for label 1).
# Multiplying two monomials is multiplying their ints, exact at every
# exponent by unique factorization; the empty monomial is 1.  At genus <=
# CONCRETE_GENUS_MAX the labels are 1..63 and a key of degree <= DEGREE_MAX
# is at most 307^5 < 2^42.
_PRIMES: dict[int, int] = dict(zip(range(1, 1 << 2 * CONCRETE_GENUS_MAX), (
    n for n in itertools.count(2) if all(n % q for q in range(2, isqrt(n) + 1)))))
Coeff = int | Fraction
# {m: (t, {key: value})}: a concrete dictionary grouped by span
Grouped = dict[int, tuple[int, dict[int, Coeff]]]


def _units(labels: Iterable[int]) -> tuple[int, ...]:
    """The labels' primes, in order: the factors a key raises."""
    return tuple(map(_PRIMES.__getitem__, labels))


def _encode_slots(slots: Sequence[Sequence[int]], exponents: Sequence[int]) -> Iterable[int]:
    """The key of each label set whose slot i has the prime slots[i][n] in
    set n, raised to exponents[i], in set order: one C-level pass a slot
    and no product per key."""
    powers = [col if e == 1 else map(pow, col, itertools.repeat(e))
              for col, e in zip(slots, exponents)]
    return reduce(partial(map, mul), powers[1:], powers[0])


def _decode(key: int) -> tuple[tuple[int, int], ...]:
    """A concrete monomial as sorted ((packed label, exponent), ...): trial
    division in label order.  A key below 1, or with a factor that is no
    label's prime, is no monomial and is refused."""
    if key < 1:
        raise ValueError(f"key {key} is not a monomial: below 1")
    rest, out = key, []
    for p, q in _PRIMES.items():
        if rest == 1:
            break
        e = 0
        while not rest % q:
            rest //= q
            e += 1
        if e:
            out.append((p, e))
    if rest != 1:
        raise ValueError(f"key {key} is not a monomial: factor {rest} is no label's prime")
    return tuple(out)


def _least_key(keys: Iterable[int]) -> int:
    """The key of least _decode, found by elimination rather than decoding:
    label by label in order, only the keys its prime divides are kept, those
    of least exponent, with that power divided out; a key with nothing left
    is the least outright."""
    left = {key: key for key in keys}
    for q in _PRIMES.values():
        for key, rest in left.items():
            if rest == 1:
                return key
        kept = {key: rest // q for key, rest in left.items() if not rest % q}
        while kept:
            left = kept
            kept = {key: rest // q for key, rest in left.items() if not rest % q}
            if len(kept) < len(left):  # the keys q divides no more have the least exponent
                left = {key: rest for key, rest in left.items() if rest % q}
                break
    return min(left, key=_decode)  # no key left is a monomial: _decode refuses


def _orth_sets(g: int) -> dict[int, dict[tuple[int, ...], list[tuple[int, ...]]]]:
    """All pairwise-orthogonal label sets of sizes 1..DEGREE_MAX, packed, by
    size and then by relation space, each group in search order, so that the
    registry types one group at a time.

    Each relation space is carried forward from the set's prefix, which the
    search emits right before its extensions: stack[k] holds the last size-k
    set's span, {vector: slots that sum to it}, and its relation rows.  A
    last label already in the span closes one relation, its slot (the row's
    top bit) plus the non-closing slots that reach it, so the rows are the
    space's one such basis, the group's key.  Others double the span.
    """
    out: dict[int, dict] = {k: {} for k in range(1, DEGREE_MAX + 1)}
    stack: list[tuple[dict[int, int], tuple[int, ...]]] = [({0: 0}, ())] * (DEGREE_MAX + 1)
    for labels in _orthogonal_sets(g, DEGREE_MAX):
        k = len(labels)
        span, rels = stack[k - 1]
        x, slot = labels[-1], 1 << (k - 1)
        if x in span:
            rels += (span[x] | slot,)
        else:
            span = {**span, **{v ^ x: s | slot for v, s in span.items()}}
        stack[k] = span, rels
        out[k].setdefault(rels, []).append(labels)
    return out


class Chunk(NamedTuple):
    """One (composition, relation space) chunk of a type's monomials: the
    keys of one relation-space group of _orth_sets(g) at one composition."""
    keys: list[int]  # each set's key, in set order
    masks: list[int]  # each set's span mask, as _span_classes names it
    first: dict[int, tuple[int, ...]]  # each span's first set


# each type's monomials of one degree, chunk by chunk
Chunks = dict[ConfigType, list[Chunk]]


def _compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    """The compositions of total into parts positive parts, lexicographic:
    one per choice of parts - 1 cut points among 1..total - 1."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        yield tuple(map(sub, cuts + (total,), (0,) + cuts))


# a concrete monomial's type from its exponent and relation tuples
_type_of_key = _canonical_type


@lru_cache(maxsize=8)
def _label_sets(g: int) -> dict[int, Chunks]:
    """The concrete verifier's one table a genus, and the one place keys are
    encoded: each degree's types, each with its chunks, one per
    (composition, relation space) in the registry's key order: set size,
    composition, relation space, sets in search order.  Each group of
    _orth_sets(g) is read off its labels once: its primes slot by slot, each
    set's span mask (the AND of its labels' _orth_masks, equal masks sharing
    one int) and each span's first set, which gives a factor's span its
    label bits, so no key is ever factored.  The empty monomial's chunk is
    the one key 1, of span mask -1 and no label."""
    orth = _orth_masks(g)
    shared: dict[int, int] = {}
    table: dict[int, Chunks] = {d: {} for d in range(DEGREE_MAX + 1)}
    table[0][EMPTY] = [Chunk([1], [-1], {-1: ()})]
    for k, groups in _orth_sets(g).items():
        read = []
        for rels, sets in groups.items():
            slots = tuple(zip(*sets))
            masks = list(reduce(partial(map, and_), (map(orth.__getitem__, s) for s in slots)))
            masks = list(map(shared.setdefault, masks, masks))
            # reversed, so each span keeps its first set
            first = dict(zip(reversed(masks), reversed(sets)))
            read.append((rels, tuple(map(_units, slots)), masks, first))
        # k runs outermost, so each degree's chunks come by set size first
        for degree in range(k, DEGREE_MAX + 1):
            for exps in _compositions(degree, k):
                # the type depends on the labels only through their relation space
                for rels, primes, masks, first in read:
                    table[degree].setdefault(_type_of_key(exps, rels), []).append(
                        Chunk(list(_encode_slots(primes, exps)), masks, first))
    return table


@lru_cache(maxsize=None)
def _registry(g: int, degree: int) -> dict[ConfigType, list[int]]:
    """Index of all concrete monomials of one degree by configuration type,
    each type's keys chunk by chunk (_label_sets)."""
    if degree > DEGREE_MAX:
        raise DegreeOverflowError(f"degree {degree} exceeds {DEGREE_MAX}")
    return {t: list(itertools.chain.from_iterable(c.keys for c in chunks))
            for t, chunks in _label_sets(g).get(degree, {}).items()}


def instantiate(p: BoundaryPoly, g: int) -> dict[int, Fraction]:
    """The polynomial as a literal dictionary of concrete monomials."""
    check_genus(g, GENUS_MIN, CONCRETE_GENUS_MAX, "instantiate")
    index = _registry(g, p.degree)
    out: dict[int, Fraction] = {}
    for t, c in p.coeffs.items():
        for key in index.get(t, ()):
            out[key] = c
    return out


def convolve(d1: dict[int, Coeff], d2: dict[int, Coeff], g: int) -> dict[int, Coeff]:
    """Product of concrete monomial dictionaries with int or Fraction values.

    A pair of monomials whose supports are not pairwise orthogonal
    multiplies to zero and is dropped.  Keys are grouped by the span of
    their labels (_span_classes), so the orthogonality test runs once per
    pair of spans and key pairs are enumerated only inside compatible ones.
    _span_pairs takes a unit class second, so d2's keys are split by value,
    each value scaling its keys' class.  A key that is no monomial of genus
    g is refused.  Independent of the symbolic product(); used to
    cross-check it.
    """
    check_genus(g, GENUS_MIN, CONCRETE_GENUS_MAX, "convolve")
    out: dict[int, Coeff] = {}
    masks = _orth_masks(g)
    by_value: dict[Coeff, list[int]] = {}
    for k, c in d2.items():
        by_value.setdefault(c, []).append(k)
    spans1 = _span_classes(d1.items(), masks)
    for c, keys in by_value.items():
        _span_pairs(spans1, _span_classes(zip(keys, itertools.repeat(1)), masks), c, out)
    return {k: c for k, c in out.items() if c}


def _compatible(spans: Grouped) -> Callable[[int], list[tuple[int, int, list[int]]]]:
    """The lookup m1 -> [(m, t, keys), ...] of a unit operand's span classes
    compatible with a class of span mask m1, in index order.  The classes
    are filed once under the least label bit of t.  (m, t) is compatible
    with m1 exactly when m1 & t == t, so only the entries under a bit of m1
    can be; the empty monomial's t == 0 is filed under bit 0, which no label
    uses, and & reach, the OR of the index's bits, ends the empty m1 = -1.
    A lookup walks the bits of (m1 | 1) & reach, lowest first."""
    index: dict[int, list[tuple[int, int, list[int]]]] = {}
    for m, (t, terms) in spans.items():
        index.setdefault(t & -t or 1, []).append((m, t, list(terms)))
    reach = reduce(or_, index, 0)

    def lookup(m1: int) -> list[tuple[int, int, list[int]]]:
        found = []
        bits = (m1 | 1) & reach
        while bits:
            low = bits & -bits
            bits ^= low
            # a plain loop: a comprehension costs a call a bit on Python 3.11
            for entry in index[low]:
                t = entry[1]
                if m1 & t == t:
                    found.append(entry)
        return found
    return lookup


def _span_pairs(spans1: Grouped, spans2: Grouped, scale: Coeff, out: dict[int, Coeff]) -> None:
    """The flat pair loop: adds scale * each product of keys of orthogonal
    spans into out.  spans2 is a unit class: its values are read as 1.  Each
    class of spans1 lists the keys of all its compatible classes
    (_compatible) once, and runs each of its own keys, scaled once, over
    that list, its own keys outermost.  Key pairs are enumerated one by
    one."""
    compatible = _compatible(spans2)
    get = out.get
    for m1, (_, terms1) in spans1.items():
        keys: list[int] = []
        for _, _, keys2 in compatible(m1):
            keys += keys2
        if keys:
            for k1, c1 in terms1.items():
                c1 *= scale
                for k2 in keys:
                    k = k1 * k2
                    out[k] = get(k, 0) + c1


def _span_classes(items: Iterable[tuple[int, Coeff]], masks: list[int]) -> Grouped:
    """Items grouped by the span of their keys' labels, each key decoded;
    convolve's grouping of arbitrary dictionaries (the ledger's factors are
    grouped from their label sets, _factor_spans).

    Returns {m: (t, terms)}, one entry per span; terms is the
    {key: value} dict of its keys.  m is the AND of the labels' orthogonal
    closures: the span's orthogonal complement without 0, which names the
    span.  t is the label bits of any one key of the span.  A support u is
    orthogonal to every label of a key exactly when m & u == u; as m plus
    the zero vector is a subspace, that holds for all supports of a span or
    for none, so testing t decides the whole entry.  A label outside masks
    is refused.
    """
    groups: Grouped = {}
    for key, c in items:
        mask, bits = -1, 0
        for p, _ in _decode(key):
            if p >= len(masks):
                raise ValueError(f"key {key} has label {p}, above the last label {len(masks) - 1}")
            mask &= masks[p]
            bits |= 1 << p
        groups.setdefault(mask, (bits, {}))[1][key] = c
    return groups


# --- identity ledger ---------------------------------------------------------

# A factor of a ledger expression: a named class, a cfg(...) single-orbit
# literal, or any(...) = the sum of every type with the given exponents,
# each once.
Factor = tuple  # ("name", str) | ("cfg", exps, rels) | ("any", exps)
Term = tuple[Fraction, tuple[Factor, ...]]
Expr = tuple[Term, ...]


class Identity(NamedTuple):
    name: str
    lhs: Expr
    rhs: Expr


# The grammar of a side: an optional sign, then factors joined by * within a
# term and by + or - between terms; a factor is a cfg(...)/any(...) literal, a
# name or a numeral, optionally raised to ^<numeral> of at most DEGREE_MAX.
# Each run of spaces belongs to exactly one " *", so a refusal never
# backtracks through the ways of splitting it; a tab is refused.
_FACTOR = r"(cfg\([^)]*\)|any\([^)]*\)|[A-Za-z_][A-Za-z0-9_]*|\d+) *(?:\^ *(\d+) *)?"
_SIDE = re.compile(rf"(?:[+-] *)?{_FACTOR}(?:[*+-] *{_FACTOR})*")
_SIGNED_FACTOR = re.compile(rf"([*+-]?) *{_FACTOR}")


def _parse_factor(tok: str) -> Factor:
    if tok.startswith("cfg("):
        exp_part, _, rel_part = tok[4:-1].partition(";")
        exps = _literal_exponents(exp_part, tok)
        rows = []
        # "cfg(e;)" has no relation; otherwise every group names a slot
        for group in rel_part.split("|") if rel_part.strip() else ():
            idx = [numeral(x, tok) for x in group.split()]
            if not idx:
                raise ValueError(f"empty relation group in {tok!r}")
            if any(not 1 <= i <= len(exps) for i in idx):
                raise ValueError(f"slot index out of range in {tok!r}")
            # over F_2 a slot named twice cancels, but the bit sum below would carry
            if len(set(idx)) != len(idx):
                raise ValueError(f"repeated slot index in {tok!r}")
            rows.append(sum(1 << (i - 1) for i in idx))
        return ("cfg", exps, tuple(rows))
    if tok.startswith("any("):
        return ("any", _literal_exponents(tok[4:-1], tok))
    return ("name", tok)


def _literal_exponents(text: str, tok: str) -> tuple[int, ...]:
    fields = [x.strip() for x in text.split(",")] if text.strip() else []  # the unit class
    if "" in fields:
        raise ValueError(f"empty exponent field in {tok!r}")
    exps = tuple(numeral(x, tok) for x in fields)
    if any(e <= 0 for e in exps):
        raise ValueError(f"exponents must be positive in {tok!r}")
    return exps


def _parse_expr(text: str) -> Expr:
    """Terms of one side of a ledger line or a boundary relation, a _SIDE;
    numeral factors multiply the term's coefficient."""
    text = text.strip()
    if not _SIDE.fullmatch(text):
        raise ValueError(f"cannot parse {text!r}")
    terms: list[Term] = []
    for op, atom, power in _SIGNED_FACTOR.findall(text):
        n = numeral(power, text) if power else 1
        if n > DEGREE_MAX:  # before a factor tuple or a numeral power is built
            raise ValueError(f"power above {DEGREE_MAX} in {atom + '^' + power!r}")
        # a +, a - or the first factor starts a term; a * multiplies into it
        if op != "*":
            terms.append((Fraction(-1 if op == "-" else 1), ()))
        coeff, factors = terms[-1]
        if atom.isdecimal():
            terms[-1] = coeff * numeral(atom, text) ** n, factors
        else:
            terms[-1] = coeff, factors + (_parse_factor(atom),) * n
    return tuple(terms)


def parse_identity(line: str) -> Identity:
    name, colon, rest = line.partition(":")
    lhs_text, equals, rhs_text = rest.partition("=")
    if not (colon and equals and name.strip()):
        raise ValueError("expected '<name>: <lhs> = <rhs>'")
    sides = _parse_expr(lhs_text), _parse_expr(rhs_text)
    for side in sides:
        for _, factors in side:
            for f in factors:
                if f[0] == "name" and f[1] not in NAMED_CLASSES:
                    raise ValueError(f"unknown class {f[1]!r} in {line!r}")
    # both sides share one degree; a side of zero terms fits any
    degree = expr_degree(sides[0] + sides[1])
    if degree > DEGREE_MAX:
        raise DegreeOverflowError(f"degree {degree} exceeds {DEGREE_MAX}")
    return Identity(name.strip(), *sides)


def load_identities(path: str | None = None) -> list[Identity]:
    """Parse the identity ledger (bundled file by default); refuses an empty one."""
    identities = parse_lines("identities.txt", path, parse_identity)
    if not identities:
        raise ValueError("no identity in the file; an empty ledger checks nothing")
    return identities


def _expand_factor(f: Factor, g: int) -> BoundaryPoly:
    """A factor as each of its types realizable at genus g, with coefficient 1.

    any(exps) is every type with those exponents; cfg(exps; rels) is its one
    type, or none when the relations cannot hold among distinct labels.
    """
    if f[0] == "name":
        return expand_named(f[1], g)
    types = _types_of(f[1])
    if f[0] == "cfg":
        types &= {make_type(f[1], f[2])}
    return BoundaryPoly(sum(f[1]), {t: Fraction(1) for t in types if t.rank <= g})


def expr_degree(expr: Expr) -> int:
    """Degree of the terms with a nonzero coefficient; 0 when there are none."""
    degs = {sum(map(_factor_degree, factors)) for coeff, factors in expr if coeff}
    if len(degs) > 1:
        raise ValueError(f"expression is not homogeneous: degrees {degs}")
    return degs.pop() if degs else 0


def _factor_degree(f: Factor) -> int:
    if f[0] == "name":
        return _named(f[1])[1]
    return sum(f[1])


def expand_expr(expr: Expr, g: int) -> BoundaryPoly:
    """Symbolic value of a ledger expression (uses the symbolic product)."""
    total = BoundaryPoly(expr_degree(expr))
    for coeff, factors in expr:
        if not coeff:
            continue
        polys = [_expand_factor(f, g) for f in factors] or [BoundaryPoly(0, {EMPTY: Fraction(1)})]
        poly = reduce(lambda p, q: product(p, q, g), polys)
        # a BoundaryPoly holds Fractions, so 1 * poly is poly itself
        total = total + (poly if coeff == 1 else coeff * poly)
    return total


# A concrete value (den, nums) is {key: nums[key] / den}, nums integers and
# keys prime-product monomials (_encode); as every factor expands with
# coefficient 1, only term coefficients bring a den.
ConcreteValue = tuple[int, dict[int, int]]

# memo for concrete factor chains per genus, keyed by prime-product
# monomials: a single factor or a product of factors, each grouped by span,
# so no key is ever decoded
_CONCRETE_MEMO: dict[tuple[int, tuple[Factor, ...]], Grouped] = {}


def concrete_expr(expr: Expr, g: int) -> ConcreteValue:
    """Concrete value of a ledger expression by dictionary convolution.

    Products are evaluated monomial-by-monomial, independently of the
    symbolic product(), so ledger checks genuinely anchor the latter.  The
    terms are combined over the lcm of their coefficients' denominators.
    A term of two or more factors is its memoized prefix times its last
    factor, and that last product is summed straight into the result, never
    stored.  Terms of at most one factor are summed per type, and each type's
    monomials, which no other type shares, take that sum at once.  So the
    memo keeps single factors and proper prefixes only.  An expression
    above DEGREE_MAX is refused before any work, as product() refuses it.
    """
    check_genus(g, GENUS_MIN, CONCRETE_GENUS_MAX, "concrete_expr")
    degree = expr_degree(expr)
    if degree > DEGREE_MAX:
        raise DegreeOverflowError(f"product degree {degree} exceeds {DEGREE_MAX}")
    den = lcm(*(coeff.denominator for coeff, _ in expr))
    sums: dict[ConfigType, int] = {}
    chains = []
    for coeff, factors in expr:
        if not coeff:
            continue
        chain, scale = tuple(sorted(factors)), coeff.numerator * (den // coeff.denominator)
        if len(chain) > 1:
            chains.append((chain, scale))
        else:
            for t in _unit_types(chain[0], g) if chain else (EMPTY,):
                sums[t] = sums.get(t, 0) + scale
    out: dict[int, int] = {}
    for t, c in sums.items():
        if c:
            out.update(zip(_registry(g, t.degree).get(t, ()), itertools.repeat(c)))
    for chain, scale in chains:
        _span_pairs(_concrete_chain(chain[:-1], g), _concrete_chain(chain[-1:], g), scale, out)
    return den, {k: c for k, c in out.items() if c} if any(out.values()) else {}


def _unit_types(f: Factor, g: int) -> Iterable[ConfigType]:
    """The types of _expand_factor(f, g), each read as its class with value 1."""
    coeffs = _expand_factor(f, g).coeffs
    if any(c != 1 for c in coeffs.values()):
        raise ValueError(f"factor {f!r} expands with a coefficient other than 1")
    return coeffs


def _concrete_chain(chain: tuple[Factor, ...], g: int) -> Grouped:
    """The memoized concrete value of a chain of factors, grouped by span: a
    single factor read off its label sets (_factor_spans), a longer chain
    built from the span pairs of its prefix and its last factor."""
    memo_key = (g, chain)
    cached = _CONCRETE_MEMO.get(memo_key)
    if cached is not None:
        return cached
    if len(chain) == 1:
        val = _factor_spans(chain[0], g)
    else:
        # the pair loop of _span_pairs, its key pairs grouped by the
        # product's span m1 & m2 with labels t1 | t2, the last factor's
        # keys outside and the prefix's inside
        val = {}
        compatible = _compatible(_concrete_chain(chain[-1:], g))
        for m1, (t1, terms1) in _concrete_chain(chain[:-1], g).items():
            items1 = list(terms1.items())
            for m2, t2, keys2 in compatible(m1):
                m = m1 & m2
                group = val.get(m)
                if group is None:
                    group = val[m] = (t1 | t2, {})
                out = group[1]
                get = out.get
                for k2 in keys2:
                    for k1, c1 in items1:
                        k = k1 * k2
                        out[k] = get(k, 0) + c1
    _CONCRETE_MEMO[memo_key] = val
    return val


def _factor_spans(f: Factor, g: int) -> Grouped:
    """A single factor as _span_classes groups its classes with value 1,
    read off the chunks of its types (_label_sets): each chunk's keys, the
    registry's own ints, are paired with their sets' span masks, so no key
    is factored.  t is the OR of 1 << label over the first set of its span
    in the first chunk that has it: the labels of the span's first key,
    which _span_classes reads t from."""
    groups: Grouped = {}
    for t in _unit_types(f, g):
        for chunk in _label_sets(g)[t.degree].get(t, ()):
            for m, key in zip(chunk.masks, chunk.keys):
                group = groups.get(m)
                if group is None:
                    group = groups[m] = (sum(1 << p for p in chunk.first[m]), {})
                group[1][key] = 1
    return groups


def value_at(expr: Expr, support: Sequence[BoundaryLabel], exponents: Sequence[int],
             g: int) -> Fraction:
    """Value of a ledger expression at one concrete monomial M of genus g: per
    term, its coefficient times the number of ordered factorizations
    M = M_1 ... M_k with M_i of a type of factor i (_unit_types), each part
    typed from its labels by canonical_config, never by product, a split
    table or change_basis.  A support that is not pairwise orthogonal is the
    zero class, of value 0."""
    check_genus(g, GENUS_MIN, None, "value_at")
    if support and support[0].genus != g:
        raise ValueError(f"label of genus {support[0].genus} at genus {g}")
    degree = expr_degree(expr)
    if degree > DEGREE_MAX:
        raise DegreeOverflowError(f"degree {degree} exceeds {DEGREE_MAX}")
    if canonical_config(support, exponents) is None or sum(exponents) != degree:
        return Fraction(0)
    part_type = {part: canonical_config([x for x, e in zip(support, part) if e],
                                        [e for e in part if e])
                 for part in itertools.product(*(range(e + 1) for e in exponents))}

    def count(units: list, rest: tuple[int, ...]) -> int:
        if not units:
            return 1  # each part has its factor's degree, so nothing is left
        return sum(count(units[1:], tuple(map(sub, rest, part)))
                   for part in itertools.product(*(range(e + 1) for e in rest))
                   if part_type[part] in units[0])

    return sum((coeff * count([_unit_types(f, g) for f in factors], tuple(exponents))
                for coeff, factors in expr if coeff), Fraction(0))


class IdentityReport(NamedTuple):
    name: str
    concrete_ok: bool
    symbolic_ok: bool
    counterexample: tuple | None
    residual: BoundaryPoly


def check_identity(identity: Identity, g: int) -> IdentityReport:
    """Verify one ledger identity at genus g: lhs - rhs is zero, concretely
    and symbolically.  A counterexample is its least nonzero monomial and
    each side's value there, read by value_at."""
    check_genus(g, GENUS_MIN, CONCRETE_GENUS_MAX, "check_identity")
    diff = identity.lhs + tuple((-c, factors) for c, factors in identity.rhs)
    _, nums = concrete_expr(diff, g)
    counter = None
    if nums:
        first = _decode(_least_key(nums))
        support = [BoundaryLabel.from_packed(g, p) for p, _ in first]
        exps = [e for _, e in first]
        counter = (first, value_at(identity.lhs, support, exps, g),
                   value_at(identity.rhs, support, exps, g))
    residual = expand_expr(diff, g)
    return IdentityReport(identity.name, not nums, residual.is_zero(), counter, residual)
