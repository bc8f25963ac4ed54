"""Tautological rings of A_g and its perfect cone compactification.

The compactified ring is H*(LG(g, 2g)): Q[lambda_1..lambda_g] modulo the
even pieces of c(E) c(E)^dual = 1, solved for their middle term as the rewrite

    lambda_k^2 = 2 sum_{i<k} (-1)^{k+i+1} lambda_i lambda_{2k-i},   k = 1..g,

with lambda_0 = 1 and lambda_j = 0 for j > g.  Each step moves weight to
higher indices, so it terminates in the squarefree monomials lambda_S, a basis
of dimension 2^g (van der Geer, 1999).  The open ring R*(A_g), the
compactified ring modulo lambda_g, is the compactified ring one genus down
(ibid.), so it is read off that ring rather than rewritten.  The canonical
basis of each degree is picked greedily from the last monomial back, so
lambda_1-powers survive.

Monomials are exponent tuples (e_1, ..., e_g) for lambda_1^{e_1} etc.;
elements are dicts monomial -> Fraction.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Sequence

from .boundary import _partitions, expand_word, make_type, normalize_word
from .datafile import GENUS_MAX, GENUS_MIN, check_genus, genus, numeral, parse_lines
from .exactla import ZERO, add_into, rref
from .zeta import zeta_negative_odd

__all__ = [
    "LambdaMonomial",
    "TautElement",
    "TautRing",
    "ring",
    "monomials",
    "mono_degree",
    "mono_mul",
    "load_normalizations",
    "MissingNormalizationError",
    "normalization",
    "derived_normalization",
    "dg_factor",
    "taut_project_boundary",
]

LambdaMonomial = tuple[int, ...]
TautElement = dict[LambdaMonomial, Fraction]
# genus -> (value, source), as read by load_normalizations
NormTable = dict[int, tuple[Fraction, str]]


def mono_degree(mono: LambdaMonomial) -> int:
    return sum((i + 1) * e for i, e in enumerate(mono))


def mono_mul(a: LambdaMonomial, b: LambdaMonomial) -> LambdaMonomial:
    return tuple(x + y for x, y in zip(a, b))


def unit_mono(g: int) -> LambdaMonomial:
    return (0,) * g


def lam(g: int, index: int, power: int = 1) -> LambdaMonomial:
    mono = [0] * g
    if power:
        if not 1 <= index <= g:
            raise ValueError(f"lambda_{index} does not exist at genus {g}")
        mono[index - 1] = power
    return tuple(mono)


@lru_cache(maxsize=None)
def monomials(g: int, degree: int) -> tuple[LambdaMonomial, ...]:
    """All weighted-degree-d monomials, ascending lexicographic in exponents:
    lambda_1^{e_1}...lambda_g^{e_g} is the partition of d with e_i parts i."""
    check_genus(g, GENUS_MIN, None, "monomials")
    return tuple(sorted(tuple(p.count(i) for i in range(1, g + 1)) for p in _partitions(degree, g)))


@lru_cache(maxsize=None)
def _squarefree(mono: LambdaMonomial) -> dict[LambdaMonomial, int]:
    """Integer image of a monomial in the squarefree basis lambda_S.

    Rewrites the first squared lambda_k and recurses; the result is shared
    through the cache, so callers must not mutate it.
    """
    g = len(mono)
    k = next((k for k, e in enumerate(mono, 1) if e > 1), None)
    if k is None:
        return {mono: 1}
    out: dict[LambdaMonomial, int] = {}
    for i in range(k):
        if 2 * k - i > g:
            continue
        term = list(mono)
        term[k - 1] -= 2
        if i:
            term[i - 1] += 1
        term[2 * k - i - 1] += 1
        add_into(out, _squarefree(tuple(term)), 2 * (-1) ** (k + i + 1))
    return out


class TautRing:
    """Reduction tables for one genus, compactified or open."""

    def __init__(self, g: int, open_variant: bool = False):
        check_genus(g, GENUS_MIN, None, "TautRing")
        self.g = g
        self.open_variant = open_variant
        self.top = g * (g + 1) // 2
        self.basis: dict[int, list[LambdaMonomial]] = {}
        self.table: dict[LambdaMonomial, TautElement] = {}
        if open_variant:
            self._read_off_compact()
            return
        for d in range(self.top + 1):
            self._build_degree(d)
        # the compactified ring pairs into a one-dimensional top piece
        if len(self.basis[self.top]) != 1:
            raise RuntimeError(f"top degree of genus-{g} ring is not a line")
        self.top_mono = self.basis[self.top][0]
        top_reduction = self.reduce({lam(g, 1, self.top): Fraction(1)})
        self.top_unit = top_reduction.get(self.top_mono, Fraction(0))
        if self.top_unit == 0:
            raise RuntimeError("lambda_1^top vanishes; cannot normalize")

    def _read_off_compact(self) -> None:
        # R*(A_g) = R*(Abar_{g-1}) with lambda_g -> 0: each monomial of the
        # ring one genus down gains a zero lambda_g exponent; a monomial
        # holding lambda_g, or of degree above that ring's top, is zero
        if self.g > 1:
            below = ring(self.g - 1)
            basis, table = below.basis, below.table
        else:
            basis, table = {0: [()]}, {(): {(): Fraction(1)}}
        for d in range(self.top + 1):
            self.basis[d] = [b + (0,) for b in basis.get(d, ())]
            rest = sorted(set(monomials(self.g, d)).difference(self.basis[d]))
            for m in self.basis[d] + rest:
                image = {} if m[-1] else table.get(m[:-1], {})
                self.table[m] = {b + (0,): c for b, c in image.items()}

    def _build_degree(self, d: int) -> None:
        # columns run from the last monomial back, so the pivots are the
        # greedy basis and each reduced column solves its monomial in it
        monos = monomials(self.g, d)[::-1]
        images = [_squarefree(m) for m in monos]
        keys = sorted({s for image in images for s in image})
        red, pivots = rref([[image.get(s, 0) for image in images] for s in keys])
        solved = sorted(zip((monos[c] for c in pivots), red))
        self.basis[d] = [b for b, _ in solved]
        # every zero entry of rref's rows is the shared ZERO
        entries = {m: {b: row[j] for b, row in solved if row[j] is not ZERO}
                   for j, m in enumerate(monos)}
        for m in self.basis[d] + sorted(set(monos).difference(self.basis[d])):
            self.table[m] = entries[m]

    # -- arithmetic -----------------------------------------------------------

    def reduce(self, elem: TautElement) -> TautElement:
        """Normal form over the canonical basis; degrees above top vanish."""
        out: TautElement = {}
        for mono, coeff in elem.items():
            if coeff and mono_degree(mono) <= self.top:
                # a unit coefficient adds the row as it is: the rows hold Fractions
                add_into(out, self.table[mono], 1 if coeff == 1 else coeff)
        return out

    def mul(self, a: TautElement, b: TautElement) -> TautElement:
        raw: TautElement = {}
        for m1, c1 in a.items():
            add_into(raw, {mono_mul(m1, m2): c2 for m2, c2 in b.items()}, c1)
        return self.reduce(raw)

    def dimension(self, d: int) -> int:
        return len(self.basis[d]) if 0 <= d <= self.top else 0

    def total_dimension(self) -> int:
        return sum(len(b) for b in self.basis.values())

    # -- intersection pairing -------------------------------------------------

    def intersection_number(self, elem: TautElement, norms: NormTable | None = None) -> Fraction:
        """Degree against the fundamental class; needs the compactified ring.

        `norms` is a table from `load_normalizations` (None: the bundled one).
        """
        if self.open_variant:
            raise ValueError("intersection numbers need the compactified ring")
        reduced = self.reduce(elem)
        if not reduced:
            return Fraction(0)
        if set(reduced) != {self.top_mono}:
            degs = {mono_degree(m) for m in reduced}
            raise ValueError(f"not a top-degree class (degrees {degs})")
        return reduced[self.top_mono] * normalization(self.g, norms) / self.top_unit

    def pairing_matrix(
        self, d: int, norms: NormTable | None = None
    ) -> tuple[list[LambdaMonomial], list[LambdaMonomial], list[list[Fraction]]]:
        rows = self.basis[d]
        cols = self.basis[self.top - d]
        matrix = [
            [self.intersection_number({mono_mul(r, c): Fraction(1)}, norms) for c in cols]
            for r in rows
        ]
        return rows, cols, matrix


@lru_cache(maxsize=None)
def ring(g: int, open_variant: bool = False) -> TautRing:
    return TautRing(g, open_variant)


# --- normalization data ------------------------------------------------------

_NORM_LINE = re.compile(r"genus=(\d+)\s+value=(-?)(\d+)/(\d+)\s+source=(.*)")


def _parse_normalization(line: str) -> tuple[int, tuple[Fraction, str]]:
    m = _NORM_LINE.fullmatch(line)
    if not m or m.group(4) == "0":
        raise ValueError("expected 'genus=<g> value=<p>/<q> source=<text>' with q > 0")
    g = genus(m.group(1), line)
    p, q = (numeral(x, line) for x in m.group(3, 4))
    if not p:
        raise ValueError("a normalization must be nonzero")
    return g, (Fraction(-p if m.group(2) else p, q), m.group(5).strip())


def load_normalizations(path: str | None = None) -> NormTable:
    """Top-degree normalizations <lambda_1^{g(g+1)/2}> with provenance
    strings; refuses a second line for one genus."""
    table: NormTable = {}
    for g, entry in parse_lines("normalizations.txt", path, _parse_normalization):
        if g in table:
            raise ValueError(f"a second normalization line for genus {g}")
        table[g] = entry
    return table


class MissingNormalizationError(KeyError):
    """The normalization table in use has no entry for the genus asked for."""


def normalization(g: int, norms: NormTable | None = None) -> Fraction:
    """<lambda_1^top> at genus g from `norms` (None: the bundled table)."""
    check_genus(g, GENUS_MIN, GENUS_MAX, "normalization")
    table = load_normalizations() if norms is None else norms
    if g not in table:
        raise MissingNormalizationError(f"no normalization on file for genus {g}")
    return table[g][0]


def derived_normalization(g: int) -> Fraction:
    """<lambda_1^top> by Hirzebruch-Mumford proportionality.

    <lambda_1...lambda_g> = (-1)^{g(g+1)/2} prod_{k=1}^{g} zeta(1-2k)/2, and
    lambda_1^{g(g+1)/2} is deg LG(g, 2g) times lambda_1...lambda_g in the
    squarefree basis (van der Geer, 1999).
    """
    check_genus(g, GENUS_MIN, None, "derived_normalization")
    top = g * (g + 1) // 2
    value = Fraction((-1) ** top * _squarefree(lam(g, 1, top))[(1,) * g])
    for k in range(1, g + 1):
        value *= zeta_negative_odd(k) / 2
    return value


# --- projection of boundary words -------------------------------------------

def dg_factor(g: int) -> Fraction:
    """Coefficient of lambda_g in the projection of the g-th power sum word."""
    check_genus(g, GENUS_MIN, None, "dg_factor")
    return Fraction(-(2 ** (g - 1)) * factorial(g - 1)) / zeta_negative_odd(g)


def taut_project_boundary(
    lam_mono: LambdaMonomial, word: Sequence[str], g: int
) -> TautElement:
    """Tautological projection of one (lambda monomial x boundary word) term.

    Boundary-supported classes project to zero, except that in degree exactly
    g the single-label pure power survives through its pushforward; so a term
    with nonempty word contributes only when its lambda part is constant and
    the word has degree g, via the coefficient of the pure-power type.
    """
    check_genus(g, GENUS_MIN, None, "taut_project_boundary")
    R = ring(g)
    word = normalize_word(word)
    if not word:
        return R.reduce({tuple(lam_mono): Fraction(1)})
    expansion = expand_word(word, g)
    if expansion.degree > g:
        raise ValueError(
            f"no projection rule for boundary degree {expansion.degree} > g={g}"
        )
    if any(lam_mono) or expansion.degree < g:
        return {}
    c = expansion.coeffs.get(make_type((g,), ()), Fraction(0))
    if not c:
        return {}
    return R.reduce({lam(g, g): c * dg_factor(g)})
