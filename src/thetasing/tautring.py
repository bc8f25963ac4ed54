"""Tautological rings of A_g and its perfect cone compactification.

The ring is Q[lambda_1..lambda_g] modulo the relations forced by the
triviality of c(E) c(E)^dual: the even graded pieces

    sum_{i=0}^{2k} (-1)^i lambda_i lambda_{2k-i} = 0,   k = 1..g,

with lambda_0 = 1 and lambda_i = 0 for i > g (odd pieces vanish identically).
The open variant additionally kills lambda_g.  Reduction is plain linear
algebra degree by degree; the canonical basis in each degree is the
complement of the leading monomials, so lambda_1-powers survive whenever
possible.

Monomials are exponent tuples (e_1, ..., e_g) for lambda_1^{e_1} etc.;
elements are dicts monomial -> Fraction.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterable, Sequence

from .datafile import parse_lines
from .exactla import add_into, rref
from .zeta import zeta_negative_odd

__all__ = [
    "LambdaMonomial",
    "TautElement",
    "TautRing",
    "ring",
    "monomials",
    "mono_degree",
    "mono_mul",
    "intersection_number",
    "load_normalizations",
    "set_normalizations_path",
    "normalization",
    "normalization_entry",
    "dg_factor",
    "taut_project_boundary",
]

LambdaMonomial = tuple[int, ...]
TautElement = dict[LambdaMonomial, Fraction]


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
    """All weighted-degree-d monomials, ascending lexicographic in exponents."""
    if degree == 0:
        return (unit_mono(g),)

    def gen(rem: int, var: int) -> Iterable[tuple[int, ...]]:
        if var == g:
            if rem == 0:
                yield ()
            return
        weight = var + 1
        for e in range(rem // weight + 1):
            for rest in gen(rem - e * weight, var + 1):
                yield (e,) + rest

    return tuple(sorted(gen(degree, 0)))


def _chern_relation(g: int, k: int) -> TautElement:
    """Degree-2k graded piece of c(E) c(E)^dual - 1."""
    out: TautElement = {}
    for i in range(2 * k + 1):
        j = 2 * k - i
        if i > g or j > g:
            continue
        mono = [0] * g
        if i:
            mono[i - 1] += 1
        if j:
            mono[j - 1] += 1
        add_into(out, {tuple(mono): Fraction((-1) ** i)})
    return out


class TautRing:
    """Reduction tables for one genus, compactified or open."""

    def __init__(self, g: int, open_variant: bool = False):
        self.g = g
        self.open_variant = open_variant
        self.top = g * (g + 1) // 2
        self.basis: dict[int, list[LambdaMonomial]] = {}
        self.table: dict[LambdaMonomial, TautElement] = {}
        for d in range(self.top + 1):
            self._build_degree(d)
        # the compactified ring pairs into a one-dimensional top piece
        if not open_variant:
            if len(self.basis[self.top]) != 1:
                raise RuntimeError(f"top degree of genus-{g} ring is not a line")
            self.top_mono = self.basis[self.top][0]
            top_reduction = self.reduce({lam(g, 1, self.top): Fraction(1)})
            self.top_unit = top_reduction.get(self.top_mono, Fraction(0))
            if self.top_unit == 0:
                raise RuntimeError("lambda_1^top vanishes; cannot normalize")

    def _build_degree(self, d: int) -> None:
        monos = monomials(self.g, d)
        col = {m: i for i, m in enumerate(monos)}
        rows: list[list[Fraction]] = []
        for k in range(1, self.g + 1):
            if d - 2 * k < 0:
                continue
            rel = _chern_relation(self.g, k)
            for mu in monomials(self.g, d - 2 * k):
                row = [Fraction(0)] * len(monos)
                for m, c in rel.items():
                    row[col[mono_mul(m, mu)]] += c
                rows.append(row)
        if self.open_variant and d - self.g >= 0:
            lam_g = lam(self.g, self.g)
            for mu in monomials(self.g, d - self.g):
                row = [Fraction(0)] * len(monos)
                row[col[mono_mul(lam_g, mu)]] = Fraction(1)
                rows.append(row)
        red, pivots = rref(rows)
        pivot_set = set(pivots)
        free = [i for i in range(len(monos)) if i not in pivot_set]
        self.basis[d] = [monos[i] for i in free]
        for m in self.basis[d]:
            self.table[m] = {m: Fraction(1)}
        for r, c in enumerate(pivots):
            self.table[monos[c]] = {
                monos[j]: -red[r][j] for j in free if red[r][j]
            }

    # -- arithmetic -----------------------------------------------------------

    def reduce(self, elem: TautElement) -> TautElement:
        """Normal form over the canonical basis; degrees above top vanish."""
        out: TautElement = {}
        for mono, coeff in elem.items():
            if coeff and mono_degree(mono) <= self.top:
                add_into(out, self.table[mono], coeff)
        return out

    def mul(self, a: TautElement, b: TautElement) -> TautElement:
        raw: TautElement = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                key = mono_mul(m1, m2)
                raw[key] = raw.get(key, Fraction(0)) + c1 * c2
        return self.reduce(raw)

    def dimension(self, d: int) -> int:
        return len(self.basis[d]) if 0 <= d <= self.top else 0

    def total_dimension(self) -> int:
        return sum(len(b) for b in self.basis.values())

    # -- intersection pairing -------------------------------------------------

    def intersection_number(self, elem: TautElement) -> Fraction:
        """Degree against the fundamental class; needs the compactified ring."""
        if self.open_variant:
            raise ValueError("intersection numbers need the compactified ring")
        reduced = self.reduce(elem)
        if not reduced:
            return Fraction(0)
        if set(reduced) != {self.top_mono}:
            degs = {mono_degree(m) for m in reduced}
            raise ValueError(f"not a top-degree class (degrees {degs})")
        return reduced[self.top_mono] * normalization(self.g) / self.top_unit

    def pairing_matrix(
        self, d: int
    ) -> tuple[list[LambdaMonomial], list[LambdaMonomial], list[list[Fraction]]]:
        rows = self.basis[d]
        cols = self.basis[self.top - d]
        matrix = [
            [self.intersection_number({mono_mul(r, c): Fraction(1)}) for c in cols]
            for r in rows
        ]
        return rows, cols, matrix


@lru_cache(maxsize=None)
def ring(g: int, open_variant: bool = False) -> TautRing:
    return TautRing(g, open_variant)


def intersection_number(g: int, elem: TautElement) -> Fraction:
    """Pair a top-degree class against the fundamental class of genus g."""
    return ring(g).intersection_number(elem)


# --- normalization data ------------------------------------------------------

_NORM_LINE = re.compile(r"genus=(\d+)\s+value=(-?\d+)/(\d+)\s+source=(.*)")


def _parse_normalization(line: str) -> tuple[int, tuple[Fraction, str]]:
    m = _NORM_LINE.fullmatch(line)
    if not m or int(m.group(3)) == 0:
        raise ValueError("expected 'genus=<g> value=<p>/<q> source=<text>' with q > 0")
    return int(m.group(1)), (Fraction(int(m.group(2)), int(m.group(3))), m.group(4).strip())


@lru_cache(maxsize=None)
def load_normalizations(path: str | None = None) -> dict[int, tuple[Fraction, str]]:
    """Top-degree normalizations <lambda_1^{g(g+1)/2}> with provenance strings."""
    return dict(parse_lines("normalizations.txt", path, _parse_normalization))


_NORM_PATH: str | None = None


def set_normalizations_path(path: str | None) -> None:
    """Point the normalization table at a different file (None: bundled)."""
    global _NORM_PATH
    _NORM_PATH = path


def normalization_entry(g: int) -> tuple[Fraction, str]:
    """(value, source) of the genus-g normalization in the table in use."""
    table = load_normalizations(_NORM_PATH)
    if g not in table:
        raise KeyError(f"no normalization on file for genus {g}")
    return table[g]


def normalization(g: int) -> Fraction:
    return normalization_entry(g)[0]


# --- projection of boundary words -------------------------------------------

def dg_factor(g: int) -> Fraction:
    """Coefficient of lambda_g in the projection of the g-th power sum word."""
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
    from .boundary import expand_word, make_type, normalize_word

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
