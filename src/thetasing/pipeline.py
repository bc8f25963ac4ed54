"""Assembly of the singular-theta locus classes and their projections.

Everything here is a finite exact computation: the class of the locus of
principally polarized abelian varieties whose theta divisor is singular at
an odd two-torsion point, written in lambda classes and boundary words on
the perfect cone compactification, for genus up to five.

The extension class over the boundary is built stratum by stratum: the
j-th boundary power of the twist class contributes

    (-1/4)^j * (level pushforward of Z_m-power words) * Lambda_j,

where Lambda_j collects the binomial regrouping of the twisted top Chern
class of the Hodge bundle.  The quarter accounts for the square root of
the normal parameter implicit in the twist.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, factorial
from typing import NamedTuple, Sequence

from .boundary import (
    DEGREE_MAX,
    NAMED_CLASSES,
    _parse_expr,
    expand_zm_power,
    n_odd,
    normalize_word,
    pushforward_level2,
    word_sort_key,
)
from .datafile import (GENUS_MAX, GENUS_MIN, check_genus, format_word, genus, parse_lines,
                       parse_record_line, record_line)
from .exactla import Combination, add_into, pivot_solution

Word = tuple[str, ...]
from .tautring import (
    LambdaMonomial,
    NormTable,
    TautElement,
    TautRing,
    lam,
    mono_mul,
    normalization,
    ring,
    taut_project_boundary,
    unit_mono,
)
from .zeta import zeta_negative_odd

__all__ = [
    "MixedClass",
    "RouteMismatchError",
    "stratum",
    "strata",
    "class_compactified",
    "class_open",
    "lam_factor",
    "taut_projection",
    "closed_form_projection",
    "product_locus_taut",
    "theta_null_product_taut",
    "ij_taut",
    "RewriteRule",
    "load_boundary_relations",
    "substitute_boundary_relations",
    "PUBLISHED_COMPACTIFIED",
    "PUBLISHED_STRATA_GENUS3",
    "compare_with_published",
    "comparison_rows",
    "ComparisonRow",
]

LamWord = tuple[LambdaMonomial, Word]

PRODUCT_GENUS_MIN, THETA_NULL_GENUS_MIN, IJ_GENUS = 3, 4, 5
RELATION_GENUS = 2  # the only genus whose class the word relations rewrite; it must vanish


class RouteMismatchError(RuntimeError):
    """Two supposedly equal computations disagreed; carries both values."""

    def __init__(self, message: str, first, second):
        super().__init__(f"{message}\n  first: {first!r}\n  second: {second!r}")
        self.first = first
        self.second = second


class MixedClass(Combination):
    """A class on the compactification: sum of lambda-monomial x word terms;
    the grade is the genus."""

    __slots__ = ()
    genus = property(lambda self: self.grade)

    def sorted_items(self) -> list[tuple[LamWord, Fraction]]:
        return sorted(self.terms.items(), key=lambda item: _term_key(item[0]))

    def __repr__(self) -> str:
        parts = [
            f"{coeff}*{_format_lam(mono)}*{format_word(word)}"
            for (mono, word), coeff in self.sorted_items()
        ]
        return f"MixedClass(g={self.genus}: " + (" + ".join(parts) or "0") + ")"


def _term_key(key: LamWord):
    """Display order: pure lambda terms first, then words by degree (the
    first component of word_sort_key)."""
    mono, word = key
    return (len(word) and 1, word_sort_key(word), mono)


def _format_lam(mono: LambdaMonomial) -> str:
    parts = [
        f"lam{i+1}" + (f"^{e}" if e > 1 else "")
        for i, e in enumerate(mono)
        if e
    ]
    return "*".join(parts) or "1"


# --- the twisted Chern class and its binomial regrouping ---------------------

def lam_factor(g: int, j: int, R: TautRing | None = None) -> TautElement:
    """Lambda_j: what multiplies the j-th power of the boundary twist.

    Substituting x = lam_1/2 + t into sum lam_{g-i} x^i and collecting t^j
    gives sum_{i>=j} C(i,j) (lam_1/2)^{i-j} lam_{g-i}, reduced in R (the
    compactified ring of genus g by default).  Lambda_0 is the top Chern
    class of the Hodge bundle twisted by lam_1/2.
    """
    check_genus(g, GENUS_MIN, None, "lam_factor")
    raw: TautElement = {}
    for i in range(j, g + 1):
        e1 = i - j
        mono = list(unit_mono(g))
        mono[0] += e1
        if g - i >= 1:
            mono[g - i - 1] += 1
        add_into(raw, {tuple(mono): Fraction(comb(i, j), 2 ** e1)})
    return (R or ring(g)).reduce(raw)


# --- strata ------------------------------------------------------------------

@lru_cache(maxsize=None)
def stratum(g: int, j: int) -> MixedClass:
    """Contribution of the j-th twist power to the compactified class.

    It reads no data table, so one assembly per (g, j) serves every caller;
    the result is shared through the cache, so callers must not mutate it.
    """
    check_genus(g, GENUS_MIN, DEGREE_MAX, "stratum")
    if not 0 <= j <= g:
        raise ValueError(f"stratum index {j} out of range for genus {g}")
    lamf = lam_factor(g, j)
    words = pushforward_level2(expand_zm_power(g, j), g)
    scalar = Fraction((-1) ** j, 4 ** j)
    terms = {}
    for word, wc in words.items():
        sw = scalar * wc
        for mono, lc in lamf.items():
            terms[mono, word] = sw * lc
    return MixedClass(g, terms)


def strata(g: int) -> list[MixedClass]:
    check_genus(g, GENUS_MIN, DEGREE_MAX, "strata")
    return [stratum(g, j) for j in range(g + 1)]


def _raw_compactified(g: int) -> MixedClass:
    return sum(strata(g), MixedClass(g))


def class_compactified(g: int, relations: Sequence[RewriteRule] | None = None) -> MixedClass:
    """The locus class on the perfect cone compactification.

    For genus 2 (RELATION_GENUS) the generic boundary algebra does not see
    that the class must die (a smooth genus-2 theta divisor is never
    singular at a two-torsion point); the space-specific word relations
    `relations` (None: the bundled ones) are substituted there so the
    output is literally zero.
    """
    return _apply_word_relations(_raw_compactified(g), relations)


def _apply_word_relations(total: MixedClass, relations: Sequence[RewriteRule] | None) -> MixedClass:
    """The raw stratum sum with its space's word relations substituted."""
    rules = load_boundary_relations() if relations is None else relations
    return substitute_boundary_relations(total, rules) if total.genus == RELATION_GENUS else total


def class_open(g: int) -> TautElement:
    """The locus class on A_g itself, where boundary words vanish."""
    check_genus(g, GENUS_MIN, None, "class_open")
    return add_into({}, lam_factor(g, 0, ring(g, open_variant=True)), n_odd(g))


# --- tautological projection, two routes --------------------------------------

def closed_form_projection(g: int) -> TautElement:
    """Projection of the compactified class, assembled in closed form."""
    check_genus(g, GENUS_MIN, None, "closed_form_projection")
    lam_g_coeff = Fraction((-1) ** (g - 1) * factorial(g - 1)) / (
        8 * zeta_negative_odd(g)
    )
    out = add_into({}, lam_factor(g, 0), n_odd(g))
    return add_into(out, ring(g).reduce({lam(g, g): lam_g_coeff}))


def taut_projection(g: int) -> TautElement:
    """Project the assembled class term by term and check the closed form."""
    total: TautElement = {}
    for s in strata(g):
        for (mono, word), c in s.terms.items():
            add_into(total, taut_project_boundary(mono, word, g), c)
    closed = closed_form_projection(g)
    if total != closed:
        raise RouteMismatchError(
            f"genus-{g} projection differs between routes", total, closed
        )
    return total


# --- the product locus and the theta-null correction --------------------------

def _restrict_to_product(mono: LambdaMonomial, g: int) -> dict[tuple[int, LambdaMonomial], Fraction]:
    """Restrict a lambda monomial to the A_1 x A_{g-1} product.

    Each lambda_k restricts to 1 x lambda_k + lambda_1 x lambda_{k-1}; the
    elliptic factor carries no square of lambda_1, so the first component
    of the key (its degree) stays 0 or 1.
    """
    h = g - 1
    terms: dict[tuple[int, LambdaMonomial], Fraction] = {
        (0, unit_mono(h)): Fraction(1)
    }
    for idx, e in enumerate(mono):
        k = idx + 1
        for _ in range(e):
            new: dict[tuple[int, LambdaMonomial], Fraction] = {}
            for (a, m2), c in terms.items():
                if k <= h:
                    add_into(new, {(a, mono_mul(m2, lam(h, k))): c})
                if a == 0 and k - 1 <= h:
                    m2b = m2 if k == 1 else mono_mul(m2, lam(h, k - 1))
                    add_into(new, {(1, m2b): c})
            terms = new
    return terms


def product_locus_taut(g: int, norms: NormTable | None = None) -> TautElement:
    """Tautological representative of [A_1 x A_{g-1}-bar], degree g-1.

    Determined by pairing against every basis monomial of complementary
    degree: the pairing on the product splits as <lambda_1> on the elliptic
    side times a top intersection number one genus down.  The system is
    square by duality; solving it is the definition, consistency is the
    check.  The intersection numbers use the normalizations `norms`
    (None: the bundled table).
    """
    check_genus(g, PRODUCT_GENUS_MIN, GENUS_MAX, "product_locus_taut")
    R = ring(g)
    Rh = ring(g - 1)
    elliptic = normalization(1, norms)
    conditions, unknowns, matrix = R.pairing_matrix(R.top - (g - 1), norms)
    rhs: list[Fraction] = []
    for c in conditions:
        value = Fraction(0)
        for (a, m2), coeff in _restrict_to_product(c, g).items():
            if a == 1:
                value += coeff * elliptic * Rh.intersection_number({m2: Fraction(1)}, norms)
        rhs.append(value)
    x, consistent = pivot_solution(matrix, rhs)
    if not consistent:
        raise RouteMismatchError(
            f"genus-{g} product locus pairing system is inconsistent", matrix, rhs
        )
    return {b: v for b, v in zip(unknowns, x) if v}


def corner_class_taut(g: int) -> TautElement:
    """Projection of [A_0 x A_{g-1}-bar], the deepest product stratum."""
    R = ring(g)
    coeff = Fraction((-1) ** g) / zeta_negative_odd(g)
    return R.reduce({lam(g, g): coeff})


def theta_null_product_taut(g: int, norms: NormTable | None = None) -> TautElement:
    """Projection of the theta-null part of the product locus.

    The theta-null divisor one genus down multiplies the product class;
    only its lambda_1 part survives projection, and the corner stratum
    enters with weight 1/12 through the elliptic factor.
    """
    check_genus(g, THETA_NULL_GENUS_MIN, GENUS_MAX, "theta_null_product_taut")
    R = ring(g)
    # lambda_1 coefficient of Mumford's theta-null class at genus h = g - 1,
    # [theta_null] = 2^{h-2}(2^h+1) lambda_1 - 2^{2h-5} delta; its boundary
    # part dies under the tautological projection
    h = g - 1
    theta = Fraction(2 ** (h - 2) * (2 ** h + 1))
    out = R.mul({lam(g, 1): theta}, product_locus_taut(g, norms))
    return add_into(out, corner_class_taut(g), -theta / 12)


def ij_taut(norms: NormTable | None = None) -> TautElement:
    """Projection of the genus-5 locus with its theta-null part removed."""
    return add_into(dict(taut_projection(IJ_GENUS)), theta_null_product_taut(IJ_GENUS, norms), -1)


# --- space-specific boundary relations ----------------------------------------

class RewriteRule(NamedTuple):
    word_from: Word
    rhs: tuple[tuple[Fraction, LambdaMonomial, Word], ...]


_LAM = re.compile(r"lam([1-9]\d*)")


def _rule_terms(text: str, g: int) -> list[tuple[Fraction, LambdaMonomial, Word]]:
    """One side of a relation as (coefficient, lambda monomial, word) terms."""
    terms = []
    for coeff, factors in _parse_expr(text):
        mono = list(unit_mono(g))
        word = []
        for factor in factors:
            name = factor[1] if factor[0] == "name" else ""
            lam_index = _LAM.fullmatch(name)
            if lam_index:
                idx = int(lam_index.group(1))
                if not 1 <= idx <= g:
                    raise ValueError(f"lam{idx} out of range at genus {g}")
                mono[idx - 1] += 1
            elif name in NAMED_CLASSES:
                word.append(name)
            else:
                raise ValueError(f"relations take lam<i> and named classes, not {factor!r}")
        terms.append((coeff, tuple(mono), normalize_word(word)))
    return terms


def _parse_rule(line: str) -> RewriteRule:
    head, _, body = line.partition(":")
    m = re.fullmatch(r"genus=(\d+)", head.strip())
    if not m or "=" not in body:
        raise ValueError("expected 'genus=<g>: <word> = <terms>'")
    g = genus(m.group(1), head.strip())
    if g != RELATION_GENUS:
        raise ValueError(f"word relations apply at genus {RELATION_GENUS} only, not {g}")
    lhs_text, _, rhs_text = body.partition("=")
    lhs_terms = _rule_terms(lhs_text, g)
    if len(lhs_terms) != 1 or lhs_terms[0][0] != 1 or any(lhs_terms[0][1]):
        raise ValueError("rule left side must be a bare word")
    word, rhs = lhs_terms[0][2], tuple(_rule_terms(rhs_text, g))
    # substitution stops only because every rule lowers the boundary degree
    degree = word_sort_key(word)[0]
    for _, _, w in rhs:
        if word_sort_key(w)[0] >= degree:
            raise ValueError(
                f"right side word {format_word(w)} is not of degree below {degree}")
    return RewriteRule(word, rhs)


def _rule_projections(rule: RewriteRule) -> tuple[TautElement, TautElement]:
    """Both sides of a word relation under taut_project_boundary at its
    genus, which must agree.  Necessary, not sufficient: the projection keeps
    only the word-free terms and a degree-g word's pure-power coefficient."""
    g = RELATION_GENUS
    left = taut_project_boundary(unit_mono(g), rule.word_from, g)
    right: TautElement = {}
    for c, mono, word in rule.rhs:
        add_into(right, taut_project_boundary(mono, word, g), c)
    return left, right


def _format_taut(elem: TautElement) -> str:
    return " + ".join(f"{c}*{_format_lam(m)}" for m, c in sorted(elem.items())) or "0"


def _parse_checked_rule(line: str) -> RewriteRule:
    """A rule of a relations file, refused unless both of its sides project
    alike (_rule_projections)."""
    rule = _parse_rule(line)
    left, right = _rule_projections(rule)
    if left != right:
        raise ValueError(f"the sides project differently at genus {RELATION_GENUS}: "
                         f"{_format_taut(left)} against {_format_taut(right)}")
    return rule


def load_boundary_relations(path: str | None = None) -> tuple[RewriteRule, ...]:
    """The word relations of the genus-2 class, in file order, each checked
    by projection (_parse_checked_rule)."""
    return tuple(parse_lines("boundary_relations.txt", path, _parse_checked_rule))


def _word_minus(word: Word, sub: Word) -> Word | None:
    rest = list(word)
    for t in sub:
        if t not in rest:
            return None
        rest.remove(t)
    return tuple(rest)


def substitute_boundary_relations(
    mc: MixedClass, rules: Sequence[RewriteRule]
) -> MixedClass:
    """Rewrite each term by its first matching rule, and each term that gives
    in turn, until no rule applies (every rule lowers the boundary degree)."""
    R = ring(mc.genus)
    out: dict[LamWord, Fraction] = {}

    def rewrite(mono: LambdaMonomial, word: Word, c: Fraction) -> None:
        for rule in rules:
            remainder = _word_minus(word, rule.word_from)
            if remainder is not None:
                for rc, dmono, wto in rule.rhs:
                    word_to = normalize_word(remainder + wto)
                    for bmono, bc in R.reduce({mono_mul(mono, dmono): Fraction(1)}).items():
                        rewrite(bmono, word_to, c * rc * bc)
                return
        add_into(out, {(mono, word): c})

    for (mono, word), c in mc.terms.items():
        rewrite(mono, word, c)
    return MixedClass(mc.genus, out)


# --- published coefficient tables ---------------------------------------------
#
# The printed expansions, read from data/published.txt.  The genus-5 class is
# printed without the term -15/4*lam1^2*beta3, which the comparison reports as
# derived.

_PINS = ("open-class", "taut-projection", "product-taut", "theta-null-taut", "ij-taut")
_TABLES = ("compactified", "stratum0", "stratum1", "stratum2", "stratum3", *_PINS)


def _published_line(line: str) -> tuple[str, int, dict]:
    """A line `<table> genus=<g> <records line>` as its table, genus and record."""
    table, _, rest = line.partition(" genus=")
    head, _, record = rest.partition(" ")
    if table not in _TABLES or not record.endswith(" prov=paper"):
        raise ValueError("expected '<table> genus=<g> <records line with prov=paper>', "
                         f"<table> one of compactified|stratum0..stratum3|{'|'.join(_PINS)}")
    g, rec = genus(head, f"genus={head}"), parse_record_line(record)
    if table not in _PINS and table.startswith("stratum") != (g == 3):
        raise ValueError("genus 3 is printed as stratum0..stratum3, and only genus 3 is")
    if rec["lambda"] is not None and len(rec["lambda"]) != g:
        raise ValueError(f"{len(rec['lambda'])} lambda exponents at genus {g}")
    if table in _PINS and rec["word"]:
        raise ValueError(f"a tautological pin has word 1, not {format_word(rec['word'])}")
    return table, g, rec


def _published_tables(rows: Sequence[tuple[str, int, dict]]):
    """The compactified classes by genus (genus 3 the sum of its strata), the
    genus-3 strata and the tautological pins by (table, genus), keyed (lambda
    exponents, word) and lambda exponents; a repeated key is refused."""
    pins: dict[tuple[str, int], dict] = {}
    for table, g, rec in rows:
        mono = rec["lambda"]
        # a zero pin is keyed None, a key that stands for the whole pin
        key = None if mono is None else mono if table in _PINS else (mono, rec["word"])
        pin = pins.setdefault((table, g), {})
        if pin and (key is None or key in pin or None in pin):
            raise ValueError(f"repeated key in {table} genus={g} "
                             f"{record_line(mono, rec['word'], rec['value'], rec['prov'])}")
        pin[key] = rec["value"]
    pins = {k: {m: c for m, c in pin.items() if m is not None} for k, pin in pins.items()}
    strata3 = tuple(pins.get((f"stratum{j}", 3), {}) for j in range(4))
    compact = {g: pin for (table, g), pin in pins.items() if table == "compactified"}
    compact[3] = reduce(add_into, strata3, {})
    return compact, strata3, {k: pin for k, pin in pins.items() if k[0] in _PINS}


PUBLISHED_COMPACTIFIED, PUBLISHED_STRATA_GENUS3, PUBLISHED_TAUT = _published_tables(
    parse_lines("published.txt", None, _published_line))


class ComparisonRow(NamedTuple):
    lam_mono: LambdaMonomial
    word: Word
    engine: Fraction | None
    published: Fraction | None

    @property
    def status(self) -> str:
        if self.engine == self.published:
            return "paper"
        if self.published is None:
            return "derived"
        if self.engine is None:
            return "paper-only"
        return "conflict"


def comparison_rows(engine: dict[LamWord, Fraction],
                    published: dict[LamWord, Fraction]) -> list[ComparisonRow]:
    """Engine terms against printed ones, in display order; a tautological
    class keys each monomial as (monomial, ())."""
    return [ComparisonRow(k[0], k[1], engine.get(k), published.get(k))
            for k in sorted(engine.keys() | published.keys(), key=_term_key)]


def compare_with_published(g: int) -> list[ComparisonRow]:
    """Engine output against the printed table, term by term.

    The engine side is the raw stratum sum (before any space-specific
    substitution), since that is the form the printed tables use.
    """
    check_genus(g, GENUS_MIN, GENUS_MAX, "compare_with_published")
    if g not in PUBLISHED_COMPACTIFIED:
        raise KeyError(f"no published table for genus {g}")
    return comparison_rows(_raw_compactified(g).terms, PUBLISHED_COMPACTIFIED[g])
