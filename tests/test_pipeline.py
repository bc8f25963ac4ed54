"""Tests for strata assembly, published tables, and the tautological projections."""

import os
import random
import tempfile
from fractions import Fraction
from functools import reduce
from importlib import resources

import pytest

from thetasing import (
    MixedClass,
    boundary,
    class_compactified,
    class_open,
    compare_with_published,
    ij_taut,
    pipeline,
    product_locus_taut,
    strata,
    taut_projection,
    theta_null_product_taut,
)
from thetasing.pipeline import (
    PUBLISHED_COMPACTIFIED,
    PUBLISHED_STRATA_GENUS3,
    PUBLISHED_TAUT,
    _parse_rule,
    _raw_compactified,
    _word_minus,
    closed_form_projection,
    corner_class_taut,
    lam_factor,
    load_boundary_relations,
    stratum,
    substitute_boundary_relations,
)
from thetasing.boundary import normalize_word, word_sort_key
from thetasing.datafile import parse_lines, record_line
from thetasing.exactla import add_into
from thetasing.tautring import lam, mono_mul, ring, unit_mono


def F(a, b=1):
    return Fraction(a, b)


# --- the twisted Chern class and its regrouping ---------------------------------

def test_lam_factor_values():
    assert lam_factor(3, 0) == {(0, 0, 1): F(1), (3, 0, 0): F(5, 8)}
    assert lam_factor(3, 1) == {(2, 0, 0): F(9, 4)}
    assert lam_factor(3, 2) == {(1, 0, 0): F(5, 2)}
    assert lam_factor(3, 3) == {(0, 0, 0): F(1)}
    assert lam_factor(4, 1) == {(0, 0, 1, 0): F(1), (3, 0, 0, 0): F(7, 4)}
    assert lam_factor(5, 2) == {(0, 0, 1, 0, 0): F(1), (3, 0, 0, 0, 0): F(7, 2)}
    assert lam_factor(5, 4) == {(1, 0, 0, 0, 0): F(7, 2)}
    assert lam_factor(5, 5) == {(0, 0, 0, 0, 0): F(1)}


def test_lam_factor_regroups_chern_polynomial():
    # evaluating sum_i lam_{g-i} (lam_1/2 + t)^i at g+1 rational points must
    # agree with sum_j t^j Lambda_j; that pins every Lambda_j coefficient
    points = [F(0), F(1), F(-1), F(2), F(-2), F(1, 3)]
    for g in (3, 4, 5):
        R = ring(g)
        for t in points[: g + 1]:
            shifted = {unit_mono(g): t, lam(g, 1): F(1, 2)}
            power = {unit_mono(g): F(1)}
            lhs: dict = {}
            for i in range(g + 1):
                k = g - i
                base = {unit_mono(g) if k == 0 else lam(g, k): F(1)}
                for m, c in R.mul(base, power).items():
                    lhs[m] = lhs.get(m, F(0)) + c
                power = R.mul(power, shifted)
            lhs = {m: c for m, c in lhs.items() if c}
            rhs: dict = {}
            for j in range(g + 1):
                for m, c in lam_factor(g, j).items():
                    val = rhs.get(m, F(0)) + c * t**j
                    if val:
                        rhs[m] = val
                    else:
                        rhs.pop(m, None)
            assert lhs == rhs, (g, t)


# --- strata and the published expansions ------------------------------------------

def test_strata_genus3_per_stratum():
    parts = strata(3)
    assert parts[0].terms == PUBLISHED_STRATA_GENUS3[0]
    assert parts[1].terms == PUBLISHED_STRATA_GENUS3[1]
    assert parts[2].terms == PUBLISHED_STRATA_GENUS3[2]
    assert parts[3].terms == PUBLISHED_STRATA_GENUS3[3]


def test_stratum_zero_is_n_odd_times_lambda_0():
    n_odd = {1: 1, 2: 6, 3: 28, 4: 120, 5: 496}
    for g in range(1, 6):
        expected = {(mono, ()): n_odd[g] * c for mono, c in lam_factor(g, 0).items()}
        assert stratum(g, 0).terms == expected


def test_stratum_range_checks():
    with pytest.raises(ValueError):
        stratum(3, 4)
    with pytest.raises(ValueError):
        stratum(3, -1)
    with pytest.raises(ValueError):
        strata(6)


def test_each_stratum_is_assembled_once(monkeypatch):
    # every output built from the strata shares one level-2 pushforward per
    # (g, j), stratum 0 included
    calls = []
    pushforward = pipeline.pushforward_level2

    def counted(poly, g):
        calls.append(g)
        return pushforward(poly, g)

    stratum.cache_clear()
    monkeypatch.setattr(pipeline, "pushforward_level2", counted)
    for g in range(2, 6):
        class_compactified(g)
        taut_projection(g)
        compare_with_published(g)
    ij_taut()
    assert sorted(calls) == [g for g in range(2, 6) for _ in range(g + 1)]
    assert stratum(5, 3) is stratum(5, 3)
    assert strata(5) is not strata(5)


def test_compactified_genus2_vanishes():
    raw = _raw_compactified(2)
    assert raw.terms == PUBLISHED_COMPACTIFIED[2]
    assert class_compactified(2).is_zero()


def test_compactified_genus4_matches_published():
    assert class_compactified(4).terms == PUBLISHED_COMPACTIFIED[4]


def test_compactified_genus5_differs_by_one_term():
    engine = class_compactified(5).terms
    extra_key = ((2, 0, 0, 0, 0), ("beta3",))
    assert engine[extra_key] == F(-15, 4)
    trimmed = {k: v for k, v in engine.items() if k != extra_key}
    assert trimmed == PUBLISHED_COMPACTIFIED[5]


def test_compare_with_published_statuses():
    assert all(r.status == "paper" for r in compare_with_published(4))
    rows5 = compare_with_published(5)
    odd_rows = [r for r in rows5 if r.status != "paper"]
    assert len(odd_rows) == 1
    row = odd_rows[0]
    assert row.status == "derived"
    assert row.word == ("beta3",) and row.lam_mono == (2, 0, 0, 0, 0)
    with pytest.raises(KeyError):
        compare_with_published(1)


# --- the printed tables as a records file ------------------------------------------

PUBLISHED_TEXT = resources.files("thetasing.data").joinpath("published.txt").read_bytes()


def test_published_file_has_one_spelling():
    # each line is what the records writer gives for what it reads as, and
    # each word is in the normal order the engine's keys use
    lines = [l for l in PUBLISHED_TEXT.split(b"\n") if l and not l.startswith(b"#")]
    assert len(lines) == 83
    for raw in lines:
        table, g, rec = pipeline._published_line(raw.decode("utf-8"))
        rendered = f"{table} genus={g} " + record_line(rec["lambda"], rec["word"], rec["value"],
                                                        rec["prov"])
        assert rendered.encode("utf-8") == raw
        assert rec["word"] is None or normalize_word(rec["word"]) == rec["word"], raw


def _published_copy(tmp_path, old, new):
    text = PUBLISHED_TEXT.decode("utf-8")
    assert text.count(old + "\n") == 1
    path = tmp_path / "published.txt"
    path.write_text(text.replace(old + "\n", new + "\n"), encoding="utf-8")
    return str(path), text[:text.index(old + "\n")].count("\n") + 1


STRATUM2 = "stratum2 genus=3 lambda=1,0,0 word=sigma2 num=-5 den=8 prov=paper"
EXPECTED = "expected '<table> genus=<g> <records line with prov=paper>'"


@pytest.mark.parametrize("new, reason", [
    ("stratum7 genus=3 lambda=1,0,0 word=sigma2 num=-5 den=8 prov=paper", EXPECTED),
    ("strata2 genus=3 lambda=1,0,0 word=sigma2 num=-5 den=8 prov=paper", EXPECTED),
    ("stratum2 genus=3 lambda=1,0,0 word=sigma2 num=-5 den=8 prov=derived", EXPECTED),
    ("stratum2 genus=4 lambda=1,0,0,0 word=sigma2 num=-5 den=8 prov=paper",
     "genus 3 is printed as stratum0..stratum3, and only genus 3 is"),
    ("compactified genus=3 lambda=1,0,0 word=sigma2 num=-5 den=8 prov=paper",
     "genus 3 is printed as stratum0..stratum3, and only genus 3 is"),
    ("stratum2 genus=3 lambda=1,0 word=sigma2 num=-5 den=8 prov=paper",
     "2 lambda exponents at genus 3"),
    ("stratum2 genus=03 lambda=1,0,0 word=sigma2 num=-5 den=8 prov=paper",
     "bad numeral '03' in 'genus=03'"),
    ("stratum2 genus=3 lambda=1,0,0 word=sigma2 num=-10 den=16 prov=paper",
     "num/den not in lowest terms"),
    ("open-class genus=3 lambda=1,0,0 word=sigma2 num=-5 den=8 prov=paper",
     "a tautological pin has word 1, not sigma2"),
])
def test_malformed_published_line_is_refused_with_its_line_number(tmp_path, new, reason):
    path, number = _published_copy(tmp_path, STRATUM2, new)
    with pytest.raises(ValueError) as exc:
        pipeline._published_tables(parse_lines("published.txt", path, pipeline._published_line))
    message = str(exc.value)
    assert message.startswith(f"line {number} {new!r}: ") and reason in message
    assert "\n" not in message


@pytest.mark.parametrize("old, new", [
    (STRATUM2, STRATUM2 + "\n" + STRATUM2.replace("num=-5", "num=5")),
    ("open-class genus=2 0 prov=paper",
     "open-class genus=2 0 prov=paper\nopen-class genus=2 lambda=2,0 word=1 num=1 den=1 prov=paper"),
    ("open-class genus=4 lambda=4,0,0,0 word=1 num=45 den=1 prov=paper",
     "open-class genus=4 lambda=4,0,0,0 word=1 num=45 den=1 prov=paper\n"
     "open-class genus=4 0 prov=paper"),
])
def test_repeated_published_key_is_refused_naming_the_line(tmp_path, old, new):
    path, _ = _published_copy(tmp_path, old, new)
    repeated = new.split("\n")[1]
    with pytest.raises(ValueError) as exc:
        pipeline._published_tables(parse_lines("published.txt", path, pipeline._published_line))
    assert str(exc.value) == f"repeated key in {repeated}"


# --- the printed tables as genus-free word vectors -------------------------------
#
# For 1 <= j <= g no type of degree j is dropped at genus g, so stratum j is
# (-1/4)^j * 4^g * W_j (x) Lambda_j(g), Lambda_j = lam_factor(g, j), with the
# word vector W_j free of the genus.  Each printed term of word degree j >= 1,
# divided by (-1/4)^j * 4^g * Lambda_j(g)[mono], reads off W_j[word].

def _printed_tables():
    tables = {g: PUBLISHED_COMPACTIFIED[g] for g in (2, 4, 5)}
    tables[3] = reduce(add_into, PUBLISHED_STRATA_GENUS3, {})  # the sum of its strata
    return tables


def _word_degree(word):
    return sum(boundary._named(w)[1] for w in word)


def _printed_word_ratios():
    """{(j, word): {g: {mono: printed term / its scale}}} over every printed term, j >= 1."""
    ratios = {}
    for g, table in _printed_tables().items():
        for (mono, word), c in table.items():
            j = _word_degree(word)
            if j:
                scale = F(-1, 4) ** j * 4 ** g * lam_factor(g, j).get(mono, 0)
                ratio = c / scale if scale else None
                ratios.setdefault((j, word), {}).setdefault(g, {})[mono] = ratio
    return ratios


def _printed_word_vectors():
    """W_j[word], keyed by (j, word), from the printed tables alone (the
    ratios of one word agree, as test_printed_tables_give_one_word_vector_per_degree checks)."""
    return {key: ratio for key, by_genus in _printed_word_ratios().items()
            for per_mono in by_genus.values() for ratio in per_mono.values()}


def _derived_rows_against_printed():
    """(genus, mono, word, engine value, value predicted from the printed W and Lambda_j)
    for every [derived] row of the published comparison."""
    w = _printed_word_vectors()
    out = []
    for g in range(2, 6):
        for row in compare_with_published(g):
            if row.status == "derived":
                j = _word_degree(row.word)
                lam_c = lam_factor(g, j)[row.lam_mono]
                predicted = F(-1, 4) ** j * 4 ** g * w[j, row.word] * lam_c
                out.append((g, row.lam_mono, row.word, row.engine, predicted))
    return out


def test_printed_tables_give_one_word_vector_per_degree():
    ratios = _printed_word_ratios()
    for (j, word), by_genus in ratios.items():
        for g, per_mono in by_genus.items():
            # every monomial of Lambda_j(g) is printed with the word, all at one ratio
            assert per_mono.keys() == lam_factor(g, j).keys(), (g, word)
            assert len(set(per_mono.values())) == 1, (g, word, per_mono)
        # and the ratio is the same at every genus that prints the word
        assert len({r for per_mono in by_genus.values() for r in per_mono.values()}) == 1, word
    assert [sum(g in by_genus for by_genus in ratios.values()) for g in (2, 3, 4, 5)] == \
        [3, 7, 14, 28]
    # the engine's W_j, read at g = j, has the same 29 entries, every one printed somewhere
    engine = {(j, word): c / 4 ** j
              for j in range(1, 6)
              for word, c in boundary.pushforward_level2(boundary.expand_zm_power(j, j), j).items()
              if c}
    assert len(engine) == 29
    assert _printed_word_vectors() == engine


def test_derived_rows_follow_from_the_printed_tables():
    # the one unprinted row, -15/4 lam1^2 beta3 at genus 5, is
    # (-1/64) * 4^5 * W_3[beta3] * 5 with W_3[beta3] = 3/64 printed at genus 3 and 4
    rows = _derived_rows_against_printed()
    assert rows == [(5, (2, 0, 0, 0, 0), ("beta3",), F(-15, 4), F(-15, 4))]
    assert _printed_word_vectors()[3, ("beta3",)] == F(3, 64)


def test_fault_in_a_pushforward_coefficient_fails_the_prediction(monkeypatch):
    # fault C: +1/8 on beta3 in the degree-3 pushforward at genus 5 moves only
    # the derived row; the published comparison cannot see it, the prediction does
    push = boundary.pushforward_level2

    def faulty(poly, g):
        out = push(poly, g)
        if g == 5 and poly.degree == 3:
            out[("beta3",)] += F(1, 8)
        return out

    try:
        for module in (boundary, pipeline):
            monkeypatch.setattr(module, "pushforward_level2", faulty)
        stratum.cache_clear()
        assert all(r.status in ("paper", "derived")
                   for g in range(2, 6) for r in compare_with_published(g))
        rows = _derived_rows_against_printed()
        assert rows == [(5, (2, 0, 0, 0, 0), ("beta3",), F(-1925, 512), F(-15, 4))]
    finally:
        monkeypatch.undo()
        stratum.cache_clear()


# --- open classes and projections ---------------------------------------------------

def test_class_open_values():
    assert class_open(1) == {}
    assert class_open(2) == {}
    assert class_open(3) == {(3, 0, 0): F(35, 2)}
    assert class_open(4) == PUBLISHED_TAUT[("open-class", 4)]
    assert class_open(5) == PUBLISHED_TAUT[("open-class", 5)]


def test_taut_projection_agrees_with_closed_form():
    # taut_projection raises internally when the two routes disagree
    for g in range(1, 6):
        assert taut_projection(g) == closed_form_projection(g)


def test_taut_projection_values():
    assert taut_projection(1) == {}
    assert taut_projection(2) == PUBLISHED_TAUT[("taut-projection", 2)]
    assert taut_projection(3) == {(0, 0, 1): F(-35), (3, 0, 0): F(35, 2)}
    assert taut_projection(4) == PUBLISHED_TAUT[("taut-projection", 4)]
    assert taut_projection(5) == PUBLISHED_TAUT[("taut-projection", 5)]


def test_product_locus_values():
    assert product_locus_taut(3) == {(2, 0, 0): F(21, 2)}
    assert product_locus_taut(4) == PUBLISHED_TAUT[("product-taut", 4)]
    assert product_locus_taut(5) == PUBLISHED_TAUT[("product-taut", 5)]
    with pytest.raises(ValueError):
        product_locus_taut(2)
    with pytest.raises(ValueError):
        product_locus_taut(6)


def test_corner_class():
    assert corner_class_taut(4) == {(1, 0, 1, 0): F(240), (4, 0, 0, 0): F(-30)}
    assert corner_class_taut(5) == {(0, 0, 0, 0, 1): F(132)}


def test_theta_null_values():
    assert theta_null_product_taut(4) == PUBLISHED_TAUT[("theta-null-taut", 4)]
    assert theta_null_product_taut(5) == PUBLISHED_TAUT[("theta-null-taut", 5)]
    with pytest.raises(ValueError):
        theta_null_product_taut(3)


def test_ij_decomposition():
    assert ij_taut() == PUBLISHED_TAUT[("ij-taut", 5)]
    total: dict = {}
    for part in (ij_taut(), theta_null_product_taut(5)):
        for m, c in part.items():
            total[m] = total.get(m, F(0)) + c
    total = {m: c for m, c in total.items() if c}
    assert total == taut_projection(5)


def test_every_coefficient_is_a_fraction():
    # an int that equals the right value still compares equal to it, so the
    # value tests above cannot see one leak into an output; check the type
    outputs = {}
    for g in range(1, 6):
        outputs[f"class_open({g})"] = class_open(g)
        outputs[f"taut_projection({g})"] = taut_projection(g)
        for j in range(g + 1):
            outputs[f"expand_zm_power({g}, {j})"] = boundary.expand_zm_power(g, j).coeffs
        for open_variant in (False, True):
            for mono, elem in ring(g, open_variant).table.items():
                outputs[f"ring({g}, {open_variant}).table[{mono}]"] = elem
    for g in range(2, 6):
        outputs[f"class_compactified({g})"] = class_compactified(g).terms
    for g in range(3, 6):
        outputs[f"product_locus_taut({g})"] = product_locus_taut(g)
    for g in (4, 5):
        outputs[f"theta_null_product_taut({g})"] = theta_null_product_taut(g)
    outputs["ij_taut()"] = ij_taut()
    bad = {(name, key): type(c).__name__ for name, terms in outputs.items()
           for key, c in terms.items() if type(c) is not Fraction}
    assert bad == {}
    # the nonzero outputs and tables really were checked
    assert sum(map(len, outputs.values())) > 800


# --- word rewrite rules ---------------------------------------------------------------

def test_boundary_relations_parse():
    rules = load_boundary_relations()
    assert [r.word_from for r in rules] == [("sigma2",), ("sigma1", "sigma1")]
    assert rules[0].rhs == ((F(6), (1, 0), ("sigma1",)),)
    assert rules[1].rhs == (
        (F(22), (1, 0), ("sigma1",)),
        (F(-120), (2, 0), ()),
    )


def test_substitution_fixpoint():
    rules = load_boundary_relations()
    mc = MixedClass(2, {((0, 0), ("sigma1", "sigma1", "sigma1")): F(1)})
    out = substitute_boundary_relations(mc, rules)
    assert out.terms == {
        ((2, 0), ("sigma1",)): F(364),
        ((3, 0), ()): F(-2640),
    }
    assert substitute_boundary_relations(out, rules) == out


def _restart_substitute(mc, rules):
    """Reference rewrite: substitute into the first term a rule matches,
    then rescan from the first term, until no rule applies."""
    R = ring(mc.genus)
    terms = dict(mc.terms)
    progress = True
    while progress:
        progress = False
        for (mono, word), c in list(terms.items()):
            for rule in rules:
                remainder = _word_minus(word, rule.word_from)
                if remainder is None:
                    continue
                del terms[(mono, word)]
                for rc, dmono, wto in rule.rhs:
                    reduced = R.reduce({mono_mul(mono, dmono): Fraction(1)})
                    word_to = normalize_word(remainder + wto)
                    add_into(terms, {(bmono, word_to): bc for bmono, bc in reduced.items()},
                             c * rc)
                progress = True
                break
            if progress:
                break
    return MixedClass(mc.genus, terms)


# the rules' own words, drawn more often, and words no rule touches
WORD_FACTORS = ("sigma1", "sigma1", "sigma1", "sigma2", "sigma2", "sigma3", "beta3", "Y")


def _random_genus2_class(rng):
    """Up to six terms, each a small lambda monomial times a word of degree <= 4."""
    terms = {}
    for _ in range(rng.randint(0, 6)):
        word, budget = [], rng.randint(0, 4)
        while True:
            fits = [n for n in WORD_FACTORS if word_sort_key((n,))[0] <= budget]
            if not fits or rng.random() < 0.2:
                break
            word.append(rng.choice(fits))
            budget -= word_sort_key((word[-1],))[0]
        key = ((rng.randint(0, 3), rng.randint(0, 1)), normalize_word(word))
        terms[key] = F(rng.randint(-9, 9), rng.randint(1, 4))
    return MixedClass(2, terms)


def test_substitution_matches_restart_reference():
    rules = load_boundary_relations()
    raw = _raw_compactified(2)
    assert substitute_boundary_relations(raw, rules) == _restart_substitute(raw, rules)
    rng = random.Random(2025)
    for _ in range(200):
        mc = _random_genus2_class(rng)
        assert substitute_boundary_relations(mc, rules) == _restart_substitute(mc, rules)


def test_substitution_applies_the_first_matching_rule():
    # both rules match sigma1*sigma2, and each order gives its own answer
    whole = _parse_rule("genus=2: sigma1*sigma2 = 3*lam1*sigma1")
    part = _parse_rule("genus=2: sigma2 = 6*lam1*sigma1")
    mc = MixedClass(2, {((0, 0), ("sigma1", "sigma2")): F(1)})
    for rules, expected in [
        ((whole, part), {((1, 0), ("sigma1",)): F(3)}),
        ((part, whole), {((1, 0), ("sigma1", "sigma1")): F(6)}),
    ]:
        assert substitute_boundary_relations(mc, rules).terms == expected
        assert _restart_substitute(mc, rules).terms == expected


def test_boundary_relations_path_override():
    fd, path = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write("# no rules\n")
        relations = load_boundary_relations(path)
        # with no rules the genus-2 class keeps its raw word terms
        assert relations == ()
        assert not class_compactified(2, relations).is_zero()
    finally:
        os.unlink(path)
    assert class_compactified(2).is_zero()


def test_relation_rules_are_checked_by_projection(tmp_path):
    # each bundled rule's sides under taut_project_boundary at genus 2
    sides = [pipeline._rule_projections(rule) for rule in load_boundary_relations()]
    # sigma2 = 6*lam1*sigma1 is vacuous here: a word below degree 2 and a
    # word times a lambda class both project to 0, so the check reads 0 = 0
    assert sides[0] == ({}, {})
    # sigma1^2 = 22*lam1*sigma1 - 120*lam1^2: both sides are -120*lam1^2
    assert sides[1] == ({(2, 0): F(-120)}, {(2, 0): F(-120)})
    bundled = resources.files("thetasing.data").joinpath("boundary_relations.txt").read_text()
    path = tmp_path / "relations.txt"
    path.write_text(bundled, encoding="utf-8")
    assert load_boundary_relations(str(path)) == load_boundary_relations()
    # a planted coefficient is refused in one line that names the rule
    path.write_text(bundled.replace("- 120*lam1^2", "- 119*lam1^2"), encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load_boundary_relations(str(path))
    assert str(exc.value) == (
        "line 9 'genus=2: sigma1^2 = 22*lam1*sigma1 - 119*lam1^2': the sides project "
        "differently at genus 2: -120*lam1^2 against -119*lam1^2")


# --- MixedClass algebra -----------------------------------------------------------------

def test_mixed_class_algebra():
    a = MixedClass(3, {((0, 0, 0), ("sigma1",)): F(2)})
    b = MixedClass(3, {((0, 0, 0), ("sigma1",)): F(-2)})
    assert (a + b).is_zero()
    assert (F(1, 2) * a).terms == {((0, 0, 0), ("sigma1",)): F(1)}
    with pytest.raises(ValueError):
        a + MixedClass(2, {})


def test_mixed_class_sorted_items():
    mc = MixedClass(
        3,
        {
            ((0, 0, 0), ("beta3",)): F(1),
            ((3, 0, 0), ()): F(1),
            ((0, 0, 0), ("sigma1",)): F(1),
            ((0, 0, 1), ()): F(1),
        },
    )
    keys = [k for k, _ in mc.sorted_items()]
    assert keys == [
        ((0, 0, 1), ()),
        ((3, 0, 0), ()),
        ((0, 0, 0), ("sigma1",)),
        ((0, 0, 0), ("beta3",)),
    ]
