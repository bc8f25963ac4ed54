"""Tests for strata assembly, published tables, and the tautological projections."""

import os
import tempfile
from fractions import Fraction

import pytest

from thetasing import (
    MixedClass,
    class_compactified,
    class_open,
    compare_with_published,
    ij_taut,
    product_locus_taut,
    strata,
    taut_projection,
    theta_null_product_taut,
)
from thetasing.pipeline import (
    PUBLISHED_COMPACTIFIED,
    PUBLISHED_STRATA_GENUS3,
    PUBLISHED_TAUT,
    _raw_compactified,
    closed_form_projection,
    corner_class_taut,
    lam_factor,
    load_boundary_relations,
    stratum,
    substitute_boundary_relations,
)
from thetasing.tautring import lam, ring, unit_mono


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


def test_stratum_range_checks():
    with pytest.raises(ValueError):
        stratum(3, 4)
    with pytest.raises(ValueError):
        stratum(3, -1)
    with pytest.raises(ValueError):
        strata(6)


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


# --- word rewrite rules ---------------------------------------------------------------

def test_boundary_relations_parse():
    rules = load_boundary_relations()[2]
    assert [r.word_from for r in rules] == [("sigma2",), ("sigma1", "sigma1")]
    assert rules[0].rhs == ((F(6), (1, 0), ("sigma1",)),)
    assert rules[1].rhs == (
        (F(22), (1, 0), ("sigma1",)),
        (F(-120), (2, 0), ()),
    )


def test_substitution_fixpoint():
    rules = load_boundary_relations()[2]
    mc = MixedClass(2, {((0, 0), ("sigma1", "sigma1", "sigma1")): F(1)})
    out = substitute_boundary_relations(mc, rules)
    assert out.terms == {
        ((2, 0), ("sigma1",)): F(364),
        ((3, 0), ()): F(-2640),
    }
    assert substitute_boundary_relations(out, rules) == out


def test_boundary_relations_path_override():
    fd, path = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write("# no rules\n")
        relations = load_boundary_relations(path)
        # with no rules the genus-2 class keeps its raw word terms
        assert relations == {}
        assert not class_compactified(2, relations).is_zero()
    finally:
        os.unlink(path)
    assert class_compactified(2).is_zero()


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
