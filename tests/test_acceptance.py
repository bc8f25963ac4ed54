"""Acceptance suite: one test per criterion, exact equality throughout.

Run with -v to get one pass/fail line per criterion.  Budgeted criteria
time their own core computation and fail when over budget.
"""

import time
from collections import Counter
from fractions import Fraction
from random import Random

from thetasing import (
    brute_force_count,
    check_identity,
    class_compactified,
    class_open,
    count_vanishing,
    expand_zm_power,
    ij_taut,
    load_identities,
    product_locus_taut,
    ring,
    strata,
    taut_projection,
    theta_null_product_taut,
)
from thetasing.bits import kernel_f2
from thetasing.boundary import all_types, make_type
from thetasing.characteristics import orthogonal_tuples, random_orthogonal_tuple
from thetasing.exactla import rank
from thetasing.pipeline import (
    PUBLISHED_COMPACTIFIED,
    PUBLISHED_STRATA_GENUS3,
    _raw_compactified,
    lam_factor,
    stratum,
)
from thetasing.tautring import lam, mono_mul


def F(a, b=1):
    return Fraction(a, b)


SEED = 20260819
SAMPLES = 100000


def test_criterion_01_genus2_vanishing():
    start = time.perf_counter()
    reduced = class_compactified(2)
    elapsed = time.perf_counter() - start
    assert reduced.is_zero(), f"genus-2 class did not vanish: {reduced!r}"
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s, budget 1s"
    print("criterion 1 PASS: genus-2 class vanishes after word relations")


def test_criterion_02_open_classes():
    start = time.perf_counter()
    got4 = class_open(4)
    got5 = class_open(5)
    elapsed = time.perf_counter() - start
    assert got4 == {(4, 0, 0, 0): F(45)}
    assert got5 == {(2, 0, 1, 0, 0): F(372), (5, 0, 0, 0, 0): F(93, 2)}
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.2f}s, budget 1s"
    print("criterion 2 PASS: open classes 45*lam1^4 and 372*lam1^2*lam3 + 93/2*lam1^5")


def test_criterion_03_counting_oracle():
    start = time.perf_counter()
    checked = 0
    for g in (2, 3):
        assert count_vanishing(g, ()) == brute_force_count(g, ())
        checked += 1
        for labels in orthogonal_tuples(g, 5):
            assert count_vanishing(g, labels) == brute_force_count(g, labels), labels
            checked += 1
    rng = Random(SEED)
    for g in (4, 5):
        patterns = Counter()
        for _ in range(SAMPLES):
            labels = random_orthogonal_tuple(rng, g)
            assert count_vanishing(g, labels) == brute_force_count(g, labels), labels
            patterns[len(labels), kernel_f2([n.packed for n in labels])] += 1
            checked += 1
        # the sample reaches every label pattern that exists at this genus:
        # each all-ones type of rank <= g, 11 at genus 4 and 12 at genus 5
        reached = {make_type((1,) * k, rels) for k, rels in patterns}
        assert reached == {t for d in range(1, 6) for t in all_types(d)
                           if t.exps == (1,) * d and t.rank <= g}, g
        assert len(reached) == {4: 11, 5: 12}[g]
    elapsed = time.perf_counter() - start
    assert checked >= 2 * SAMPLES + 75 + 12663
    assert elapsed < 120.0, f"criterion 3 took {elapsed:.2f}s, budget 120s"
    print(f"criterion 3 PASS: counting rule matches oracle on {checked} tuples")


def test_criterion_04_identity_ledger():
    start = time.perf_counter()
    identities = load_identities()
    assert len(identities) == 18
    for identity in identities:
        report = check_identity(identity, 3)
        assert report.concrete_ok and report.symbolic_ok, (
            identity.name,
            report.counterexample,
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion 4 took {elapsed:.2f}s, budget 120s"
    print(f"criterion 4 PASS: {len(identities)} ledger identities hold at genus 3")


def test_criterion_05_lemma_regression():
    for g in (3, 4, 5):
        scale2 = F(2 ** (2 * g), 2 ** 8)
        expected2 = {}
        for mono, lc in lam_factor(g, 2).items():
            expected2[(mono, ("sigma1", "sigma1"))] = scale2 * lc
            expected2[(mono, ("sigma2",))] = -scale2 * lc
        assert stratum(g, 2).terms == expected2, f"j=2 mismatch at genus {g}"
        scale3 = F(2 ** (2 * g), 2 ** 12)
        weights3 = {
            ("sigma1", "sigma1", "sigma1"): F(2),
            ("sigma1", "sigma2"): F(-3),
            ("sigma3",): F(-3),
            ("beta3",): F(3),
        }
        expected3 = {}
        for mono, lc in lam_factor(g, 3).items():
            for word, w in weights3.items():
                expected3[(mono, word)] = -scale3 * w * lc
        assert stratum(g, 3).terms == expected3, f"j=3 mismatch at genus {g}"
    print("criterion 5 PASS: j=2 and j=3 strata match their closed forms, genus 3..5")


def test_criterion_06_genus3_display():
    # the printed genus-3 expansion carries six grouped coefficients
    # (28, -2, 1/4, -1/32, -3/64, -3/64) and the triple-product lemma
    # four more (2, -3, -3, 3): ten printed numbers in all
    parts = strata(3)
    for j in range(4):
        assert parts[j].terms == PUBLISHED_STRATA_GENUS3[j], f"stratum {j} differs"
    assert parts[0].terms == {
        (m, ()): 28 * c for m, c in lam_factor(3, 0).items()
    }
    assert parts[1].terms == {
        (m, ("sigma1",)): -2 * c for m, c in lam_factor(3, 1).items()
    }
    expected2 = {}
    for m, c in lam_factor(3, 2).items():
        expected2[(m, ("sigma1", "sigma1"))] = F(1, 4) * c
        expected2[(m, ("sigma2",))] = F(-1, 4) * c
    assert parts[2].terms == expected2
    # cubic part as printed: -1/32 (s1^3 - 3 s1 s2 + 3 s3) - 3/64 (s1 s2 - 3 s3)
    # - 3/64 b3, which regroups the lemma's 2, -3, -3, 3 weights
    display3 = {
        ("sigma1", "sigma1", "sigma1"): F(-1, 32),
        ("sigma1", "sigma2"): F(-1, 32) * -3 + F(-3, 64),
        ("sigma3",): F(-1, 32) * 3 + F(-3, 64) * -3,
        ("beta3",): F(-3, 64),
    }
    lemma3 = {
        ("sigma1", "sigma1", "sigma1"): F(-1, 64) * 2,
        ("sigma1", "sigma2"): F(-1, 64) * -3,
        ("sigma3",): F(-1, 64) * -3,
        ("beta3",): F(-1, 64) * 3,
    }
    assert display3 == lemma3
    assert parts[3].terms == {((0, 0, 0), w): c for w, c in display3.items()}
    assert parts[3].terms[((0, 0, 0), ("beta3",))] == F(-3, 64)
    print("criterion 6 PASS: genus-3 strata match all 10 printed coefficients")


def test_criterion_07_genus4_class():
    engine = class_compactified(4).terms
    assert engine == PUBLISHED_COMPACTIFIED[4], "genus-4 table mismatch"
    # the Y coefficient appears twice in print: once in the final proposition
    # (word basis) and once inside an intermediate display (type basis);
    # pin the engine value to each in its own basis
    engine_y_word = engine[((0, 0, 0, 0), ("Y",))]
    proposition_value = F(3, 64)
    y_type = make_type((1, 1, 1, 1), (0b1111,))
    engine_y_type = expand_zm_power(4, 4).coeffs[y_type]
    display_value = 6 * F(2 ** (2 * 4 - 2))
    if engine_y_word != proposition_value or engine_y_type != display_value:
        print("criterion 7 DISCREPANCY:")
        print(f"  engine word-basis Y = {engine_y_word}, proposition prints 3/64")
        print(f"  engine type-basis Y = {engine_y_type}, display implies {display_value}")
    assert engine_y_word == proposition_value
    assert engine_y_type == display_value
    print("criterion 7 PASS: genus-4 class matches, Y pinned in both printed bases")


def test_criterion_08_genus5_class():
    start = time.perf_counter()
    engine = class_compactified(5).terms
    elapsed = time.perf_counter() - start
    published = PUBLISHED_COMPACTIFIED[5]
    for key, value in published.items():
        assert engine.get(key) == value, f"mismatch at {key}"
    # pinned-derivation policy: the recomputation carries one word term the
    # printed table drops; it is pinned here rather than silently merged
    extra = set(engine) - set(published)
    assert extra == {((2, 0, 0, 0, 0), ("beta3",))}
    assert engine[((2, 0, 0, 0, 0), ("beta3",))] == F(-15, 4)
    # the printed display groups blocks by common factors; check those shapes
    for word, sign in ((("sigma1", "sigma1"), 1), (("sigma2",), -1)):
        assert engine[((0, 0, 1, 0, 0), word)] == sign * F(4)
        assert engine[((3, 0, 0, 0, 0), word)] == sign * F(14)
    onefour = F(5, 4)
    assert engine[((2, 0, 0, 0, 0), ("sigma3",))] == onefour * 3
    assert engine[((2, 0, 0, 0, 0), ("sigma1", "sigma2"))] == onefour * 3
    assert engine[((2, 0, 0, 0, 0), ("sigma1", "sigma1", "sigma1"))] == onefour * -2
    lam1_block = {w: c / F(7, 32) for (m, w), c in engine.items() if m == (1, 0, 0, 0, 0)}
    assert lam1_block == {
        ("sigma4",): F(1),
        ("sigma1", "sigma3"): F(-4),
        ("Y",): F(3),
        ("sigma1", "beta3"): F(3),
        ("sigma2", "sigma2"): F(1),
        ("sigma1", "sigma1", "sigma2"): F(-2),
        ("sigma1", "sigma1", "sigma1", "sigma1"): F(1),
    }
    const_block = {
        w: c / F(-1, 256) for (m, w), c in engine.items() if m == (0, 0, 0, 0, 0)
    }
    assert const_block == {
        ("sigma5",): F(-95),
        ("beta5",): F(-30),
        ("A2",): F(-45),
        ("A3",): F(-30),
        ("A4",): F(-15),
        ("C1",): F(15),
        ("D1",): F(10),
        ("sigma1", "sigma4"): F(45),
        ("sigma1", "beta4"): F(15),
        ("sigma1", "Y"): F(30),
        ("sigma2", "sigma3"): F(5),
        ("sigma1", "sigma1", "sigma3"): F(-15),
        ("sigma1", "sigma2", "sigma2"): F(5),
        ("sigma1", "sigma1", "sigma1", "sigma2"): F(-5),
        ("sigma1",) * 5: F(2),
    }
    assert elapsed < 60.0, f"criterion 8 took {elapsed:.2f}s, budget 60s"
    print("criterion 8 PASS: genus-5 class matches every published coefficient")


def test_criterion_09_tautological_projections():
    from thetasing.pipeline import closed_form_projection

    for g in (2, 3, 4, 5):
        assert taut_projection(g) == closed_form_projection(g), g
    assert ij_taut() == {
        (5, 0, 0, 0, 0): F(140),
        (2, 0, 1, 0, 0): F(-376),
        (0, 0, 0, 0, 1): F(848),
    }
    assert theta_null_product_taut(4) == {(4, 0, 0, 0): F(45)}
    assert theta_null_product_taut(5) == {
        (5, 0, 0, 0, 0): 187 * F(-1, 2),
        (2, 0, 1, 0, 0): 187 * F(4),
        (0, 0, 0, 0, 1): 187 * F(-4),
    }
    assert product_locus_taut(4) == {(0, 0, 1, 0): F(20)}
    assert product_locus_taut(5) == {(1, 0, 1, 0, 0): F(11), (4, 0, 0, 0, 0): F(-11, 8)}
    print("criterion 9 PASS: both projection routes and all projected classes match")


def test_criterion_10_ring_structure():
    for g in range(1, 6):
        R = ring(g)
        assert R.total_dimension() == 1 << g, g
        for d in range(R.top + 1):
            rows, cols, matrix = R.pairing_matrix(d)
            assert len(rows) == len(cols)
            assert rank(matrix) == len(rows), (g, d)
    R5 = ring(5)
    # quoted genus-5 reductions, written as vanishing differences
    l1 = lambda e: lam(5, 1, e)
    zero = R5.reduce(
        {
            lam(5, 3, 2): F(1),
            mono_mul(l1(3), lam(5, 3)): F(-1),
            l1(6): F(1, 8),
            mono_mul(l1(1), lam(5, 5)): F(2),
        }
    )
    assert zero == {}
    zero = R5.reduce(
        {
            mono_mul(l1(5), lam(5, 3)): F(1),
            l1(8): F(-7, 48),
            mono_mul(l1(3), lam(5, 5)): F(-8, 3),
            mono_mul(lam(5, 3), lam(5, 5)): F(-8, 3),
        }
    )
    assert zero == {}
    assert R5.reduce({lam(5, 5, 2): F(1)}) == {}
    zero = R5.reduce(
        {
            mono_mul(mono_mul(l1(3), lam(5, 3)), lam(5, 5)): F(1),
            mono_mul(l1(6), lam(5, 5)): F(-1, 5),
            l1(11): F(1, 7040),
        }
    )
    assert zero == {}
    zero = R5.reduce({mono_mul(l1(8), lam(5, 5)): F(1), l1(13): F(-3, 1144)})
    assert zero == {}
    # quoted intersection numbers
    assert R5.intersection_number({l1(15): F(1)}) == F(13, 16329600)
    assert R5.intersection_number({mono_mul(l1(12), lam(5, 3)): F(1)}) == F(2, 16329600)
    assert R5.intersection_number({mono_mul(l1(9), lam(5, 3, 2)): F(1)}) == F(1, 53222400)
    n4, R4 = F(1, 1814400), ring(4)
    assert R4.intersection_number({lam(4, 1, 10): F(1)}) == n4
    assert R4.intersection_number({mono_mul(lam(4, 3), lam(4, 1, 7)): F(1)}) == F(7, 48) * n4
    assert (
        R4.intersection_number({mono_mul(lam(4, 1, 3), mono_mul(lam(4, 1, 4), lam(4, 3))): F(1)})
        == F(7, 48) * n4
    )
    assert (
        R4.intersection_number({mono_mul(lam(4, 3, 2), lam(4, 1, 4)): F(1)})
        == F(1, 48) * n4
    )
    print("criterion 10 PASS: ring dimensions, pairings, reductions, numbers all match")


def test_criterion_11_cross_route_consistency():
    total = dict(ij_taut())
    for m, c in theta_null_product_taut(5).items():
        total[m] = total.get(m, F(0)) + c
    total = {m: c for m, c in total.items() if c}
    assert total == taut_projection(5)
    lifts = {
        4: {(1, 0, 1, 0): F(180), (4, 0, 0, 0): F(45, 2)},
        5: {(0, 0, 0, 0, 1): F(496), (2, 0, 1, 0, 0): F(372), (5, 0, 0, 0, 0): F(93, 2)},
    }
    for g, lift in lifts.items():
        lam_only = {
            m: c for (m, w), c in class_compactified(g).terms.items() if not w
        }
        assert lam_only == lift, g
        open_ring = ring(g, open_variant=True)
        reduced: dict = {}
        for m, c in lam_only.items():
            for bm, bc in open_ring.reduce({m: F(1)}).items():
                val = reduced.get(bm, F(0)) + c * bc
                if val:
                    reduced[bm] = val
                else:
                    reduced.pop(bm, None)
        assert reduced == class_open(g), g
    print("criterion 11 PASS: projection decomposition and lambda-only lifts consistent")
