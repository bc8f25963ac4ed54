"""Tests for the exact linear algebra: one fraction-free elimination for every input."""

from fractions import Fraction
from random import Random

import pytest

from thetasing.boundary import BoundaryPoly, make_type
from thetasing.exactla import ZERO, add_into, pivot_solution, rref
from thetasing.pipeline import MixedClass


def _rref_fraction_reference(matrix):
    # the Fraction Gauss-Jordan that rref ran on non-integer input before it
    # scaled every row to integers, kept verbatim as the reference
    rows = [list(r) for r in matrix]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _entry(rng):
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6, 7)))


def _matrices(seed=8, per_kind=60):
    """Seeded random matrices of four kinds: generic, with zero rows,
    rank-deficient, and augmented [A | b] with b outside the span of A."""
    rng = Random(seed)
    out = {"generic": [], "zero rows": [], "rank-deficient": [], "inconsistent": []}
    for _ in range(per_kind):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
        out["generic"].append([[_entry(rng) for _ in range(ncols)] for _ in range(nrows)])

        mat = [[_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
        for _ in range(rng.randint(1, 2)):
            mat.insert(rng.randint(0, len(mat)), [Fraction(0)] * ncols)
        out["zero rows"].append(mat)

        base = [[_entry(rng) for _ in range(ncols)] for _ in range(rng.randint(1, 3))]
        mat = []
        for _ in range(len(base) + rng.randint(1, 3)):
            coefs = [_entry(rng) for _ in base]
            mat.append([sum((c * b[j] for c, b in zip(coefs, base)), Fraction(0))
                        for j in range(ncols)])
        out["rank-deficient"].append(mat)

        # combinations of rows with rhs 0, some plus a multiple of the row
        # 0 ... 0 | b (b != 0), which is itself one of the rows
        base = [[_entry(rng) for _ in range(ncols)] + [Fraction(0)]
                for _ in range(rng.randint(1, 3))]
        bad = [Fraction(0)] * ncols + [Fraction(rng.randint(1, 5), rng.randint(1, 5))]
        mat = []
        for _ in range(len(base) + 1):
            coefs = [_entry(rng) for _ in base] + [_entry(rng)]
            mat.append([sum((c * row[j] for c, row in zip(coefs, base + [bad])), Fraction(0))
                        for j in range(ncols + 1)])
        mat.insert(rng.randint(0, len(mat)), bad)
        out["inconsistent"].append(mat)
    return out


def test_rref_matches_fraction_gauss_jordan():
    cases = _matrices()
    assert sum(len(mats) for mats in cases.values()) >= 200
    for kind, mats in cases.items():
        for mat in mats:
            assert rref(mat) == _rref_fraction_reference(mat), (kind, mat)
    ranks = [len(_rref_fraction_reference(m)[1]) for m in cases["rank-deficient"]]
    assert all(r < len(m) for r, m in zip(ranks, cases["rank-deficient"]))
    for mat in cases["inconsistent"]:
        pivots = _rref_fraction_reference(mat)[1]
        assert pivots[-1] == len(mat[0]) - 1


def test_rref_accepts_plain_ints_and_empty_input():
    assert rref([]) == ([], [])
    rows, pivots = rref([[2, 4], [1, 3]])
    assert pivots == [0, 1] and rows == [[1, 0], [0, 1]]
    assert all(type(x) is Fraction for row in rows for x in row)


def test_rref_zero_entries_share_one_fraction():
    rows, _ = rref([[Fraction(1, 2), 0, 1], [1, 0, 2], [0, 0, 0]])
    assert rows == [[1, 0, 2], [0, 0, 0], [0, 0, 0]]
    assert all(x is ZERO for row in rows for x in row if not x)
    assert pivot_solution([[0, 0]], [0]) == ([ZERO, ZERO], True)


def _add_into_reference(acc, terms, scale=1):
    # add_into as it was written before it skipped the unit scale and the
    # 0 + term of a new key, kept as the reference for values and types
    for key, c in terms.items():
        val = acc.get(key, 0) + scale * c
        if val:
            acc[key] = val
        else:
            acc.pop(key, None)
    return acc


@pytest.mark.parametrize("scale", [1, 3, -1, Fraction(1), Fraction(-2, 3)])
@pytest.mark.parametrize("values", ["Fraction", "int"])
def test_add_into_matches_the_reference(scale, values):
    kind = Fraction if values == "Fraction" else int
    acc = {"kept": kind(5), "cancels": kind(-2) * scale, "untouched": kind(7)}
    terms = {"kept": kind(4), "cancels": kind(2), "new": kind(-6), "zero": kind(0)}
    expected = _add_into_reference(dict(acc), terms, scale)
    out = add_into(acc, terms, scale)
    assert out is acc  # updated in place and returned
    assert acc == expected
    assert "cancels" not in acc and "zero" not in acc and acc["new"] == -6 * scale
    assert {k: type(v) for k, v in acc.items()} == {k: type(v) for k, v in expected.items()}
    # an int scale keeps int values ints (tautring._squarefree relies on it),
    # and a Fraction value or a Fraction scale gives a Fraction
    assert {type(v) for k, v in acc.items() if k != "untouched"} == {
        int if kind is int and type(scale) is int else Fraction}


def test_pivot_solution_flags_inconsistent_systems():
    # every matrix read as [A | b]; the reference says whether the last
    # pivot is in the b column
    seen = set()
    for kind, mats in _matrices(seed=9, per_kind=20).items():
        for mat in mats:
            matrix, rhs = [row[:-1] for row in mat], [row[-1] for row in mat]
            pivots = _rref_fraction_reference(mat)[1]
            expected = not pivots or pivots[-1] < len(mat[0]) - 1
            x, consistent = pivot_solution(matrix, rhs)
            assert consistent == expected, (kind, mat)
            assert kind != "inconsistent" or not consistent
            if consistent:
                assert all(sum((a * v for a, v in zip(row, x)), Fraction(0)) == b
                           for row, b in zip(matrix, rhs))
            seen.add(consistent)
    assert seen == {True, False}


@pytest.mark.parametrize("cls, grade_name, grade, k1, k2", [
    (BoundaryPoly, "degree", 2, make_type((2,), ()), make_type((1, 1), ())),
    (MixedClass, "genus", 3, ((0, 0, 0), ("sigma1",)), ((1, 0, 0), ())),
])
def test_combination_core(cls, grade_name, grade, k1, k2):
    F = Fraction
    other = MixedClass if cls is BoundaryPoly else BoundaryPoly
    a = cls(grade, {k1: F(2), k2: F(0)})
    b = cls(grade, {k1: F(-2), k2: F(1, 3)})
    assert a.terms == {k1: F(2)} and getattr(a, grade_name) == grade
    with pytest.raises(AttributeError):
        setattr(a, grade_name, grade)
    assert (a + b).terms == {k2: F(1, 3)}
    assert (a - b).terms == {k1: F(4), k2: F(-1, 3)}
    assert (F(1, 2) * a).terms == {k1: F(1)}
    assert (0 * a).is_zero() and (a - a).is_zero() and not a.is_zero()
    assert a == cls(grade, {k1: F(2)}) and a != b
    assert cls(grade) == cls(grade, {k1: F(0)})
    assert cls(grade) != cls(grade - 1) and cls(grade) != other(grade)
    for bad in (cls(grade - 1), other(grade)):
        with pytest.raises(ValueError, match="^cannot add "):
            a + bad
        with pytest.raises(ValueError, match="^cannot add "):
            a - bad
