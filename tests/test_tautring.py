"""Tests for the lambda-class ring presentations and intersection pairing."""

import hashlib
import os
import tempfile
from fractions import Fraction

import pytest

from thetasing import TautRing, normalization, ring
from thetasing.exactla import rank
from thetasing.zeta import zeta_negative_odd
from thetasing.tautring import (
    _squarefree,
    derived_normalization,
    dg_factor,
    lam,
    MissingNormalizationError,
    load_normalizations,
    mono_degree,
    mono_mul,
    monomials,
    taut_project_boundary,
)


def F(a, b=1):
    return Fraction(a, b)


EXPECTED_DIMS = {
    1: [1, 1],
    2: [1, 1, 1, 1],
    3: [1, 1, 1, 2, 1, 1, 1],
    4: [1, 1, 1, 2, 2, 2, 2, 2, 1, 1, 1],
    5: [1, 1, 1, 2, 2, 3, 3, 3, 3, 3, 3, 2, 2, 1, 1, 1],
}


# --- presentation -------------------------------------------------------------

def test_rref_integer_path_matches_generic():
    # rref scales each row to integers before its one elimination; scaling
    # every entry by 1/7 leaves the row space, hence the reduced form, alone
    from thetasing.exactla import rref

    mat = [[F(2), F(4), F(1)], [F(1), F(-3), F(0)], [F(3), F(1), F(1)]]
    scaled = [[x * F(1, 7) for x in row] for row in mat]
    fast_rows, fast_pivots = rref(mat)
    slow_rows, slow_pivots = rref(scaled)
    assert fast_pivots == slow_pivots
    assert fast_rows == slow_rows


def test_monomial_utilities():
    assert mono_degree((2, 1, 0)) == 2 + 2 * 1
    assert mono_mul((1, 0), (0, 2)) == (1, 2)
    assert lam(3, 2, 2) == (0, 2, 0)
    assert monomials(2, 2) == ((0, 1), (2, 0))


def test_dimensions_and_totals():
    for g, dims in EXPECTED_DIMS.items():
        R = ring(g)
        assert [R.dimension(d) for d in range(R.top + 1)] == dims
        assert R.total_dimension() == 1 << g
        assert dims == dims[::-1]


def test_open_variant_totals():
    for g in range(1, 6):
        assert ring(g, True).total_dimension() == 1 << (g - 1)


def test_top_degree_is_lambda1_power():
    for g in range(1, 6):
        R = ring(g)
        assert R.top_mono == lam(g, 1, R.top)
        assert R.top_unit == 1


def test_open_ring_kills_lambda_g():
    for g in (2, 3, 4):
        Ro = ring(g, True)
        assert Ro.reduce({lam(g, g): F(1)}) == {}


# sha256 of _ring_records for each (genus, open_variant), computed from the
# dense relation-row RREF construction these tables were first built with
RING_TABLE_DIGESTS = {
    (1, False): "106536d6ac35961e9a16908dbbe2d5e6df3fe7b4b5a4a0f87c00682e4b431aa2",
    (1, True): "86785dd0db5d855081932f976fed0d7acd58363bf2bfe32f5d963d9bc358f40d",
    (2, False): "dd4d8ff4ba7c3dc6e43874a1eafd813daa5df63fa949bf5a58df2701b73c7594",
    (2, True): "0fc647b6ead751f0145033812eed46a3d5d8f0269e5342851e6bcec35d95d34c",
    (3, False): "43c5d70b77b6923d4e3dc6bb5254882eab43b1cde81e4177aa5294eab4da5fb6",
    (3, True): "5b71678898cdd3e77b36dbc4992206736d2ba8546c5e721dbb702361c0041708",
    (4, False): "063fa2700dfe18e90b38e9acaf077a9d3893a1a78145388a18ce7e7a14960e94",
    (4, True): "82a54bf9e2bcbdc6ce53ad8db04f2a994bdb14703669df1d2ce73af44c9d2f7f",
    (5, False): "5ad6edf5bf4c459d573194a1c5573a8851042e6addd009dc61aae45d48deda98",
    (5, True): "d9633a4c787a180dc707d357bc4d85203c30cef6ae7e9011f639ed98c2deb392",
}


def _ring_records(R):
    lines = [f"basis {d}: {b}" for d, b in R.basis.items()]
    lines += [f"table {m}: {sorted(e.items())}" for m, e in R.table.items()]
    if not R.open_variant:
        lines.append(f"top {R.top_mono} {R.top_unit}")
    return "\n".join(sorted(lines))


@pytest.mark.parametrize("g, open_variant", sorted(RING_TABLE_DIGESTS))
def test_ring_tables_are_pinned(g, open_variant):
    # every basis, every reduction table entry and the top unit, exactly
    records = _ring_records(ring(g, open_variant))
    digest = hashlib.sha256(records.encode()).hexdigest()
    assert digest == RING_TABLE_DIGESTS[g, open_variant]


# --- reductions -----------------------------------------------------------------

def test_reduce_lambda2():
    for g in (2, 3, 4, 5):
        R = ring(g)
        assert R.reduce({lam(g, 2): F(1)}) == {lam(g, 1, 2): F(1, 2)}


def test_reduce_genus3():
    R = ring(3)
    assert R.reduce({mono_mul(lam(3, 3), lam(3, 1, 3)): F(1)}) == {
        lam(3, 1, 6): F(1, 8)
    }
    assert R.reduce({lam(3, 3, 2): F(1)}) == {}


def test_reduce_genus4():
    R = ring(4)
    assert R.reduce({lam(4, 4): F(1)}) == {
        mono_mul(lam(4, 1), lam(4, 3)): F(1),
        lam(4, 1, 4): F(-1, 8),
    }
    assert R.reduce({lam(4, 3, 2): F(1)}) == {
        mono_mul(lam(4, 1, 3), lam(4, 3)): F(1),
        lam(4, 1, 6): F(-1, 8),
    }
    # lambda_1^6 = 8 lambda_1^3 lambda_3 - 8 lambda_3^2 after reduction
    diff = R.reduce(
        {
            mono_mul(lam(4, 1, 3), lam(4, 3)): F(8),
            lam(4, 3, 2): F(-8),
            lam(4, 1, 6): F(-1),
        }
    )
    assert diff == {}


def test_reduce_genus5():
    R = ring(5)
    assert R.reduce({lam(5, 5, 2): F(1)}) == {}
    assert R.reduce({lam(5, 4): F(1)}) == {
        mono_mul(lam(5, 1), lam(5, 3)): F(1),
        lam(5, 1, 4): F(-1, 8),
    }
    assert R.reduce({lam(5, 3, 2): F(1)}) == {
        mono_mul(lam(5, 1, 3), lam(5, 3)): F(1),
        lam(5, 1, 6): F(-1, 8),
        mono_mul(lam(5, 1), lam(5, 5)): F(-2),
    }


def test_reduce_is_projection():
    R = ring(4)
    elem = {lam(4, 4): F(3), mono_mul(lam(4, 2), lam(4, 1, 2)): F(-2, 7)}
    once = R.reduce(elem)
    assert R.reduce(once) == once


# --- normalizations and intersection numbers -------------------------------------

def test_normalization_table():
    expected = {
        1: F(1, 24),
        2: F(1, 2880),
        3: F(1, 181440),
        4: F(1, 1814400),
        5: F(13, 16329600),
    }
    for g, value in expected.items():
        assert normalization(g) == value
    table = load_normalizations()
    assert "external" in table[2][1]


def test_normalizations_follow_from_the_ring():
    # Hirzebruch-Mumford proportionality, with deg LG(g, 2g) taken from the
    # squarefree rewriting of lambda_1^{g(g+1)/2}
    degrees = {}
    for g in range(1, 6):
        top = g * (g + 1) // 2
        degrees[g] = _squarefree(lam(g, 1, top), False)[(1,) * g]
        assert load_normalizations()[g][0] == derived_normalization(g)
    assert degrees == {1: 1, 2: 2, 3: 16, 4: 768, 5: 292864}
    assert derived_normalization(2) == degrees[2] * -zeta_negative_odd(1) * zeta_negative_odd(2) / 4
    with pytest.raises(ValueError):
        derived_normalization(0)


def test_normalization_path_override():
    fd, path = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write("genus=1 value=7/8 source=test fixture\n")
        norms = load_normalizations(path)
        assert normalization(1, norms) == F(7, 8)
        with pytest.raises(MissingNormalizationError):
            normalization(2, norms)
        assert issubclass(MissingNormalizationError, KeyError)
    finally:
        os.unlink(path)
    assert normalization(1) == F(1, 24)


def test_pairing_matrix_uses_given_normalizations():
    R = ring(3)
    norms = {3: (3 * normalization(3), "test: three times the bundled value")}
    rows, cols, matrix = R.pairing_matrix(2)
    assert R.pairing_matrix(2, norms) == (rows, cols, [[3 * x for x in row] for row in matrix])


def test_top_intersection_numbers():
    for g in range(1, 6):
        R = ring(g)
        assert R.intersection_number({R.top_mono: F(1)}) == normalization(g)


def test_quoted_genus4_numbers():
    n4 = F(1, 1814400)
    assert ring(4).intersection_number({lam(4, 1, 10): F(1)}) == n4
    seven = {mono_mul(lam(4, 3), lam(4, 1, 7)): F(1)}
    assert ring(4).intersection_number(seven) == F(7, 48) * n4
    assert ring(4).intersection_number(seven) == F(1, 12441600)
    double = {mono_mul(lam(4, 3, 2), lam(4, 1, 4)): F(1)}
    assert ring(4).intersection_number(double) == F(1, 48) * n4
    assert ring(4).intersection_number(double) == F(1, 87091200)


def test_genus3_lambda3_number():
    elem = {mono_mul(lam(3, 3), lam(3, 1, 3)): F(1)}
    assert ring(3).intersection_number(elem) == normalization(3) / 8


def test_intersection_number_errors():
    with pytest.raises(ValueError):
        ring(3, True).intersection_number({lam(3, 1, 6): F(1)})
    with pytest.raises(ValueError):
        ring(3).intersection_number({lam(3, 1): F(1)})
    assert ring(3).intersection_number({}) == 0


def test_pairing_matrices_nonsingular():
    for g in range(1, 6):
        R = ring(g)
        for d in range(R.top + 1):
            rows, cols, matrix = R.pairing_matrix(d)
            assert len(rows) == len(cols)
            assert rank(matrix) == len(rows)


# --- projection of boundary-supported terms ---------------------------------------

def test_dg_factor_values():
    assert [dg_factor(g) for g in range(1, 6)] == [12, -240, 2016, -11520, 50688]


def test_project_pure_lambda():
    out = taut_project_boundary(lam(3, 2), (), 3)
    assert out == {lam(3, 1, 2): F(1, 2)}


def test_project_mixed_terms_vanish():
    assert taut_project_boundary(lam(3, 1), ("sigma1",), 3) == {}
    assert taut_project_boundary((0, 0, 0), ("sigma1",), 3) == {}


def test_project_critical_degree():
    # only the diagonal power of the boundary sum survives: sigma1^g maps to
    # the genus factor times the top lambda class, reduced in the ring
    cube = taut_project_boundary((0, 0, 0), ("sigma1",) * 3, 3)
    assert cube == {lam(3, 3): F(2016)}
    quad = taut_project_boundary((0, 0, 0, 0), ("sigma1",) * 4, 4)
    assert quad == {
        (1, 0, 1, 0): F(-11520),
        (4, 0, 0, 0): F(1440),
    }
    # words that mix distinct labels carry no diagonal part
    assert taut_project_boundary((0, 0, 0), ("sigma3",), 3) == {}
    assert taut_project_boundary((0, 0, 0), ("beta3",), 3) == {}
    assert taut_project_boundary((0, 0), ("sigma2",), 2) == {}


def test_project_rejects_high_degree():
    with pytest.raises(ValueError):
        taut_project_boundary((0, 0, 0), ("sigma4",), 3)
