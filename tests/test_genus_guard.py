"""Every exported entry point that takes a genus refuses an unsupported one.

GUARDS is the table of supported genera: one row per exported name whose
signature has a `g` or `genus` parameter, with the range its guard refuses
outside of and the name its message gives.  A new entry point that takes a
genus fails test_every_genus_taking_export_has_a_row until it gets a row,
and its row fails until it has a guard.  The command-line ranges are read
from `cli.GENERA`, which builds them from the same library constants.
"""

import importlib
import inspect
import pkgutil
import time
from fractions import Fraction
from random import Random

import pytest

import thetasing
from thetasing import boundary, characteristics, cli, datafile, pipeline, tautring, zeta

_POLY = boundary.BoundaryPoly(1, {characteristics.make_type((1,), ()): Fraction(1)})
_IDENTITY = boundary.parse_identity("x: sigma1^2 = cfg(2) + 2*cfg(1,1)")

# name -> (call at genus g, least genus, greatest genus or None, name in the message);
# every bound is the library constant the guard reads
LO = datafile.GENUS_MIN
GUARDS = {
    "characteristics.BoundaryLabel": (lambda g: characteristics.BoundaryLabel(g, 1, 0),
                                      LO, None, "BoundaryLabel"),
    "characteristics.n_odd": (characteristics.n_odd, LO, None, "n_odd"),
    "characteristics.enumerate_labels": (characteristics.enumerate_labels,
                                         LO, None, "enumerate_labels"),
    "characteristics.count_vanishing": (lambda g: characteristics.count_vanishing(g, ()),
                                        LO, None, "count_vanishing"),
    "characteristics.representative": (lambda g: characteristics.representative(
        characteristics.EMPTY, g), LO, None, "representative"),
    "characteristics.brute_force_count": (lambda g: characteristics.brute_force_count(g, ()),
                                          LO, characteristics.BRUTE_FORCE_GENUS_MAX,
                                          "brute force"),
    "characteristics.orthogonal_tuples": (lambda g: next(characteristics.orthogonal_tuples(g, 5)),
                                          LO, characteristics.BRUTE_FORCE_GENUS_MAX,
                                          "orthogonal_tuples"),
    "characteristics.random_orthogonal_tuple": (
        lambda g: characteristics.random_orthogonal_tuple(Random(1), g),
        LO, characteristics.SAMPLER_GENUS_MAX, "random_orthogonal_tuple"),
    "boundary.expand_named": (lambda g: boundary.expand_named("sigma1", g),
                              LO, None, "expand_named"),
    "boundary.expand_word": (lambda g: boundary.expand_word(("sigma1",), g),
                             LO, None, "expand_word"),
    "boundary.expand_zm_power": (lambda g: boundary.expand_zm_power(g, 1),
                                 LO, None, "expand_zm_power"),
    "boundary.product": (lambda g: boundary.product(_POLY, _POLY, g), LO, None, "product"),
    "boundary.pushforward_level2": (lambda g: boundary.pushforward_level2(_POLY, g),
                                    LO, None, "pushforward_level2"),
    "boundary.change_basis": (lambda g: boundary.change_basis(_POLY, [("sigma1",)], g),
                              LO, None, "change_basis"),
    "boundary.check_identity": (lambda g: boundary.check_identity(_IDENTITY, g),
                                LO, boundary.CONCRETE_GENUS_MAX, "check_identity"),
    "tautring.TautRing": (tautring.TautRing, LO, None, "TautRing"),
    "tautring.ring": (tautring.ring, LO, None, "TautRing"),
    "tautring.monomials": (lambda g: tautring.monomials(g, 2), LO, None, "monomials"),
    "tautring.normalization": (tautring.normalization, LO, datafile.GENUS_MAX, "normalization"),
    "tautring.derived_normalization": (tautring.derived_normalization,
                                       LO, None, "derived_normalization"),
    "tautring.dg_factor": (tautring.dg_factor, LO, None, "dg_factor"),
    "tautring.taut_project_boundary": (lambda g: tautring.taut_project_boundary((), (), g),
                                       LO, None, "taut_project_boundary"),
    "pipeline.stratum": (lambda g: pipeline.stratum(g, 1),
                         LO, boundary.DEGREE_MAX, "stratum"),
    "pipeline.strata": (pipeline.strata, LO, boundary.DEGREE_MAX, "strata"),
    # both assemble the strata before anything else
    "pipeline.class_compactified": (pipeline.class_compactified,
                                    LO, boundary.DEGREE_MAX, "strata"),
    "pipeline.taut_projection": (pipeline.taut_projection, LO, boundary.DEGREE_MAX, "strata"),
    "pipeline.class_open": (pipeline.class_open, LO, None, "class_open"),
    "pipeline.lam_factor": (lambda g: pipeline.lam_factor(g, 0), LO, None, "lam_factor"),
    "pipeline.closed_form_projection": (pipeline.closed_form_projection,
                                        LO, None, "closed_form_projection"),
    "pipeline.product_locus_taut": (pipeline.product_locus_taut,
                                    pipeline.PRODUCT_GENUS_MIN, datafile.GENUS_MAX,
                                    "product_locus_taut"),
    "pipeline.theta_null_product_taut": (pipeline.theta_null_product_taut,
                                         pipeline.THETA_NULL_GENUS_MIN, datafile.GENUS_MAX,
                                         "theta_null_product_taut"),
    "pipeline.compare_with_published": (pipeline.compare_with_published,
                                        LO, datafile.GENUS_MAX, "compare_with_published"),
    "zeta.zeta_negative_odd": (zeta.zeta_negative_odd, LO, None, "zeta_negative_odd"),
}

# Names that take a genus without a guard of their own, and why; none today.
UNGUARDED: dict[str, str] = {}


def _exports():
    """(module.name, object) for every __all__ name that takes g or genus."""
    found = {}
    for info in pkgutil.iter_modules(thetasing.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"thetasing.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if not callable(obj):
                continue
            try:
                params = inspect.signature(obj).parameters
            except (TypeError, ValueError):  # typing aliases such as dict[K, V]
                continue
            if "g" in params or "genus" in params:
                found[f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"] = obj
    return found


def test_every_genus_taking_export_has_a_row():
    exports = _exports()
    assert sorted(exports) == sorted(GUARDS.keys() | UNGUARDED.keys())
    assert not GUARDS.keys() & UNGUARDED.keys()


def _message(lo, hi, what, g):
    span = f">= {lo}" if hi is None else f"{lo}..{hi}"
    return f"{what} supports genus {span}, not {g}"


CASES = [(name, g) for name, (_, lo, hi, _) in GUARDS.items()
         for g in sorted({-1, 0, lo - 1} | ({hi + 1} if hi is not None else set()))]


@pytest.mark.parametrize("name, g", CASES)
def test_unsupported_genus_is_refused_with_one_message(name, g):
    call, lo, hi, what = GUARDS[name]
    start = time.perf_counter()
    with pytest.raises(ValueError) as exc:
        call(g)
    assert time.perf_counter() - start < 1
    assert str(exc.value) == _message(lo, hi, what, g)


# The concrete verifier's entry points, outside __all__, each refused before
# it builds an index: at genus 4 the label sets alone number 9,082,335.
_CONCRETE = boundary.CONCRETE_GENUS_MAX
CONCRETE_GUARDS = {
    "boundary.instantiate": (lambda g: boundary.instantiate(_POLY, g), "instantiate"),
    "boundary.convolve": (lambda g: boundary.convolve({}, {}, g), "convolve"),
    "boundary.concrete_expr": (lambda g: boundary.concrete_expr(_IDENTITY.lhs, g),
                               "concrete_expr"),
}


@pytest.mark.parametrize("name, g", [(name, g) for name in CONCRETE_GUARDS
                                     for g in (LO - 1, _CONCRETE + 1)])
def test_concrete_verifier_refuses_an_unsupported_genus(name, g):
    call, what = CONCRETE_GUARDS[name]
    start = time.perf_counter()
    with pytest.raises(ValueError) as exc:
        call(g)
    assert time.perf_counter() - start < 1
    assert str(exc.value) == _message(LO, _CONCRETE, what, g)


def test_helper_accepts_both_bounds_and_any_genus_without_a_cap():
    for g in (1, 5):
        assert datafile.check_genus(g, 1, 5, "f") is None
    assert datafile.check_genus(10 ** 6, 1, None, "f") is None


def test_lookups_refuse_a_genus_they_have_no_entry_for():
    # a supported genus that the table lacks still raises the lookup's KeyError
    with pytest.raises(tautring.MissingNormalizationError,
                       match="^'no normalization on file for genus 3'$"):
        tautring.normalization(3, {})
    with pytest.raises(KeyError, match="^'no published table for genus 1'$"):
        pipeline.compare_with_published(1)


@pytest.mark.parametrize("max_size", [0, -3])
def test_orthogonal_tuples_refuses_max_size_below_one(max_size):
    # refused on the first next(), before a tuple is built
    with pytest.raises(ValueError, match=r"^max_size must be at least 1$"):
        next(characteristics.orthogonal_tuples(2, max_size))


# --- the command line, from cli.GENERA itself ------------------------------------

CLI_CASES = [(command, g) for command, (supported, _) in cli.GENERA.items()
             for g in (supported[0] - 1, supported[-1] + 1)]


@pytest.mark.parametrize("command, g", CLI_CASES)
def test_cli_refuses_each_command_just_outside_its_range(capsys, command, g):
    supported = cli.GENERA[command][0]
    with pytest.raises(SystemExit) as exc:
        cli.main(["--command", command, "--genus", str(g)])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err == (f"thetasing: {command} supports --genus "
                            f"{supported[0]}..{supported[-1]}, got {g}\n")

