"""Span recorder that times thetasing functions from outside the package.

`Tracer.install()` rebinds each function named in SPANS, in every
`thetasing` module that holds it (and `TautRing` methods on the class), to a
wrapper that records calls, inclusive time and self time.  Self time is the
span minus the child spans recorded inside it.  `Tracer.remove()` puts the
original functions back.  Nothing under `src/` is changed.
"""
from __future__ import annotations

import inspect
import sys
from time import perf_counter

import thetasing  # noqa: F401  (loads every submodule named below)
from thetasing import boundary, tautring

# Functions wrapped in a traced run, as "<module>.<name>" or
# "tautring.TautRing.<method>".
SPANS = (
    "characteristics.random_orthogonal_tuple",
    "characteristics.count_vanishing",
    "characteristics.brute_force_count",
    "characteristics.orthogonal_tuples",
    "boundary.all_types",
    "boundary._split_table",
    "boundary.product",
    "boundary.change_basis",
    "boundary.pushforward_level2",
    "boundary.expand_zm_power",
    "boundary.expand_expr",
    "boundary._orth_sets",
    "boundary._registry",
    "boundary.instantiate",
    "boundary.convolve",
    "boundary.concrete_expr",
    "tautring.ring",
    "tautring.TautRing.reduce",
    "tautring.TautRing.intersection_number",
    "tautring.taut_project_boundary",
    "pipeline.strata",
    "pipeline.lam_factor",
    "pipeline.class_compactified",
    "pipeline.class_open",
    "pipeline.taut_projection",
    "pipeline.closed_form_projection",
    "pipeline.product_locus_taut",
    "pipeline.ij_taut",
)

# Size counted on each cache miss of a cached span: name -> (field, size of result).
_MISS_SIZES = {
    "boundary.all_types": ("types", len),
    "boundary._split_table": ("entries", len),
    "boundary._registry": ("keys", lambda index: sum(len(keys) for keys in index.values())),
}

# Per-layer metrics read from spans: metric -> (span, field, unit).
SPAN_METRICS = {
    "characteristics.random_orthogonal_tuple.self_s": ("characteristics.random_orthogonal_tuple", "self", "s"),
    "characteristics.count_vanishing.self_s": ("characteristics.count_vanishing", "self", "s"),
    "characteristics.count_vanishing.calls": ("characteristics.count_vanishing", "calls", "count"),
    "characteristics.brute_force_count.self_s": ("characteristics.brute_force_count", "self", "s"),
    "characteristics.orthogonal_tuples.self_s": ("characteristics.orthogonal_tuples", "self", "s"),
    "boundary.all_types.self_s": ("boundary.all_types", "self", "s"),
    "boundary.all_types.types": ("boundary.all_types", "types", "count"),
    "boundary._split_table.self_s": ("boundary._split_table", "self", "s"),
    "boundary._split_table.entries": ("boundary._split_table", "entries", "count"),
    "boundary.product.self_s": ("boundary.product", "self", "s"),
    "boundary.product.calls": ("boundary.product", "calls", "count"),
    "boundary.change_basis.self_s": ("boundary.change_basis", "self", "s"),
    "boundary.pushforward_level2.self_s": ("boundary.pushforward_level2", "self", "s"),
    "boundary.expand_zm_power.self_s": ("boundary.expand_zm_power", "self", "s"),
    "boundary.expand_expr.self_s": ("boundary.expand_expr", "self", "s"),
    "boundary._orth_sets.self_s": ("boundary._orth_sets", "self", "s"),
    "boundary._registry.self_s": ("boundary._registry", "self", "s"),
    "boundary._registry.keys": ("boundary._registry", "keys", "count"),
    "boundary.instantiate.self_s": ("boundary.instantiate", "self", "s"),
    "boundary.convolve.self_s": ("boundary.convolve", "self", "s"),
    "boundary.convolve.calls": ("boundary.convolve", "calls", "count"),
    "boundary.convolve.pairs": ("boundary.convolve", "pairs", "count"),
    "boundary.concrete_expr.self_s": ("boundary.concrete_expr", "self", "s"),
    "tautring.ring.self_s": ("tautring.ring", "self", "s"),
    "tautring.TautRing.reduce.self_s": ("tautring.TautRing.reduce", "self", "s"),
    "tautring.TautRing.reduce.calls": ("tautring.TautRing.reduce", "calls", "count"),
    "tautring.TautRing.intersection_number.self_s": ("tautring.TautRing.intersection_number", "self", "s"),
    "tautring.taut_project_boundary.self_s": ("tautring.taut_project_boundary", "self", "s"),
    "pipeline.strata.self_s": ("pipeline.strata", "self", "s"),
    "pipeline.lam_factor.self_s": ("pipeline.lam_factor", "self", "s"),
    "pipeline.class_compactified.s": ("pipeline.class_compactified", "incl", "s"),
    "pipeline.class_open.s": ("pipeline.class_open", "incl", "s"),
    "pipeline.taut_projection.s": ("pipeline.taut_projection", "incl", "s"),
    "pipeline.closed_form_projection.s": ("pipeline.closed_form_projection", "incl", "s"),
    "pipeline.product_locus_taut.s": ("pipeline.product_locus_taut", "incl", "s"),
    "pipeline.ij_taut.s": ("pipeline.ij_taut", "incl", "s"),
}

# Per-layer metrics read from cache_info(): metric -> (cached function, kind).
CACHE_METRICS = {
    "boundary._split_table.hit_ratio": (boundary._split_table, "hit_ratio"),
    "boundary.expand_named.hit_ratio": (boundary.expand_named, "hit_ratio"),
    "boundary._type_of_key.misses": (boundary._type_of_key, "misses"),
    "tautring.ring.misses": (tautring.ring, "misses"),
}


class _Stat:
    __slots__ = ("calls", "incl", "self", "types", "entries", "keys", "pairs", "kept")

    def __init__(self):
        for field in self.__slots__:
            setattr(self, field, 0)


class Tracer:
    """Wraps the SPANS functions while installed; one instance per run."""

    def __init__(self):
        self.stats = {name: _Stat() for name in SPANS}
        self._children: list[float] = []  # child time accumulated per open span
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for s in self.stats.values():
            s.__init__()

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for name in SPANS:
            module_name, _, attr = name.partition(".")
            module = sys.modules[f"thetasing.{module_name}"]
            if attr.startswith("TautRing."):
                method = attr.split(".", 1)[1]
                original = vars(tautring.TautRing)[method]
                self._rebind(tautring.TautRing, method, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "thetasing" or mod_name.startswith("thetasing."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, wrapper)

    def remove(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def _rebind(self, owner, key: str, wrapper) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def _wrap(self, name: str, fn):
        s = self.stats[name]
        children = self._children
        miss_size = _MISS_SIZES.get(name)

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                s.calls += 1
                while True:
                    children.append(0.0)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        self._close(s, perf_counter() - t0)
                        return
                    self._close(s, perf_counter() - t0)
                    yield item
            return gen_wrapper

        def wrapper(*args, **kwargs):
            before = fn.cache_info().misses if miss_size else 0
            children.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                s.calls += 1
                self._close(s, perf_counter() - t0)
            if miss_size and fn.cache_info().misses != before:
                field, size = miss_size
                setattr(s, field, getattr(s, field) + size(result))
            if name == "boundary.convolve":
                s.pairs += len(args[0]) * len(args[1])
                s.kept += len(result)
            return result
        return wrapper

    def _close(self, s: _Stat, dt: float) -> None:
        child = self._children.pop()
        if self._children:
            self._children[-1] += dt
        s.incl += dt
        s.self += dt - child

    # -- metrics ----------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the spans recorded since the last reset()."""
        out: dict[str, tuple[float, str]] = {}
        for metric, (span, field, unit) in SPAN_METRICS.items():
            out[metric] = (getattr(self.stats[span], field), unit)
        conv = self.stats["boundary.convolve"]
        out["boundary.convolve.kept_ratio"] = (
            conv.kept / conv.pairs if conv.pairs else 0.0, "ratio")
        for metric, (cached, kind) in CACHE_METRICS.items():
            info = cached.cache_info()
            if kind == "misses":
                out[metric] = (info.misses, "count")
            else:
                total = info.hits + info.misses
                out[metric] = (info.hits / total if total else 0.0, "ratio")
        return out
