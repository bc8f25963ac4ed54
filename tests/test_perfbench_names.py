"""The names the benchmark harness reaches in thetasing still resolve, and
every call it makes into thetasing still binds to the callee's signature.

`perfbench/tracer.py` and `perfbench/workloads.py` are read and run as
plain modules here, never edited.  A renamed or deleted function, or a
changed signature, would otherwise surface only in a failed benchmark run
or in `perfbench/selftest.py`, which takes minutes.
"""

import ast
import importlib
import inspect
import runpy
from pathlib import Path

import pytest

from thetasing import boundary, characteristics, tautring

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src" / "thetasing"
MODULES = ("boundary", "characteristics", "pipeline", "tautring")


def _load(name: str) -> dict:
    # run_path compiles the source without writing bytecode next to it
    return runpy.run_path(str(PERFBENCH / f"{name}.py"), run_name=f"perfbench_{name}")


def _module(name: str):
    return importlib.import_module(f"thetasing.{name}")


def test_tracer_spans_and_cache_metrics_resolve():
    tracer = _load("tracer")
    for span in tracer["SPANS"]:
        module, _, attr = span.partition(".")
        if attr.startswith("TautRing."):
            assert callable(vars(tautring.TautRing).get(attr.split(".", 1)[1])), span
        else:
            assert callable(getattr(_module(module), attr, None)), span
    for metric, (cached, kind) in tracer["CACHE_METRICS"].items():
        assert callable(getattr(cached, "cache_info", None)), metric
        assert kind in ("hit_ratio", "misses"), metric


def test_workload_calls_memo_and_loaders_resolve():
    workloads = _load("workloads")
    for name, module, attr, args, kwargs in workloads["Classes"].CALLS:
        assert callable(getattr(module, attr, None)), name
    assert callable(getattr(boundary._CONCRETE_MEMO, "clear", None))
    setup = ast.parse(workloads["_SETUP_CODE"])
    loaders = [node.func for node in ast.walk(setup)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)]
    assert sorted(f"{f.value.id}.{f.attr}" for f in loaders) == [
        "boundary.load_identities",
        "pipeline.load_boundary_relations",
        "tautring.load_normalizations",
    ]
    for f in loaders:
        assert callable(getattr(_module(f.value.id), f.attr, None))


def test_cold_reset_clears_the_type_canonicalizer():
    # a memo the cold reset cannot find would leave every pass after the
    # first warm, and the benchmark would time cache hits
    workloads = _load("workloads")
    characteristics.make_type((1, 1, 1), [0b111])
    assert characteristics._canonical_type.cache_info().currsize > 0
    workloads["cold_reset"]()
    assert characteristics._canonical_type.cache_info().currsize == 0


def test_cold_reset_clears_the_partition_memo():
    # the ring build and the type inventory both read the memoized partitions
    workloads = _load("workloads")
    tautring.monomials.cache_clear()
    tautring.monomials(3, 4)
    assert boundary._partitions.cache_info().currsize > 0
    workloads["cold_reset"]()
    assert boundary._partitions.cache_info().currsize == 0


def test_cold_reset_clears_the_span_groups(monkeypatch):
    # span groups or label-set tables cached where the cold reset cannot
    # clear them would make every pass after the first group no factor or
    # build no table (a warm pass reads (0, 0)), and so run warm
    workloads = _load("workloads")
    identity = next(i for i in boundary.load_identities() if i.name == "sigma1-fifth")
    group, counts = boundary._factor_spans, []
    for _ in range(2):
        workloads["cold_reset"]()
        calls = [0]

        def counted(f, g):
            calls[0] += 1
            return group(f, g)

        monkeypatch.setattr(boundary, "_factor_spans", counted)
        assert boundary.check_identity(identity, 3).concrete_ok
        counts.append((calls[0], boundary._label_sets.cache_info().misses))
    # sigma1 grouped once and the genus-3 label sets built once; the pinned
    # counts also hold when an earlier test has filled such a cache
    assert counts == [(1, 1), (1, 1)]


def _cached_in_source() -> set[str]:
    """`module.qualname` of every function in src decorated with lru_cache."""
    found = set()

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                qualname = prefix + child.name
                for deco in child.decorator_list:
                    target = deco.func if isinstance(deco, ast.Call) else deco
                    name = target.attr if isinstance(target, ast.Attribute) else target.id
                    if name == "lru_cache":
                        found.add(f"{module}.{qualname}")
                nested = "." if isinstance(child, ast.ClassDef) else ".<locals>."
                visit(child, module, qualname + nested)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return found


def test_cold_reset_finds_every_cache_in_the_source():
    # a cache the cold reset misses stays warm across passes, so every pass
    # after the first would time cache hits
    workloads = _load("workloads")
    found = {f"{f.__module__.rsplit('.', 1)[1]}.{f.__qualname__}"
             for f in workloads["_find_caches"]()}
    assert "pipeline.stratum" in found
    assert found == _cached_in_source()


@pytest.mark.parametrize("name", ["tracer", "workloads"])
def test_every_module_attribute_in_the_source_resolves(name):
    # each `<module>.<name>` written in the file, for the thetasing modules
    # it imports under their own names
    tree = ast.parse((PERFBENCH / f"{name}.py").read_text(encoding="utf-8"))
    seen = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in MODULES):
            seen.add((node.value.id, node.attr))
    assert seen
    for module, attr in sorted(seen):
        assert hasattr(_module(module), attr), f"{module}.{attr}"


def _written_calls(tree: ast.AST) -> list[tuple[str, str, ast.Call]]:
    """(module, name, call) for each `<module>.<name>(...)` written in the
    tree, a local alias such as `ch = characteristics` included."""
    aliases = {m: m for m in MODULES}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Name)
                and node.value.id in MODULES):
            aliases.update((t.id, node.value.id) for t in node.targets if isinstance(t, ast.Name))
    return [(aliases[node.func.value.id], node.func.attr, node) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id in aliases]


def test_every_call_into_thetasing_binds():
    # each call as written, with its arguments' count and keyword names,
    # and each call the classes workload makes from its CALLS table
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PERFBENCH.glob("*.py"))]
    trees.append(ast.parse(_load("workloads")["_SETUP_CODE"]))
    bound = set()
    for tree in trees:
        for module, attr, call in _written_calls(tree):
            assert not any(isinstance(a, ast.Starred) for a in call.args), ast.unparse(call)
            assert all(kw.arg for kw in call.keywords), ast.unparse(call)
            signature = inspect.signature(getattr(_module(module), attr))
            signature.bind(*call.args, **{kw.arg: kw.value for kw in call.keywords})
            bound.add(f"{module}.{attr}")
    assert {"characteristics.orthogonal_tuples", "characteristics.random_orthogonal_tuple",
            "characteristics.count_vanishing", "characteristics.brute_force_count",
            "boundary._registry", "boundary.check_identity", "boundary.load_identities",
            "pipeline.load_boundary_relations", "tautring.load_normalizations"} <= bound
    for name, module, attr, args, kwargs in _load("workloads")["Classes"].CALLS:
        inspect.signature(getattr(module, attr)).bind(*args, **kwargs)
