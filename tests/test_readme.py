"""The README's library quick tour runs, and its commented values hold.

The README has two Python blocks.  The quick tour imports from `thetasing`
and runs here statement by statement, so a deleted or renamed public name
fails a test instead of leaving stale docs.  The other block reads the
caller's own table files (`my_norms.txt`, `my_relations.txt`), which do not
exist, and stays unexecuted.  The prose names functions and tables by
`module.name` and `_private` name; each must resolve, so that a renamed one
fails a test too.
"""

import ast
import builtins
import importlib
import pkgutil
import re
from pathlib import Path

import thetasing

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_tour() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    tours = [b for b in blocks if "from thetasing import" in b]
    assert len(blocks) == 2 and len(tours) == 1
    return tours[0]


def test_readme_quick_tour_runs_and_its_values_hold():
    source = _quick_tour()
    lines = source.splitlines()
    scope: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        _, _, comment = lines[stmt.end_lineno - 1].partition("#")
        if isinstance(stmt, ast.Expr) and comment:
            # `expression  # value`: the comment is the value's literal
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), scope)
            assert value == eval(comment, scope), ast.unparse(stmt)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), scope)
    assert checked == 4


# a backticked code span that is a dotted or _private name, with or without
# a call's arguments
_NAME = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?")
_FILE_SUFFIXES = {"py", "txt", "toml", "json", "md"}


def _prose_names() -> set[str]:
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    names = set()
    for span in re.findall(r"`([^`\n]+)`", text):
        m = _NAME.fullmatch(span)
        if m and ("." in m.group(1) or span.startswith("_")):
            names.add(m.group(1))
    return {n for n in names if n.rpartition(".")[2] not in _FILE_SUFFIXES}


def _resolves(name: str, modules: dict) -> bool:
    """`_private` in some module of the package; `module.name` from the
    package, one of its modules or a name it exports, and from builtins or
    an importable module when its root is none of these (`dict.update`)."""
    root, *rest = name.split(".")
    if not rest:
        return any(hasattr(module, name) for module in modules.values())
    if root == "thetasing":
        root, *rest = rest
    obj = modules.get(root) or getattr(thetasing, root, None) or getattr(builtins, root, None)
    if obj is None:
        try:
            obj = importlib.import_module(root)
        except ImportError:
            return False
    for attr in rest:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_readme_names_resolve():
    modules = {m.name: importlib.import_module(f"thetasing.{m.name}")
               for m in pkgutil.iter_modules(thetasing.__path__) if m.name != "__main__"}
    names = _prose_names()
    assert [n for n in sorted(names) if not _resolves(n, modules)] == []
    # the pattern really reads the prose: dotted and _private names both
    assert len(names) > 30 and "boundary.convolve" in names and "_span_pairs" in names
