"""The README's library quick tour runs, and its commented values hold.

The README has two Python blocks.  The quick tour imports from `thetasing`
and runs here statement by statement, so a deleted or renamed public name
fails a test instead of leaving stale docs.  The other block reads the
caller's own table files (`my_norms.txt`, `my_relations.txt`), which do not
exist, and stays unexecuted.
"""

import ast
import re
from pathlib import Path

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
