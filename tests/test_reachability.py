"""Every public top-level ``def`` and ``class`` in ``src/repro`` is named by
code outside ``tests/``.

Code that exists only to cross-check the program lives in ``tests/``, not
on the import path. A name counts as reached when a Python identifier (a
name, an attribute or an imported name) in ``src/``, ``bench/``,
``benchmarks/`` or ``examples/`` spells it, or a line of a CI workflow that
is not a comment does (the JSON and ledger validators check the verbs'
output there). A package ``__init__``'s imports and ``__all__`` only
re-export a name, so they do not count; neither do comments, docstrings or
anything under a ``tests`` directory. A name its own module uses counts as
reached: the guard looks for code that no other code names, not for a full
call graph.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _is_reexport(node):
    return isinstance(node, (ast.Import, ast.ImportFrom)) or (
        isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "__all__" for t in node.targets)
    )


def _identifiers(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    if path.name == "__init__.py":
        tree.body = [node for node in tree.body if not _is_reexport(node)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def test_every_public_name_is_reached_outside_tests():
    reached = set()
    for top in ("src", "bench", "benchmarks", "examples"):
        for path in (ROOT / top).rglob("*.py"):
            if "tests" not in path.relative_to(ROOT).parts:
                reached.update(_identifiers(path))
    for workflow in (ROOT / ".github" / "workflows").glob("*.yml"):
        text = re.sub(r"(?m)^\s*#.*$", "", workflow.read_text(encoding="utf-8"))
        reached.update(re.findall(r"\w+", text))

    unreached = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and node.name not in reached
            ):
                unreached[node.name] = path.relative_to(ROOT)
    extra = sorted(f"{unreached[name]}::{name}" for name in unreached)
    assert not extra, "named only in tests (move into tests/ or delete): " + ", ".join(extra)
