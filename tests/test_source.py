"""Source checks that need no lint tool: every module under ``src/nviflab``
parses, and no module or class body binds one ``def`` or ``class`` name
twice (the later one silently replaces the earlier)."""
import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nviflab"
MODULES = sorted(SRC.rglob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def rebound_names(tree: ast.Module) -> list[str]:
    """``scope.name`` of each def or class name bound more than once in the
    module body or in one class body."""
    found = []
    scopes = [("", tree)] + [(f"{node.name}.", node) for node in ast.walk(tree)
                             if isinstance(node, ast.ClassDef)]
    for prefix, scope in scopes:
        counts = Counter(node.name for node in scope.body if isinstance(node, DEFINITIONS))
        found += [prefix + name for name, k in counts.items() if k > 1]
    return found


def test_sources_found():
    assert SRC / "__init__.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_name_defined_twice(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert rebound_names(tree) == []


def test_rebinding_is_found():
    tree = ast.parse("def f(): pass\nclass C:\n    def g(self): pass\n    def g(self): pass\n"
                     "def f(): pass\n")
    assert sorted(rebound_names(tree)) == ["C.g", "f"]
