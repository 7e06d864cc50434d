"""Static checks on the package source (no linter is a dependency)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "helmlab"
ALL_MODULES = sorted(SRC.glob("*.py"))
# __init__.py imports names only to re-export them
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def unused_module_imports(source: str) -> list:
    """Names bound by a module-level import and never referenced."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


def test_scanner_flags_an_unused_import():
    source = "import os\nimport sys\nfrom typing import Optional\nsys.exit\n"
    assert unused_module_imports(source) == ["line 1: os", "line 3: Optional"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_module_imports(path.read_text()) == []


def nested_relative_imports(source: str) -> list:
    """Relative imports anywhere but at module level."""
    tree = ast.parse(source)
    return sorted(f"line {node.lineno}: from {'.' * node.level}{node.module or ''}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level >= 1
                  and node not in tree.body)


def test_scanner_flags_a_nested_relative_import():
    source = ("from .a import x\n"
              "import os\n"
              "def f():\n"
              "    from .b import y\n"
              "    from os import path\n"
              "    class C:\n"
              "        from ..c import z\n")
    assert nested_relative_imports(source) == ["line 4: from .b",
                                               "line 7: from ..c"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_nested_relative_imports(path):
    assert nested_relative_imports(path.read_text()) == []
