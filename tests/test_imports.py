"""Every module of the library and of its tests uses each name it imports.

A package's ``__init__.py`` imports names to re-export them, and a
``__future__`` import switches on a language feature; both are left out.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    """The names that the module source imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_finds_unused_imports():
    source = "from __future__ import annotations\nimport os.path\nimport sys\nfrom a import b as c, d\nd(sys)\n"
    assert unused_imports(source) == ["c", "os"]


def test_modules_use_every_name_they_import():
    modules = [p for d in ("src", "tests") for p in sorted((ROOT / d).rglob("*.py"))]
    found = {
        str(path.relative_to(ROOT)): names
        for path in modules
        if path.name != "__init__.py" and (names := unused_imports(path.read_text()))
    }
    assert found == {}
