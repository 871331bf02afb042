"""Every module of the library and of its tests uses each name it imports,
every private name the library defines is read somewhere in it, and the
package's public API is its modules' ``__all__`` lists and nothing else.

A package's ``__init__.py`` imports names to re-export them, and a
``__future__`` import switches on a language feature; both are left out of
the first check.
"""

import ast
import importlib
import types
from pathlib import Path

import nnrates

ROOT = Path(__file__).resolve().parent.parent
API_MODULES = ("boundary", "bounds", "classifier", "distributions", "errors", "harness", "metric")


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


def unread_private_names(sources: list[str]) -> list[str]:
    """The single-underscore functions, classes and module-level names that the sources define and
    none of them reads (as a loaded name, an attribute or an imported name), sorted."""
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
        for statement in tree.body:
            if isinstance(statement, (ast.Assign, ast.AnnAssign)):
                targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
                defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    private = {name for name in defined if name.startswith("_") and not name.startswith("__") and name != "_"}
    return sorted(private - read)


def test_the_check_finds_unread_private_names():
    sources = [
        "_A, B = 1, 2\n_C: int = 3\n__all__ = []\ndef _f(): pass\nclass _K:\n    def _m(self): pass\n",
        "from a import _A\nx = _K()._n\n_f = None\nx._m = 1\n",
    ]
    assert unread_private_names(sources) == ["_C", "_f", "_m"]  # a store is not a read


def test_the_library_reads_every_private_name_it_defines():
    assert unread_private_names([p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))]) == []


def test_the_package_publishes_its_modules_all_and_nothing_else():
    modules = [importlib.import_module(f"nnrates.{name}") for name in API_MODULES]
    joined = [name for module in modules for name in module.__all__]
    assert nnrates.__all__ == joined
    assert len(set(joined)) == len(joined)
    assert [name for name in joined if not hasattr(nnrates, name)] == []
    public = {
        name for name, value in vars(nnrates).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(joined)
    for module in modules:
        tree = ast.parse(Path(module.__file__).read_text())
        defined = {
            node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        }
        assert sorted(defined - set(module.__all__)) == [], module.__name__
