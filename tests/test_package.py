"""Tests for the package surface: the export lists of the modules, the
imports every module reads, the library's freedom from assert
statements, and the README's quick start."""
import ast
import doctest
import importlib
import inspect
import pkgutil
from pathlib import Path

import polycat

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def modules_with_all():
    names = ["polycat"] + [f"polycat.{m.name}" for m in pkgutil.iter_modules(polycat.__path__)]
    modules = [importlib.import_module(name) for name in names]
    return [m for m in modules if hasattr(m, "__all__")]


def test_every_export_list_resolves_and_names_every_public_definition():
    modules = modules_with_all()
    assert {m.__name__ for m in modules} >= {"polycat", "polycat.nat", "polycat.sim"}
    for m in modules:
        unresolved = [name for name in m.__all__ if not hasattr(m, name)]
        assert unresolved == [], m.__name__
        defined = [name for name, obj in vars(m).items()
                   if not name.startswith("_")
                   and (inspect.isfunction(obj) or inspect.isclass(obj))
                   and obj.__module__ == m.__name__]
        unlisted = [name for name in defined if name not in m.__all__]
        assert unlisted == [], m.__name__


def unread_imports(source: str) -> list[str]:
    """The names a module imports and never reads. A name counts as read
    when it is loaded anywhere in the module, annotations included, or
    listed in __all__; __future__ imports bind nothing to read."""
    tree = ast.parse(source)
    imported: list[str] = []
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    paths = [path for folder in ("src/polycat", "tests", "bench")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    assert len(paths) > 20
    unread = {str(path.relative_to(ROOT)): names for path in paths
              if (names := unread_imports(path.read_text()))}
    assert unread == {}


def test_the_import_check_finds_an_unread_import():
    assert unread_imports("import os\nimport sys as system\nfrom a import b, c\n"
                          "__all__ = ['c']\nprint(b)\n") == ["os", "system"]
    assert unread_imports("from __future__ import annotations\nimport os.path\n"
                          "def f(x: 'int') -> None:\n    os.sep\n") == []


def test_library_has_no_assert_statements():
    # python -O drops every assert, so a check written as one would pass
    # silently there
    asserts = {str(path.relative_to(ROOT)): lines
               for path in sorted((ROOT / "src/polycat").rglob("*.py"))
               if (lines := [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                             if isinstance(node, ast.Assert)])}
    assert asserts == {}


def test_readme_quick_start_runs_as_a_doctest():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted == 8
    assert failed == 0
