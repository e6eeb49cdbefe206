"""Tests for the package surface: the export lists of the modules and the
README's quick start."""
import doctest
import importlib
import inspect
import pkgutil
from pathlib import Path

import polycat

README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_readme_quick_start_runs_as_a_doctest():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted == 8
    assert failed == 0
