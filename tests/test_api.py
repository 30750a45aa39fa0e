"""The package's public names are its modules' ``__all__`` lists, each name in one, no
module imports a name it does not use, only ``reporting.py`` reads or writes a JSON file, and
no class checks itself in a separate step."""
from __future__ import annotations

import ast
import importlib
import types
from pathlib import Path

import als_graph


def test_every_listed_name_resolves_and_star_import_exports_exactly_the_list():
    names = als_graph.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(als_graph, n)] == []
    # submodules are reachable as attributes but are not part of the list
    assert [n for n in names if isinstance(getattr(als_graph, n), types.ModuleType)] == []
    namespace: dict = {}
    exec("from als_graph import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(names)


def test_the_package_list_is_the_module_lists_with_no_name_in_two():
    modules = ("data", "graph", "harness", "metrics", "model", "propagation", "reporting",
               "sampling", "smoothing")
    lists = [importlib.import_module(f"als_graph.{m}").__all__ for m in modules]
    assert als_graph.__all__ == [name for names in lists for name in names]
    assert len(set(als_graph.__all__)) == sum(len(names) for names in lists)


def test_no_module_level_import_goes_unused():
    """An import a module never reads is dead; ``__init__.py`` re-exports, and a
    ``# noqa`` line keeps a name on purpose (for example for the benchmark's tracer)."""
    unused = []
    for path in sorted(Path(als_graph.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read and "# noqa" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno}: {bound}")
    assert unused == []


def test_only_reporting_calls_json_dump_or_load():
    """``reporting.py`` owns the JSON file format: one writer and one reader serve reports
    and checkpoints alike, so no other module dumps or loads a JSON file itself."""
    found = []
    for path in sorted(Path(als_graph.__file__).parent.glob("*.py")):
        if path.name == "reporting.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            func = node.func if isinstance(node, ast.Call) else None
            if (isinstance(func, ast.Attribute) and func.attr in ("dump", "load")
                    and isinstance(func.value, ast.Name) and func.value.id == "json"):
                found.append(f"{path.name}:{node.lineno}: json.{func.attr}")
    assert found == []


def test_no_class_defines_a_validate_method():
    """A value class checks itself in ``__post_init__``, so no instance exists unchecked;
    a ``validate`` method would be a second, skippable checking step."""
    found = []
    for path in sorted(Path(als_graph.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                found += [f"{path.name}: {node.name}.validate" for item in node.body
                          if isinstance(item, ast.FunctionDef) and item.name == "validate"]
    assert found == []
