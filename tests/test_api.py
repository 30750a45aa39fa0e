"""The package's public names are its modules' ``__all__`` lists, each name in one."""
from __future__ import annotations

import importlib
import types

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
