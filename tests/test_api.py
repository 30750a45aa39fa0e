"""The package's public names are one explicit list."""
from __future__ import annotations

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
