"""The benchmark's tracer patches program functions by module and name.

If a refactor drops or renames one of those names, every traced benchmark
run fails with ``AttributeError``; this test fails first instead.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402


def test_every_traced_name_resolves():
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in tracing.TARGETS
               if not callable(getattr(module, attr, None))]
    assert missing == []
