"""The benchmark's tracer patches program functions by module and name.

If a refactor drops or renames one of those names, every traced benchmark
run fails with ``AttributeError``; these tests fail first instead. The
tracer's counters also read their arguments (``model.normalized_spmm``'s
graph, ``forward``'s batch), so a traced run must still complete and report
exactly what an untraced run reports.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from als_graph import harness, model  # noqa: E402


def test_every_traced_name_resolves():
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in tracing.TARGETS
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_traced_neighbor_run_reports_what_an_untraced_run_does():
    mapping = {**workloads.config_mapping("neighbor", 3, {}), "train.epochs": "2"}
    cfg = harness.build_config(mapping)
    plain = worker.timed_run(cfg)
    tracer = tracing.Tracer()
    traced = worker.timed_run(cfg, tracer)
    assert traced["digest"] == plain["digest"]
    assert tracer.counts["graph.spmm.calls"] > 0
    assert tracer.counts["sampling.batches.count"] == 8  # 200 seeds in 64-seed batches, 2 epochs
    assert harness.forward is model.forward  # instrumentation was undone
