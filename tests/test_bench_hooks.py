"""The benchmark's tracer patches program functions by module and name.

If a refactor drops or renames one of those names, every traced benchmark
run fails with ``AttributeError``; these tests fail first instead. The
tracer's counters also read their arguments (``model.normalized_spmm``'s
graph, ``forward``'s batch), so a traced run must still complete and report
exactly what an untraced run reports. The benchmark's ``protocol`` workload
is the checked-in protocol config with its seed made a parameter, and a test
keeps the two copies from drifting apart.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from als_graph import harness, model  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def test_protocol_config_matches_the_benchmark_workload():
    from_file = harness.build_config(harness.load_config_file(ROOT / "configs" / "protocol.cfg"))
    assert from_file == harness.build_config({**workloads.PROTOCOL, "sbm.seed": "7"})


def test_every_traced_name_resolves():
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in tracing.TARGETS
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_traced_neighbor_run_reports_what_an_untraced_run_does():
    """Batches are built on a second thread, yet traced counts repeat exactly."""
    mapping = {**workloads.config_mapping("neighbor", 3, {}), "train.epochs": "2"}
    cfg = harness.build_config(mapping)
    plain = worker.timed_run(cfg)
    snapshots = []
    for _ in range(2):
        tracer = tracing.Tracer()
        traced = worker.timed_run(cfg, tracer)
        assert traced["digest"] == plain["digest"]
        snapshots.append(tracing.count_snapshot(tracer))
    assert snapshots[0] == snapshots[1]
    assert snapshots[0]["graph.spmm.calls"] > 0
    assert snapshots[0]["sampling.batches.count"] == 8  # 200 seeds in 64-seed batches, 2 epochs
    assert harness.forward is model.forward  # instrumentation was undone


def test_traced_neighbor_run_records_one_sampling_span_per_epoch():
    """The neighbor sampler builds an epoch's batches in one call, under the name
    the tracer wraps (``harness.neighbor_sample``). Renamed, its time would move
    into ``harness.self_s`` without any error."""
    mapping = {**workloads.config_mapping("neighbor", 3, {}), "train.epochs": "2"}
    tracer = tracing.Tracer()
    worker.timed_run(harness.build_config(mapping), tracer)
    names = [span[1] for span in tracer.spans]
    assert names.count("harness.epoch_batches") == 2
    assert names.count("sampling.batches") == 2
