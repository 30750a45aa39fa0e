"""Checks on the benchmark itself; run with ``python3 -m pytest bench``.

The traced run must change nothing the program reports, its counts must
repeat exactly across two traced runs, and the benchmark must refuse to run
where the program's sources are absent.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import tracing  # noqa: E402
import worker  # noqa: E402
from als_graph import harness, model  # noqa: E402
from workloads import ACC_FLOOR, NAMES, config_mapping, prepare_inputs  # noqa: E402

# counts that stay zero on a workload because it never calls that layer
IDLE_COUNTS = {
    "protocol": {"data.input_bytes"},
    "neighbor": {"data.input_bytes", "graph.subgraph.calls"},
    "many_class": set(),
}


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_and_reports_match(workload, tmp_path):
    cfg = harness.build_config(config_mapping(workload, 3, prepare_inputs(workload, 3, tmp_path)))
    gate = worker.Gate(ACC_FLOOR[workload])
    assert gate.attempt(cfg) is not None
    tracer = tracing.Tracer()
    counts = []
    for run_id in (1, 2):
        tracer.run_id = run_id
        tracer.counts.clear()
        assert gate.attempt(cfg, tracer) is not None  # digest equals the untraced run's
        counts.append(tracing.count_snapshot(tracer))
    assert gate.failed == 0
    assert counts[0] == counts[1]
    assert {k for k, v in counts[0].items() if v == 0} == IDLE_COUNTS[workload]
    assert harness.forward is model.forward  # instrumentation was undone


def test_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == worker.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == worker.PER_LAYER_UNITS
    # many_class stays runnable but is left out of BENCHMARK.json (see the manifest)
    assert [w["name"] for w in spec["workloads"]] == ["protocol", "neighbor"]
    manifest = json.loads((ROOT / "bench" / "manifest.json").read_text())
    mapped = [name for row in manifest["layer_to_metric"] for name in row["metric"]]
    assert sorted(mapped) == sorted(worker.PER_LAYER_UNITS)


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.span("outer", lambda: tracer.span("inner", sum, range(10**5)))
    (_, _, o_start, o_end, o_parent), (_, _, i_start, i_end, i_parent) = tracer.spans
    assert (o_parent, i_parent) == (-1, 0)
    times = tracer.self_times(0)
    assert times["inner"] == pytest.approx(i_end - i_start)
    assert times["outer"] == pytest.approx((o_end - o_start) - (i_end - i_start))


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
                           "protocol", "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
