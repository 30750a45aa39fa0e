"""The measured process: repeated ``harness.run_experiment`` calls on one workload.

Started by ``run.py`` with the BLAS/OpenMP thread pin already in its
environment and one JSON argument (workload, seed, seconds, trace flag,
config mapping, work directory). It prints one JSON line with the gate
outcome and the metrics, which ``run.py`` reports.

Every run passes a correctness gate: the report must serialize without
non-finite values, its final test accuracy must clear the workload's floor,
and its digest (SHA-256 of the sorted ``report_to_dict`` JSON) must equal the
first run's, so repeats with one seed agree byte for byte.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from als_graph import harness
from als_graph.reporting import report_to_dict

import tracing
from workloads import ACC_FLOOR

MIN_RUNS = 2  # runs (or traced/untraced pairs) made even when time is up

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "epoch_ms_p50": "ms",
    "epoch_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "final_test_acc": "ratio",
}

PER_LAYER_UNITS = {
    **{name: "s" for name in tracing.SELF_TIME_METRICS},
    **tracing.COUNT_UNITS,
    "sampling.loss_node_share": "ratio",
    "trace.overhead_s": "s",
}


class GateError(Exception):
    """A run finished but its report failed the correctness gate."""


def machine_header() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pin": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def timed_run(cfg, tracer: tracing.Tracer | None = None) -> dict:
    """One ``run_experiment`` call, its epoch-start marks and its report digest."""
    marks: list[float] = []
    restores = [tracing.instrument(tracer)] if tracer is not None else []
    restores.append(tracing.hook_epoch_batches(lambda: marks.append(time.perf_counter())))
    try:
        start = time.perf_counter()
        if tracer is None:
            report = harness.run_experiment(cfg)
        else:
            report = tracing.traced_call(tracer, harness.run_experiment, cfg)
        end = time.perf_counter()
    finally:
        for restore in reversed(restores):
            restore()
    try:
        text = json.dumps(report_to_dict(report), sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise GateError(f"report has a non-finite value: {exc}") from None
    return {
        "run_s": end - start,
        "setup_s": marks[0] - start,
        "epoch_s": np.diff(marks).tolist(),
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "acc": report.final_test_acc_mean,
    }


class Gate:
    """Counts attempts and failures; checks each run against the first one."""

    def __init__(self, floor: float) -> None:
        self.floor = floor
        self.digest: str | None = None
        self.attempted = 0
        self.failed = 0

    def attempt(self, cfg, tracer=None) -> dict | None:
        self.attempted += 1
        try:
            run = timed_run(cfg, tracer)
            if not run["acc"] > self.floor:
                raise GateError(f"final test accuracy {run['acc']:.4f} <= floor {self.floor}")
            self.digest = self.digest or run["digest"]
            if run["digest"] != self.digest:
                raise GateError("report digest differs from the first run with this seed")
            return run
        except Exception:  # any failure counts against the run, then the set goes on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None


def measure(cfg, gate: Gate, seconds: float) -> tuple[dict, dict]:
    """Untraced runs until ``seconds`` pass; end-to-end metrics over the passing ones.

    On a shared host whose speed changes from one spell of seconds to the
    next, the intervals between epoch starts fall in a fast and a slow mode,
    and a median pooled over runs jumps from one mode to the other as the
    share of slow spells crosses one half. So ``run_s`` is the mean run time
    and ``epoch_ms_p50`` the mean over the runs of each run's median interval,
    which move smoothly with that share. ``epoch_ms_p90`` is the 90th
    percentile of the pooled intervals, which sits in the slow mode that every
    run meets; a run of 30 s or more leaves at least ten intervals beyond it.
    ``setup_s`` is the median set-up time over the runs. ``peak_rss_mb`` is
    read after the first run, so it is the peak of one run in a fresh
    process, as a command-line user sees it.
    """
    deadline = time.perf_counter() + seconds
    runs = []
    while gate.attempted < MIN_RUNS or time.perf_counter() < deadline:
        run = gate.attempt(cfg)
        if gate.attempted == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if run is not None:
            runs.append(run)
    if not runs:
        return {}, {}
    epochs_ms = [1e3 * np.asarray(r["epoch_s"]) for r in runs]
    metrics = {
        "run_s": float(np.mean([r["run_s"] for r in runs])),
        "setup_s": float(np.median([r["setup_s"] for r in runs])),
        "epoch_ms_p50": float(np.mean([np.median(e) for e in epochs_ms])),
        "epoch_ms_p90": float(np.percentile(np.concatenate(epochs_ms), 90)),
        "peak_rss_mb": peak_rss_mb,
        "final_test_acc": float(np.median([r["acc"] for r in runs])),
    }
    return metrics, {"runs": len(runs), "epoch_intervals": sum(e.size for e in epochs_ms)}


def measure_traced(cfg, gate: Gate, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Alternate untraced and traced runs; per-layer metrics from the traced ones.

    Self times are medians over the traced runs. Counts must repeat exactly
    across traced runs, and every digest must equal the untraced one.
    """
    tracer = tracing.Tracer()
    deadline = time.perf_counter() + seconds
    plain, traced, layers, counts = [], [], [], []
    while tracer.run_id < MIN_RUNS or time.perf_counter() < deadline:
        run = gate.attempt(cfg)
        if run is not None:
            plain.append(run["run_s"])
        tracer.run_id += 1
        tracer.counts.clear()
        run = gate.attempt(cfg, tracer)
        if run is not None:
            traced.append(run["run_s"])
            layers.append(tracing.layer_metrics(tracer, tracer.run_id))
            counts.append(tracing.count_snapshot(tracer))
    tracer.write(spans_path)
    if not traced or not plain:
        return {}, {}
    if any(c != counts[0] for c in counts[1:]):
        gate.failed += 1
        print("per-layer counts differ between traced runs", file=sys.stderr)
    metrics = {name: float(np.median([m[name] for m in layers]))
               for name in tracing.SELF_TIME_METRICS}
    metrics.update(counts[0])
    nodes = counts[0]["sampling.batch_nodes"]
    metrics["sampling.loss_node_share"] = counts[0]["sampling.loss_nodes"] / nodes if nodes else 0.0
    metrics["trace.overhead_s"] = float(np.median(traced) - np.median(plain))
    return metrics, {"traced_runs": len(traced), "untraced_runs": len(plain),
                     "spans": len(tracer.spans), "spans_file": str(spans_path)}


def main() -> None:
    job = json.loads(sys.argv[1])
    source = Path(harness.__file__).resolve()
    if Path(job["root"]).resolve() / "src" not in source.parents:
        raise SystemExit(f"als_graph imported from {source}, not from the checkout")
    cfg = harness.build_config(job["config"])
    gate = Gate(ACC_FLOOR[job["workload"]])
    if job["trace"]:
        spans = Path(job["work_dir"]) / "spans.jsonl"
        metrics, info = measure_traced(cfg, gate, job["seconds"], spans)
    else:
        metrics, info = measure(cfg, gate, job["seconds"])
    units = PER_LAYER_UNITS if job["trace"] else END_TO_END_UNITS
    print(json.dumps({
        "correct": gate.failed == 0 and bool(metrics),
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if metrics},
        "info": {**info, "machine": machine_header()},
    }))


if __name__ == "__main__":
    main()
