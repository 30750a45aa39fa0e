"""Spans and counts around the program's layers, recorded from outside.

``harness`` and the other modules import each other's functions by name, so
every wrapper replaces the name in the module that looks it up (for example
``harness.forward`` and ``model.normalized_spmm``). Nothing under ``src/``
changes; ``instrument`` returns a function that puts the originals back.

A span is ``[run_id, name, start, end, parent]`` with ``parent`` the index of
the enclosing span (-1 at the top). Spans stay in memory until the caller
writes them out. Counts are derived from call arguments and results only.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import defaultdict

from als_graph import data, graph, harness, model, propagation, sampling, smoothing

# Per-layer time metrics: metric name -> span-name prefix whose self time it sums.
SELF_TIME_METRICS = {
    "data.self_s": "data.",
    "graph.spmm.self_s": "graph.spmm",
    "graph.subgraph.self_s": "graph.subgraph",
    "graph.build_csr.self_s": "graph.build_csr",
    "propagation.self_s": "propagation.",
    "sampling.partition.self_s": "sampling.partition",
    "sampling.batches.self_s": "sampling.batches",
    "model.forward.train.self_s": "model.forward.train",
    "model.forward.eval.self_s": "model.forward.eval",
    "model.backward.self_s": "model.backward",
    "model.adam.self_s": "model.adam",
    "smoothing.loss.self_s": "smoothing.loss",
    "metrics.self_s": "metrics.",
    "harness.self_s": "harness.",
}

COUNT_UNITS = {
    "data.input_bytes": "B",
    "graph.spmm.calls": "count",
    "graph.spmm.madds": "madd",
    "graph.spmm.bytes_computed": "B",
    "graph.subgraph.calls": "count",
    "graph.build_csr.pairs": "count",
    "sampling.batches.count": "count",
    "sampling.batch_nodes": "count",
    "sampling.loss_nodes": "count",
    "model.forward.eval.calls": "count",
    "model.dense_madds": "madd",
    "smoothing.loss.calls": "count",
    "smoothing.refinement_madds": "madd",
}

_WORD = 8  # bytes per float64 value and per int64 index


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.run_id = 0
        self._stack: list[int] = []

    def span(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append([self.run_id, name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        self.spans[index][2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index][3] = time.perf_counter()
            self._stack.pop()

    def self_times(self, run_id: int) -> dict[str, float]:
        """Self time per span name: duration minus the durations of child spans."""
        own: dict[int, float] = {}
        for i, (rid, _, start, end, parent) in enumerate(self.spans):
            if rid != run_id:
                continue
            own[i] = own.get(i, 0.0) + end - start
            if parent >= 0:
                own[parent] = own.get(parent, 0.0) - (end - start)
        totals: dict[str, float] = defaultdict(float)
        for i, value in own.items():
            totals[self.spans[i][1]] += value
        return dict(totals)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"run": rid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def _layer_madds(params) -> int:
    return sum(int(w.shape[0]) * int(w.shape[1]) for w in params.weights)


def _count_spmm(counts, a, result) -> None:
    g, width = a["g"], int(a["m"].shape[1])
    nnz = g.nnz + (g.num_nodes if a["mode"] == "sym_norm_self_loops" else 0)
    counts["graph.spmm.calls"] += 1
    counts["graph.spmm.madds"] += nnz * width
    # computed, not measured: CSR index arrays plus one read of the dense
    # operand and one write of the result
    counts["graph.spmm.bytes_computed"] += _WORD * (g.nnz + g.num_nodes + 1
                                                    + 2 * g.num_nodes * width)


def _count_build_csr(counts, a, result) -> None:
    counts["graph.build_csr.pairs"] += len(a["edge_list"]) * (2 if a["symmetrize"] else 1)


def _count_subgraph(counts, a, result) -> None:
    counts["graph.subgraph.calls"] += 1


def _count_load(counts, a, result) -> None:
    for key in ("edge_path", "feature_path", "label_path", "split_path"):
        counts["data.input_bytes"] += os.path.getsize(a[key])


def _count_forward(counts, a, result) -> None:
    if not a["train_mode"]:
        counts["model.forward.eval.calls"] += 1
    counts["model.dense_madds"] += a["batch"].num_nodes * _layer_madds(a["params"])


def _count_backward(counts, a, result) -> None:
    params, rows = a["params"], int(a["dlogits"].shape[0])
    first = int(params.weights[0].shape[0]) * int(params.weights[0].shape[1])
    # weight gradients for every layer, input gradients for all but the first
    counts["model.dense_madds"] += rows * (2 * _layer_madds(params) - first)


def _count_loss(counts, a, result) -> None:
    counts["smoothing.loss.calls"] += 1


def _count_batches(counts, a, result) -> None:
    counts["sampling.batches.count"] += len(result)
    counts["sampling.batch_nodes"] += sum(b.num_nodes for b in result)
    counts["sampling.loss_nodes"] += sum(int(b.train_local.size) for b in result)


def _forward_name(a) -> str:
    return "model.forward.train" if a["train_mode"] else "model.forward.eval"


# (module, attribute, span name or function of the bound arguments, counter).
# Only functions whose span or counter feeds a metric are wrapped; the time of
# the others stays in their caller's self time, mostly harness.self_s.
TARGETS = (
    (harness, "generate_sbm", "data.generate_sbm", None),
    (harness, "load_dataset", "data.load_dataset", _count_load),
    (data, "read_edge_list", "data.read_edge_list", None),
    (data, "load_features", "data.load_features", None),
    (data, "build_csr", "graph.build_csr", _count_build_csr),
    (graph, "build_csr", "graph.build_csr", _count_build_csr),
    (sampling, "build_csr", "graph.build_csr", _count_build_csr),
    (sampling, "induced_subgraph", "graph.subgraph", _count_subgraph),
    (propagation, "normalized_spmm", "graph.spmm", _count_spmm),
    (model, "normalized_spmm", "graph.spmm", _count_spmm),
    (harness, "propagate", "propagation.propagate", None),
    (harness, "init_label_matrix", "propagation.init_label_matrix", None),
    (harness, "partition_clusters", "sampling.partition", None),
    (harness, "cluster_batches", "sampling.batches", None),
    (harness, "neighbor_sample", "sampling.batches", None),
    (harness, "random_walk_sample", "sampling.batches", None),
    (harness, "forward", _forward_name, _count_forward),
    (harness, "backward", "model.backward", _count_backward),
    (harness, "adam_step", "model.adam", None),
    (harness, "loss_and_grads", "smoothing.loss", _count_loss),
    (harness, "bias_stats", "metrics.bias_stats", None),
    (harness, "confidence_stats", "metrics.confidence_stats", None),
    (harness, "epoch_batches", "harness.epoch_batches", _count_batches),
)


def _wrap(tracer: Tracer, fn, name, counter):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        a = None
        if counter is not None or callable(name):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
        result = tracer.span(name(a) if callable(name) else name, fn, *args, **kwargs)
        if counter is not None:
            counter(tracer.counts, a, result)
        return result
    return wrapper


def _patch(replacements):
    """Set each (module, attr, new) and return a function that undoes it."""
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    for module, attr, new in replacements:
        setattr(module, attr, new)

    def restore() -> None:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)
    return restore


def instrument(tracer: Tracer):
    """Wrap every target in a span; returns the function that unwraps them."""
    return _patch([(module, attr, _wrap(tracer, getattr(module, attr), name, counter))
                   for module, attr, name, counter in TARGETS])


def hook_epoch_batches(on_call):
    """Call ``on_call()`` as each ``harness.epoch_batches`` call starts."""
    inner = harness.epoch_batches

    def epoch_batches(*args, **kwargs):
        on_call()
        return inner(*args, **kwargs)
    return _patch([(harness, "epoch_batches", epoch_batches)])


def traced_call(tracer: Tracer, fn, *args):
    """Run ``fn`` under a root span, counting refinement multiply-adds around it."""
    before = smoothing.refinement_op_count()
    result = tracer.span("harness.run_experiment", fn, *args)
    tracer.counts["smoothing.refinement_madds"] += smoothing.refinement_op_count() - before
    return result


def layer_metrics(tracer: Tracer, run_id: int) -> dict[str, float]:
    times = tracer.self_times(run_id)
    return {metric: sum(v for name, v in times.items() if name.startswith(prefix))
            for metric, prefix in SELF_TIME_METRICS.items()}


def count_snapshot(tracer: Tracer) -> dict[str, int]:
    return {name: int(tracer.counts.get(name, 0)) for name in COUNT_UNITS}

