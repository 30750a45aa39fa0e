"""Experiment orchestration: config schema, training loop, ablations, sweeps.

Configs are flat ``section.key = value`` text files (``#`` comments); every
key has a default, and command-line ``key=value`` overrides win over the
file. A run is fully determined by its config, including the seed: reports
from two identical runs are byte-identical.

During training one background thread builds the next epoch's batches
(``epoch_batches``) while the current epoch trains and evaluates; the
samplers are pure, so reports are the same as a serial loop's. Sampling's
many small numpy calls contend with the training thread for the interpreter
lock, so samplers keep their call count per epoch low; the overlap still
pays on ``neighbor`` batches (see ``run_training``).
"""
from __future__ import annotations

import ctypes
import dataclasses
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import rng as rng_streams
from .data import (
    Dataset,
    generate_sbm,
    load_dataset,
    one_hot,
    read_matrix_binary,
    scan_lines,
    write_matrix_binary,
    write_matrix_csv,
)
from .metrics import bias_stats, confidence_stats
from .model import (
    ModelParams,
    adam_step,
    backward,
    forward,
    init_model,
    init_opt_state,
    sign_precompute,
)
from .propagation import init_label_matrix, predict_by_propagation, propagate
from .reporting import (NUMBER, EpochRecord, ExperimentReport, _read_json_object, _typed, _write_json,
                        write_csv, write_report)
from .sampling import (
    Batch,
    Partition,
    cluster_batches,
    full_batch,
    neighbor_sample,
    partition_clusters,
    random_walk_sample,
)
from .smoothing import (
    RefinementMatrix,
    alpha_at,
    init_refinement,
    loss_and_grads,
    smooth_labels,
    softmax_rows,
)

__all__ = [
    "ExperimentConfig",
    "build_config",
    "run_training",
    "run_experiment",
    "run_repeated",
    "label_input_features",
    "export_relevance",
    "compare_label_exploitation",
    "run_ablations",
    "run_sweep",
]


def _key(name: str, default, choices=None, least=None, most=None):
    """A config field whose ``section.key`` name and allowed values (choices, or
    inclusive bounds on the value or on each entry of a tuple) live in its metadata."""
    return dataclasses.field(default=default, metadata=dict(key=name, choices=choices, least=least, most=most))


@dataclass(frozen=True)
class ExperimentConfig:
    data_source: str = _key("data.source", "sbm", choices=("sbm", "files"))
    data_edges: str = _key("data.edges", "")
    data_features: str = _key("data.features", "")
    data_labels: str = _key("data.labels", "")
    data_splits: str = _key("data.splits", "")
    sbm_blocks: int = _key("sbm.blocks", 8, least=1)
    sbm_nodes_per_block: int = _key("sbm.nodes_per_block", 250, least=1)
    sbm_p_in: float = _key("sbm.p_in", 0.05, least=0, most=1)
    sbm_p_out: float = _key("sbm.p_out", 0.002, least=0, most=1)
    sbm_feature_dim: int = _key("sbm.feature_dim", 16, least=1)
    sbm_feature_noise: float = _key("sbm.feature_noise", 2.0, least=0)
    sbm_train_fraction: float = _key("sbm.train_fraction", 0.1, least=0, most=1)
    sbm_val_fraction: float = _key("sbm.val_fraction", 0.2, least=0, most=1)
    sbm_seed: int = _key("sbm.seed", 0, least=0)
    sampler_kind: str = _key("sampler.kind", "cluster", choices=("cluster", "random_walk", "neighbor", "full"))
    num_parts: int = _key("sampler.num_parts", 8, least=1)
    parts_per_batch: int = _key("sampler.parts_per_batch", 2, least=1)
    num_roots: int = _key("sampler.num_roots", 50, least=1)
    walk_length: int = _key("sampler.walk_length", 2, least=0)
    batches_per_epoch: int = _key("sampler.batches_per_epoch", 0, least=0)  # 0 = one pass over the train set
    fanouts: tuple = _key("sampler.fanouts", (10, 10, 10), least=0)
    seeds_per_batch: int = _key("sampler.seeds_per_batch", 64, least=1)
    arch: str = _key("model.arch", "gcn", choices=("gcn", "mlp"))
    depth: int = _key("model.depth", 3, least=1)
    hidden: int = _key("model.hidden", 64, least=1)
    dropout: float = _key("model.dropout", 0.5)
    sign_hops: int = _key("model.sign_hops", 0, least=0)
    loss_mode: str = _key("loss.mode", "als", choices=("plain", "ls", "als"))
    gamma: float = _key("loss.gamma", 1e-3, least=0)
    stop_gradient: bool = _key("loss.stop_gradient", False)
    pacing_kind: str = _key("pacing.kind", "linear", choices=("constant", "linear", "exponential"))
    alpha_const: float = _key("pacing.alpha_const", 0.1, least=0, most=1)
    pacing_r: float = _key("pacing.r", 1e-2)
    pacing_b: float = _key("pacing.b", 0.1, least=0)
    alpha_max: float = _key("pacing.alpha_max", 0.1, least=0, most=1)
    beta: float = _key("propagation.beta", 0.1, least=0, most=1)
    k_steps: int = _key("propagation.k", 2, least=0)
    self_loops: bool = _key("propagation.self_loops", False)
    epochs: int = _key("train.epochs", 100, least=1)
    lr: float = _key("train.lr", 0.01)
    seed: int = _key("train.seed", 0, least=0)
    repeats: int = _key("train.repeats", 1, least=1)
    no_propagation: bool = _key("ablate.no_propagation", False)
    no_refinement: bool = _key("ablate.no_refinement", False)
    no_pacing: bool = _key("ablate.no_pacing", False)
    label_input: bool = _key("label_input", False)

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            key, choices, least, most = (f.metadata[k] for k in ("key", "choices", "least", "most"))
            value = getattr(self, f.name)
            entries = value if isinstance(value, tuple) else (value,)
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
            if choices and value not in choices:
                raise ValueError(f"{key} must be one of {choices}, got {value!r}")
            if least is not None and any(v < least for v in entries):
                raise ValueError(f"{key} must be at least {least}, got {value}")
            if most is not None and any(v > most for v in entries):
                raise ValueError(f"{key} must be at most {most}, got {value}")
        if self.data_source == "files":
            for key in ("data_edges", "data_features", "data_labels", "data_splits"):
                if not getattr(self, key):
                    raise ValueError(f"files dataset needs {key.replace('_', '.')}")
        if self.loss_mode != "als" and (self.no_propagation or self.no_refinement or self.no_pacing):
            raise ValueError("ablation flags are only valid in als mode")
        if self.no_propagation and self.no_refinement:
            raise ValueError("cannot ablate propagation and refinement together")
        if self.label_input and self.loss_mode == "als":
            raise ValueError("label_input is a separate baseline, incompatible with als refinement")
        if self.sampler_kind == "neighbor" and len(self.fanouts) != self.depth:
            raise ValueError(f"sampler.fanouts must list model.depth = {self.depth} counts, got {self.fanouts}")
        if self.parts_per_batch > self.num_parts:
            raise ValueError(f"sampler.parts_per_batch must be at most sampler.num_parts "
                             f"({self.num_parts}), got {self.parts_per_batch}")
        if self.sbm_train_fraction + self.sbm_val_fraction > 1.0 + 1e-12:
            raise ValueError("sbm.train_fraction + sbm.val_fraction must be at most 1, got "
                             f"{self.sbm_train_fraction} + {self.sbm_val_fraction}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"model.dropout must lie in [0, 1), got {self.dropout}")
        if self.lr <= 0:
            raise ValueError(f"train.lr must be positive, got {self.lr}")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_ints(text: str) -> tuple:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


# config key -> (field name, text parser); the parser follows the field's
# annotation, which postponed evaluation leaves as a string
_PARSERS = {"bool": _parse_bool, "tuple": _parse_ints, "int": int, "float": float, "str": str}
_FIELDS: dict[str, tuple[str, object]] = {
    f.metadata["key"]: (f.name, _PARSERS[f.type]) for f in dataclasses.fields(ExperimentConfig)
}

_SWEEP_KEYS = {
    "sweep.r": "pacing.r",
    "sweep.gamma": "loss.gamma",
    "sweep.beta": "propagation.beta",
    "sweep.k": "propagation.k",
}


def _parse(key: str, parser, text: str):
    """``parser(text)``; an error names the config key."""
    try:
        return parser(text)
    except ValueError as exc:
        raise ValueError(f"config key {key}: {exc}") from None


def parse_config_text(text: str, origin: str = "<config>") -> dict[str, str]:
    mapping: dict[str, str] = {}
    for lineno, line, raw in scan_lines(text.splitlines()):
        if "=" not in line:
            raise ValueError(f"{origin}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in mapping:
            raise ValueError(f"{origin}:{lineno}: key {key!r} set more than once")
        mapping[key] = value
    return mapping


def load_config_file(path) -> dict[str, str]:
    return parse_config_text(Path(path).read_text(encoding="utf-8"), origin=str(path))


def apply_overrides(mapping: dict[str, str], overrides) -> dict[str, str]:
    out = dict(mapping)
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form key=value")
        key, value = item.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def build_config(mapping: dict[str, object]) -> ExperimentConfig:
    kwargs = {}
    for key, value in mapping.items():
        if key not in _FIELDS:
            raise ValueError(f"unknown config key {key!r}")
        attr, parser = _FIELDS[key]
        if isinstance(value, str) and parser is not str:
            value = _parse(key, parser, value)
        elif parser is _parse_ints and not isinstance(value, (str, tuple)):
            value = tuple(int(v) for v in value)
        kwargs[attr] = value
    return ExperimentConfig(**kwargs)


def config_to_flat(cfg: ExperimentConfig) -> dict[str, object]:
    flat: dict[str, object] = {}
    for key, (attr, _) in _FIELDS.items():
        value = getattr(cfg, attr)
        flat[key] = list(value) if isinstance(value, tuple) else value
    return flat


def parse_sweep_grid(mapping: dict[str, str]) -> tuple[dict[str, list], dict[str, str]]:
    """Split a raw config mapping into its grid (attr -> distinct values, from the
    sweep.* keys) and the rest, which ``build_config`` reads."""
    grid: dict[str, list] = {}
    for key, swept in _SWEEP_KEYS.items():
        if key in mapping:
            tokens = [tok.strip() for tok in str(mapping[key]).split(",") if tok.strip()]
            if not tokens:
                raise ValueError(f"config key {key}: no values")
            attr, parser = _FIELDS[swept]
            grid[attr] = [_parse(key, parser, tok) for tok in tokens]
            for i, value in enumerate(grid[attr]):
                if value in grid[attr][:i]:  # the same point twice would overwrite its report
                    raise ValueError(f"config key {key}: value {tokens[i]} repeats an earlier value")
    return grid, {key: value for key, value in mapping.items() if key not in _SWEEP_KEYS}


# ---------------------------------------------------------------------------
# pipeline pieces


def build_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.data_source == "sbm":
        return generate_sbm(cfg.sbm_blocks, cfg.sbm_nodes_per_block, cfg.sbm_p_in, cfg.sbm_p_out,
                            cfg.sbm_feature_dim, cfg.sbm_feature_noise, cfg.sbm_train_fraction,
                            cfg.sbm_val_fraction, cfg.sbm_seed)
    return load_dataset(cfg.data_edges, cfg.data_features, cfg.data_labels, cfg.data_splits)


def label_input_features(dataset: Dataset, yk: np.ndarray) -> np.ndarray:
    """Per-node concatenation [features | propagated labels]."""
    yk = np.asarray(yk, dtype=np.float64)
    if yk.shape[0] != dataset.num_nodes:
        raise ValueError("propagated labels must have one row per node")
    return np.concatenate([dataset.features, yk], axis=1)


def _needs_propagation(cfg: ExperimentConfig) -> bool:
    return cfg.label_input or (cfg.loss_mode == "als" and not cfg.no_propagation)


def build_partition(cfg: ExperimentConfig, dataset: Dataset) -> Partition | None:
    """The cluster sampler's partition of the dataset graph; None for other samplers."""
    if cfg.sampler_kind != "cluster":
        return None
    if cfg.num_parts > dataset.num_nodes:
        raise ValueError(f"sampler.num_parts must be at most the node count ({dataset.num_nodes}), "
                         f"got {cfg.num_parts}")
    return partition_clusters(dataset.graph, cfg.num_parts,
                              rng_streams.child_seed(cfg.seed, rng_streams.PARTITION))


def epoch_batches(cfg: ExperimentConfig, dataset: Dataset,
                  partition: Partition | None, epoch: int) -> list[Batch]:
    sampler_seed = rng_streams.child_seed(cfg.seed, rng_streams.SAMPLER)
    if cfg.sampler_kind == "cluster":
        assert partition is not None
        return cluster_batches(dataset, partition, cfg.parts_per_batch, sampler_seed, epoch)
    if cfg.sampler_kind == "random_walk":
        train_count = int(dataset.train_mask.sum())
        count = cfg.batches_per_epoch or max(1, math.ceil(train_count / cfg.num_roots))
        return [random_walk_sample(dataset, cfg.num_roots, cfg.walk_length,
                                   sampler_seed, epoch, j) for j in range(count)]
    if cfg.sampler_kind == "neighbor":
        train_ids = np.flatnonzero(dataset.train_mask)
        order = rng_streams.stream(sampler_seed, epoch).permutation(train_ids)
        chunks = [order[i : i + cfg.seeds_per_batch] for i in range(0, order.size, cfg.seeds_per_batch)]
        return neighbor_sample(dataset, chunks, cfg.fanouts, sampler_seed, epoch)
    return [full_batch(dataset)]


def _batch_loss(cfg: ExperimentConfig, dataset: Dataset, batch: Batch, logits: np.ndarray,
                yk: np.ndarray | None, refinement: RefinementMatrix | None, alpha: float):
    gids = batch.global_ids[batch.train_local]
    hard = one_hot(dataset.labels[gids], dataset.num_classes)
    train_logits = logits[batch.loss_rows]
    if cfg.loss_mode == "plain":
        return loss_and_grads(train_logits, hard, mode="plain")
    if cfg.loss_mode == "ls":
        return loss_and_grads(train_logits, hard, alpha_t=alpha, mode="ls")
    if cfg.no_refinement:
        mixed = smooth_labels(hard, yk[gids], alpha)
        return loss_and_grads(train_logits, mixed, mode="plain")
    soft_inputs = hard if cfg.no_propagation else yk[gids]
    return loss_and_grads(train_logits, hard, soft_inputs, refinement, alpha, cfg.gamma,
                          mode="als", stop_gradient_yhat=cfg.stop_gradient)


def _evaluate_epoch(cfg: ExperimentConfig, dataset: Dataset, batch: Batch, feats: np.ndarray,
                    params: ModelParams, refinement, yk, alpha: float):
    """Epoch metrics plus the eval forward's (logits, cache) on the whole-graph ``batch``.

    Every metric comes from that one forward: train loss and accuracy are
    those of one whole-graph batch, whatever batches the epoch trained on.
    """
    full_logits, full_cache = forward(params, batch, feats, train_mode=False)
    train_loss, _, _ = _batch_loss(cfg, dataset, batch, full_logits, yk, refinement, alpha)
    hits = full_logits.argmax(axis=1) == dataset.labels
    test_ids = np.flatnonzero(dataset.test_mask)
    test_hard = one_hot(dataset.labels[test_ids], dataset.num_classes)
    test_loss, _, _ = loss_and_grads(full_logits[test_ids], test_hard, mode="plain")
    return {
        "train_loss": float(train_loss.total),
        "train_acc": float(hits[batch.train_local].mean()),
        "test_loss": float(test_loss.total),
        "test_acc": float(hits[test_ids].mean()),
        "mean_max_prob": confidence_stats(softmax_rows(full_logits[batch.train_local]))[
            "mean_max_prob"],
    }, (full_logits, full_cache)


def _pin_heap_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds and its arena count for the process.

    By default glibc raises both thresholds after a large mapped block is
    freed, so whether the training loop's ~2 MB temporaries stay mapped
    between epochs, or are returned to the system and faulted back in, would
    depend on what set-up happened to free. The pinned values are those a
    32 MiB free leaves. One arena (``M_ARENA_MAX``) makes the prefetch
    thread's batches come from the main heap, whose free space they reuse,
    instead of a second heap that adds its own pages to the peak; the call
    runs before that thread exists. A C library without ``mallopt`` is left
    as it is.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
        mallopt(-8, 1)  # M_ARENA_MAX


@dataclass
class TrainingResult:
    report: ExperimentReport
    params: ModelParams
    refinement: RefinementMatrix | None
    dataset: Dataset
    features: np.ndarray
    soft_labels: np.ndarray | None
    partition: Partition | None


def run_training(cfg: ExperimentConfig) -> TrainingResult:
    """Full training pipeline for one seed; returns the report plus internals.

    A one-thread pool, opened and joined inside this call, runs
    ``epoch_batches`` for epoch e + 1 while epoch e trains, and never past
    the last epoch. Each epoch's batches are exactly those of a serial loop,
    and a sampler error is raised at the epoch whose batches failed, with
    its own type and message; no thread outlives the call. Built inline,
    benchmark ``neighbor`` epochs took 23.46 ms against 19.61 (medians of 10
    alternating pairs, 9 slower); the sampler's Python-level work holds the
    interpreter lock, so ``neighbor_sample`` builds an epoch's batches in
    one pass per hop rather than one batch at a time.

    The call first pins glibc's mmap threshold to 32 MiB, its trim
    threshold to 64 MiB and its arena count to one for the whole process
    (see ``_pin_heap_thresholds``), so the loop keeps one heap between
    epochs whatever the data source.
    Only one whole-graph evaluation forward is alive at a time: it is kept
    past its epoch only when dropout is 0, and only until the next training
    forward, which reuses it for a whole-graph batch.

    The run holds one whole-graph ``Batch``, which every evaluation and every
    whole-graph training step uses, and one read-only feature matrix, so the
    batch forms layer 0's ``AX`` once (``Batch.first_product``). The first
    time a GCN trains on the whole graph, the batch's backward is restricted
    to the train rows' receptive field (``Batch.restrict_backward``).
    """
    _pin_heap_thresholds()
    dataset = build_dataset(cfg)
    if not dataset.train_mask.any() or not dataset.test_mask.any():
        raise ValueError("dataset needs nonempty train and test masks")

    yk = None
    if _needs_propagation(cfg):
        yk = propagate(dataset.graph, init_label_matrix(dataset), cfg.beta, cfg.k_steps, cfg.self_loops)

    feats = dataset.features
    if cfg.label_input:
        feats = label_input_features(dataset, yk)
    if cfg.sign_hops > 0:
        feats = sign_precompute(dataset.graph, feats, cfg.sign_hops)
    feats.setflags(write=False)
    whole = full_batch(dataset)

    dims = [feats.shape[1]] + [cfg.hidden] * (cfg.depth - 1) + [dataset.num_classes]
    params = init_model(cfg.arch, dims, cfg.dropout,
                        rng_streams.child_seed(cfg.seed, rng_streams.MODEL_INIT))
    refinement = None
    if cfg.loss_mode == "als" and not cfg.no_refinement:
        refinement = init_refinement(dataset.num_classes,
                                     rng_streams.child_seed(cfg.seed, rng_streams.REFINEMENT_INIT))

    values = params.weights + params.biases
    if refinement is not None:
        values.append(refinement.w)
    state = init_opt_state(values, cfg.lr)
    partition = build_partition(cfg, dataset)
    # ablate.no_pacing holds the strength at a constant 0.1
    pacing = (("constant", 0.1) if cfg.no_pacing
              else (cfg.pacing_kind, cfg.alpha_const, cfg.pacing_r, cfg.pacing_b, cfg.alpha_max))
    records: list[EpochRecord] = []
    batches: list[Batch] = []
    # With dropout 0, the last eval forward's (logits, cache) until the next
    # training forward: train mode computes the same, so a whole-graph batch
    # uses it. With dropout above 0 it is always None.
    reusable = None
    with ThreadPoolExecutor(max_workers=1) as pool:
        pending = pool.submit(epoch_batches, cfg, dataset, partition, 0)
        for epoch in range(cfg.epochs):
            alpha = float(alpha_at(epoch, *pacing))
            batches = pending.result()  # re-raises a sampler error at its own epoch
            if epoch + 1 < cfg.epochs:
                pending = pool.submit(epoch_batches, cfg, dataset, partition, epoch + 1)
            for j, batch in enumerate(batches):
                if batch.train_local.size == 0:
                    continue
                if batch.graph is dataset.graph:  # the same rows as the run's whole batch
                    batch = whole
                    if params.arch == "gcn":
                        whole.restrict_backward(params.depth)
                if reusable is not None and batch is whole:
                    logits, cache = reusable
                else:
                    reusable = None  # freed before the forward that replaces it
                    dropout_seed = rng_streams.child_seed(cfg.seed, rng_streams.DROPOUT, epoch, j)
                    logits, cache = forward(params, batch,
                                            feats if batch is whole else feats[batch.global_ids],
                                            train_mode=True, seed=dropout_seed)
                reusable = None
                breakdown, dtrain, dw = _batch_loss(cfg, dataset, batch, logits, yk,
                                                    refinement, alpha)
                if not np.isfinite(breakdown.total):
                    raise RuntimeError(f"training loss diverged (non-finite) at epoch {epoch}")
                dlogits = np.zeros_like(logits)
                dlogits[batch.loss_rows] = dtrain
                wgrads, bgrads = backward(params, cache, dlogits)
                grads = wgrads + bgrads
                if refinement is not None:
                    grads.append(dw)
                try:
                    adam_step(values, grads, state)
                except ValueError as exc:
                    raise RuntimeError(f"training diverged at epoch {epoch}: {exc}") from None
            logits = cache = dlogits = dtrain = None  # freed before the eval forward
            metrics, reusable = _evaluate_epoch(cfg, dataset, whole, feats, params, refinement,
                                                yk, alpha)
            if params.dropout != 0:
                reusable = None
            records.append(EpochRecord(epoch=epoch, alpha_t=alpha, **metrics))

    stats = bias_stats([b for b in batches if b.train_local.size], dataset)
    report = ExperimentReport(
        config=config_to_flat(cfg),
        per_epoch=records,
        bias_stats=stats,
        final_relevance_path=None,
        final_test_acc_mean=records[-1].test_acc,
        final_test_acc_std=0.0,
        seeds=[cfg.seed],
    )
    return TrainingResult(report, params, refinement, dataset, feats, yk, partition)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    return run_training(cfg).report


def run_repeated(cfg: ExperimentConfig):
    """Run ``cfg.repeats`` seeds (base seed + i), each one run at ``train.repeats = 1``.

    Returns (aggregated report: ``cfg``, the base seed's curves and the final
    test accuracy over the seeds; per-seed reports).
    """
    seeds = [cfg.seed + i for i in range(cfg.repeats)]
    reports = [run_experiment(replace(cfg, seed=seed, repeats=1)) for seed in seeds]
    final = np.array([r.per_epoch[-1].test_acc for r in reports])
    aggregated = dataclasses.replace(
        reports[0],
        config=config_to_flat(cfg),
        final_test_acc_mean=float(final.mean()),
        final_test_acc_std=float(final.std(ddof=1)) if cfg.repeats > 1 else 0.0,
        seeds=seeds,
    )
    return aggregated, reports


# ---------------------------------------------------------------------------
# analysis entry points


def export_relevance(refinement: RefinementMatrix, path) -> Path:
    """Row-wise softmax of the class-relevance matrix as a C x C CSV."""
    if not np.isfinite(refinement.w).all():
        raise ValueError("relevance matrix contains non-finite entries")
    return write_matrix_csv(softmax_rows(refinement.w), path)


SUMMARY_COLUMNS = ("final_test_acc_mean", "final_test_acc_std")


def _run_named(runs, summary_csv, out_dir=None, rows=()) -> tuple[list[dict], list[ExperimentReport]]:
    """``run_repeated`` on each ``(labels, name, config)`` in order, then a summary CSV at
    ``summary_csv``: the given ``rows``, then per run its ``labels`` and ``SUMMARY_COLUMNS``.
    With ``out_dir``, each run's report goes to ``<name>.json`` there. Returns (rows, reports)."""
    rows, reports = list(rows), []
    for labels, name, cfg in runs:
        aggregated, _ = run_repeated(cfg)
        if out_dir is not None:
            write_report(aggregated, Path(out_dir) / f"{name}.json")
        rows.append({**labels, **{c: getattr(aggregated, c) for c in SUMMARY_COLUMNS}})
        reports.append(aggregated)
    write_csv(summary_csv, tuple(rows[0]), (row.values() for row in rows))
    return rows, reports


def compare_label_exploitation(cfg: ExperimentConfig, out_csv) -> list[dict]:
    """Propagation-only, label-input and adaptive smoothing under one config.

    Accuracy for the parameter-free propagation baseline counts abstaining
    nodes (no label mass reached them) as incorrect.
    """
    variants = {
        "label_input": replace(cfg, loss_mode="plain", label_input=True,
                               no_propagation=False, no_refinement=False, no_pacing=False),
        "als": replace(cfg, loss_mode="als", label_input=False),
    }
    dataset = build_dataset(cfg)
    yk = propagate(dataset.graph, init_label_matrix(dataset), cfg.beta, cfg.k_steps, cfg.self_loops)
    pred, abstain = predict_by_propagation(yk)
    test_ids = np.flatnonzero(dataset.test_mask)
    hits = (pred[test_ids] == dataset.labels[test_ids]) & ~abstain[test_ids]
    baseline = {"method": "propagation_only", **dict(zip(SUMMARY_COLUMNS, (float(hits.mean()), 0.0)))}
    runs = [({"method": name}, name, variant) for name, variant in variants.items()]
    return _run_named(runs, out_csv, rows=[baseline])[0]


def run_ablations(cfg: ExperimentConfig, out_dir) -> dict[str, ExperimentReport]:
    """Full adaptive smoothing against its three single-module ablations."""
    base = replace(cfg, loss_mode="als", no_propagation=False, no_refinement=False,
                   no_pacing=False, label_input=False)
    variants = {
        "als": base,
        "no_propagation": replace(base, no_propagation=True),
        "no_refinement": replace(base, no_refinement=True),
        "no_pacing": replace(base, no_pacing=True),
    }
    runs = [({"variant": name}, name, variant) for name, variant in variants.items()]
    return dict(zip(variants, _run_named(runs, Path(out_dir) / "ablation_summary.csv", out_dir)[1]))


def run_sweep(cfg: ExperimentConfig, grid: dict[str, list], out_dir) -> list[dict]:
    """One run (or seed family) per grid point, all checked up front; one report per point."""
    if not grid:
        raise ValueError("sweep grid is empty; set sweep.r / sweep.gamma / sweep.beta / sweep.k")
    attrs = sorted(grid)
    points = [dict(zip(attrs, combo)) for combo in itertools.product(*(grid[a] for a in attrs))]
    runs = [(p, "sweep_" + "_".join(f"{a}={v}" for a, v in p.items()), replace(cfg, **p)) for p in points]
    return _run_named(runs, Path(out_dir) / "sweep_summary.csv", out_dir)[0]


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(directory, params: ModelParams, refinement: RefinementMatrix | None,
                    cfg: ExperimentConfig) -> Path:
    directory = Path(directory)
    manifest = {
        "arch": params.arch,
        "dropout": params.dropout,
        "weights": [],
        "biases": [],
        "refinement": None,
        "config": config_to_flat(cfg),
    }
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        wname, bname = f"weight_{i}.bin", f"bias_{i}.bin"
        write_matrix_binary(w, directory / wname)
        write_matrix_binary(b.reshape(1, -1), directory / bname)
        manifest["weights"].append(wname)
        manifest["biases"].append(bname)
    if refinement is not None:
        write_matrix_binary(refinement.w, directory / "refinement.bin")
        manifest["refinement"] = "refinement.bin"
    _write_json(manifest, directory / "manifest.json")
    return directory


def load_checkpoint(directory) -> tuple[ModelParams, RefinementMatrix | None]:
    directory = Path(directory)
    path = directory / "manifest.json"
    arch, dropout, weight_names, bias_names, refinement_name = _read_json_object(
        path, "manifest", lambda doc: (
            doc["arch"], _typed(doc, "dropout", "", NUMBER, "a number"),
            *(_typed(doc, key, "", (list,), "a list of file names") for key in ("weights", "biases")),
            doc.get("refinement")))

    def file(key: str, name) -> Path:
        # each file the manifest names is a plain name inside the directory, never a path out of it
        if not isinstance(name, str) or name in ("", "..") or Path(name).name != name:
            raise ValueError(f"{path}: {key!r} names {name!r}, not a file in the checkpoint directory")
        return directory / name

    weights = [read_matrix_binary(file("weights", name)) for name in weight_names]
    biases = [read_matrix_binary(file("biases", name)).ravel() for name in bias_names]
    try:
        params = ModelParams(arch, weights, biases, dropout)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return params, read_refinement(file("refinement", refinement_name)) if refinement_name else None


def read_refinement(path) -> RefinementMatrix:
    """A relevance matrix from a binary matrix file; an error names the file."""
    w = read_matrix_binary(path)
    try:
        return RefinementMatrix(w)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
