"""Experiment orchestration: config schema, training loop, ablations, sweeps.

Configs are flat ``section.key = value`` text files (``#`` comments); every
key has a default, and command-line ``key=value`` overrides win over the
file. A run is fully determined by its config, including the seed: reports
from two identical runs are byte-identical.

During training one background thread builds the next epoch's batches
(``epoch_batches``) while the current epoch trains and evaluates; the
samplers are pure, so reports are the same as a serial loop's.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import rng as rng_streams
from .data import (
    Dataset,
    SbmParams,
    generate_sbm,
    load_dataset,
    one_hot,
    read_matrix_binary,
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
from .propagation import PropagationConfig, init_label_matrix, predict_by_propagation, propagate
from .reporting import EpochRecord, ExperimentReport, write_report
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
    PacingSchedule,
    RefinementMatrix,
    alpha_at,
    init_refinement,
    loss_and_grads,
    smooth_labels,
    softmax_rows,
)

__all__ = [
    "ExperimentConfig",
    "TrainingResult",
    "parse_config_text",
    "load_config_file",
    "apply_overrides",
    "build_config",
    "config_to_flat",
    "parse_sweep_grid",
    "build_dataset",
    "build_partition",
    "epoch_batches",
    "run_training",
    "run_experiment",
    "run_repeated",
    "label_input_features",
    "export_relevance",
    "compare_label_exploitation",
    "run_ablations",
    "run_sweep",
    "save_checkpoint",
    "load_checkpoint",
]


def _key(name: str, default):
    """A config field whose ``section.key`` name lives in its metadata."""
    return dataclasses.field(default=default, metadata={"key": name})


@dataclass
class ExperimentConfig:
    data_source: str = _key("data.source", "sbm")  # sbm | files
    data_edges: str = _key("data.edges", "")
    data_features: str = _key("data.features", "")
    data_labels: str = _key("data.labels", "")
    data_splits: str = _key("data.splits", "")
    sbm_blocks: int = _key("sbm.blocks", 8)
    sbm_nodes_per_block: int = _key("sbm.nodes_per_block", 250)
    sbm_p_in: float = _key("sbm.p_in", 0.05)
    sbm_p_out: float = _key("sbm.p_out", 0.002)
    sbm_feature_dim: int = _key("sbm.feature_dim", 16)
    sbm_feature_noise: float = _key("sbm.feature_noise", 2.0)
    sbm_train_fraction: float = _key("sbm.train_fraction", 0.1)
    sbm_val_fraction: float = _key("sbm.val_fraction", 0.2)
    sbm_seed: int = _key("sbm.seed", 0)
    sampler_kind: str = _key("sampler.kind", "cluster")  # cluster | random_walk | neighbor | full
    num_parts: int = _key("sampler.num_parts", 8)
    parts_per_batch: int = _key("sampler.parts_per_batch", 2)
    num_roots: int = _key("sampler.num_roots", 50)
    walk_length: int = _key("sampler.walk_length", 2)
    batches_per_epoch: int = _key("sampler.batches_per_epoch", 0)  # 0 = one pass over the train set
    fanouts: tuple = _key("sampler.fanouts", (10, 10, 10))
    seeds_per_batch: int = _key("sampler.seeds_per_batch", 64)
    arch: str = _key("model.arch", "gcn")  # gcn | mlp
    depth: int = _key("model.depth", 3)
    hidden: int = _key("model.hidden", 64)
    dropout: float = _key("model.dropout", 0.5)
    sign_hops: int = _key("model.sign_hops", 0)
    loss_mode: str = _key("loss.mode", "als")  # plain | ls | als
    gamma: float = _key("loss.gamma", 1e-3)
    stop_gradient: bool = _key("loss.stop_gradient", False)
    pacing_kind: str = _key("pacing.kind", "linear")  # constant | linear | exponential
    alpha_const: float = _key("pacing.alpha_const", 0.1)
    pacing_r: float = _key("pacing.r", 1e-2)
    pacing_b: float = _key("pacing.b", 0.1)
    alpha_max: float = _key("pacing.alpha_max", 0.1)
    beta: float = _key("propagation.beta", 0.1)
    k_steps: int = _key("propagation.k", 2)
    self_loops: bool = _key("propagation.self_loops", False)
    epochs: int = _key("train.epochs", 100)
    lr: float = _key("train.lr", 0.01)
    seed: int = _key("train.seed", 0)
    repeats: int = _key("train.repeats", 1)
    no_propagation: bool = _key("ablate.no_propagation", False)
    no_refinement: bool = _key("ablate.no_refinement", False)
    no_pacing: bool = _key("ablate.no_pacing", False)
    label_input: bool = _key("label_input", False)

    def validate(self) -> "ExperimentConfig":
        checks = {
            "data.source": (self.data_source, ("sbm", "files")),
            "sampler.kind": (self.sampler_kind, ("cluster", "random_walk", "neighbor", "full")),
            "model.arch": (self.arch, ("gcn", "mlp")),
            "loss.mode": (self.loss_mode, ("plain", "ls", "als")),
            "pacing.kind": (self.pacing_kind, ("constant", "linear", "exponential")),
        }
        for key, (value, allowed) in checks.items():
            if value not in allowed:
                raise ValueError(f"{key} must be one of {allowed}, got {value!r}")
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
            raise ValueError("fanouts must list one count per model layer")
        if any(f < 0 for f in self.fanouts):
            raise ValueError(f"sampler.fanouts must be non-negative, got {self.fanouts}")
        for key, value, least in (("sampler.seeds_per_batch", self.seeds_per_batch, 1),
                                  ("sampler.num_roots", self.num_roots, 1),
                                  ("sampler.walk_length", self.walk_length, 0),
                                  ("sampler.num_parts", self.num_parts, 1),
                                  ("sampler.parts_per_batch", self.parts_per_batch, 1),
                                  ("sampler.batches_per_epoch", self.batches_per_epoch, 0),
                                  ("model.sign_hops", self.sign_hops, 0),
                                  ("loss.gamma", self.gamma, 0),
                                  ("train.seed", self.seed, 0),
                                  ("sbm.seed", self.sbm_seed, 0)):
            if value < least:
                raise ValueError(f"{key} must be at least {least}, got {value}")
        if self.parts_per_batch > self.num_parts:
            raise ValueError(f"sampler.parts_per_batch must be at most sampler.num_parts "
                             f"({self.num_parts}), got {self.parts_per_batch}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"model.dropout must lie in [0, 1), got {self.dropout}")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if self.depth < 1 or self.hidden < 1:
            raise ValueError("model dimensions must be positive")
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")
        self.pacing_schedule()  # surfaces schedule parameter errors early
        PropagationConfig(self.beta, self.k_steps, self.self_loops)
        return self

    def pacing_schedule(self) -> PacingSchedule:
        if self.no_pacing:
            return PacingSchedule(kind="constant", alpha_const=0.1)
        return PacingSchedule(self.pacing_kind, self.alpha_const, self.pacing_r,
                              self.pacing_b, self.alpha_max)

    def sbm_params(self) -> SbmParams:
        return SbmParams(self.sbm_blocks, self.sbm_nodes_per_block, self.sbm_p_in,
                         self.sbm_p_out, self.sbm_feature_dim, self.sbm_feature_noise,
                         self.sbm_train_fraction, self.sbm_val_fraction, self.sbm_seed)


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
    "sweep.r": "pacing_r",
    "sweep.gamma": "gamma",
    "sweep.beta": "beta",
    "sweep.k": "k_steps",
}


def parse_config_text(text: str, origin: str = "<config>") -> dict[str, str]:
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{origin}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        mapping[key.strip()] = value.strip()
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
        if key in _SWEEP_KEYS:
            continue  # grid spec, consumed by parse_sweep_grid
        if key not in _FIELDS:
            raise ValueError(f"unknown config key {key!r}")
        attr, parser = _FIELDS[key]
        if isinstance(value, str) and parser is not str:
            try:
                value = parser(value)
            except ValueError as exc:
                raise ValueError(f"config key {key}: {exc}") from None
        elif parser is _parse_ints and not isinstance(value, (str, tuple)):
            value = tuple(int(v) for v in value)
        kwargs[attr] = value
    return ExperimentConfig(**kwargs).validate()


def config_to_flat(cfg: ExperimentConfig) -> dict[str, object]:
    flat: dict[str, object] = {}
    for key, (attr, _) in _FIELDS.items():
        value = getattr(cfg, attr)
        flat[key] = list(value) if isinstance(value, tuple) else value
    return flat


def parse_sweep_grid(mapping: dict[str, str]) -> dict[str, list]:
    """Pull sweep.* keys out of a raw config mapping into attr -> values."""
    grid: dict[str, list] = {}
    for key, attr in _SWEEP_KEYS.items():
        if key in mapping:
            tokens = [tok.strip() for tok in str(mapping[key]).split(",") if tok.strip()]
            cast = int if attr == "k_steps" else float
            grid[attr] = [cast(tok) for tok in tokens]
    return grid


# ---------------------------------------------------------------------------
# pipeline pieces


def build_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.data_source == "sbm":
        return generate_sbm(cfg.sbm_params())
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
        return [neighbor_sample(dataset, chunk, cfg.fanouts, sampler_seed, epoch, j)
                for j, chunk in enumerate(chunks)]
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
        mixed = smooth_labels(hard, yk[gids], alpha, "ablate_refinement")
        return loss_and_grads(train_logits, mixed, mode="plain")
    soft_inputs = hard if cfg.no_propagation else yk[gids]
    return loss_and_grads(train_logits, hard, soft_inputs, refinement, alpha, cfg.gamma,
                          mode="als", stop_gradient_yhat=cfg.stop_gradient)


def _is_whole_graph(batch: Batch, dataset: Dataset) -> bool:
    """True when the batch's rows line up with the whole-graph forward.

    Only the identity node order or ``full_batch`` share the graph object.
    """
    return batch.subgraph is dataset.graph


def _evaluate_epoch(cfg: ExperimentConfig, dataset: Dataset, feats: np.ndarray,
                    params: ModelParams, refinement, yk, batches, alpha: float):
    """Epoch metrics plus the whole-graph eval forward's (logits, cache)."""
    full_logits, full_cache = forward(params, full_batch(dataset), feats, train_mode=False)
    totals: list[float] = []
    correct = 0
    seen = 0
    for batch in batches:
        if batch.train_local.size == 0:
            continue
        if _is_whole_graph(batch, dataset):
            logits = full_logits
        else:
            logits, _ = forward(params, batch, feats[batch.global_ids], train_mode=False)
        breakdown, _, _ = _batch_loss(cfg, dataset, batch, logits, yk, refinement, alpha)
        totals.append(breakdown.total)
        gids = batch.global_ids[batch.train_local]
        correct += int((logits[batch.loss_rows].argmax(axis=1) == dataset.labels[gids]).sum())
        seen += gids.size
    probs = softmax_rows(full_logits)
    test_ids = np.flatnonzero(dataset.test_mask)
    test_hard = one_hot(dataset.labels[test_ids], dataset.num_classes)
    test_loss, _, _ = loss_and_grads(full_logits[test_ids], test_hard, mode="plain")
    test_acc = float((full_logits[test_ids].argmax(axis=1) == dataset.labels[test_ids]).mean())
    train_ids = np.flatnonzero(dataset.train_mask)
    return {
        "train_loss": float(np.mean(totals)) if totals else 0.0,
        "train_acc": correct / seen if seen else 0.0,
        "test_loss": float(test_loss.total),
        "test_acc": test_acc,
        "mean_max_prob": confidence_stats(probs[train_ids])["mean_max_prob"],
    }, (full_logits, full_cache)


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
    its own type and message; no thread outlives the call.
    """
    cfg.validate()
    dataset = build_dataset(cfg)
    if not dataset.train_mask.any() or not dataset.test_mask.any():
        raise ValueError("dataset needs nonempty train and test masks")

    yk = None
    if _needs_propagation(cfg):
        prop_cfg = PropagationConfig(cfg.beta, cfg.k_steps, cfg.self_loops)
        yk = propagate(dataset.graph, init_label_matrix(dataset), prop_cfg)

    feats = dataset.features
    if cfg.label_input:
        feats = label_input_features(dataset, yk)
    if cfg.sign_hops > 0:
        feats = sign_precompute(dataset.graph, feats, cfg.sign_hops)

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
    schedule = cfg.pacing_schedule()
    records: list[EpochRecord] = []
    batches: list[Batch] = []
    # The last eval forward's (logits, cache) until the next Adam step. With
    # dropout 0 train mode computes the same, so a whole-graph batch uses it.
    reusable = None
    with ThreadPoolExecutor(max_workers=1) as pool:
        pending = pool.submit(epoch_batches, cfg, dataset, partition, 0)
        for epoch in range(cfg.epochs):
            alpha = float(alpha_at(schedule, epoch))
            batches = pending.result()  # re-raises a sampler error at its own epoch
            if epoch + 1 < cfg.epochs:
                pending = pool.submit(epoch_batches, cfg, dataset, partition, epoch + 1)
            for j, batch in enumerate(batches):
                if batch.train_local.size == 0:
                    continue
                if reusable is not None and _is_whole_graph(batch, dataset):
                    logits, cache = reusable
                else:
                    dropout_seed = rng_streams.child_seed(cfg.seed, rng_streams.DROPOUT, epoch, j)
                    logits, cache = forward(params, batch, feats[batch.global_ids],
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
            metrics, full_forward = _evaluate_epoch(cfg, dataset, feats, params, refinement, yk,
                                                    batches, alpha)
            reusable = full_forward if params.dropout == 0 else None
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


def run_repeated(cfg: ExperimentConfig, repeats: int | None = None):
    """Run ``repeats`` seeds (base seed + i); aggregate final test accuracy.

    Returns (aggregated report carrying the base seed's curves, per-seed
    reports).
    """
    repeats = cfg.repeats if repeats is None else repeats
    reports = [run_experiment(replace(cfg, seed=cfg.seed + i)) for i in range(repeats)]
    final = np.array([r.per_epoch[-1].test_acc for r in reports])
    aggregated = dataclasses.replace(
        reports[0],
        final_test_acc_mean=float(final.mean()),
        final_test_acc_std=float(final.std(ddof=1)) if repeats > 1 else 0.0,
        seeds=[cfg.seed + i for i in range(repeats)],
    )
    return aggregated, reports


# ---------------------------------------------------------------------------
# analysis entry points


def export_relevance(refinement: RefinementMatrix, path) -> Path:
    """Row-wise softmax of the class-relevance matrix as a C x C CSV."""
    if not np.isfinite(refinement.w).all():
        raise ValueError("relevance matrix contains non-finite entries")
    return write_matrix_csv(softmax_rows(refinement.w), path)


def compare_label_exploitation(cfg: ExperimentConfig, out_csv=None) -> list[dict]:
    """Propagation-only, label-input and adaptive smoothing under one config.

    Accuracy for the parameter-free propagation baseline counts abstaining
    nodes (no label mass reached them) as incorrect.
    """
    dataset = build_dataset(cfg)
    prop_cfg = PropagationConfig(cfg.beta, cfg.k_steps, cfg.self_loops)
    yk = propagate(dataset.graph, init_label_matrix(dataset), prop_cfg)
    pred, abstain = predict_by_propagation(yk)
    test_ids = np.flatnonzero(dataset.test_mask)
    hits = (pred[test_ids] == dataset.labels[test_ids]) & ~abstain[test_ids]
    rows = [{
        "method": "propagation_only",
        "final_test_acc_mean": float(hits.mean()),
        "final_test_acc_std": 0.0,
    }]
    variants = {
        "label_input": replace(cfg, loss_mode="plain", label_input=True,
                               no_propagation=False, no_refinement=False, no_pacing=False),
        "als": replace(cfg, loss_mode="als", label_input=False),
    }
    for name, variant in variants.items():
        aggregated, _ = run_repeated(variant.validate())
        rows.append({
            "method": name,
            "final_test_acc_mean": aggregated.final_test_acc_mean,
            "final_test_acc_std": aggregated.final_test_acc_std,
        })
    if out_csv is not None:
        _write_rows_csv(rows, out_csv, ("method", "final_test_acc_mean", "final_test_acc_std"))
    return rows


def run_ablations(cfg: ExperimentConfig, out_dir=None) -> dict[str, ExperimentReport]:
    """Full adaptive smoothing against its three single-module ablations."""
    base = replace(cfg, loss_mode="als", no_propagation=False, no_refinement=False,
                   no_pacing=False, label_input=False)
    variants = {
        "als": base,
        "no_propagation": replace(base, no_propagation=True),
        "no_refinement": replace(base, no_refinement=True),
        "no_pacing": replace(base, no_pacing=True),
    }
    results: dict[str, ExperimentReport] = {}
    for name, variant in variants.items():
        aggregated, _ = run_repeated(variant.validate())
        results[name] = aggregated
        if out_dir is not None:
            write_report(aggregated, Path(out_dir) / f"{name}.json")
    if out_dir is not None:
        rows = [{"variant": name,
                 "final_test_acc_mean": rep.final_test_acc_mean,
                 "final_test_acc_std": rep.final_test_acc_std}
                for name, rep in results.items()]
        _write_rows_csv(rows, Path(out_dir) / "ablation_summary.csv",
                        ("variant", "final_test_acc_mean", "final_test_acc_std"))
    return results


def run_sweep(cfg: ExperimentConfig, grid: dict[str, list], out_dir) -> list[dict]:
    """One run (or seed family) per grid point; one report file per point."""
    if not grid:
        raise ValueError("sweep grid is empty; set sweep.r / sweep.gamma / sweep.beta / sweep.k")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    attrs = sorted(grid)
    rows = []
    for combo in itertools.product(*(grid[a] for a in attrs)):
        point = dict(zip(attrs, combo))
        aggregated, _ = run_repeated(replace(cfg, **point).validate())
        tag = "_".join(f"{a}={v}" for a, v in point.items())
        write_report(aggregated, out_dir / f"sweep_{tag}.json")
        rows.append({**point,
                     "final_test_acc_mean": aggregated.final_test_acc_mean,
                     "final_test_acc_std": aggregated.final_test_acc_std})
    _write_rows_csv(rows, out_dir / "sweep_summary.csv",
                    (*attrs, "final_test_acc_mean", "final_test_acc_std"))
    return rows


def _write_rows_csv(rows: list[dict], path, columns) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in columns) + "\n")
    return path


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(directory, params: ModelParams, refinement: RefinementMatrix | None,
                    cfg: ExperimentConfig | None = None) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "arch": params.arch,
        "dropout": params.dropout,
        "weights": [],
        "biases": [],
        "refinement": None,
        "config": config_to_flat(cfg) if cfg is not None else None,
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
    with open(directory / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return directory


def load_checkpoint(directory) -> tuple[ModelParams, RefinementMatrix | None]:
    directory = Path(directory)
    with open(directory / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    weights = [read_matrix_binary(directory / name) for name in manifest["weights"]]
    biases = [read_matrix_binary(directory / name).ravel() for name in manifest["biases"]]
    params = ModelParams(manifest["arch"], weights, biases, manifest["dropout"])
    refinement = None
    if manifest.get("refinement"):
        refinement = RefinementMatrix(read_matrix_binary(directory / manifest["refinement"]))
    return params, refinement
