"""Adaptive label smoothing for mini-batch training on graphs.

Sub-graph samplers bias the label distribution inside each batch; training on
those batches with plain cross-entropy drives over-confident predictions.
This package provides the pieces to measure that effect and to counter it:
sparse graph kernels, residual label propagation, three batch samplers, a
learned label-refinement loss with pacing schedules, a small GCN/MLP with
exact hand-derived gradients, and an experiment harness with a CLI.
"""

from .data import Dataset, SbmParams, generate_sbm, load_dataset, one_hot, save_dataset
from .graph import CsrGraph, add_self_loops, build_csr, induced_subgraph, normalized_spmm
from .harness import (
    ExperimentConfig,
    build_config,
    compare_label_exploitation,
    export_relevance,
    label_input_features,
    run_ablations,
    run_experiment,
    run_repeated,
    run_sweep,
    run_training,
)
from .metrics import BiasStats, batch_class_fraction, bias_stats, confidence_stats
from .model import (
    ModelParams,
    OptState,
    adam_step,
    backward,
    forward,
    init_model,
    init_opt_state,
    sign_precompute,
)
from .propagation import PropagationConfig, init_label_matrix, predict_by_propagation, propagate
from .reporting import EpochRecord, ExperimentReport, load_report, write_report
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
    LossBreakdown,
    PacingSchedule,
    RefinementMatrix,
    alpha_at,
    init_refinement,
    loss_and_grads,
    softmax_rows,
)

__all__ = [
    "Dataset",
    "SbmParams",
    "generate_sbm",
    "load_dataset",
    "one_hot",
    "save_dataset",
    "CsrGraph",
    "add_self_loops",
    "build_csr",
    "induced_subgraph",
    "normalized_spmm",
    "ExperimentConfig",
    "build_config",
    "compare_label_exploitation",
    "export_relevance",
    "label_input_features",
    "run_ablations",
    "run_experiment",
    "run_repeated",
    "run_sweep",
    "run_training",
    "BiasStats",
    "batch_class_fraction",
    "bias_stats",
    "confidence_stats",
    "ModelParams",
    "OptState",
    "adam_step",
    "backward",
    "forward",
    "init_model",
    "init_opt_state",
    "sign_precompute",
    "PropagationConfig",
    "init_label_matrix",
    "predict_by_propagation",
    "propagate",
    "EpochRecord",
    "ExperimentReport",
    "load_report",
    "write_report",
    "Batch",
    "Partition",
    "cluster_batches",
    "full_batch",
    "neighbor_sample",
    "partition_clusters",
    "random_walk_sample",
    "LossBreakdown",
    "PacingSchedule",
    "RefinementMatrix",
    "alpha_at",
    "init_refinement",
    "loss_and_grads",
    "softmax_rows",
]
