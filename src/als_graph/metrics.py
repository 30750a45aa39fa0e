"""Batch label-bias and prediction-confidence diagnostics.

The central quantity is the per-batch class fraction: the share of a batch's
training nodes carrying each class. Its spread across batches measures how
much a sampler skews labels; the confidence statistics quantify how peaked
the predicted distributions are.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .sampling import Batch

__all__ = ["BiasStats", "batch_class_fraction", "bias_stats", "confidence_stats"]


@dataclass(frozen=True)
class BiasStats:
    """Per-class mean and sample standard deviation of batch class fractions."""

    mean: np.ndarray
    std: np.ndarray
    batch_count: int


def batch_class_fraction(batch: Batch, dataset: Dataset) -> np.ndarray:
    """Class fractions over the batch's training nodes; sums to one."""
    if batch.train_local.size == 0:
        raise ValueError("batch has no training nodes")
    labels = dataset.labels[batch.global_ids[batch.train_local]]
    counts = np.bincount(labels, minlength=dataset.num_classes).astype(np.float64)
    return counts / counts.sum()


def bias_stats(batches, dataset: Dataset) -> BiasStats:
    """Mean and sample (n-1) std of class fractions across batches.

    A single batch yields zero std by convention.
    """
    batches = list(batches)
    if not batches:
        raise ValueError("need at least one batch")
    fractions = np.stack([batch_class_fraction(b, dataset) for b in batches])
    mean = fractions.mean(axis=0)
    if fractions.shape[0] == 1:
        std = np.zeros_like(mean)
    else:
        std = fractions.std(axis=0, ddof=1)
    return BiasStats(mean, std, fractions.shape[0])


def confidence_stats(probs: np.ndarray) -> dict[str, float]:
    """Mean max-probability and mean Shannon entropy (nats) over rows."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ValueError("expected one distribution per row")
    if probs.min() < -1e-12 or np.abs(probs.sum(axis=1) - 1.0).max() > 1e-9:
        raise ValueError("rows must be probability distributions")
    safe = np.where(probs > 0, probs, 1.0)
    entropy = -np.sum(np.where(probs > 0, probs * np.log(safe), 0.0), axis=1)
    return {
        "mean_max_prob": float(probs.max(axis=1).mean()),
        "mean_entropy": float(entropy.mean()),
    }
