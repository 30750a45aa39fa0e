"""Residual label propagation over the graph, run once as preprocessing.

Starting from one-hot rows on training nodes (zero elsewhere), each iteration
averages neighbor rows and re-injects a ``beta`` fraction of the initial
labels:

    Y <- (1 - beta) * D^-1 A Y + beta * Y0

Rows are never renormalized; downstream consumers absorb the scale. The whole
path runs in double precision.
"""
from __future__ import annotations

import numpy as np

from .data import Dataset
from .graph import CsrGraph, add_self_loops, normalized_spmm

__all__ = [
    "init_label_matrix",
    "propagate",
    "predict_by_propagation",
]


def check_settings(beta: float, num_steps: int) -> None:
    """Reject a residual strength outside [0, 1] or a negative step count."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    if num_steps < 0:
        raise ValueError("num_steps must be nonnegative")


def init_label_matrix(dataset: Dataset) -> np.ndarray:
    """One-hot rows for training nodes, zero rows for everything else."""
    y0 = np.zeros((dataset.num_nodes, dataset.num_classes))
    train = np.flatnonzero(dataset.train_mask)
    y0[train, dataset.labels[train]] = 1.0
    return y0


def propagate(g: CsrGraph, y0: np.ndarray, beta: float, num_steps: int,
              self_loops: bool = False) -> np.ndarray:
    """Exactly ``num_steps`` residual propagation steps; K=0 returns ``y0``.

    ``beta`` is the residual strength in [0, 1]. ``self_loops`` additionally
    averages each node's own row during the neighbor step; off by default
    because the residual term already re-injects node-own labels.
    """
    check_settings(beta, num_steps)
    y0 = np.asarray(y0, dtype=np.float64)
    if y0.ndim != 2 or y0.shape[0] != g.num_nodes:
        raise ValueError(f"label matrix has shape {y0.shape}, expected {g.num_nodes} rows")
    op = add_self_loops(g) if self_loops else g
    y = y0.copy()
    for _ in range(num_steps):
        y = (1.0 - beta) * normalized_spmm(op, y, "row_norm") + beta * y0
    return y


def predict_by_propagation(yk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parameter-free prediction from propagated labels.

    Returns (class ids, abstain flags). Ties break toward the lowest class
    index; rows with no mass at all abstain and are scored incorrect by
    downstream accuracy.
    """
    yk = np.asarray(yk, dtype=np.float64)
    if yk.ndim != 2:
        raise ValueError("expected a 2-d label matrix")
    abstain = ~yk.any(axis=1)
    return yk.argmax(axis=1).astype(np.int64), abstain
