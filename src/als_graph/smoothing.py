"""Smoothed-label construction and the three training losses with exact gradients.

The adaptive path replaces the uniform smoothing target with a learned one:
propagated neighbor labels pass through a trainable class-relevance matrix W
and a softmax, giving per-node soft targets. The mixing strength follows a
pacing schedule over epochs, and a KL-to-uniform penalty keeps the learned
soft targets from collapsing onto the hard labels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import stream

__all__ = [
    "RefinementMatrix",
    "LossBreakdown",
    "alpha_at",
    "init_refinement",
    "loss_and_grads",
    "softmax_rows",
]

PROB_FLOOR = 1e-12  # predicted probabilities are clamped here before log

# multiply-add counter for the refinement path (matrix products touching W);
# read it before and after a call to count that call's cost
_REFINEMENT_MADDS = 0


def refinement_op_count() -> int:
    return _REFINEMENT_MADDS


def alpha_at(t: int, kind: str = "constant", alpha_const: float = 0.1, r: float = 0.0,
             b: float = 0.1, alpha_max: float = 0.1) -> float:
    """Smoothing strength at epoch ``t`` via the exact closed forms.

    * ``constant``:    alpha_const
    * ``linear``:      min(r * t, alpha_max)
    * ``exponential``: min(b * exp(r * t), alpha_max)

    ``r`` may be negative (decaying strength for full-batch regimes); range
    checks on the result happen where a strength is consumed.
    """
    if kind not in ("constant", "linear", "exponential"):
        raise ValueError(f"unknown pacing kind {kind!r}")
    if not 0.0 <= alpha_const <= 1.0:
        raise ValueError("alpha_const must lie in [0, 1]")
    if not 0.0 <= alpha_max <= 1.0:
        raise ValueError("alpha_max must lie in [0, 1]")
    if b < 0.0:
        raise ValueError("initial strength b must be nonnegative")
    if t < 0:
        raise ValueError("epoch index must be nonnegative")
    if kind == "constant":
        return alpha_const
    if kind == "linear":
        return min(r * t, alpha_max)
    if b == 0.0:
        return min(0.0, alpha_max)
    exponent = r * t
    if exponent > 700.0:  # exp overflows; any positive b already exceeds the cap
        return alpha_max
    return min(b * math.exp(exponent), alpha_max)


@dataclass
class RefinementMatrix:
    """Trainable C x C class-relevance matrix."""

    w: np.ndarray

    def __post_init__(self) -> None:
        self.w = np.asarray(self.w, dtype=np.float64)
        if self.w.ndim != 2 or self.w.shape[0] != self.w.shape[1]:
            raise ValueError("relevance matrix must be square")
        if not np.isfinite(self.w).all():
            raise ValueError("relevance matrix must be finite")


def init_refinement(num_classes: int, seed: int) -> RefinementMatrix:
    """Small Gaussian init so early soft targets stay close to uniform."""
    gen = stream(seed)
    return RefinementMatrix(0.01 * gen.standard_normal((num_classes, num_classes)))


def softmax_rows(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def smooth_labels(y: np.ndarray, yk: np.ndarray, alpha_t: float) -> np.ndarray:
    """Row-wise convex mixture (1 - alpha) * y + alpha * target.

    The target is each propagated row of ``yk`` renormalized to sum to one;
    an all-zero row falls back to uniform. This is the premixed target of the
    ``ablate.no_refinement`` ablation.
    """
    if not 0.0 <= alpha_t <= 1.0:
        raise ValueError(f"smoothing strength {alpha_t} out of [0, 1]")
    y = np.asarray(y, dtype=np.float64)
    c = y.shape[-1]
    raw = np.asarray(yk, dtype=np.float64)
    sums = raw.sum(axis=-1, keepdims=True)
    target = np.where(sums > PROB_FLOOR, raw / np.where(sums > PROB_FLOOR, sums, 1.0), 1.0 / c)
    return (1.0 - alpha_t) * y + alpha_t * target


def _kl_rows(p: np.ndarray) -> np.ndarray:
    c = p.shape[-1]
    safe = np.where(p > 0, p, 1.0)
    return np.sum(np.where(p > 0, p * np.log(safe * c), 0.0), axis=-1)


@dataclass(frozen=True)
class LossBreakdown:
    """Batch loss split into its hard, soft and KL parts.

    In the adaptive mode ``total`` equals
    ``(1 - alpha_t) * ce_hard + alpha_t * ce_soft + gamma * kl_term`` exactly.
    """

    total: float
    ce_hard: float
    ce_soft: float
    kl_term: float


def _cross_entropy_rows(targets: np.ndarray, log_probs: np.ndarray) -> np.ndarray:
    return -np.sum(targets * log_probs, axis=-1)


def loss_and_grads(
    logits: np.ndarray,
    targets: np.ndarray,
    soft_inputs: np.ndarray | None = None,
    refinement: RefinementMatrix | None = None,
    alpha_t: float = 0.0,
    gamma: float = 0.0,
    mode: str = "plain",
    stop_gradient_yhat: bool = False,
) -> tuple[LossBreakdown, np.ndarray, np.ndarray]:
    """Batch loss with exact gradients for the logits and for W.

    ``targets`` are the per-node hard-label distributions (one-hot in the
    standard paths; any distribution is accepted in ``plain`` mode, which is
    how premixed ablation targets run). In ``als`` mode the soft targets are
    softmax(W @ soft_inputs) row-wise, and W receives the full joint gradient
    of both the soft cross-entropy term and the KL penalty.
    ``stop_gradient_yhat`` removes the pull of the soft term on the logits,
    leaving only the hard-label part of the logits gradient.

    Returns ``(breakdown, dlogits, dW)`` with ``dlogits = (p - mix) / |B|``
    row-wise; ``dW`` is zero outside ``als`` mode. Natural log throughout;
    predicted probabilities are floored at ``PROB_FLOOR`` inside the log.
    """
    global _REFINEMENT_MADDS
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if logits.ndim != 2 or logits.shape != targets.shape:
        raise ValueError("logits and targets must share a (batch, classes) shape")
    batch, c = logits.shape
    if batch == 0:
        raise ValueError("empty batch")
    if alpha_t < 0.0 or alpha_t > 1.0:
        raise ValueError(f"smoothing strength {alpha_t} out of [0, 1]")
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")
    if mode not in ("plain", "ls", "als"):
        raise ValueError(f"unknown loss mode {mode!r}")

    probs = softmax_rows(logits)
    log_probs = np.log(np.maximum(probs, PROB_FLOOR))
    ce_hard = float(np.mean(_cross_entropy_rows(targets, log_probs)))
    dw = np.zeros((c, c))

    if mode == "plain":
        dlogits = (probs - targets) / batch
        return LossBreakdown(ce_hard, ce_hard, 0.0, 0.0), dlogits, dw

    if mode == "ls":
        soft = np.full_like(targets, 1.0 / c)
        kl = 0.0
    else:
        if refinement is None or soft_inputs is None:
            raise ValueError("als mode needs a refinement matrix and propagated rows")
        soft_inputs = np.asarray(soft_inputs, dtype=np.float64)
        if soft_inputs.shape != (batch, c):
            raise ValueError("propagated rows must match the batch shape")
        soft = softmax_rows(soft_inputs @ refinement.w.T)
        _REFINEMENT_MADDS += batch * c * c
        kl = float(np.mean(_kl_rows(soft)))

    ce_soft = float(np.mean(_cross_entropy_rows(soft, log_probs)))
    total = (1.0 - alpha_t) * ce_hard + alpha_t * ce_soft + gamma * kl

    mix = (1.0 - alpha_t) * targets + alpha_t * soft
    if stop_gradient_yhat:
        dlogits = (1.0 - alpha_t) * (probs - targets) / batch
    else:
        dlogits = (probs - mix) / batch

    if mode == "als":
        # chain rule through soft = softmax(s): ds = soft * (a - <soft, a>);
        # flooring inside the log keeps underflowed soft entries at their
        # correct zero-gradient limit
        a = alpha_t * (-log_probs) + gamma * np.log(np.maximum(soft, PROB_FLOOR) * c)
        ds = soft * (a - np.sum(soft * a, axis=-1, keepdims=True))
        dw = ds.T @ soft_inputs / batch
        _REFINEMENT_MADDS += batch * c * c
    return LossBreakdown(total, ce_hard, ce_soft, kl), dlogits, dw
