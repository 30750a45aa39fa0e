"""Minimal trainable classifiers with hand-derived backpropagation.

Two architectures share one code path: ``gcn`` aggregates in each affine
layer with the operator A its batch gives that layer (``Batch.blocks``), and
in the backward with the transpose given with A; ``mlp`` skips aggregation.
A GCN layer applies A on the narrower side of its weight matrix: a layer
that narrows (``fan_out < fan_in``) computes ``A(HW) + b``, every other
layer ``(AH)W + b``, so each operator product, forward and backward, is
``min(fan_in, fan_out)`` columns wide. On a neighbor batch's row blocks each
layer computes only the rows the next layer reads, and the logits hold the
loss rows only. A whole-graph batch computes every row, which evaluation
reads; once its backward is restricted (``Batch.restrict_backward``), the
backward computes only the train rows' receptive field, on the same kind of
row blocks. The forward keeps only what the backward reads: each layer's
input, one one-byte mask per hidden layer (its ReLU gate and dropout keep
mask in one), each at the rows the backward reads, and the logits. Layer
0's ``AX`` is formed once per read-only feature matrix
(``Batch.first_product``). Both passes work in place on arrays they
allocated, and the backward releases each layer's cache entries once that
layer's gradients are formed, so a cache serves one backward. The optimizer is standard bias-corrected adaptive moments, updated
in place over a flat list of parameter arrays, and the inception-style
precompute stacks powers of the normalized adjacency applied to the
features.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import CsrGraph, _keep_in_place, normalized_spmm
from .rng import stream
from .sampling import Batch

__all__ = [
    "ModelParams",
    "OptState",
    "init_model",
    "forward",
    "backward",
    "init_opt_state",
    "adam_step",
    "sign_precompute",
]


@dataclass
class ModelParams:
    arch: str
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    dropout: float = 0.0

    def __post_init__(self) -> None:
        if self.arch not in ("gcn", "mlp"):
            raise ValueError(f"unknown architecture {self.arch!r}")
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("need one bias per weight matrix")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if i and self.weights[i - 1].shape[1] != w.shape[0]:
                raise ValueError("consecutive layer dimensions must chain")
            if np.shape(b) != (w.shape[1],):
                raise ValueError(f"layer {i} bias has shape {np.shape(b)}, expected ({w.shape[1]},)")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")

    @property
    def depth(self) -> int:
        return len(self.weights)


def init_model(arch: str, dims, dropout: float, seed: int) -> ModelParams:
    """Uniform +-sqrt(6 / (fan_in + fan_out)) weights, zero biases."""
    dims = [int(d) for d in dims]
    if len(dims) < 2:
        raise ValueError("need at least input and output widths")
    gen = stream(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(gen.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return ModelParams(arch, weights, biases, dropout)


@dataclass
class ForwardCache:
    """What ``backward`` reads, and nothing more.

    Per layer its operator's transpose and cached input; per hidden layer
    one ``bool`` gate, its ReLU gate ``z > 0`` and-ed with its dropout keep
    mask; the inverted-dropout scale ``1 / (1 - p)`` (1.0 where no dropout
    applied); and the logits. Each array holds only the rows the backward
    reads (``Batch.blocks``). ``backward`` sets each layer's input and gate
    to None once that layer's gradients are formed, so a cache serves
    exactly one backward.
    """

    params: ModelParams
    transposes: list[sp.sparray | None]
    layer_inputs: list[np.ndarray | None]
    gates: list[np.ndarray | None]
    scale: float = 1.0
    logits: np.ndarray | None = None
    logit_rows: np.ndarray | None = None  # the logits rows the backward reads; None: all


def _dropout_keep(gen: np.random.Generator, shape: tuple, p: float) -> np.ndarray:
    """Bool keep mask: each entry kept iff a fresh 32-bit word is at least p * 2^32.

    The words are the two halves of each raw 64-bit draw, and the threshold
    is rounded and capped at 2^32 - 1, so the drop rate is within 2^-33 of
    ``p`` for p below 1 - 2^-33. The word array is freed on return.
    """
    size = int(np.prod(shape))
    threshold = min(round(p * 2**32), 2**32 - 1)
    words = gen.bit_generator.random_raw(-(-size // 2)).view(np.uint32)
    return words[:size].reshape(shape) >= threshold


def _projects_first(op, w: np.ndarray) -> bool:
    """True when the layer computes A(HW): it aggregates and narrows."""
    return op is not None and w.shape[1] < w.shape[0]


def forward(params: ModelParams, batch: Batch, features: np.ndarray,
            train_mode: bool, seed: int = 0) -> tuple[np.ndarray, ForwardCache]:
    """Logits for the rows the last layer outputs, plus the cache for ``backward``.

    ``features`` must hold one row per batch node, aligned with
    ``batch.global_ids``. Only a GCN asks the batch for its operators, so an
    ``mlp`` builds none. The logits hold every batch row, or for a batch of
    layer blocks the ``train_local`` rows only (``batch.loss_rows`` indexes
    them). Dropout applies to hidden activations only and only in train
    mode, with inverted scaling; each layer's keep mask is drawn
    (``_dropout_keep``) for the rows that layer computes only, and cached
    and-ed into its ReLU gate. With dropout 0 train and eval mode are the
    same computation.

    A GCN layer that narrows computes ``A(HW) + b`` and caches its input
    ``H``; every other layer computes ``(AH)W + b``, drops ``H`` once ``AH``
    is formed, and caches ``AH``. Layer 0's ``AX`` comes from
    ``Batch.first_product``, which forms it once for a read-only ``features``.
    Each cached array keeps only the rows the batch says its backward reads:
    on a graph batch after ``Batch.restrict_backward``, the loss rows'
    receptive field, while every row is still computed; above layer 0 those
    rows are moved within the layer's own array once ``z`` is formed
    (``graph._keep_in_place``), not copied out of it, as are the mask's.
    Each layer's bias, ReLU and dropout work in place on the layer's own
    pre-activation array; ``features`` is never written.
    """
    h = np.asarray(features, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] != batch.num_nodes:
        raise ValueError("feature rows must align with the batch nodes")
    if h.shape[1] != params.weights[0].shape[0]:
        raise ValueError(f"feature width {h.shape[1]} does not match the input layer "
                         f"({params.weights[0].shape[0]})")
    p = params.dropout
    gen = stream(seed) if train_mode and p > 0 else None
    cache = ForwardCache(params, [], [], [])
    ops = batch.blocks(params.depth) if params.arch == "gcn" else ((None,) * 4,) * params.depth
    if params.arch == "mlp" and batch.layer_rows is not None:
        h = h[batch.train_local]  # mlp rows are independent: keep only the loss rows
    layers = zip(params.weights, params.biases, ops)
    for layer, (w, b, (op, op_t, reads, keeps)) in enumerate(layers):
        if _projects_first(op, w):
            z, cached = op @ (h @ w), reads
        else:
            if op is not None:  # AH replaces H, which is freed before z is formed
                h = batch.first_product(h) if layer == 0 else op @ h
            z, cached = h @ w, keeps
        # layer 0's input is the caller's or the batch's; every later one is this pass's own
        x = h[cached] if layer == 0 and cached is not None else _keep_in_place(h, cached)
        z += b
        cache.transposes.append(op_t)
        cache.layer_inputs.append(x)
        if layer == params.depth - 1:
            break
        gate = _keep_in_place(z > 0, keeps)
        h, z = np.maximum(z, 0.0, out=z), None  # only h holds it: freed once A h is formed
        if gen is not None:
            keep = _dropout_keep(gen, h.shape, p)
            cache.scale = 1.0 / (1.0 - p)
            h *= cache.scale
            h *= keep
            gate &= _keep_in_place(keep, keeps)
        cache.gates.append(gate)
    cache.logits, cache.logit_rows = z, keeps
    return z, cache


def backward(params: ModelParams, cache: ForwardCache,
             dlogits: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Exact reverse pass; returns (weight grads, bias grads).

    Each layer applies the transpose of its forward operator on the same
    side as the forward: a layer that computed ``A(HW) + b`` forms
    ``adz = A^T dz`` once and takes ``dW = H^T adz`` and ``dH = adz W^T``; a
    ``(AH)W + b`` layer takes ``dW = (AH)^T dz`` and ``dH = A^T(dz W^T)``.
    ``A^T`` is the transpose the batch gave with ``A``, so on a layer block
    ``dH`` has the rows of the layer's input. The first layer's ``dH`` is
    never formed. Where the cache keeps only some logits rows (a graph batch
    after ``Batch.restrict_backward``), only those rows of ``dlogits`` are
    read, and a nonzero entry in any other row raises ``ValueError``.

    The pass consumes ``cache``: each layer's input and gate are released
    once its weight gradient is formed, and a second call on the same cache
    raises ``ValueError``. Below the logits the dropout scale and the gates
    are multiplied into the backward's own ``dH`` in place, so ``dlogits``
    is never written.
    """
    if cache.params is not params:
        raise ValueError("stale cache: it was produced by a different forward call")
    if cache.layer_inputs[-1] is None:
        raise ValueError("consumed cache: backward already ran on it")
    dlogits = np.asarray(dlogits, dtype=np.float64)
    if dlogits.shape != cache.logits.shape:
        raise ValueError("dlogits shape does not match the cached logits")
    dh = dlogits
    if cache.logit_rows is not None:
        dh = dlogits[cache.logit_rows]
        if np.count_nonzero(dh) != np.count_nonzero(dlogits):
            raise ValueError("dlogits is nonzero outside the rows this batch back-propagates")
    wgrads = [np.empty(0)] * params.depth
    bgrads = [np.empty(0)] * params.depth
    for layer in range(params.depth - 1, -1, -1):
        if layer < params.depth - 1:  # dh is this pass's own array from here on
            if cache.scale != 1.0:
                dh *= cache.scale
            dh *= cache.gates[layer]
            cache.gates[layer] = None
        bgrads[layer] = dh.sum(axis=0)  # dh is dz here
        w, op_t = params.weights[layer], cache.transposes[layer]
        narrows = _projects_first(op_t, w)
        if narrows:
            dh = op_t @ dh  # adz
        wgrads[layer] = cache.layer_inputs[layer].T @ dh
        cache.layer_inputs[layer] = None
        if layer:
            dh = dh @ w.T
            if op_t is not None and not narrows:
                dh = op_t @ dh
    return wgrads, bgrads


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class OptState:
    """Per-array first/second moment accumulators for adaptive updates."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int
    lr: float


def init_opt_state(values, lr: float) -> OptState:
    return OptState([np.zeros_like(x) for x in values], [np.zeros_like(x) for x in values], 0, lr)


def adam_step(values, grads, state: OptState) -> None:
    """One bias-corrected adaptive-moment update, in place over a flat list.

    ``values``, ``state.m``, ``state.v`` and ``state.step`` change only once
    every gradient has been checked finite.
    """
    if len(values) != len(grads) or len(values) != len(state.m):
        raise ValueError("parameter, gradient and state lists must align")
    for i, g in enumerate(grads):
        if not np.isfinite(g).all():
            raise ValueError(f"non-finite gradient in array {i} "
                             f"({int(np.sum(~np.isfinite(g)))} bad entries)")
    state.step += 1
    t = state.step
    for x, g, m, v in zip(values, grads, state.m, state.v):
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        x -= state.lr * (m / (1.0 - BETA1**t)) / (np.sqrt(v / (1.0 - BETA2**t)) + EPS)


def sign_precompute(g: CsrGraph, x: np.ndarray, hops: int) -> np.ndarray:
    """Stack [X | AX | ... | A^L X] with the normalized self-loop operator."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != g.num_nodes:
        raise ValueError("feature rows must match the node count")
    if hops < 0:
        raise ValueError("hop count must be nonnegative")
    blocks = [x]
    for _ in range(hops):
        blocks.append(normalized_spmm(g, blocks[-1], "sym_norm_self_loops"))
    return np.concatenate(blocks, axis=1)
