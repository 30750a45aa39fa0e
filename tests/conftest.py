"""Shared fixtures and independent reference implementations.

The dense oracles here are deliberately written against raw edge lists,
raw CSR arrays and dense numpy algebra, so they share no code with the
kernels and losses they check.
"""
from __future__ import annotations

import numpy as np
import pytest


def neighbors(g, u: int) -> np.ndarray:
    """Row ``u`` of a CSR graph's column indices."""
    return g.col_indices[g.row_offsets[u] : g.row_offsets[u + 1]]


def to_dense(g) -> np.ndarray:
    """Dense 0/1 adjacency read straight from a CSR graph's arrays."""
    a = np.zeros((g.num_nodes, g.num_nodes))
    a[np.repeat(np.arange(g.num_nodes), np.diff(g.row_offsets)), g.col_indices] = 1.0
    return a


def structurally_equal(a, b) -> bool:
    """Same node count and the same canonical CSR arrays."""
    return (a.num_nodes == b.num_nodes
            and np.array_equal(a.row_offsets, b.row_offsets)
            and np.array_equal(a.col_indices, b.col_indices))


def random_undirected(rng: np.random.Generator, n: int, p: float):
    """Random symmetric 0/1 adjacency plus its unique-undirected edge list."""
    upper = np.triu(rng.random((n, n)) < p, k=1)
    dense = (upper | upper.T).astype(np.float64)
    edges = np.argwhere(upper)
    return dense, edges


def dense_row_norm(dense: np.ndarray) -> np.ndarray:
    deg = dense.sum(axis=1)
    inv = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    return np.diag(inv) @ dense


def dense_sym_norm_self_loops(dense: np.ndarray) -> np.ndarray:
    a_tilde = dense + np.eye(dense.shape[0])
    inv_sqrt = 1.0 / np.sqrt(a_tilde.sum(axis=1))
    return np.diag(inv_sqrt) @ a_tilde @ np.diag(inv_sqrt)


def dense_propagate(dense: np.ndarray, y0: np.ndarray, beta: float, k: int) -> np.ndarray:
    op = dense_row_norm(dense)
    y = y0.copy()
    for _ in range(k):
        y = (1.0 - beta) * (op @ y) + beta * y0
    return y


def rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-3) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max()) if a.size else 0.0


def central_diff(fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of scalar fn() w.r.t. the array it closes over."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat, gflat = x.ravel(), grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        step = h * max(1.0, abs(orig))
        flat[i] = orig + step
        up = fn()
        flat[i] = orig - step
        down = fn()
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * step)
    return grad


def refine_soft_label(w: np.ndarray, yk_row: np.ndarray) -> np.ndarray:
    """One node's soft target softmax(W @ yk_row)."""
    z = w @ yk_row
    e = np.exp(z - z.max())
    return e / e.sum()


def kl_to_uniform(p: np.ndarray) -> float:
    """KL(p || uniform) = sum_c p_c * ln(p_c * C), with 0 * ln 0 = 0."""
    pos = p > 0
    return float(np.sum(p[pos] * np.log(p[pos] * p.size)))


def neighbor_sample_with_hops(*args, **kwargs):
    """``sampling.neighbor_sample``'s batch plus the hop graphs it built, input
    side first (layer ``l`` reads ``hops[l]``), recorded by wrapping
    ``sampling.build_csr`` for the one call."""
    from als_graph import sampling

    built, real = [], sampling.build_csr

    def recording(*a, **k):
        built.append(real(*a, **k))
        return built[-1]
    sampling.build_csr = recording
    try:
        batch = sampling.neighbor_sample(*args, **kwargs)
    finally:
        sampling.build_csr = real
    return batch, tuple(reversed(built))


def random_distribution(rng: np.random.Generator, c: int) -> np.ndarray:
    p = rng.random(c) + 1e-3
    return p / p.sum()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(2024)
