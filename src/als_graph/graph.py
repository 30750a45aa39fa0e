"""Immutable CSR adjacency and the sparse kernels shared by every module.

Graphs are unweighted and stored in canonical compressed-row form: within each
row the column indices are strictly increasing and duplicate-free, so two
graphs are structurally equal exactly when their arrays are equal. Dense
payloads everywhere are plain float64 numpy arrays.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

__all__ = [
    "CsrGraph",
    "build_csr",
    "normalized_spmm",
    "induced_subgraph",
    "add_self_loops",
]


@dataclass(frozen=True)
class CsrGraph:
    """Sparse unweighted adjacency; immutable after construction."""

    num_nodes: int
    row_offsets: np.ndarray
    col_indices: np.ndarray

    def __post_init__(self) -> None:
        offsets = np.ascontiguousarray(self.row_offsets, dtype=np.int64)
        cols = np.ascontiguousarray(self.col_indices, dtype=np.int64)
        object.__setattr__(self, "row_offsets", offsets)
        object.__setattr__(self, "col_indices", cols)
        if self.num_nodes <= 0:
            raise ValueError("graph must have at least one node")
        if offsets.shape != (self.num_nodes + 1,):
            raise ValueError("row_offsets must have length num_nodes + 1")
        if offsets[0] != 0 or offsets[-1] != cols.size or np.any(np.diff(offsets) < 0):
            raise ValueError("row_offsets must be nondecreasing, start at 0 and end at nnz")
        if cols.size and (cols.min() < 0 or cols.max() >= self.num_nodes):
            raise ValueError("column index out of range")
        row_of = np.repeat(np.arange(self.num_nodes), np.diff(offsets))
        if cols.size > 1 and np.any((row_of[1:] == row_of[:-1]) & (np.diff(cols) <= 0)):
            raise ValueError("column indices must be strictly increasing within each row")
        offsets.setflags(write=False)
        cols.setflags(write=False)

    @property
    def nnz(self) -> int:
        return int(self.row_offsets[-1])

    @cached_property
    def degrees(self) -> np.ndarray:
        d = np.diff(self.row_offsets)
        d.setflags(write=False)
        return d

    def neighbors(self, node: int) -> np.ndarray:
        return self.col_indices[self.row_offsets[node] : self.row_offsets[node + 1]]

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """All directed edges as (sources, targets)."""
        return np.repeat(np.arange(self.num_nodes), self.degrees), self.col_indices.copy()

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.num_nodes, self.num_nodes))
        u, v = self.edge_arrays()
        a[u, v] = 1.0
        return a

    @cached_property
    def _scipy(self) -> sp.csr_array:
        return sp.csr_array(
            (np.ones(self.nnz), self.col_indices, self.row_offsets),
            shape=(self.num_nodes, self.num_nodes),
        )

    @cached_property
    def _sym_norm_op(self) -> sp.csr_array:
        """D^-1/2 (A + I) D^-1/2 with D the degrees of A + I."""
        scale = 1.0 / np.sqrt(self.degrees + 1.0)
        op = (self._scipy + sp.identity(self.num_nodes, format="csr")).tocsr()
        op.data *= np.repeat(scale, np.diff(op.indptr)) * scale[op.indices]
        return op

    def structurally_equal(self, other: "CsrGraph") -> bool:
        return (
            self.num_nodes == other.num_nodes
            and np.array_equal(self.row_offsets, other.row_offsets)
            and np.array_equal(self.col_indices, other.col_indices)
        )


def build_csr(edge_list, num_nodes: int, symmetrize: bool = False) -> CsrGraph:
    """Canonical CSR from a list of (src, dst) pairs.

    Duplicates are removed; with ``symmetrize`` both directions of every pair
    are stored. Node ids must lie in ``[0, num_nodes)``.
    """
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    pairs = np.asarray(edge_list, dtype=np.int64)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("edge list must be a sequence of (src, dst) pairs")
    if pairs.size and (pairs.min() < 0 or pairs.max() >= num_nodes):
        raise ValueError(f"edge endpoint out of range for {num_nodes} nodes")
    if symmetrize and pairs.size:
        pairs = np.concatenate([pairs, pairs[:, ::-1]], axis=0)
    if pairs.size:
        # sort plus adjacent-difference dedupe: same result as np.unique,
        # whose hash path on recent numpy is many times slower
        codes = np.sort(pairs[:, 0] * num_nodes + pairs[:, 1])
        codes = codes[np.concatenate(([True], codes[1:] != codes[:-1]))]
        u, v = np.divmod(codes, num_nodes)
    else:
        u = v = np.empty(0, dtype=np.int64)
    offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(u, minlength=num_nodes), out=offsets[1:])
    return CsrGraph(num_nodes, offsets, v)


def add_self_loops(g: CsrGraph) -> CsrGraph:
    u, v = g.edge_arrays()
    loops = np.arange(g.num_nodes, dtype=np.int64)
    pairs = np.concatenate([np.stack([u, v], axis=1), np.stack([loops, loops], axis=1)])
    return build_csr(pairs, g.num_nodes)


def normalized_spmm(g: CsrGraph, m: np.ndarray, mode: str) -> np.ndarray:
    """Normalized sparse-times-dense product.

    ``row_norm``
        Row i of the output is the mean of the neighbor rows of i
        (inverse-degree scaling); degree-0 rows map to zero rows.
    ``sym_norm_self_loops``
        Symmetric normalization with an implicit self loop on every node,
        i.e. the operator used by standard graph-convolution layers. The
        operator is built on first use and cached on ``g``, so later calls
        on the same graph are a single sparse product.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != g.num_nodes:
        raise ValueError(f"matrix has {m.shape} rows/cols, expected {g.num_nodes} rows")
    if mode == "row_norm":
        deg = g.degrees.astype(np.float64)
        inv = np.zeros(g.num_nodes)
        np.divide(1.0, deg, out=inv, where=deg > 0)
        return (g._scipy @ m) * inv[:, None]
    if mode == "sym_norm_self_loops":
        return g._sym_norm_op @ m
    raise ValueError(f"unknown normalization mode {mode!r}")


def induced_subgraph(g: CsrGraph, nodes) -> tuple[CsrGraph, np.ndarray]:
    """Subgraph on ``nodes`` keeping exactly the edges with both endpoints inside.

    Local ids follow the order of ``nodes``; the returned index array maps
    local id -> global id. When ``nodes`` is ``0 .. n-1`` in order the
    subgraph is ``g`` itself (graphs are immutable), so operators cached on
    ``g`` carry over.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.ndim != 1 or nodes.size == 0:
        raise ValueError("node set must be a nonempty 1-d sequence")
    if nodes.min() < 0 or nodes.max() >= g.num_nodes:
        raise ValueError("node id out of range")
    if np.unique(nodes).size != nodes.size:
        raise ValueError("duplicate node in node set")
    if nodes.size == g.num_nodes and np.array_equal(nodes, np.arange(g.num_nodes)):
        return g, nodes.copy()
    sub = g._scipy[nodes][:, nodes].sorted_indices()
    return CsrGraph(nodes.size, sub.indptr, sub.indices), nodes.copy()
