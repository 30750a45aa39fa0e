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
        # a column may drop only where a row starts; offsets at 0 or nnz start no entry
        drop = cols[1:] <= cols[:-1]
        starts = offsets[(offsets > 0) & (offsets < cols.size)]
        drop[starts - 1] = False
        if drop.any():
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

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """All directed edges as (sources, targets)."""
        return np.repeat(np.arange(self.num_nodes), self.degrees), self.col_indices.copy()

    @cached_property
    def _scipy(self) -> sp.csr_array:
        return sp.csr_array(
            (np.ones(self.nnz), self.col_indices, self.row_offsets),
            shape=(self.num_nodes, self.num_nodes),
        )

    @cached_property
    def _sym_norm_op(self) -> sp.csr_array:
        """D^-1/2 (A + I) D^-1/2 with D the degrees of A + I: ``_sym_norm_rows`` on every row."""
        return _sym_norm_rows(self, np.arange(self.num_nodes))[0]


def build_csr(edge_list, num_nodes: int, symmetrize: bool = False) -> CsrGraph:
    """Canonical CSR from a list of (src, dst) pairs.

    Duplicates are removed; with ``symmetrize`` both directions of every pair
    are stored. Node ids must lie in ``[0, num_nodes)``. The output's column
    array is the array of edge codes, one per stored direction, reduced in
    place. Besides it the call holds a byte per code, a 128 KiB slice and a
    few arrays per node, with ``CsrGraph``'s checks included.
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
    # one code u * n + v per stored direction, written straight into one array
    m = pairs.shape[0]
    codes = np.empty(2 * m if symmetrize else m, dtype=np.int64)
    np.multiply(pairs[:, 0], num_nodes, out=codes[:m])
    codes[:m] += pairs[:, 1]
    if symmetrize:
        np.multiply(pairs[:, 1], num_nodes, out=codes[m:])
        codes[m:] += pairs[:, 0]
    # in-place sort plus adjacent-difference dedupe: same result as np.unique,
    # whose hash path on recent numpy is many times slower
    codes.sort()
    keep = np.empty(codes.size, dtype=bool)
    keep[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    if not keep.all():  # compact in place, a 128 KiB slice at a time: no second code array
        kept, step = 0, 1 << 14
        for lo in range(0, codes.size, step):
            chunk = codes[lo : lo + step][keep[lo : lo + step]]
            codes[kept : kept + chunk.size] = chunk
            kept += chunk.size
        codes.resize(kept, refcheck=False)
    del keep
    # row u's codes are those in [u * n, (u + 1) * n); the remainders are its columns
    offsets = np.searchsorted(codes, np.arange(num_nodes + 1) * num_nodes)
    codes %= num_nodes
    return CsrGraph(num_nodes, offsets, codes)


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


def _gather_rows(g: CsrGraph, rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """The neighbor lists of ``rows``, concatenated in row order.

    Returns (source, neighbor, position within its row) per entry.
    """
    starts = g.row_offsets[rows]
    lengths = g.row_offsets[rows + 1] - starts
    within = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return np.repeat(rows, lengths), g.col_indices[np.repeat(starts, lengths) + within], within


def induced_subgraph(g: CsrGraph, nodes) -> tuple[CsrGraph, np.ndarray]:
    """Subgraph on ``nodes`` keeping exactly the edges with both endpoints inside.

    Local ids follow the order of ``nodes``; the returned index array maps
    local id -> global id. When ``nodes`` is ``0 .. n-1`` in order the
    subgraph is ``g`` itself (graphs are immutable), so operators cached on
    ``g`` carry over. Otherwise only the CSR rows of ``nodes`` are read, so
    the cost follows the subgraph's rows, not ``g``'s size.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.ndim != 1 or nodes.size == 0:
        raise ValueError("node set must be a nonempty 1-d sequence")
    if nodes.size == g.num_nodes and np.array_equal(nodes, np.arange(g.num_nodes)):
        return g, nodes.copy()  # identity order: ids are in range and unique
    if nodes.min() < 0 or nodes.max() >= g.num_nodes:
        raise ValueError("node id out of range")
    local_of = np.argsort(nodes, kind="stable")
    ordered = nodes[local_of]
    if np.any(ordered[1:] == ordered[:-1]):
        raise ValueError("duplicate node in node set")
    _, nbrs, _ = _gather_rows(g, nodes)
    at = np.minimum(np.searchsorted(ordered, nbrs), nodes.size - 1)
    inside = ordered[at] == nbrs
    rows = np.repeat(np.arange(nodes.size), g.degrees[nodes])[inside]
    pairs = np.stack([rows, local_of[at[inside]]], axis=1)
    return build_csr(pairs, nodes.size), nodes.copy()


def _sym_norm_rows(g: CsrGraph, rows: np.ndarray, nbrs: np.ndarray | None = None,
                   kept: np.ndarray | None = None) -> tuple[sp.csr_array, np.ndarray]:
    """Rows ``rows`` of D^-1/2 (A + I) D^-1/2 on ``g``, narrowed to the nodes they read.

    Each row reads itself and its neighbours or, given a sample, the
    ``kept[i]`` neighbours row ``i`` drew (``nbrs``, ascending within each
    row), its neighbour entries scaled by d_u / kept_u: an unbiased estimate
    of the row (VR-GCN, arXiv 1710.10568). Returns ``(block, columns)``:
    ``columns`` lists, ascending, the nodes the rows read, and column ``j`` of
    ``block`` is node ``columns[j]``. On every row, ``columns`` is every node
    and ``block`` the whole operator. Each row's entries are in ascending
    node id, so a row sums in the same order whichever block holds it.
    """
    if nbrs is None:
        _, nbrs, _ = _gather_rows(g, rows)
        kept = g.degrees[rows]
    src = np.repeat(rows, kept)
    ends = np.cumsum(kept)
    starts = ends - kept
    # the self loop goes after the row's neighbours with smaller ids
    below = np.concatenate(([0], np.cumsum(nbrs < src)))
    at = starts + below[ends] - below[starts]
    cols = np.insert(nbrs, at, rows)
    # d_u / kept_u per neighbour entry, 1 on the self entry (exactly 1 for an unsampled row)
    weight = np.insert(np.repeat(g.degrees[rows] / np.maximum(kept, 1), kept), at, 1.0)
    scale = 1.0 / np.sqrt(g.degrees + 1.0)
    data = np.repeat(scale[rows], kept + 1) * scale[cols] * weight
    indptr = np.concatenate(([0], ends + np.arange(1, rows.size + 1)))
    read = np.zeros(g.num_nodes, dtype=bool)
    read[cols] = True
    position = np.cumsum(read) - 1
    block = sp.csr_array((data, position[cols], indptr), shape=(rows.size, position[-1] + 1))
    if np.any(nbrs == src):
        block.sum_duplicates()  # a stored self loop adds up with I, as in A + I
    return block, np.flatnonzero(read)
