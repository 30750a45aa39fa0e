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
        return _sym_norm_rows(self, np.arange(self.num_nodes))[0][0]


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
    if not keep.all():
        codes = _keep_in_place(codes, keep)
    del keep
    # row u's codes are those in [u * n, (u + 1) * n); the remainders are its columns
    offsets = np.searchsorted(codes, np.arange(num_nodes + 1) * num_nodes)
    codes %= num_nodes
    return CsrGraph(num_nodes, offsets, codes)


def _keep_in_place(a: np.ndarray, keep: np.ndarray | None) -> np.ndarray:
    """``a[keep]`` for a bool mask or strictly ascending ids of ``a``'s rows (None:
    every row), moved to ``a``'s leading rows 128 KiB at a time; ``a``, which must
    own its data, is then cut to them, so no second array of its size is made."""
    if keep is None:
        return a
    if keep.dtype != bool:
        rows, keep = keep, np.zeros(len(a), dtype=bool)
        keep[rows] = True
    step, kept = max(1, (128 << 10) // max(a[:1].nbytes, 1)), 0
    for lo in range(0, len(a), step):  # each slice's copy is freed before the next is made
        moved = np.count_nonzero(keep[lo : lo + step])
        a[kept : kept + moved] = a[lo : lo + step][keep[lo : lo + step]]
        kept += moved
    a.resize((kept, *a.shape[1:]), refcheck=False)
    return a


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


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``arange(s, s + l)`` for each start ``s`` and length ``l``, concatenated."""
    return np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)


def _gather_rows(g: CsrGraph, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The neighbor lists of ``rows``, concatenated in row order: (source, neighbor) per entry."""
    lengths = g.degrees[rows]
    return np.repeat(rows, lengths), g.col_indices[_ranges(g.row_offsets[rows], lengths)]


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
    _, nbrs = _gather_rows(g, nodes)
    at = np.minimum(np.searchsorted(ordered, nbrs), nodes.size - 1)
    inside = ordered[at] == nbrs
    rows = np.repeat(np.arange(nodes.size), g.degrees[nodes])[inside]
    pairs = np.stack([rows, local_of[at[inside]]], axis=1)
    return build_csr(pairs, nodes.size), nodes.copy()


def _sym_norm_rows(g: CsrGraph, rows: np.ndarray, nbrs: np.ndarray | None = None,
                   kept: np.ndarray | None = None) -> tuple[list[sp.csr_array], np.ndarray]:
    """Rows of D^-1/2 (A + I) D^-1/2 on ``g``, one block per group of rows,
    each narrowed to the nodes its group reads.

    ``rows`` are codes ``group * n + node`` (n = ``g.num_nodes``; a node id is
    a row of group 0), nondecreasing in group. Each row reads itself and its
    neighbours or, given a sample, the ``kept[i]`` neighbours row ``i`` drew
    (``nbrs``, ascending within each row), its neighbour entries scaled by
    d_u / kept_u: an unbiased estimate of the row (VR-GCN, arXiv 1710.10568).
    Returns ``(blocks, columns)``: ``columns`` lists, ascending, the codes of
    the nodes each group reads, and group ``c``'s block holds its rows, with
    column ``j`` its ``j``-th node in ``columns``. On every row, ``columns``
    is every node and the one block the whole operator. Each group's columns
    are narrowed in one pass over an n-wide table, and each row's entries
    are sorted to ascending node id, so a row sums in the same order
    whichever block holds it.
    """
    n = g.num_nodes
    nodes = rows % n
    if nbrs is None:
        _, nbrs = _gather_rows(g, nodes)
        kept = g.degrees[nodes]
    ends = np.cumsum(kept)
    cols = np.insert(nbrs, ends, nodes)  # each row's self entry after its neighbours
    own = ends + np.arange(rows.size)  # the self entries' positions
    indptr = np.concatenate(([0], own + 1))
    # row scale times column scale, times d_u / kept_u off the self entry
    # (exactly 1 for an unsampled row)
    scale = 1.0 / np.sqrt(g.degrees + 1.0)
    data = np.repeat(scale[nodes], kept + 1)
    data *= scale[cols]
    weight = np.repeat(g.degrees[nodes] / np.maximum(kept, 1), kept + 1)
    weight[own] = 1.0
    data *= weight
    del weight
    groups = int(rows[-1]) // n + 1 if rows.size else 1
    bounds = np.searchsorted(rows, np.arange(groups + 1) * n)
    blocks, columns = [], []
    for c in range(groups):
        a, b = indptr[bounds[c]], indptr[bounds[c + 1]]
        read = np.zeros(n, dtype=bool)
        read[cols[a:b]] = True
        position = np.cumsum(read) - 1  # each node's column in this group's block
        block = sp.csr_array(
            (data[a:b], position[cols[a:b]], indptr[bounds[c] : bounds[c + 1] + 1] - a),
            shape=(bounds[c + 1] - bounds[c], position[-1] + 1))
        # sorts each self entry in; a stored self loop adds up with I, as in A + I
        block.sum_duplicates()
        blocks.append(block)
        columns.append(np.flatnonzero(read) + c * n)
    return blocks, np.concatenate(columns)
