"""Sub-graph batch construction: cluster, random-walk and neighbor regimes.

Every batch gives the model one sparse operator per layer (``Batch.blocks``).
All samplers are pure functions of (dataset, arguments, seed, epoch, batch
index), so two runs with identical inputs produce identical batches and
distinct (epoch, batch) pairs may be built concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .data import Dataset
from .graph import CsrGraph, _gather_rows, _sym_norm_rows, induced_subgraph
from .graph import build_csr  # noqa: F401  read only by bench/tracing.py's TARGETS
from .rng import stream

__all__ = [
    "Batch",
    "Partition",
    "partition_clusters",
    "cluster_batches",
    "random_walk_sample",
    "neighbor_sample",
    "full_batch",
]


@dataclass
class Batch:
    """One training batch: graph node per row, the loss rows, and each layer's operator.

    ``train_local`` indexes the batch rows that carry a loss. Cluster,
    random-walk and full batches carry one ``graph`` on the batch nodes, and
    every layer reads its D^-1/2 (A + I) D^-1/2 (``CsrGraph._sym_norm_op``,
    built on first use) on every row. Neighbor batches carry one row block
    per model layer in ``layer_blocks`` (input side first) and the rows each
    layer outputs in ``layer_rows``: the last layer outputs the
    ``train_local`` rows, in that order, and layer ``l``'s block reads the
    ascending rows that layer ``l - 1`` outputs (every batch row at layer 0).
    Each block row estimates that node's row of the whole graph's operator
    from the neighbours it drew (``neighbor_sample``).
    """

    global_ids: np.ndarray
    train_local: np.ndarray
    graph: CsrGraph | None = None
    layer_blocks: tuple[sp.csr_array, ...] | None = None
    layer_rows: tuple[np.ndarray, ...] | None = None

    def __post_init__(self) -> None:
        if (self.graph is None) == (not self.layer_blocks):
            raise ValueError("a batch carries either a graph or layer blocks, not both or neither")

    @property
    def num_nodes(self) -> int:
        return self.global_ids.size

    @property
    def loss_rows(self) -> np.ndarray:
        """The rows of ``model.forward``'s logits that line up with ``train_local``."""
        return self.train_local if self.layer_rows is None else np.arange(self.train_local.size)

    def blocks(self, depth: int) -> tuple[tuple[sp.csr_array, sp.sparray], ...]:
        """Each of ``depth`` layers' operator and its transpose, input side first
        (a graph's operator is symmetric: its own transpose, a CSR product)."""
        if self.layer_blocks is None:
            op = self.graph._sym_norm_op
            return ((op, op),) * depth
        if len(self.layer_blocks) != depth:
            raise ValueError(f"{len(self.layer_blocks)} layer blocks for model depth {depth}")
        return tuple((block, block.T) for block in self.layer_blocks)


@dataclass(frozen=True)
class Partition:
    part_of: np.ndarray
    num_parts: int
    # every node ordered by part (ascending id within a part), and each part's slice of it
    _by_part: np.ndarray = field(init=False, repr=False, compare=False)
    _bounds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        part_of = np.ascontiguousarray(self.part_of, dtype=np.int64)
        object.__setattr__(self, "part_of", part_of)
        if self.num_parts < 1:
            raise ValueError("partition must have at least one part")
        if part_of.size == 0 or part_of.min() < 0 or part_of.max() >= self.num_parts:
            raise ValueError("every node must belong to a valid part")
        bounds = np.zeros(self.num_parts + 1, dtype=np.int64)
        np.cumsum(np.bincount(part_of, minlength=self.num_parts), out=bounds[1:])
        object.__setattr__(self, "_by_part", np.argsort(part_of, kind="stable"))
        object.__setattr__(self, "_bounds", bounds)

    def nodes_of(self, parts) -> np.ndarray:
        """The nodes of ``parts``, ascending; the cost follows their count, not n."""
        chosen = [self._by_part[self._bounds[p] : self._bounds[p + 1]] for p in np.unique(parts)]
        return np.sort(np.concatenate(chosen))


# balanced label-propagation rounds after growth; each costs one pass over the edges
REFINE_ROUNDS = 3


def _bfs_order(g: CsrGraph, sources: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frontier BFS from ``sources`` at once: every node in visit order, and its source.

    Each level is visited in id order. A node reached from several sources
    in the same level takes the lowest source index. Unreached nodes come
    last, in id order, with source ``sources.size``.
    """
    unreached, stride = sources.size, sources.size + 1
    owner = np.full(g.num_nodes, unreached, dtype=np.int64)
    owner[sources] = np.arange(sources.size)
    levels = [frontier := sources]
    while frontier.size:
        src, nbrs, _ = _gather_rows(g, frontier)
        reached = np.sort((nbrs * stride + owner[src])[owner[nbrs] == unreached])
        frontier, via = np.divmod(reached, stride)
        first = np.diff(frontier, prepend=-1) != 0
        frontier = frontier[first]
        owner[frontier] = via[first]
        levels.append(frontier)
    levels.append(np.flatnonzero(owner == unreached))
    return np.concatenate(levels), owner


def _refine(g: CsrGraph, part: np.ndarray, num_parts: int) -> None:
    """``REFINE_ROUNDS`` rounds of balanced label propagation, in place.

    Each node picks the part holding most of its neighbours (ties to the
    lowest part id) if it beats its own. Movers from part a to b are paired,
    highest gain first, with movers from b to a; only paired movers move, so
    part sizes never change (Ugander & Backstrom, WSDM 2013). A node whose
    neighbours all share its part never moves, nor does a component inside
    one part.
    """
    n = g.num_nodes
    ones, nodes = np.ones(n), np.arange(n + 1)
    for _ in range(REFINE_ROUNDS):
        counts = g._scipy @ sp.csr_array((ones, part, nodes), shape=(n, num_parts))
        counts.sort_indices()
        row = np.repeat(nodes[:-1], np.diff(counts.indptr))
        own, top = np.zeros(n), np.zeros(n)
        mine = counts.indices == part[row]
        own[row[mine]] = counts.data[mine]
        filled = np.flatnonzero(np.diff(counts.indptr))
        top[filled] = np.maximum.reduceat(counts.data, counts.indptr[filled])
        pick = np.flatnonzero((counts.data == top[row]) & (counts.data > own[row]))
        pick = pick[np.diff(row[pick], prepend=-1) != 0]  # the lowest part id per row
        movers, to = row[pick], counts.indices[pick].astype(np.int64)
        pair = part[movers] * num_parts + to
        rank = np.lexsort((own[movers] - counts.data[pick], pair))
        movers, to, pair = movers[rank], to[rank], pair[rank]
        back = to * num_parts + part[movers]
        paired = np.searchsorted(pair, back, "right") - np.searchsorted(pair, back)
        keep = np.arange(pair.size) - np.searchsorted(pair, pair) < paired
        part[movers[keep]] = to[keep]


def partition_clusters(g: CsrGraph, num_parts: int, seed: int) -> Partition:
    """Deterministic partition into local parts whose sizes differ by at most one.

    Seed: the midpoints of quota-sized chunks of a BFS order from one
    degree-weighted random source. Grow: one BFS from all seeds at once gives
    each node the cell of its nearest seed, and nodes sorted by (cell, BFS
    position) are cut into the quotas. Refine: ``_refine``. No step loops
    over nodes in Python, so the cost does not grow with ``num_parts``.
    """
    n = g.num_nodes
    if not 1 <= num_parts <= n:
        raise ValueError(f"num_parts must lie in [1, {n}]")
    quota = np.full(num_parts, n // num_parts, dtype=np.int64)
    quota[: n % num_parts] += 1
    root = stream(seed).choice(n, p=(g.degrees + 1.0) / (g.nnz + n))  # degree-weighted
    order, _ = _bfs_order(g, np.array([root]))
    order, cell = _bfs_order(g, order[np.cumsum(quota) - quota + quota // 2])
    part = np.empty(n, dtype=np.int64)
    part[order[np.argsort(cell[order], kind="stable")]] = np.repeat(np.arange(num_parts), quota)
    _refine(g, part, num_parts)
    return Partition(part, num_parts)


def _make_batch(dataset: Dataset, nodes: np.ndarray) -> Batch:
    subgraph, nodes = induced_subgraph(dataset.graph, nodes)
    return Batch(nodes, np.flatnonzero(dataset.train_mask[nodes]), subgraph)


def cluster_batches(dataset: Dataset, partition: Partition, parts_per_batch: int,
                    seed: int, epoch: int = 0) -> list[Batch]:
    """Shuffle parts and group them; every part lands in exactly one batch."""
    if partition.part_of.size != dataset.num_nodes:
        raise ValueError("partition does not cover this dataset")
    if not 1 <= parts_per_batch <= partition.num_parts:
        raise ValueError("parts_per_batch out of range")
    order = stream(seed, epoch).permutation(partition.num_parts)
    batches = []
    for i in range(0, partition.num_parts, parts_per_batch):
        nodes = partition.nodes_of(order[i : i + parts_per_batch])
        batches.append(_make_batch(dataset, nodes))
    return batches


def random_walk_sample(dataset: Dataset, num_roots: int, walk_length: int,
                       seed: int, epoch: int = 0, batch_index: int = 0) -> Batch:
    """Union of uniform random walks rooted at training nodes.

    Roots are drawn with replacement; a walk that reaches a degree-0 node
    stays in place. The batch is the induced subgraph on all visited nodes.
    """
    if num_roots < 1:
        raise ValueError("need at least one root")
    train_ids = np.flatnonzero(dataset.train_mask)
    if train_ids.size == 0:
        raise ValueError("empty train mask")
    g = dataset.graph
    gen = stream(seed, epoch, batch_index)
    roots = train_ids[gen.integers(train_ids.size, size=num_roots)]
    visited = np.zeros(g.num_nodes, dtype=bool)
    visited[roots] = True
    for r in roots:
        u = int(r)
        for _ in range(walk_length):
            lo, hi = g.row_offsets[u], g.row_offsets[u + 1]
            if hi > lo:
                u = int(g.col_indices[lo + gen.integers(hi - lo)])
                visited[u] = True
    return _make_batch(dataset, np.flatnonzero(visited))


def neighbor_sample(dataset: Dataset, seed_nodes, fanouts,
                    seed: int, epoch: int = 0, batch_index: int = 0) -> Batch:
    """Layered neighbor expansion around a set of training seeds.

    At hop ``l`` every node reached so far (the seeds at hop 0) keeps
    ``min(degree, fanouts[l])`` of its neighbors, drawn uniformly without
    replacement: each candidate edge of the hop gets one uniform random
    integer key, and a node keeps the edges with the ``fanouts[l]`` smallest
    keys in its row. The same inputs give byte-identical batches.

    Only the seeds carry a loss. Model layer ``depth - 1 - l`` reads hop
    ``l``'s draws directly: its rows are the nodes expanded at hop ``l``, and
    each row reads itself and the neighbours it drew, with the whole graph's
    D^-1/2 (A + I) D^-1/2 entries and the neighbour entries scaled by
    degree / kept (``graph._sym_norm_rows``; see ``Batch``). So each layer
    computes only the rows the next layer reads, every row is an unbiased
    estimate of that row of the operator the model is evaluated with, and
    with fanouts at or above the maximum degree the seeds' logits equal the
    whole-graph forward's rows to a few ulps.
    """
    given = np.asarray(seed_nodes, dtype=np.int64).ravel()
    if given.size == 0:
        raise ValueError("empty seed set")
    seeds = np.unique(given)
    if seeds.size != given.size:
        raise ValueError("duplicate seed node")
    if seeds.min() < 0 or seeds.max() >= dataset.num_nodes:
        raise ValueError("seed node out of range")
    if not dataset.train_mask[seeds].all():
        raise ValueError("seed nodes must lie in the train mask")
    fanouts = [int(f) for f in fanouts]
    if any(f < 0 for f in fanouts):
        raise ValueError(f"fanouts must be non-negative, got {fanouts}")
    g = dataset.graph
    gen = stream(seed, epoch, batch_index)
    # sort codes are source * span + key, exact in int64; keys come from
    # span >= 2**63 / num_nodes values, so ties within a row (broken by the
    # sort, not at random) are vanishingly rare
    span = np.iinfo(np.int64).max // g.num_nodes

    rows, layer_rows, blocks = seeds, [], []
    for fanout in fanouts:  # hop 0 feeds the last model layer: fill from the top
        src, nbrs, within = _gather_rows(g, rows)
        # src is sorted, so sorting by (src, key) keeps every row where it
        # was: the entry at sorted position i has rank within[i] in its row;
        # sorting the kept positions puts each row's picks in ascending id
        kept = np.sort(np.argsort(src * span + gen.integers(span, size=nbrs.size))[within < fanout])
        layer_rows.insert(0, rows)
        # the columns this hop reads are the rows the next hop expands
        block, rows = _sym_norm_rows(g, rows, nbrs[kept], np.minimum(g.degrees[rows], fanout))
        blocks.insert(0, block)
    # rows now holds every batch node, ascending
    return Batch(rows, np.searchsorted(rows, seeds), layer_blocks=tuple(blocks),
                 layer_rows=tuple(np.searchsorted(rows, r) for r in layer_rows))


def full_batch(dataset: Dataset) -> Batch:
    """The whole graph as a single batch (precomputed-feature regimes)."""
    return Batch(np.arange(dataset.num_nodes, dtype=np.int64),
                 np.flatnonzero(dataset.train_mask), dataset.graph)
