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
from .graph import CsrGraph, _gather_rows, _ranges, _sym_norm_rows, induced_subgraph
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
    from the neighbours it drew (``neighbor_sample``, which builds an epoch's
    neighbor batches in one pass). A graph batch can also
    carry the same kind of blocks for its backward alone
    (``restrict_backward``), and keeps layer 0's product with a read-only
    feature matrix (``first_product``).
    """

    global_ids: np.ndarray
    train_local: np.ndarray
    graph: CsrGraph | None = None
    layer_blocks: tuple[sp.csr_array, ...] | None = None
    layer_rows: tuple[np.ndarray, ...] | None = None
    # (blocks, rows) from restrict_backward (() where it restricts nothing), and
    # (features, A features) from first_product
    _backward: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _first: tuple | None = field(default=None, init=False, repr=False, compare=False)

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

    def blocks(self, depth: int) -> tuple[tuple, ...]:
        """Per layer, input side first: its operator A, the A^T its backward
        applies, and the rows of its input and of its output that the backward
        reads (None: every row the layer computes). A graph's operator is its
        own transpose (a CSR product), except where ``restrict_backward`` gave
        the layer a block."""
        if self.layer_blocks is not None:
            if len(self.layer_blocks) != depth:
                raise ValueError(f"{len(self.layer_blocks)} layer blocks for model depth {depth}")
            return tuple((block, block.T, None, None) for block in self.layer_blocks)
        op = self.graph._sym_norm_op
        if not self._backward:
            return ((op, op, None, None),) * depth
        blocks, rows = self._backward
        if len(blocks) != depth:
            raise ValueError(f"{len(blocks)} backward blocks for model depth {depth}")
        return tuple((op, op if block is op else block.T, rows[layer], rows[layer + 1])
                     for layer, block in enumerate(blocks))

    def restrict_backward(self, depth: int) -> None:
        """Let the backward on this graph batch compute only the loss rows' receptive field.

        The last layer's rows are ``train_local``, and each layer down to
        layer 1 keeps the rows the layer above reads, as its rows of the
        operator narrowed to the columns they read (``_sym_norm_rows``: the
        blocks ``neighbor_sample`` builds at full fanout). Layer 0 forms no
        input gradient, so it back-propagates at full height with the whole
        operator (layer 1's block keeps every column), as does any layer whose
        rows are every node. The forward still computes every row and caches
        only these. The backward then copies the loss rows' logit gradients,
        so nothing is restricted unless the receptive field leaves out at
        least as many rows as there are loss rows. Blocks are built on the
        first call only.
        """
        if self.graph is None:
            raise ValueError("only a graph batch has a backward to restrict")
        if self._backward is not None:
            return
        g, n = self.graph, self.num_nodes
        op = g._sym_norm_op
        blocks, layer_rows = [op] * depth, [None] * (depth + 1)
        rows = self.train_local
        self._backward = ()
        for layer in range(depth - 1, 0, -1):  # from the loss rows down to layer 1
            (block,), below = _sym_norm_rows(g, rows)
            if layer == depth - 1 and n - below.size < rows.size:
                return  # too few rows left out to pay for the copy
            layer_rows[layer + 1] = rows
            if layer == 1 or below.size == n:  # columns become node ids, and rows all nodes
                blocks[layer] = sp.csr_array((block.data, below[block.indices], block.indptr),
                                             shape=(block.shape[0], n))
                break
            blocks[layer], rows = block, below
        self._backward = (tuple(blocks), tuple(layer_rows))

    def first_product(self, x: np.ndarray) -> np.ndarray:
        """Layer 0's operator times ``x``. The product of a read-only ``x`` is kept,
        read-only, and returned while that same array comes back, so a run
        that passes one read-only feature matrix forms A X once."""
        if self._first is not None and self._first[0] is x:
            return self._first[1]
        ax = (self.graph._sym_norm_op if self.graph is not None else self.layer_blocks[0]) @ x
        if not x.flags.writeable:
            ax.setflags(write=False)
            self._first = (x, ax)
        return ax


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
        src, nbrs = _gather_rows(g, frontier)
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
    if walk_length < 0:
        raise ValueError(f"walk_length must be nonnegative, got {walk_length}")
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


def neighbor_sample(dataset: Dataset, seed_chunks, fanouts, seed: int, epoch: int = 0,
                    batch_index: int = 0) -> list[Batch]:
    """Layered neighbor expansion around sets of training seeds: one batch per chunk.

    Chunk ``j`` of ``seed_chunks`` draws from the stream ``(seed, epoch,
    batch_index + j)``. At hop ``l`` every node the chunk has reached (its
    seeds at hop 0) keeps ``min(degree, fanouts[l])`` of its neighbors,
    drawn uniformly without replacement: each candidate edge of the hop gets
    one uniform random integer key from the chunk's stream, and a node keeps
    the edges with the ``fanouts[l]`` smallest keys in its row. So a chunk's
    batch does not depend on the other chunks (one chunk alone at its own
    stream index gives the same batch), and the same inputs give
    byte-identical batches.

    All chunks expand together, one pass per hop: one gather and one build
    of the block entries (``graph._sym_norm_rows``) over rows keyed by
    (chunk, node), which is then cut into the chunks' batches. Only the
    draws, the sort and each chunk's block, its columns narrowed in one pass
    over an n-wide table, take calls per chunk, a handful each, where
    building the batches one at a time cost a few dozen calls per batch.

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
    n = dataset.num_nodes
    chunks = [np.asarray(c, dtype=np.int64).ravel() for c in seed_chunks]
    if not chunks:
        return []
    if min(c.size for c in chunks) == 0:
        raise ValueError("empty seed set")
    rows = np.concatenate(chunks)
    if rows.min() < 0 or rows.max() >= n:
        raise ValueError("seed node out of range")
    # rows are (chunk, node) codes chunk * n + node from here on, ascending:
    # chunk j's lie in [bounds[j], bounds[j + 1])
    bounds = np.arange(len(chunks) + 1) * n
    rows += np.repeat(bounds[:-1], [c.size for c in chunks])
    rows.sort()
    if np.any(rows[1:] == rows[:-1]):
        raise ValueError("duplicate seed node")
    if not dataset.train_mask[rows % n].all():
        raise ValueError("seed nodes must lie in the train mask")
    fanouts = [int(f) for f in fanouts]
    if any(f < 0 for f in fanouts):
        raise ValueError(f"fanouts must be non-negative, got {fanouts}")
    g = dataset.graph
    gens = [stream(seed, epoch, batch_index + j) for j in range(len(chunks))]
    # sort codes are node * span + key, exact in int64; keys come from
    # span >= 2**63 / num_nodes values, so ties within a row (broken by the
    # sort, not at random) are vanishingly rare
    span = np.iinfo(np.int64).max // n

    seeds, layer_rows, blocks = rows, [], []
    for fanout in fanouts:  # hop 0 feeds the last model layer: fill from the top
        nodes = rows % n
        lengths = g.degrees[nodes]
        starts = np.cumsum(lengths) - lengths  # each row's first candidate edge, in hop order
        first = np.searchsorted(rows, bounds)  # each chunk's first row
        edges = np.append(starts, starts[-1] + lengths[-1])[first]  # and its first candidate
        # each chunk sorts its (node, key) codes once; its rows ascend by node, so
        # ``order`` lists each row's candidates (indices in hop order) together,
        # smallest key first: a row picks its first min(degree, fanout) there
        order = np.empty(edges[-1], dtype=np.int64)
        for j, gen in enumerate(gens):
            chunk = slice(first[j], first[j + 1])
            codes = gen.integers(span, size=edges[j + 1] - edges[j])
            codes += np.repeat(nodes[chunk] * span, lengths[chunk])
            order[edges[j] : edges[j + 1]] = codes.argsort() + edges[j]
        del codes
        taken = np.minimum(lengths, fanout)
        kept = np.zeros(edges[-1], dtype=bool)  # flagged, the picks come out ascending
        kept[order[_ranges(starts, taken)]] = True
        del order
        kept = np.flatnonzero(kept)
        nbrs = g.col_indices[kept + np.repeat(g.row_offsets[nodes] - starts, taken)]
        del kept
        layer_rows.insert(0, rows)
        # the columns this hop reads are the rows the next hop expands
        hop_blocks, rows = _sym_norm_rows(g, rows, nbrs, taken)
        blocks.insert(0, hop_blocks)
    # rows now holds every batch node of every chunk, ascending
    first = np.searchsorted(rows, bounds)

    def cut(codes):  # each chunk's positions among its batch nodes
        local = np.searchsorted(rows, codes) - first[codes // n]
        return np.split(local, np.searchsorted(codes, bounds[1:-1]))

    ids = np.split(rows % n, first[1:-1])
    train_local = cut(seeds)
    rows_per_layer = [cut(r) for r in layer_rows]
    return [Batch(ids[j], train_local[j], layer_blocks=tuple(b[j] for b in blocks),
                  layer_rows=tuple(r[j] for r in rows_per_layer))
            for j in range(len(chunks))]


def full_batch(dataset: Dataset) -> Batch:
    """The whole graph as a single batch (precomputed-feature regimes)."""
    return Batch(np.arange(dataset.num_nodes, dtype=np.int64),
                 np.flatnonzero(dataset.train_mask), dataset.graph)
