"""Sub-graph batch construction: cluster, random-walk and neighbor regimes.

All samplers are pure functions of (dataset, arguments, seed, epoch, batch
index), so two runs with identical inputs produce identical batches and
distinct (epoch, batch) pairs may be built concurrently.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .graph import CsrGraph, build_csr, induced_subgraph
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
    """One training batch: a local subgraph plus its mapping back to the graph.

    ``train_local`` indexes the batch rows that carry a loss. For neighbor
    batches ``layer_graphs`` holds one local adjacency per model layer
    (input side first); other regimes leave it None and every layer uses
    ``subgraph``.
    """

    subgraph: CsrGraph
    global_ids: np.ndarray
    train_local: np.ndarray
    layer_graphs: tuple[CsrGraph, ...] | None = None

    @property
    def num_nodes(self) -> int:
        return self.subgraph.num_nodes


@dataclass(frozen=True)
class Partition:
    part_of: np.ndarray
    num_parts: int

    def __post_init__(self) -> None:
        part_of = np.ascontiguousarray(self.part_of, dtype=np.int64)
        object.__setattr__(self, "part_of", part_of)
        if self.num_parts < 1:
            raise ValueError("partition must have at least one part")
        if part_of.size == 0 or part_of.min() < 0 or part_of.max() >= self.num_parts:
            raise ValueError("every node must belong to a valid part")

    def nodes_of(self, parts) -> np.ndarray:
        return np.flatnonzero(np.isin(self.part_of, parts))


def _gather_rows(g: CsrGraph, rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """The neighbor lists of ``rows``, concatenated in row order.

    Returns (source, neighbor, position within its row) per entry.
    """
    starts = g.row_offsets[rows]
    lengths = g.row_offsets[rows + 1] - starts
    within = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return np.repeat(rows, lengths), g.col_indices[np.repeat(starts, lengths) + within], within


def _bfs_distances(g: CsrGraph, sources: np.ndarray) -> np.ndarray:
    """Hop distance from the source set; unreached nodes get ``num_nodes``."""
    dist = np.full(g.num_nodes, g.num_nodes, dtype=np.int64)
    dist[sources] = 0
    frontier = np.asarray(sources, dtype=np.int64)
    level = 0
    while frontier.size:
        _, nbrs, _ = _gather_rows(g, frontier)
        level += 1
        fresh = np.unique(nbrs[dist[nbrs] > level])
        dist[fresh] = level
        frontier = fresh
    return dist


def partition_clusters(g: CsrGraph, num_parts: int, seed: int) -> Partition:
    """Deterministic BFS region growing into near-equal parts.

    The first source is drawn degree-weighted; the rest are placed
    farthest-first so that well-separated regions (e.g. distinct connected
    components) each receive their own source. Parts fill exact quotas that
    differ by at most one node, so on a homophilous graph each part stays
    dominated by a few label communities.
    """
    n = g.num_nodes
    if not 1 <= num_parts <= n:
        raise ValueError(f"num_parts must lie in [1, {n}]")
    gen = stream(seed)
    quota = np.full(num_parts, n // num_parts, dtype=np.int64)
    quota[: n % num_parts] += 1

    weights = g.degrees + 1.0
    sources = [int(gen.choice(n, p=weights / weights.sum()))]
    dist = _bfs_distances(g, np.asarray(sources))
    for _ in range(1, num_parts):
        far = np.flatnonzero(dist == dist.max())
        pick = int(far[gen.integers(far.size)]) if far.size > 1 else int(far[0])
        sources.append(pick)
        np.minimum(dist, _bfs_distances(g, np.asarray([pick])), out=dist)

    part = np.full(n, -1, dtype=np.int64)
    size = np.zeros(num_parts, dtype=np.int64)
    queues = [deque([s]) for s in sources]
    for p, s in enumerate(sources):
        part[s] = p
        size[p] = 1
    remaining = n - num_parts
    cursor = 0
    while remaining:
        for p in range(num_parts):
            if size[p] >= quota[p]:
                continue
            if not queues[p]:
                while cursor < n and part[cursor] >= 0:
                    cursor += 1
                if cursor >= n:
                    continue
                part[cursor] = p
                size[p] += 1
                remaining -= 1
                queues[p].append(cursor)
                if not remaining:
                    break
                continue
            u = queues[p].popleft()
            for v in g.neighbors(u):
                if part[v] < 0:
                    if size[p] >= quota[p]:
                        break
                    part[v] = p
                    size[p] += 1
                    remaining -= 1
                    queues[p].append(int(v))
            if not remaining:
                break
    return Partition(part, num_parts)


def _make_batch(dataset: Dataset, nodes: np.ndarray,
                layer_graphs: tuple[CsrGraph, ...] | None = None,
                subgraph: CsrGraph | None = None,
                train_local: np.ndarray | None = None) -> Batch:
    if subgraph is None:
        subgraph, nodes = induced_subgraph(dataset.graph, nodes)
    if train_local is None:
        train_local = np.flatnonzero(dataset.train_mask[nodes])
    return Batch(subgraph, nodes, train_local, layer_graphs)


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

    At hop ``l`` every required node keeps ``min(degree, fanouts[l])`` of its
    neighbors, drawn uniformly without replacement: each candidate edge of
    the hop gets one uniform random integer key, and a node keeps the edges
    with the ``fanouts[l]`` smallest keys in its row. This one draw per hop
    replaced a per-node ``Generator.choice`` loop, so a given seed yields
    different batches than that loop did; the same inputs still give
    byte-identical batches from run to run.

    The batch stores one symmetrized local adjacency per model layer (input
    side first) plus their union as ``subgraph``; only the seeds carry a loss.
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

    in_batch = np.zeros(g.num_nodes, dtype=bool)
    in_batch[seeds] = True
    required = seeds
    hop_edges: list[np.ndarray] = []
    for fanout in fanouts:
        src, nbrs, within = _gather_rows(g, required)
        # src is sorted, so sorting by (src, key) keeps every row where it
        # was: the entry at sorted position i has rank within[i] in its row
        kept = np.argsort(src * span + gen.integers(span, size=nbrs.size))[within < fanout]
        hop_edges.append(np.stack([src[kept], nbrs[kept]], axis=1))
        in_batch[nbrs[kept]] = True
        required = np.flatnonzero(in_batch)

    nodes = required  # sorted unique
    local_of = np.full(dataset.num_nodes, -1, dtype=np.int64)
    local_of[nodes] = np.arange(nodes.size)
    local_hops = [build_csr(local_of[e], nodes.size, symmetrize=True) for e in hop_edges]
    all_edges = np.concatenate(hop_edges) if hop_edges else np.empty((0, 2), np.int64)
    union = build_csr(local_of[all_edges], nodes.size, symmetrize=True)
    # hop 0 feeds the last model layer, so reverse for input-side order
    layer_graphs = tuple(reversed(local_hops))
    train_local = np.searchsorted(nodes, seeds)
    return Batch(union, nodes, train_local.astype(np.int64), layer_graphs)


def full_batch(dataset: Dataset) -> Batch:
    """The whole graph as a single batch (precomputed-feature regimes)."""
    return Batch(dataset.graph, np.arange(dataset.num_nodes, dtype=np.int64),
                 np.flatnonzero(dataset.train_mask))
