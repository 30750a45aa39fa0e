from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from als_graph.data import SbmParams, generate_sbm, one_hot
from als_graph.sampling import (
    cluster_batches,
    full_batch,
    neighbor_sample,
    partition_clusters,
    random_walk_sample,
)
from als_graph.smoothing import loss_and_grads


@pytest.fixture
def dataset():
    return generate_sbm(SbmParams(blocks=4, nodes_per_block=30, p_in=0.3, p_out=0.02,
                                  feature_dim=6, train_fraction=0.4, val_fraction=0.2, seed=7))


class TestPartition:
    def test_single_part_covers_everything(self, dataset):
        p = partition_clusters(dataset.graph, 1, seed=0)
        assert np.array_equal(p.part_of, np.zeros(dataset.num_nodes))

    def test_singleton_parts(self, dataset):
        n = dataset.num_nodes
        p = partition_clusters(dataset.graph, n, seed=0)
        assert np.unique(p.part_of).size == n

    def test_balanced_within_one_node(self, dataset):
        for parts in (3, 5, 7):
            p = partition_clusters(dataset.graph, parts, seed=1)
            sizes = np.bincount(p.part_of, minlength=parts)
            ceil = -(-dataset.num_nodes // parts)
            assert np.all(np.abs(sizes - ceil) <= 1)
            assert sizes.sum() == dataset.num_nodes

    def test_deterministic_given_seed(self, dataset):
        a = partition_clusters(dataset.graph, 6, seed=9)
        b = partition_clusters(dataset.graph, 6, seed=9)
        assert np.array_equal(a.part_of, b.part_of)

    def test_pure_blocks_become_components(self):
        d = generate_sbm(SbmParams(blocks=4, nodes_per_block=25, p_in=0.4, p_out=0.0, seed=2))
        n_comp, comp = connected_components(d.graph._scipy, directed=False)
        assert n_comp == 4  # oracle precondition: each block is connected
        for seed in range(5):
            p = partition_clusters(d.graph, 4, seed=seed)
            # parts must coincide with components up to relabeling
            for c in range(n_comp):
                assert np.unique(p.part_of[comp == c]).size == 1

    def test_num_parts_out_of_range(self, dataset):
        with pytest.raises(ValueError):
            partition_clusters(dataset.graph, 0, seed=0)
        with pytest.raises(ValueError):
            partition_clusters(dataset.graph, dataset.num_nodes + 1, seed=0)


class TestClusterBatches:
    def test_all_parts_in_one_batch_is_full_graph(self, dataset):
        p = partition_clusters(dataset.graph, 4, seed=0)
        (batch,) = cluster_batches(dataset, p, 4, seed=0)
        assert batch.num_nodes == dataset.num_nodes
        assert batch.subgraph.structurally_equal(dataset.graph)

    def test_epoch_covers_each_training_node_once(self, dataset):
        p = partition_clusters(dataset.graph, 6, seed=0)
        for epoch in range(3):
            batches = cluster_batches(dataset, p, 2, seed=5, epoch=epoch)
            seen = np.concatenate([b.global_ids[b.train_local] for b in batches])
            assert np.array_equal(np.sort(seen), np.flatnonzero(dataset.train_mask))

    def test_same_seed_same_batches(self, dataset):
        p = partition_clusters(dataset.graph, 6, seed=0)
        a = cluster_batches(dataset, p, 2, seed=3, epoch=1)
        b = cluster_batches(dataset, p, 2, seed=3, epoch=1)
        for x, y in zip(a, b):
            assert np.array_equal(x.global_ids, y.global_ids)
            assert x.subgraph.structurally_equal(y.subgraph)

    def test_full_graph_batch_loss_equals_full_batch_loss(self, dataset, rng):
        p = partition_clusters(dataset.graph, 4, seed=0)
        (batch,) = cluster_batches(dataset, p, 4, seed=0)
        whole = full_batch(dataset)
        logits = rng.standard_normal((dataset.num_nodes, dataset.num_classes))
        hard = one_hot(dataset.labels[batch.global_ids[batch.train_local]], dataset.num_classes)
        a, _, _ = loss_and_grads(logits[batch.train_local], hard)
        hard_full = one_hot(dataset.labels[whole.global_ids[whole.train_local]], dataset.num_classes)
        b, _, _ = loss_and_grads(logits[whole.train_local], hard_full)
        assert a.total == b.total


class TestRandomWalk:
    def test_zero_length_keeps_only_roots(self, dataset):
        batch = random_walk_sample(dataset, num_roots=5, walk_length=0, seed=1)
        assert dataset.train_mask[batch.global_ids].all()
        assert batch.global_ids.size <= 5

    def test_isolated_root_stays_put(self):
        d = generate_sbm(SbmParams(blocks=1, nodes_per_block=4, p_in=0.0, p_out=0.0,
                                   train_fraction=1.0, val_fraction=0.0, seed=0))
        d.test_mask[:] = False
        batch = random_walk_sample(d, num_roots=1, walk_length=5, seed=2)
        assert batch.global_ids.size == 1

    def test_all_nodes_within_walk_length_of_roots(self, dataset):
        length = 3
        batch = random_walk_sample(dataset, num_roots=4, walk_length=length, seed=4)
        dense = dataset.graph.to_dense()
        reach = np.zeros(dataset.num_nodes, dtype=bool)
        roots = batch.global_ids[dataset.train_mask[batch.global_ids]]
        reach[roots] = True
        for _ in range(length):
            reach |= dense[reach].sum(axis=0) > 0
        assert reach[batch.global_ids].all()

    def test_deterministic(self, dataset):
        a = random_walk_sample(dataset, 6, 2, seed=8, epoch=1, batch_index=3)
        b = random_walk_sample(dataset, 6, 2, seed=8, epoch=1, batch_index=3)
        assert np.array_equal(a.global_ids, b.global_ids)

    def test_empty_train_mask_rejected(self, dataset):
        dataset.train_mask = np.zeros(dataset.num_nodes, dtype=bool)
        with pytest.raises(ValueError, match="train mask"):
            random_walk_sample(dataset, 3, 2, seed=0)


class TestNeighborSample:
    def test_full_fanout_gives_hop_ball(self, dataset):
        seeds = np.flatnonzero(dataset.train_mask)[:3]
        max_deg = int(dataset.graph.degrees.max())
        batch = neighbor_sample(dataset, seeds, [max_deg, max_deg], seed=0)
        dense = dataset.graph.to_dense()
        ball = np.zeros(dataset.num_nodes, dtype=bool)
        ball[seeds] = True
        for _ in range(2):
            ball |= dense[ball].sum(axis=0) > 0
        assert set(batch.global_ids) == set(np.flatnonzero(ball))

    def test_zero_fanouts_keep_only_seeds(self, dataset):
        seeds = np.flatnonzero(dataset.train_mask)[:4]
        batch = neighbor_sample(dataset, seeds, [0, 0], seed=0)
        assert np.array_equal(np.sort(batch.global_ids), np.sort(seeds))
        assert batch.subgraph.nnz == 0

    def test_sampled_edges_exist_in_original(self, dataset):
        seeds = np.flatnonzero(dataset.train_mask)[:5]
        batch = neighbor_sample(dataset, seeds, [3, 2, 2], seed=1)
        dense = dataset.graph.to_dense()
        graphs = (batch.subgraph, *batch.layer_graphs)
        for g in graphs:
            for u in range(g.num_nodes):
                for v in g.neighbors(u):
                    gu, gv = batch.global_ids[u], batch.global_ids[int(v)]
                    assert dense[gu, gv] == 1.0

    def test_train_local_is_exactly_the_seeds(self, dataset):
        seeds = np.flatnonzero(dataset.train_mask)[2:7]
        batch = neighbor_sample(dataset, seeds, [2, 2], seed=3)
        assert np.array_equal(np.sort(batch.global_ids[batch.train_local]), np.sort(seeds))

    def test_one_layer_graph_per_fanout(self, dataset):
        seeds = np.flatnonzero(dataset.train_mask)[:2]
        batch = neighbor_sample(dataset, seeds, [2, 3, 1], seed=0)
        assert len(batch.layer_graphs) == 3

    def test_deterministic(self, dataset):
        seeds = np.flatnonzero(dataset.train_mask)[:4]
        a = neighbor_sample(dataset, seeds, [3, 2], seed=6, epoch=2, batch_index=1)
        b = neighbor_sample(dataset, seeds, [3, 2], seed=6, epoch=2, batch_index=1)
        assert np.array_equal(a.global_ids, b.global_ids)
        assert a.subgraph.structurally_equal(b.subgraph)
        for ga, gb in zip(a.layer_graphs, b.layer_graphs):
            assert ga.structurally_equal(gb)

    def test_fanout_respected(self, dataset):
        seeds = np.flatnonzero(dataset.train_mask)[:6]
        batch = neighbor_sample(dataset, seeds, [2], seed=5)
        # hop adjacency is symmetrized, so out-degree can exceed the fanout,
        # but sampled out-edges per source are capped before symmetrization
        local_seeds = batch.train_local
        hop = batch.layer_graphs[0]
        sampled = {(u, int(v)) for u in local_seeds for v in hop.neighbors(int(u))}
        per_source = {}
        for u, v in sampled:
            per_source.setdefault(u, set()).add(v)
        # each seed contributed at most fanout targets of its own
        for u in local_seeds:
            own = per_source.get(int(u), set())
            backlinks = {v for v, targets in per_source.items() if int(u) in targets}
            assert len(own - backlinks) <= 2

    def test_errors(self, dataset):
        with pytest.raises(ValueError, match="empty"):
            neighbor_sample(dataset, [], [2], seed=0)
        test_node = int(np.flatnonzero(dataset.test_mask)[0])
        with pytest.raises(ValueError, match="train mask"):
            neighbor_sample(dataset, [test_node], [2], seed=0)
        train = np.flatnonzero(dataset.train_mask)[:1]
        with pytest.raises(ValueError, match="duplicate"):
            neighbor_sample(dataset, [train[0], train[0]], [2], seed=0)
        with pytest.raises(ValueError, match="non-negative"):
            neighbor_sample(dataset, train, [2, -1], seed=0)

    def test_uniform_without_replacement(self, dataset):
        fanout, draws = 3, 2000
        train = np.flatnonzero(dataset.train_mask)
        seed_node = int(train[np.argmax(dataset.graph.degrees[train])])
        nbrs = dataset.graph.neighbors(seed_node)
        d = nbrs.size
        assert d > fanout  # oracle precondition
        picks = np.zeros(dataset.num_nodes, dtype=np.int64)
        for rng_seed in range(draws):
            batch = neighbor_sample(dataset, [seed_node], [fanout], seed=rng_seed)
            (hop0,) = batch.layer_graphs
            chosen = batch.global_ids[hop0.neighbors(int(batch.train_local[0]))]
            assert chosen.size == fanout  # distinct, since CSR rows are duplicate-free
            assert np.isin(chosen, nbrs).all()
            picks[chosen] += 1
        # each neighbor is picked Binomial(draws, fanout/d) times; allow five
        # standard deviations (a miss has probability below 1e-6 per neighbor)
        p = fanout / d
        assert np.all(np.abs(picks[nbrs] - draws * p) <= 5 * np.sqrt(draws * p * (1 - p)))

    def test_union_is_max_of_symmetric_layer_graphs(self, dataset):
        seeds = np.flatnonzero(dataset.train_mask)[:5]
        for rng_seed in range(3):
            batch = neighbor_sample(dataset, seeds, [3, 2, 2], seed=rng_seed)
            layers = [g.to_dense() for g in batch.layer_graphs]
            for dense in layers:
                assert np.array_equal(dense, dense.T)
            assert np.array_equal(batch.subgraph.to_dense(), np.maximum.reduce(layers))


def test_full_batch_covers_graph(dataset):
    batch = full_batch(dataset)
    assert batch.subgraph is dataset.graph
    assert np.array_equal(batch.global_ids[batch.train_local], np.flatnonzero(dataset.train_mask))
