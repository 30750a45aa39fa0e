from __future__ import annotations

import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from als_graph import sampling
from als_graph.data import generate_sbm, one_hot
from als_graph.graph import add_self_loops, build_csr
from als_graph.sampling import (
    Batch,
    cluster_batches,
    full_batch,
    neighbor_sample,
    partition_clusters,
    random_walk_sample,
)
from als_graph.rng import stream
from als_graph.smoothing import loss_and_grads

from conftest import (
    block_reads,
    dense_sampled_rows,
    dense_sym_norm_self_loops,
    neighbors,
    structurally_equal,
    to_dense,
)


@pytest.fixture
def dataset():
    return generate_sbm(blocks=4, nodes_per_block=30, p_in=0.3, p_out=0.02,
                        feature_dim=6, train_fraction=0.4, val_fraction=0.2, seed=7)


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
        d = generate_sbm(blocks=4, nodes_per_block=25, p_in=0.4, p_out=0.0, seed=2)
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


def planted_graph(blocks: int, per_block: int, draws: int, seed: int = 0):
    """Blocks of consecutive nodes; each draw links u to its own block w.p. 0.9, else anywhere."""
    n = blocks * per_block
    gen = np.random.default_rng(seed)
    u = gen.integers(n, size=draws)
    near = gen.random(draws) < 0.9
    v = np.where(near, u // per_block * per_block + gen.integers(per_block, size=draws),
                 gen.integers(n, size=draws))
    keep = u != v
    return build_csr(np.stack([u[keep], v[keep]], axis=1), n, symmetrize=True), np.arange(n) // per_block


def scattered_components():
    """Paths, stars and cliques of 1-9 nodes with shuffled ids (91 components, 40 isolated)."""
    gen = np.random.default_rng(3)
    sizes = np.concatenate([np.ones(40, dtype=np.int64), gen.integers(2, 10, size=51)])
    ids = gen.permutation(int(sizes.sum()))
    edges, start = [], 0
    for i, size in enumerate(sizes):
        nodes = ids[start : start + size]
        start += size
        if size > 1:
            kind = i % 3
            if kind == 0:
                edges += list(zip(nodes[:-1], nodes[1:]))
            elif kind == 1:
                edges += [(nodes[0], v) for v in nodes[1:]]
            else:
                edges += [(a, b) for j, a in enumerate(nodes) for b in nodes[j + 1 :]]
    return build_csr(edges, ids.size, symmetrize=True), sizes


class TestPartitionAtScale:
    """The three-step partitioner: exact quotas, whole components, locality and cost."""

    @pytest.mark.parametrize("parts", [2, 64, None])
    def test_exact_quotas_with_isolated_nodes_and_many_components(self, parts):
        g, sizes = scattered_components()
        assert sizes.size > 64 and (g.degrees == 0).sum() == 40  # oracle preconditions
        parts = parts or g.num_nodes
        p = partition_clusters(g, parts, seed=4)
        counts = np.bincount(p.part_of, minlength=parts)
        assert counts.max() - counts.min() <= 1
        assert np.array_equal(counts, np.sort(counts)[::-1])  # the larger quotas come first

    def test_components_matching_the_quotas_become_the_parts(self):
        # 12 trees of 25 nodes each on consecutive ids, every one a different shape
        gen = np.random.default_rng(5)
        edges = [(25 * c + i, 25 * c + int(gen.integers(i))) for c in range(12) for i in range(1, 25)]
        g = build_csr(edges, 300, symmetrize=True)
        n_comp, comp = connected_components(g._scipy, directed=False)
        assert n_comp == 12
        for seed in range(4):
            p = partition_clusters(g, 12, seed=seed)
            for c in range(n_comp):
                assert np.unique(p.part_of[comp == c]).size == 1

    def test_refinement_keeps_sizes_and_whole_components(self):
        g, _ = scattered_components()
        _, comp = connected_components(g._scipy, directed=False)
        gen = np.random.default_rng(1)
        part = gen.integers(8, size=g.num_nodes)
        part[comp == comp[np.argmax(g.degrees)]] = 3  # one whole component inside part 3
        whole = np.array([np.unique(part[comp == c]).size == 1 for c in range(comp.max() + 1)])
        before = part.copy()
        sampling._refine(g, part, 8)
        assert not np.array_equal(part, before)  # the test exercises some moves
        assert np.array_equal(np.bincount(part, minlength=8), np.bincount(before, minlength=8))
        kept = whole[comp]
        assert np.array_equal(part[kept], before[kept])

    def test_same_seed_same_partition(self):
        g, _ = planted_graph(8, 250, 10_000)
        a = partition_clusters(g, 16, seed=11)
        assert np.array_equal(a.part_of, partition_clusters(g, 16, seed=11).part_of)
        assert not np.array_equal(a.part_of, partition_clusters(g, 16, seed=12).part_of)

    def test_locality_floor_on_a_planted_graph(self):
        g, labels = planted_graph(8, 250, 10_000)
        for seed in range(3):
            part = partition_clusters(g, 8, seed=seed).part_of
            src = np.repeat(np.arange(g.num_nodes), g.degrees)
            cut = np.mean(part[src] != part[g.col_indices])
            counts = np.bincount(part * 8 + labels, minlength=64).reshape(8, 8)
            purity = counts.max(axis=1).sum() / g.num_nodes
            # a uniformly random split cuts 7/8 of the edges at purity near 1/8;
            # seeds 0-2 measure cut 0.38-0.40 and purity 0.60-0.67
            assert cut < 0.5 and purity > 0.5, (seed, cut, purity)

    def test_import_and_partition_load_no_csgraph(self):
        code = ("import sys, numpy as np, als_graph\n"
                "g = als_graph.build_csr([(0, 1), (1, 2), (3, 4)], 6, symmetrize=True)\n"
                "als_graph.partition_clusters(g, 2, seed=0)\n"
                "print(sorted(m for m in sys.modules if 'csgraph' in m))\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=120)
        assert out.stdout.strip() == "[]"

    def test_thousand_parts_of_a_50k_node_graph(self):
        g, _ = planted_graph(40, 1250, 250_000)
        start = time.perf_counter()
        p = partition_clusters(g, 1000, seed=0)
        took = time.perf_counter() - start
        assert np.all(np.bincount(p.part_of, minlength=1000) == 50)
        assert took < 15.0, took  # was 22.6 s with one BFS per part and a per-node loop


class TestClusterBatches:
    def test_all_parts_in_one_batch_is_full_graph(self, dataset):
        p = partition_clusters(dataset.graph, 4, seed=0)
        (batch,) = cluster_batches(dataset, p, 4, seed=0)
        assert batch.num_nodes == dataset.num_nodes
        assert structurally_equal(batch.graph, dataset.graph)

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
            assert structurally_equal(x.graph, y.graph)

    def test_batches_match_the_whole_graph_oracle(self, dataset):
        # reference: a node mask over the whole graph and scipy's row/column slicing
        p = partition_clusters(dataset.graph, 7, seed=2)
        for batch, parts in zip(cluster_batches(dataset, p, 3, seed=4, epoch=1),
                                np.array_split(sampling.stream(4, 1).permutation(7), [3, 6])):
            nodes = np.flatnonzero(np.isin(p.part_of, parts))
            ref = dataset.graph._scipy[nodes][:, nodes].sorted_indices()
            assert np.array_equal(batch.global_ids, nodes)
            assert np.array_equal(batch.graph.row_offsets, ref.indptr)
            assert np.array_equal(batch.graph.col_indices, ref.indices)
            assert np.array_equal(batch.train_local, np.flatnonzero(dataset.train_mask[nodes]))

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
        d = generate_sbm(blocks=1, nodes_per_block=4, p_in=0.0, p_out=0.0,
                         train_fraction=1.0, val_fraction=0.0, seed=0)
        d.test_mask[:] = False
        batch = random_walk_sample(d, num_roots=1, walk_length=5, seed=2)
        assert batch.global_ids.size == 1

    def test_all_nodes_within_walk_length_of_roots(self, dataset):
        length = 3
        batch = random_walk_sample(dataset, num_roots=4, walk_length=length, seed=4)
        dense = to_dense(dataset.graph)
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

    @pytest.mark.parametrize("num_roots, walk_length, message", [
        (0, 2, "need at least one root"),
        (3, -5, "walk_length must be nonnegative, got -5"),
    ])
    def test_bad_sizes_rejected(self, dataset, num_roots, walk_length, message):
        with pytest.raises(ValueError, match=message):
            random_walk_sample(dataset, num_roots, walk_length, seed=0)


class TestNeighborSample:
    def test_full_fanout_gives_hop_ball(self, dataset):
        seeds = np.flatnonzero(dataset.train_mask)[:3]
        max_deg = int(dataset.graph.degrees.max())
        batch = neighbor_sample(dataset, [seeds], [max_deg, max_deg], seed=0)[0]
        dense = to_dense(dataset.graph)
        ball = np.zeros(dataset.num_nodes, dtype=bool)
        ball[seeds] = True
        for _ in range(2):
            ball |= dense[ball].sum(axis=0) > 0
        assert set(batch.global_ids) == set(np.flatnonzero(ball))

    def test_zero_fanouts_keep_only_seeds(self, dataset):
        seeds = np.flatnonzero(dataset.train_mask)[:4]
        batch = neighbor_sample(dataset, [seeds], [0, 0], seed=0)[0]
        assert np.array_equal(np.sort(batch.global_ids), np.sort(seeds))
        # each block is the seeds' diagonal of the whole-graph operator, 1 / (d_u + 1)
        diagonal = np.diag(dense_sym_norm_self_loops(to_dense(dataset.graph)))[batch.global_ids]
        assert np.allclose(diagonal, 1.0 / (dataset.graph.degrees[batch.global_ids] + 1.0),
                           rtol=1e-15, atol=0.0)
        for block in batch.layer_blocks:
            assert np.array_equal(block.toarray(), np.diag(diagonal))

    def test_sampled_edges_exist_in_original(self, dataset):
        seeds = np.flatnonzero(dataset.train_mask)[:5]
        batch = neighbor_sample(dataset, [seeds], [3, 2, 2], seed=1)[0]
        dense = to_dense(dataset.graph)
        for layer in range(3):
            for u, reads in block_reads(batch, layer).items():
                assert u in reads
                assert np.all(dense[u, reads[reads != u]] == 1.0)

    def test_train_local_is_exactly_the_seeds(self, dataset):
        seeds = np.flatnonzero(dataset.train_mask)[2:7]
        batch = neighbor_sample(dataset, [seeds], [2, 2], seed=3)[0]
        assert np.array_equal(np.sort(batch.global_ids[batch.train_local]), np.sort(seeds))

    def test_one_layer_graph_per_fanout(self, dataset):
        seeds = np.flatnonzero(dataset.train_mask)[:2]
        for rng_seed in range(3):
            batch = neighbor_sample(dataset, [seeds], [2, 3, 1], seed=rng_seed)[0]
            assert len(batch.layer_blocks) == len(batch.layer_rows) == 3
            assert batch.graph is None  # no union graph is built
            assert batch.num_nodes == batch.global_ids.size

    def test_deterministic(self, dataset):
        seeds = np.flatnonzero(dataset.train_mask)[:4]
        a = neighbor_sample(dataset, [seeds], [3, 2], seed=6, epoch=2, batch_index=1)[0]
        b = neighbor_sample(dataset, [seeds], [3, 2], seed=6, epoch=2, batch_index=1)[0]
        assert np.array_equal(a.global_ids, b.global_ids)
        assert np.array_equal(a.train_local, b.train_local)
        assert len(a.layer_blocks) == len(b.layer_blocks) == 2
        for x, y in zip(a.layer_rows, b.layer_rows):
            assert np.array_equal(x, y)
        for x, y in zip(a.layer_blocks, b.layer_blocks):
            assert x.shape == y.shape and (x != y).nnz == 0

    def test_fanout_respected(self, dataset):
        seeds = np.flatnonzero(dataset.train_mask)[:6]
        degrees = dataset.graph.degrees
        for fanout in (0, 2, int(degrees.max())):
            batch = neighbor_sample(dataset, [seeds], [fanout], seed=5)[0]
            reads = block_reads(batch, 0)
            assert sorted(reads) == sorted(seeds.tolist())
            # each row holds itself plus exactly min(d_u, fanout) drawn neighbours, ascending
            for u, cols in reads.items():
                assert np.all(np.diff(cols) > 0)
                assert u in cols and cols.size == min(degrees[u], fanout) + 1

    def test_errors(self, dataset):
        with pytest.raises(ValueError, match="empty"):
            neighbor_sample(dataset, [[]], [2], seed=0)
        test_node = int(np.flatnonzero(dataset.test_mask)[0])
        with pytest.raises(ValueError, match="train mask"):
            neighbor_sample(dataset, [[test_node]], [2], seed=0)
        train = np.flatnonzero(dataset.train_mask)[:1]
        with pytest.raises(ValueError, match="duplicate"):
            neighbor_sample(dataset, [[train[0], train[0]]], [2], seed=0)
        with pytest.raises(ValueError, match="non-negative"):
            neighbor_sample(dataset, [train], [2, -1], seed=0)

    def test_uniform_without_replacement(self, dataset):
        fanout, draws = 3, 2000
        train = np.flatnonzero(dataset.train_mask)
        seed_node = int(train[np.argmax(dataset.graph.degrees[train])])
        nbrs = neighbors(dataset.graph, seed_node)
        d = nbrs.size
        assert d > fanout  # oracle precondition
        picks = np.zeros(dataset.num_nodes, dtype=np.int64)
        for rng_seed in range(draws):
            reads = block_reads(neighbor_sample(dataset, [[seed_node]], [fanout], seed=rng_seed)[0], 0)
            chosen = reads[seed_node][reads[seed_node] != seed_node]
            assert chosen.size == fanout  # distinct: a CSR row holds each column once
            assert np.isin(chosen, nbrs).all()
            picks[chosen] += 1
        # each neighbor is picked Binomial(draws, fanout/d) times; allow five
        # standard deviations (a miss has probability below 1e-6 per neighbor)
        p = fanout / d
        assert np.all(np.abs(picks[nbrs] - draws * p) <= 5 * np.sqrt(draws * p * (1 - p)))

    def test_unbiased_estimate_of_the_operator_row(self, dataset):
        fanout, draws = 3, 1000
        train = np.flatnonzero(dataset.train_mask)
        u = int(train[np.argmax(dataset.graph.degrees[train])])
        d = int(dataset.graph.degrees[u])
        assert d > fanout  # oracle precondition
        full = dense_sym_norm_self_loops(to_dense(dataset.graph))[u]
        total = np.zeros(dataset.num_nodes)
        for rng_seed in range(draws):
            batch = neighbor_sample(dataset, [[u]], [fanout], seed=rng_seed)[0]
            block = batch.layer_blocks[0]
            row = np.zeros(dataset.num_nodes)
            row[batch.global_ids[block.indices]] = block.data
            assert row[u] == full[u]  # the self entry is never scaled
            total += row
        # a neighbour entry is full[v] * d / fanout with probability fanout / d,
        # else 0: mean full[v], variance full[v]^2 (d / fanout - 1); allow 5 sigma
        sigma = np.abs(full) * np.sqrt((d / fanout - 1.0) / draws)
        assert np.all(np.abs(total / draws - full) <= 5 * sigma + 1e-15)

    @pytest.mark.parametrize("self_loops", [False, True], ids=["plain", "self_loops"])
    def test_blocks_are_scaled_operator_rows(self, dataset, self_loops):
        if self_loops:  # a stored loop, when drawn, must add up with the operator's own I
            dataset.graph = add_self_loops(dataset.graph)
        dense = to_dense(dataset.graph)
        degrees = dataset.graph.degrees
        seeds = np.flatnonzero(dataset.train_mask)[3:9]
        fanouts = [3, 2, 2]
        loops_drawn = 0
        for rng_seed in range(3):
            batch = neighbor_sample(dataset, [seeds], fanouts, seed=rng_seed)[0]
            assert np.array_equal(batch.loss_rows, np.arange(seeds.size))
            rows = batch.train_local
            for layer, fanout in zip((2, 1, 0), fanouts):
                assert np.array_equal(batch.layer_rows[layer], rows)
                assert np.all(np.diff(rows) > 0)
                reads = block_reads(batch, layer)
                assert list(reads) == batch.global_ids[rows].tolist()
                picks = {}
                for u, cols in reads.items():
                    kept = min(degrees[u], fanout)
                    # a drawn stored loop merges with the self entry: one column fewer
                    assert cols.size in (kept, kept + 1) and u in cols
                    picks[u] = cols if cols.size == kept else cols[cols != u]
                    assert picks[u].size == kept and np.all(dense[u, picks[u]] == 1.0)
                    loops_drawn += cols.size == kept
                oracle = dense_sampled_rows(dense, picks)
                block = batch.layer_blocks[layer]
                below = batch.layer_rows[layer - 1] if layer else np.arange(batch.num_nodes)
                assert block.shape == (rows.size, below.size)
                assert np.array_equal(np.unique(np.concatenate(list(reads.values()))),
                                      batch.global_ids[below])  # no column goes unread
                # entry for entry: each row's nonzero columns in ascending order, exact values
                for i, (u, cols) in enumerate(reads.items()):
                    assert np.all(np.diff(cols) > 0)
                    assert np.array_equal(cols, np.flatnonzero(oracle[u]))
                    assert np.array_equal(block.data[block.indptr[i] : block.indptr[i + 1]],
                                          oracle[u, cols])
                rows = below
            assert np.array_equal(rows, np.arange(batch.num_nodes))  # layer 0 reads every row
        assert (loops_drawn > 0) == self_loops  # the merge above was exercised

    @pytest.mark.parametrize("self_loops", [False, True], ids=["plain", "self_loops"])
    def test_chunks_built_together_equal_each_chunk_built_alone(self, dataset, self_loops):
        """One pass over several chunks gives, array for array, the batch each
        chunk gives alone at its own stream index: chunks of uneven size whose
        reach overlaps, at fanouts 0, 3 and the maximum degree. An epoch with
        no chunk has no batch."""
        if self_loops:  # every node stores a loop, so fanouts above 0 draw some of them
            dataset.graph = add_self_loops(dataset.graph)
        train = np.random.default_rng(4).permutation(np.flatnonzero(dataset.train_mask))
        chunks = [train[:7], train[7:19], train[19:20], train[20:31]]
        assert neighbor_sample(dataset, [], [3, 3, 3], seed=8) == []  # no chunk, no batch
        for fanout in (0, 3, int(dataset.graph.degrees.max())):
            together = neighbor_sample(dataset, chunks, [fanout] * 3, seed=8, epoch=3, batch_index=2)
            assert len(together) == len(chunks)
            for j, (chunk, batch) in enumerate(zip(chunks, together)):
                alone, = neighbor_sample(dataset, [chunk], [fanout] * 3, seed=8, epoch=3,
                                         batch_index=2 + j)
                for a, b in [(batch.global_ids, alone.global_ids),
                             (batch.train_local, alone.train_local),
                             *zip(batch.layer_rows, alone.layer_rows),
                             *[(x, y) for p, q in zip(batch.layer_blocks, alone.layer_blocks)
                               for x, y in ((p.indptr, q.indptr), (p.indices, q.indices),
                                            (p.data, q.data))]]:
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                assert [x.shape for x in batch.layer_blocks] == [x.shape for x in alone.layer_blocks]

    @pytest.mark.parametrize("self_loops", [False, True], ids=["plain", "self_loops"])
    def test_batches_follow_the_draw_rule(self, dataset, self_loops):
        """A plain-Python oracle of the draw rule in ``neighbor_sample``'s docstring.
        Chunk ``j`` draws ``stream(seed, epoch, batch_index + j).integers(span)``
        once per candidate of a hop, in hop order (rows ascending, neighbours in
        CSR order); each row keeps the neighbours with its ``min(degree, fanout)``
        smallest keys; the next hop expands the ascending union of the rows and
        their picks. Two chunks of uneven size, every layer's rows and every
        block row's columns."""
        if self_loops:  # a drawn stored loop reads the same column as the self entry
            dataset.graph = add_self_loops(dataset.graph)
        g = dataset.graph
        span = np.iinfo(np.int64).max // dataset.num_nodes
        train = np.random.default_rng(5).permutation(np.flatnonzero(dataset.train_mask))
        chunks, fanouts = [train[:13], train[13:18]], [4, 2, 3]
        batches = neighbor_sample(dataset, chunks, fanouts, seed=11, epoch=2, batch_index=3)
        assert len(batches) == len(chunks)
        for j, (chunk, batch) in enumerate(zip(chunks, batches)):
            gen = stream(11, 2, 3 + j)
            rows = sorted(int(u) for u in chunk)
            assert np.array_equal(batch.global_ids[batch.train_local], rows)
            for hop, fanout in enumerate(fanouts):
                candidates = [(u, int(v)) for u in rows for v in neighbors(g, u)]
                keys = gen.integers(span, size=len(candidates))
                picks = {u: [] for u in rows}
                for (u, v), _ in sorted(zip(candidates, keys), key=lambda c: (c[0][0], c[1])):
                    if len(picks[u]) < fanout:
                        picks[u].append(v)
                layer = len(fanouts) - 1 - hop
                assert np.array_equal(batch.global_ids[batch.layer_rows[layer]], rows)
                reads = block_reads(batch, layer)
                assert list(reads) == rows
                for u in rows:
                    assert np.array_equal(reads[u], sorted({u, *picks[u]}))
                rows = sorted(set(rows).union(*picks.values()))
            assert np.array_equal(batch.global_ids, rows)

    def test_unlayered_batches_record_no_rows(self, dataset):
        batch = full_batch(dataset)
        assert batch.layer_rows is None and batch.layer_blocks is None
        assert batch.loss_rows is batch.train_local

    def test_a_batch_needs_exactly_one_operator_source(self, dataset):
        batch = neighbor_sample(dataset, [np.flatnonzero(dataset.train_mask)[:3]], [2, 2], seed=0)[0]
        ids, train = batch.global_ids, batch.train_local
        with pytest.raises(ValueError, match="either a graph or layer blocks"):
            Batch(ids, train)
        with pytest.raises(ValueError, match="either a graph or layer blocks"):
            Batch(ids, train, layer_blocks=())
        with pytest.raises(ValueError, match="either a graph or layer blocks"):
            Batch(ids, train, dataset.graph, batch.layer_blocks, batch.layer_rows)
        blocks = batch.blocks(2)
        assert all(op is block for (op, *_), block in zip(blocks, batch.layer_blocks))
        assert all(op_t.shape == op.shape[::-1] and (op_t != op.T).nnz == 0
                   for op, op_t, *_ in blocks)
        with pytest.raises(ValueError, match="depth 3"):
            batch.blocks(3)
        whole = dataset.graph._sym_norm_op  # the graph's operator, as its own transpose
        assert [a is whole and b is whole
                for a, b, *_ in full_batch(dataset).blocks(3)] == [True] * 3
        # without restrict_backward the backward reads every row either batch computes
        for b in (batch, full_batch(dataset)):
            assert [layer[2:] for layer in b.blocks(2)] == [(None, None)] * 2


def test_full_batch_covers_graph(dataset):
    batch = full_batch(dataset)
    assert batch.graph is dataset.graph
    assert np.array_equal(batch.global_ids[batch.train_local], np.flatnonzero(dataset.train_mask))
