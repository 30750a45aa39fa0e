from __future__ import annotations

import numpy as np
import pytest

from als_graph.data import generate_sbm
from als_graph.metrics import batch_class_fraction, bias_stats, confidence_stats
from als_graph.sampling import Batch, cluster_batches, full_batch, partition_clusters


def batch_of(dataset, nodes):
    from als_graph.graph import induced_subgraph

    sub, gids = induced_subgraph(dataset.graph, nodes)
    return Batch(gids, np.flatnonzero(dataset.train_mask[gids]), sub)


@pytest.fixture
def dataset():
    return generate_sbm(blocks=2, nodes_per_block=20, p_in=0.4, p_out=0.05,
                        feature_dim=4, train_fraction=0.5, seed=0)


class TestBatchClassFraction:
    def test_counts_training_nodes_only(self, dataset):
        batch = full_batch(dataset)
        frac = batch_class_fraction(batch, dataset)
        train_labels = dataset.labels[dataset.train_mask]
        expected = np.bincount(train_labels, minlength=2) / train_labels.size
        assert np.array_equal(frac, expected)
        assert frac.sum() == pytest.approx(1.0, abs=1e-15)

    def test_hand_example(self):
        d = generate_sbm(blocks=2, nodes_per_block=3, p_in=1.0, p_out=1.0,
                         train_fraction=1.0, val_fraction=0.0, seed=0)
        d.labels = np.array([0, 0, 1, 0, 1, 1])
        batch = batch_of(d, [0, 1, 2])
        assert batch_class_fraction(batch, d).tolist() == [2 / 3, 1 / 3]

    def test_single_node_batch(self, dataset):
        node = int(np.flatnonzero(dataset.train_mask)[0])
        frac = batch_class_fraction(batch_of(dataset, [node]), dataset)
        expected = np.zeros(2)
        expected[dataset.labels[node]] = 1.0
        assert np.array_equal(frac, expected)

    def test_matches_counting_oracle(self, dataset, rng):
        for _ in range(10):
            nodes = rng.permutation(dataset.num_nodes)[: int(rng.integers(5, 30))]
            batch = batch_of(dataset, np.sort(nodes))
            if batch.train_local.size == 0:
                continue
            frac = batch_class_fraction(batch, dataset)
            counts = np.zeros(2)
            for node in nodes:
                if dataset.train_mask[node]:
                    counts[dataset.labels[node]] += 1
            assert np.allclose(frac, counts / counts.sum())

    def test_no_training_nodes_rejected(self, dataset):
        test_nodes = np.flatnonzero(dataset.test_mask)[:3]
        with pytest.raises(ValueError, match="training"):
            batch_class_fraction(batch_of(dataset, test_nodes), dataset)


class TestBiasStats:
    def test_identical_batches_have_zero_std(self, dataset):
        batch = full_batch(dataset)
        stats = bias_stats([batch, batch, batch], dataset)
        assert not stats.std.any()
        assert stats.batch_count == 3

    def test_two_batch_hand_example(self):
        d = generate_sbm(blocks=2, nodes_per_block=2, p_in=1.0, p_out=1.0,
                         train_fraction=1.0, val_fraction=0.0, seed=0)
        a = batch_of(d, [0, 1])  # all class 0
        b = batch_of(d, [2, 3])  # all class 1
        stats = bias_stats([a, b], d)
        assert np.allclose(stats.mean, [0.5, 0.5])
        assert stats.std[0] == pytest.approx(0.7071067811865476, abs=1e-15)

    def test_single_batch_uses_zero_std_convention(self, dataset):
        stats = bias_stats([full_batch(dataset)], dataset)
        train_labels = dataset.labels[dataset.train_mask]
        assert np.array_equal(stats.mean, np.bincount(train_labels, minlength=2) / train_labels.size)
        assert not stats.std.any()

    def test_zero_batches_rejected(self, dataset):
        with pytest.raises(ValueError, match="at least one batch"):
            bias_stats([], dataset)


class TestConfidenceStats:
    def test_uniform_rows(self):
        c = 5
        stats = confidence_stats(np.full((4, c), 1.0 / c))
        assert stats["mean_max_prob"] == pytest.approx(1.0 / c, abs=1e-15)
        assert stats["mean_entropy"] == pytest.approx(np.log(c), abs=1e-12)

    def test_one_hot_rows(self):
        probs = np.eye(3)
        stats = confidence_stats(probs)
        assert stats["mean_max_prob"] == 1.0
        assert stats["mean_entropy"] == 0.0

    def test_mixed_rows_match_per_row_oracle(self, rng):
        rows = []
        for _ in range(6):
            p = rng.random(4) + 1e-3
            rows.append(p / p.sum())
        probs = np.stack(rows)
        stats = confidence_stats(probs)
        max_oracle = float(np.mean([row.max() for row in rows]))
        ent_oracle = float(np.mean([-np.sum(row * np.log(row)) for row in rows]))
        assert stats["mean_max_prob"] == pytest.approx(max_oracle, abs=1e-15)
        assert stats["mean_entropy"] == pytest.approx(ent_oracle, abs=1e-12)

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError):
            confidence_stats(np.array([[0.5, 0.6]]))


def test_cluster_batches_amplify_bias_over_random_batches():
    # homophilous clusters concentrate labels; uniformly random batches of the
    # same sizes are the Monte-Carlo baseline the clustered std must beat
    ratios = []
    for seed in range(10):
        d = generate_sbm(blocks=4, nodes_per_block=60, p_in=0.15, p_out=0.005,
                         feature_dim=4, train_fraction=0.3, val_fraction=0.2,
                         seed=seed)
        partition = partition_clusters(d.graph, 4, seed=seed)
        batches = cluster_batches(d, partition, 1, seed=seed)
        clustered = bias_stats(batches, d).std.mean()

        gen = np.random.default_rng(1000 + seed)
        sizes = [b.num_nodes for b in batches]
        order = gen.permutation(d.num_nodes)
        fractions = []
        start = 0
        for size in sizes:
            members = order[start : start + size]
            start += size
            train_labels = d.labels[members[d.train_mask[members]]]
            fractions.append(np.bincount(train_labels, minlength=4) / max(train_labels.size, 1))
        random_std = np.stack(fractions).std(axis=0, ddof=1).mean()
        ratios.append(clustered / random_std)
    assert np.mean(ratios) > 2.0
