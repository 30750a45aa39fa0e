from __future__ import annotations

import time

import numpy as np
import pytest

from als_graph.data import generate_sbm
from als_graph.graph import build_csr
from als_graph.propagation import (
    init_label_matrix,
    predict_by_propagation,
    propagate,
)

from conftest import dense_propagate, random_undirected, to_dense


class TestInitLabelMatrix:
    def test_one_hot_rows_and_zero_rows(self):
        d = generate_sbm(blocks=3, nodes_per_block=5, p_in=0.5, p_out=0.1,
                         train_fraction=0.4, val_fraction=0.2, seed=1)
        y0 = init_label_matrix(d)
        train = np.flatnonzero(d.train_mask)
        assert np.array_equal(y0[train].argmax(axis=1), d.labels[train])
        assert np.all(y0[train].sum(axis=1) == 1.0)
        assert not y0[~d.train_mask].any()
        assert y0.sum() == d.train_mask.sum()


class TestPropagate:
    def test_beta_one_returns_initial_labels(self, rng):
        _, edges = random_undirected(rng, 10, 0.4)
        g = build_csr(edges, 10, symmetrize=True)
        y0 = rng.random((10, 3))
        out = propagate(g, y0, beta=1.0, num_steps=5)
        assert np.array_equal(out, y0)

    def test_zero_steps_is_identity(self, rng):
        g = build_csr([(0, 1)], 2, symmetrize=True)
        y0 = rng.random((2, 2))
        assert np.array_equal(propagate(g, y0, 0.3, 0), y0)

    def test_single_edge_hand_example(self):
        g = build_csr([(0, 1)], 2, symmetrize=True)
        y0 = np.array([[1.0, 0.0], [0.0, 0.0]])
        out = propagate(g, y0, beta=0.5, num_steps=1)
        assert np.array_equal(out, [[0.5, 0.0], [0.5, 0.0]])

    def test_matches_dense_oracle(self, rng):
        dense, edges = random_undirected(rng, 20, 0.2)
        g = build_csr(edges, 20, symmetrize=True)
        y0 = np.zeros((20, 4))
        train = rng.permutation(20)[:8]
        y0[train, rng.integers(4, size=8)] = 1.0
        for beta in (0.0, 0.1, 0.5):
            got = propagate(g, y0, beta, 4)
            expected = dense_propagate(dense, y0, beta, 4)
            assert np.abs(got - expected).max() < 1e-12

    def test_entries_bounded_and_row_sums_below_one(self):
        for seed in range(10):
            gen = np.random.default_rng(seed)
            dense, edges = random_undirected(gen, 15, 0.3)
            g = build_csr(edges, 15, symmetrize=True)
            y0 = np.zeros((15, 3))
            train = gen.permutation(15)[:6]
            y0[train, gen.integers(3, size=6)] = 1.0
            out = propagate(g, y0, 0.2, 6)
            assert out.min() >= 0.0 and out.max() <= 1.0 + 1e-12
            assert out.sum(axis=1).max() <= 1.0 + 1e-9

    def test_successive_diffs_nonincreasing(self):
        # on a connected graph the update is affine with a contraction-or-isometry
        # linear part, so the sup-norm of consecutive differences never grows
        for seed in range(50):
            gen = np.random.default_rng(seed)
            dense, edges = random_undirected(gen, 12, 0.5)
            dense[np.arange(11), np.arange(1, 12)] = 1.0  # ensure connectivity
            dense[np.arange(1, 12), np.arange(11)] = 1.0
            edges = np.argwhere(np.triu(dense, 1))
            g = build_csr(edges, 12, symmetrize=True)
            y0 = np.zeros((12, 3))
            train = gen.permutation(12)[:5]
            y0[train, gen.integers(3, size=5)] = 1.0
            beta = float(gen.uniform(0.05, 0.9))
            diffs = []
            prev = y0
            for k in range(1, 33):
                cur = propagate(g, y0, beta, k)
                diffs.append(np.abs(cur - prev).max())
                prev = cur
            assert all(b <= a + 1e-12 for a, b in zip(diffs, diffs[1:]))

    def test_self_loop_override_changes_result(self, rng):
        g = build_csr([(0, 1)], 2, symmetrize=True)
        y0 = np.array([[1.0, 0.0], [0.0, 0.0]])
        plain = propagate(g, y0, 0.5, 1, self_loops=False)
        looped = propagate(g, y0, 0.5, 1, self_loops=True)
        assert not np.array_equal(plain, looped)
        assert np.array_equal(looped, [[0.75, 0.0], [0.25, 0.0]])

    def test_dimension_mismatch(self):
        g = build_csr([(0, 1)], 2, symmetrize=True)
        with pytest.raises(ValueError):
            propagate(g, np.zeros((3, 2)), 0.5, 1)

    def test_config_validation(self):
        g = build_csr([(0, 1)], 2, symmetrize=True)
        y0 = np.eye(2)
        with pytest.raises(ValueError, match=r"beta must lie in \[0, 1\]"):
            propagate(g, y0, 1.5, 1)
        with pytest.raises(ValueError, match="num_steps must be nonnegative"):
            propagate(g, y0, 0.5, -1)

    def test_cost_scales_linearly_in_steps(self):
        d = generate_sbm(blocks=4, nodes_per_block=500, p_in=0.02, p_out=0.002,
                         feature_dim=4, train_fraction=0.3, seed=0)
        y0 = init_label_matrix(d)
        y0 = np.tile(y0, (1, 4))  # widen to make the kernel dominate

        def timed(k: int) -> float:
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                propagate(d.graph, y0, 0.1, k)
                best = min(best, time.perf_counter() - start)
            return best

        assert timed(32) / timed(16) <= 2.5


class TestPredictByPropagation:
    def test_tie_breaks_toward_lowest_class(self):
        pred, abstain = predict_by_propagation(np.array([[0.2, 0.2, 0.1]]))
        assert pred.tolist() == [0]
        assert not abstain[0]

    def test_zero_row_abstains(self):
        pred, abstain = predict_by_propagation(np.array([[0.0, 0.0], [0.3, 0.1]]))
        assert abstain.tolist() == [True, False]
        assert pred[1] == 0

    def test_pure_blocks_reach_their_seed_label(self):
        # one labeled node per block, no cross-block edges: every node reached
        # within the step budget must predict its block's label
        d = generate_sbm(blocks=4, nodes_per_block=25, p_in=0.4, p_out=0.0,
                         feature_dim=4, train_fraction=0.5, seed=3)
        train = np.zeros(d.num_nodes, dtype=bool)
        for block in range(4):
            train[block * 25] = True
        d.train_mask, d.val_mask = train, np.zeros_like(train)
        d.test_mask = ~train
        k = 16
        yk = propagate(d.graph, init_label_matrix(d), 0.5, k)
        pred, abstain = predict_by_propagation(yk)
        reachable = _bfs_reachable_oracle(d, np.flatnonzero(train), k)
        assert np.array_equal(~abstain, reachable)
        assert np.array_equal(pred[reachable], d.labels[reachable])


def _bfs_reachable_oracle(dataset, sources, max_depth):
    dense = to_dense(dataset.graph)
    frontier = np.zeros(dataset.num_nodes, dtype=bool)
    frontier[sources] = True
    reached = frontier.copy()
    for _ in range(max_depth):
        frontier = (dense[frontier].sum(axis=0) > 0) & ~reached
        if not frontier.any():
            break
        reached |= frontier
    return reached
