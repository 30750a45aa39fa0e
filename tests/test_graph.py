from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from als_graph.graph import (
    CsrGraph,
    _gather_rows,
    _sym_norm_rows,
    add_self_loops,
    build_csr,
    induced_subgraph,
    normalized_spmm,
)

from conftest import (
    dense_row_norm,
    dense_sym_norm_self_loops,
    neighbors,
    random_undirected,
    structurally_equal,
    to_dense,
)


class TestBuildCsr:
    def test_two_directed_edges(self):
        g = build_csr([(0, 1), (1, 0)], 2)
        assert g.row_offsets.tolist() == [0, 1, 2]
        assert g.col_indices.tolist() == [1, 0]

    def test_empty_edge_list(self):
        g = build_csr([], 3)
        assert g.row_offsets.tolist() == [0, 0, 0, 0]
        assert g.nnz == 0

    def test_symmetrize_dedups(self):
        g = build_csr([(0, 1), (0, 1)], 2, symmetrize=True)
        assert g.nnz == 2
        assert g.col_indices.tolist() == [1, 0]

    def test_id_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            build_csr([(0, 2)], 2)

    def test_zero_nodes(self):
        with pytest.raises(ValueError):
            build_csr([], 0)

    @given(st.integers(2, 12), st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=60),
           st.booleans())
    @settings(max_examples=60)
    def test_matches_set_of_pairs_oracle(self, n, raw_edges, symmetrize):
        edges = [(u % n, v % n) for u, v in raw_edges]
        g = build_csr(edges, n, symmetrize=symmetrize)
        expected = set(edges)
        if symmetrize:
            expected |= {(v, u) for u, v in edges}
        got = set()
        for u in range(n):
            for v in neighbors(g, u):
                got.add((u, int(v)))
        assert got == expected
        assert g.nnz == len(expected)

    @pytest.mark.parametrize("symmetrize", [False, True])
    def test_large_graph_matches_unique_and_peaks_under_four_times_its_output(self, symmetrize):
        # 100k random pairs on 5,000 nodes, some repeated; sorting and
        # deduplicating the doubled pair array and its codes traced about 7x
        pairs = np.random.default_rng(0).integers(0, 5000, size=(100_000, 2))
        stored = np.concatenate([pairs, pairs[:, ::-1]]) if symmetrize else pairs
        expected = np.unique(stored, axis=0)
        del stored
        tracemalloc.start()
        try:
            g = build_csr(pairs, 5000, symmetrize=symmetrize)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(g.col_indices, expected[:, 1])
        assert np.array_equal(np.diff(g.row_offsets), np.bincount(expected[:, 0], minlength=5000))
        assert peak <= 4 * (g.row_offsets.nbytes + g.col_indices.nbytes)

    @pytest.mark.parametrize("symmetrize", [False, True])
    def test_large_graph_peaks_under_twice_its_output(self, symmetrize):
        # the same pairs; duplicates are compacted in place and CsrGraph's order
        # check takes a byte per entry, so only the output is int64 per entry
        pairs = np.random.default_rng(0).integers(0, 5000, size=(100_000, 2))
        tracemalloc.start()
        try:
            g = build_csr(pairs, 5000, symmetrize=symmetrize)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.nnz < pairs.shape[0] * (2 if symmetrize else 1)  # duplicates were dropped
        assert peak <= 2 * (g.row_offsets.nbytes + g.col_indices.nbytes)

    def test_rejects_malformed_offsets(self):
        with pytest.raises(ValueError):
            CsrGraph(2, np.array([0, 2, 1]), np.array([0, 1, 0]))
        with pytest.raises(ValueError, match="strictly increasing"):
            CsrGraph(2, np.array([0, 2, 2]), np.array([1, 1]))


class TestCsrGraphRowOrder:
    """Columns may fall only where a row starts, whichever rows are empty."""

    @pytest.mark.parametrize("offsets, cols", [
        ([0, 0, 2, 3], [1, 2, 0]),  # empty first row
        ([0, 2, 2, 3], [1, 2, 0]),  # empty middle row
        ([0, 2, 3, 3], [1, 2, 0]),  # empty last row
        ([0, 0, 0, 0], []),  # nnz 0
        ([0, 0, 1, 1], [2]),  # nnz 1
        ([0, 1, 2, 3], [2, 1, 0]),  # a drop across every row start
    ])
    def test_accepts_ascending_rows(self, offsets, cols):
        g = CsrGraph(3, np.array(offsets), np.array(cols, dtype=np.int64))
        assert g.nnz == len(cols)

    @pytest.mark.parametrize("offsets, cols", [
        ([0, 0, 2, 3], [2, 1, 0]),  # first row empty, the drop inside the next
        ([0, 0, 1, 3], [0, 2, 1]),  # the drop is the last entry
        ([0, 1, 1, 3], [0, 2, 1]),  # after an empty middle row
        ([0, 0, 2, 2], [2, 1]),  # between empty first and last rows
        ([0, 0, 2, 2], [1, 1]),  # a repeated column
    ])
    def test_rejects_a_drop_inside_a_row_after_an_empty_one(self, offsets, cols):
        with pytest.raises(ValueError, match="strictly increasing"):
            CsrGraph(3, np.array(offsets), np.array(cols))


class TestNormalizedSpmm:
    def test_path_graph_row_norm(self):
        g = build_csr([(0, 1)], 2, symmetrize=True)
        m = np.array([[1.0, 0.0], [0.0, 0.0]])
        out = normalized_spmm(g, m, "row_norm")
        assert np.array_equal(out, [[0.0, 0.0], [1.0, 0.0]])

    def test_isolated_node_gives_zero_row(self):
        g = build_csr([(0, 1)], 3, symmetrize=True)
        out = normalized_spmm(g, np.ones((3, 2)), "row_norm")
        assert np.array_equal(out[2], [0.0, 0.0])

    def test_row_norm_matches_dense_oracle(self, rng):
        dense, edges = random_undirected(rng, 5, 0.6)
        g = build_csr(edges, 5, symmetrize=True)
        m = rng.standard_normal((5, 3))
        expected = dense_row_norm(dense) @ m
        assert np.abs(normalized_spmm(g, m, "row_norm") - expected).max() < 1e-12

    def test_sym_norm_matches_dense_oracle(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 12))
            dense, edges = random_undirected(rng, n, 0.4)
            plain = build_csr(edges, n, symmetrize=True)
            m = rng.standard_normal((n, 4))
            # a stored self loop adds up with the operator's own I
            for g in (plain, add_self_loops(plain)):
                expected = dense_sym_norm_self_loops(to_dense(g)) @ m
                got = normalized_spmm(g, m, "sym_norm_self_loops")
                assert np.abs(got - expected).max() < 1e-12
                op = g._sym_norm_op
                again = normalized_spmm(g, m, "sym_norm_self_loops")
                assert g._sym_norm_op is op
                assert np.abs(again - expected).max() < 1e-12

    @pytest.mark.parametrize("n", [50, 400])
    def test_sym_norm_transpose_product_is_bit_equal(self, n):
        # the model's backward applies op.T; on the symmetric whole-graph
        # operator it must give exactly the bytes of op @ m
        gen = np.random.default_rng(n)
        _, edges = random_undirected(gen, n, 8 / n)
        plain = build_csr(edges, n, symmetrize=True)
        loops = np.repeat(np.arange(0, n, 2), 2).reshape(-1, 2)  # on every other node
        looped = build_csr(np.concatenate([edges, loops]), n, symmetrize=True)
        for g in (plain, looped):
            op = g._sym_norm_op
            for width in (1, 8, 128):
                m = gen.standard_normal((n, width))
                assert (op.T @ m).tobytes() == (op @ m).tobytes()

    def test_identity_input_exposes_inverse_degrees(self, rng):
        dense, edges = random_undirected(rng, 8, 0.4)
        g = build_csr(edges, 8, symmetrize=True)
        out = normalized_spmm(g, np.eye(8), "row_norm")
        deg = dense.sum(axis=1)
        for i in range(8):
            for j in range(8):
                expected = 1.0 / deg[i] if dense[i, j] else 0.0
                assert out[i, j] == pytest.approx(expected, abs=1e-15)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_row_norm_keeps_row_sums_bounded(self, seed):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(2, 20))
        dense, edges = random_undirected(gen, n, 0.5)
        g = build_csr(edges, n, symmetrize=True)
        m = gen.random((n, 3))
        m /= np.maximum(m.sum(axis=1, keepdims=True), 1.0)  # row sums <= 1
        out = normalized_spmm(g, m, "row_norm")
        assert out.sum(axis=1).max() <= m.sum(axis=1).max() + 1e-12

    def test_dimension_mismatch(self):
        g = build_csr([(0, 1)], 2, symmetrize=True)
        with pytest.raises(ValueError):
            normalized_spmm(g, np.ones((3, 2)), "row_norm")
        with pytest.raises(ValueError, match="mode"):
            normalized_spmm(g, np.ones((2, 2)), "bogus")


class TestSymNormRows:
    @pytest.mark.parametrize("looped", [False, True], ids=["plain", "self_loops"])
    def test_every_neighbour_given_is_the_default_to_the_bit(self, looped):
        gen = np.random.default_rng(3)
        _, edges = random_undirected(gen, 60, 0.1)
        g = build_csr(edges, 60, symmetrize=True)
        g = add_self_loops(g) if looped else g
        rows = np.sort(gen.choice(60, size=25, replace=False))
        (default,), cols = _sym_norm_rows(g, rows)
        _, nbrs = _gather_rows(g, rows)
        (given,), given_cols = _sym_norm_rows(g, rows, nbrs, g.degrees[rows])
        assert np.array_equal(cols, given_cols)
        for a, b in ((default, given), (given, g._sym_norm_op[rows][:, cols])):
            assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
            assert a.data.tobytes() == b.data.tobytes()

    def test_each_group_gets_the_block_its_rows_give_alone(self):
        """Rows keyed ``group * n + node`` give each group the block and columns
        its rows give alone, also where stored self loops add up with I."""
        n = 70_000
        gen = np.random.default_rng(5)
        plain = build_csr(gen.integers(n, size=(3 * n, 2)), n, symmetrize=True)
        picks = [np.sort(gen.choice(n, size=40, replace=False)) for _ in range(3)]
        picks[1][:20] = picks[0][:20]  # groups may share nodes
        picks[1].sort()
        for g in (plain, add_self_loops(plain)):
            blocks, cols = _sym_norm_rows(g, np.concatenate([p + j * n for j, p in enumerate(picks)]))
            assert len(blocks) == 3
            for j, (p, block) in enumerate(zip(picks, blocks)):
                (alone,), alone_cols = _sym_norm_rows(g, p)
                assert np.array_equal(cols[cols // n == j] - j * n, alone_cols)
                assert block.shape == alone.shape
                for x, y in ((block.indptr, alone.indptr), (block.indices, alone.indices),
                             (block.data, alone.data)):
                    assert x.dtype == y.dtype and x.tobytes() == y.tobytes()

    def test_a_row_that_keeps_no_neighbour_reads_itself_alone(self):
        g = build_csr([(0, 1), (1, 2)], 4, symmetrize=True)  # node 3 has degree 0
        expected = np.diag(dense_sym_norm_self_loops(to_dense(g)))
        assert np.allclose(expected, 1.0 / (g.degrees + 1.0), rtol=1e-15, atol=0.0)
        rows, none = np.array([1, 3]), np.zeros(0, dtype=np.int64)
        for (block,), cols in (_sym_norm_rows(g, rows, none, np.zeros(2, dtype=np.int64)),
                            _sym_norm_rows(g, np.array([3]))):
            assert np.array_equal(cols, rows[-block.shape[0]:])
            assert np.array_equal(block.toarray(), np.diag(expected[cols]))


class TestInducedSubgraph:
    def test_full_node_set_is_identity(self, rng):
        dense, edges = random_undirected(rng, 7, 0.5)
        g = build_csr(edges, 7, symmetrize=True)
        sub, gids = induced_subgraph(g, np.arange(7))
        assert sub is g
        assert gids.tolist() == list(range(7))

    def test_full_node_set_skips_the_duplicate_sort(self, rng, monkeypatch):
        _, edges = random_undirected(rng, 7, 0.5)
        g = build_csr(edges, 7, symmetrize=True)

        def no_sort(*args, **kwargs):
            raise AssertionError("np.unique called on the identity node set")

        monkeypatch.setattr(np, "unique", no_sort)
        assert induced_subgraph(g, np.arange(7))[0] is g

    def test_single_node_without_self_loop(self):
        g = build_csr([(0, 1)], 2, symmetrize=True)
        sub, _ = induced_subgraph(g, [0])
        assert sub.nnz == 0

    def test_triangle_filter_oracle(self):
        g = build_csr([(0, 1), (1, 2), (0, 2)], 3, symmetrize=True)
        sub, gids = induced_subgraph(g, [0, 1])
        kept = {(int(gids[u]), int(gids[v]))
                for u in range(2) for v in neighbors(sub, u)}
        assert kept == {(0, 1), (1, 0)}

    @staticmethod
    def assert_matches_edge_filter(dense, g, nodes):
        sub, gids = induced_subgraph(g, nodes)
        inside = set(int(x) for x in nodes)
        expected = {(u, v) for u in inside for v in inside if dense[u, v]}
        got = {(int(gids[u]), int(gids[v]))
               for u in range(sub.num_nodes) for v in neighbors(sub, u)}
        assert got == expected
        return sub

    def test_random_graphs_match_edge_filter_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 15))
            dense, edges = random_undirected(rng, n, 0.4)
            g = build_csr(edges, n, symmetrize=True)
            self.assert_matches_edge_filter(dense, g, rng.permutation(n)[: int(rng.integers(1, n + 1))])

    def test_permuted_full_node_set_is_a_new_graph(self, rng):
        dense, edges = random_undirected(rng, 9, 0.5)
        g = build_csr(edges, 9, symmetrize=True)
        sub = self.assert_matches_edge_filter(dense, g, np.roll(np.arange(9), 1))
        assert sub is not g

    def test_preserves_caller_node_order(self):
        g = build_csr([(0, 1), (1, 2)], 3, symmetrize=True)
        _, gids = induced_subgraph(g, [2, 0, 1])
        assert gids.tolist() == [2, 0, 1]

    def test_rejects_duplicates_and_out_of_range(self):
        g = build_csr([(0, 1)], 2, symmetrize=True)
        with pytest.raises(ValueError, match="duplicate"):
            induced_subgraph(g, [0, 0])
        with pytest.raises(ValueError, match="out of range"):
            induced_subgraph(g, [0, 5])
        with pytest.raises(ValueError, match="duplicate"):
            induced_subgraph(g, [1, 1])  # as many ids as nodes, not the identity


def test_add_self_loops_idempotent_structure():
    g = build_csr([(0, 1)], 3, symmetrize=True)
    looped = add_self_loops(g)
    assert looped.nnz == g.nnz + 3
    assert structurally_equal(add_self_loops(looped), looped)


def test_graph_is_immutable():
    g = build_csr([(0, 1)], 2, symmetrize=True)
    with pytest.raises(ValueError):
        g.col_indices[0] = 0
