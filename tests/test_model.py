from __future__ import annotations

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from als_graph import harness, model
from als_graph.data import generate_sbm, one_hot
from als_graph.graph import _sym_norm_rows, build_csr, induced_subgraph
from als_graph.model import (
    ModelParams,
    adam_step,
    backward,
    forward,
    init_model,
    init_opt_state,
    sign_precompute,
)
from als_graph.rng import stream
from als_graph.sampling import (
    Batch,
    cluster_batches,
    full_batch,
    neighbor_sample,
    partition_clusters,
)
from als_graph.smoothing import loss_and_grads

from conftest import (
    block_reads,
    central_diff,
    dense_sampled_rows,
    dense_sym_norm_self_loops,
    random_undirected,
    rel_err,
    to_dense,
)


PROTOCOL_CFG = Path(__file__).resolve().parents[1] / "configs" / "protocol.cfg"


def make_batch(n, edges=()):
    g = build_csr(list(edges), n, symmetrize=True)
    return Batch(np.arange(n), np.arange(n), g)


def layered_batch(n, train_local, layer_graphs):
    """A batch with one block per layer graph (input side first), built the way
    ``neighbor_sample`` builds its blocks from its hop graphs."""
    rows, layer_rows, blocks = train_local, [], []
    for g in reversed(layer_graphs):
        layer_rows.append(rows)
        (block,), rows = _sym_norm_rows(g, rows)
        blocks.append(block)
    return Batch(np.arange(n), train_local, layer_blocks=tuple(reversed(blocks)),
                 layer_rows=tuple(reversed(layer_rows)))


def record_sparse_products(monkeypatch) -> list[int]:
    """The width of the dense operand of every sparse CSR or CSC product, in order."""
    widths: list[int] = []
    for cls in (sp.csr_array, sp.csc_array):
        def recording(a, m, real=cls.__matmul__):
            widths.append(m.shape[1])
            return real(a, m)
        monkeypatch.setattr(cls, "__matmul__", recording)
    return widths


def neighbor_dataset():
    return generate_sbm(blocks=3, nodes_per_block=14, p_in=0.3, p_out=0.03,
                        feature_dim=4, train_fraction=0.5, seed=1)


def keep_rule(gen: np.random.Generator, shape, p: float) -> np.ndarray:
    """The documented dropout draw, written out word by word: the low then the
    high 32 bits of each raw 64-bit draw, kept iff at least
    min(round(p * 2^32), 2^32 - 1)."""
    size = int(np.prod(shape))
    raw = gen.bit_generator.random_raw((size + 1) // 2)
    words = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel()[:size]
    return words.reshape(shape) >= min(round(p * 2**32), 2**32 - 1)


class TestForward:
    def test_single_layer_identity_mlp(self, rng):
        feats = rng.standard_normal((4, 5))
        w = np.zeros((5, 3))
        w[:3, :3] = np.eye(3)
        params = ModelParams("mlp", [w], [np.zeros(3)])
        logits, _ = forward(params, make_batch(4), feats, train_mode=False)
        assert np.array_equal(logits, feats[:, :3])

    def test_zero_weights_give_zero_logits(self, rng):
        params = ModelParams("gcn", [np.zeros((4, 3)), np.zeros((3, 2))],
                             [np.zeros(3), np.zeros(2)])
        batch = make_batch(5, [(0, 1), (1, 2)])
        logits, _ = forward(params, batch, rng.standard_normal((5, 4)), train_mode=False)
        assert not logits.any()

    def test_gcn_matches_dense_reference(self, rng):
        dense, edges = random_undirected(rng, 10, 0.4)
        batch = make_batch(10, edges)
        feats = rng.standard_normal((10, 6))
        params = init_model("gcn", [6, 8, 3], dropout=0.0, seed=4)
        logits, _ = forward(params, batch, feats, train_mode=False)
        op = dense_sym_norm_self_loops(dense)
        h = np.maximum(op @ feats @ params.weights[0] + params.biases[0], 0.0)
        expected = op @ h @ params.weights[1] + params.biases[1]
        assert np.abs(logits - expected).max() < 1e-10

    def test_deterministic_with_dropout(self, rng):
        batch = make_batch(6, [(0, 1), (2, 3)])
        feats = rng.standard_normal((6, 4))
        params = init_model("gcn", [4, 8, 3], dropout=0.5, seed=1)
        a, _ = forward(params, batch, feats, train_mode=True, seed=42)
        b, _ = forward(params, batch, feats, train_mode=True, seed=42)
        c, _ = forward(params, batch, feats, train_mode=True, seed=43)
        assert a.tobytes() == b.tobytes()
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_dropout_keep_rate_is_one_minus_p(self, p):
        n = 2**17
        keep = model._dropout_keep(stream(7), (n // 64, 64), p)
        assert keep.dtype == np.dtype(bool) and keep.shape == (n // 64, 64)
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(keep.mean() - (1 - p)) < 5 * sigma
        # bit for bit the documented rule, including an odd entry count
        assert np.array_equal(model._dropout_keep(stream(8), (7, 5), p),
                              keep_rule(stream(8), (7, 5), p))

    def test_dropout_threshold_near_one_does_not_overflow(self):
        # round(p * 2^32) is 2^32 here; a threshold wrapped to 0 would keep every entry
        p = 1 - 2**-40
        assert round(p * 2**32) == 2**32
        assert not model._dropout_keep(stream(7), (2**11, 64), p).any()

    def test_train_mode_without_dropout_equals_eval_mode(self, rng):
        dense, edges = random_undirected(rng, 7, 0.4)
        batch = make_batch(7, edges)
        feats = rng.standard_normal((7, 4))
        params = init_model("gcn", [4, 9, 6, 3], dropout=0.0, seed=2)
        a, train_cache = forward(params, batch, feats, train_mode=True, seed=5)
        b, eval_cache = forward(params, batch, feats, train_mode=False)
        assert a.tobytes() == b.tobytes()
        assert train_cache.transposes == eval_cache.transposes
        assert train_cache.scale == eval_cache.scale == 1.0
        for name in ("layer_inputs", "gates"):
            for x, y in zip(getattr(train_cache, name), getattr(eval_cache, name)):
                assert x.tobytes() == y.tobytes()
        assert train_cache.logits.tobytes() == eval_cache.logits.tobytes()

    def test_dropout_off_outside_train_mode(self, rng):
        batch = make_batch(4, [(0, 1)])
        feats = rng.standard_normal((4, 3))
        params = init_model("mlp", [3, 6, 2], dropout=0.9, seed=0)
        a, _ = forward(params, batch, feats, train_mode=False, seed=1)
        b, _ = forward(params, batch, feats, train_mode=False, seed=2)
        assert np.array_equal(a, b)

    def test_mlp_builds_no_operator(self):
        d = neighbor_dataset()
        batch = cluster_batches(d, partition_clusters(d.graph, 4, seed=0), 2, seed=0)[0]
        assert batch.graph is not d.graph
        params = init_model("mlp", [4, 6, 3], dropout=0.5, seed=0)
        logits, cache = forward(params, batch, d.features[batch.global_ids], train_mode=True)
        backward(params, cache, np.ones_like(logits))
        assert "_sym_norm_op" not in vars(batch.graph)  # the cached operator was never built
        gcn = init_model("gcn", [4, 6, 3], dropout=0.5, seed=0)
        forward(gcn, batch, d.features[batch.global_ids], train_mode=True)
        assert "_sym_norm_op" in vars(batch.graph)

    def test_mlp_ignores_graph(self, rng):
        feats = rng.standard_normal((5, 4))
        params = init_model("mlp", [4, 6, 2], dropout=0.0, seed=3)
        sparse_logits, _ = forward(params, make_batch(5), feats, train_mode=False)
        dense_logits, _ = forward(params, make_batch(5, [(0, 1), (1, 2), (3, 4)]), feats,
                                  train_mode=False)
        assert np.array_equal(sparse_logits, dense_logits)

    def test_permutation_equivariance(self, rng):
        dense, edges = random_undirected(rng, 8, 0.4)
        feats = rng.standard_normal((8, 5))
        params = init_model("gcn", [5, 7, 3], dropout=0.0, seed=9)
        base, _ = forward(params, make_batch(8, edges), feats, train_mode=False)
        for _ in range(5):
            perm = rng.permutation(8)
            inv = np.argsort(perm)
            permuted_edges = [(inv[u], inv[v]) for u, v in edges]
            permuted, _ = forward(params, make_batch(8, permuted_edges), feats[perm],
                                  train_mode=False)
            assert np.abs(permuted - base[perm]).max() < 1e-12

    def test_shape_mismatch(self, rng):
        params = init_model("mlp", [4, 2], dropout=0.0, seed=0)
        with pytest.raises(ValueError, match="width"):
            forward(params, make_batch(3), rng.standard_normal((3, 5)), train_mode=False)


class TestBackward:
    def test_zero_dlogits_gives_zero_grads(self, rng):
        batch = make_batch(5, [(0, 1), (1, 2)])
        params = init_model("gcn", [3, 4, 2], dropout=0.0, seed=2)
        logits, cache = forward(params, batch, rng.standard_normal((5, 3)), train_mode=False)
        wgrads, bgrads = backward(params, cache, np.zeros_like(logits))
        assert all(not g.any() for g in wgrads + bgrads)

    def test_additive_in_dlogits(self, rng):
        batch = make_batch(6, [(0, 1), (2, 3), (4, 5)])
        params = init_model("gcn", [4, 5, 3], dropout=0.0, seed=7)
        feats = rng.standard_normal((6, 4))
        logits, _ = forward(params, batch, feats, train_mode=False)
        da, db = rng.standard_normal(logits.shape), rng.standard_normal(logits.shape)

        def grads(dlogits):  # backward consumes its cache: one fresh forward each
            return backward(params, forward(params, batch, feats, train_mode=False)[1], dlogits)
        wa, ba = grads(da)
        wb, bb = grads(db)
        wsum, bsum = grads(da + db)
        for combined, x, y in zip(wsum + bsum, wa + ba, wb + bb):
            assert np.abs(combined - (x + y)).max() < 1e-12

    # [6, 3, 7, 2] narrows then widens, so a projected-first layer's adz W^T
    # feeds a lower ReLU layer; with dropout the masks are fixed by the seed
    @pytest.mark.parametrize("arch, dims, dropout", [
        pytest.param(arch, dims, dropout, id=arch + tag)
        for dims, dropout, tag in (([4, 5, 3], 0.0, ""),
                                   ([6, 3, 7, 2], 0.0, "-narrow_widen"),
                                   ([6, 3, 7, 2], 0.5, "-narrow_widen-dropout"))
        for arch in ("gcn", "mlp")
    ])
    def test_full_pipeline_matches_finite_differences(self, arch, dims, dropout):
        gen = np.random.default_rng(0)
        dense, edges = random_undirected(gen, 9, 0.4)
        batch = make_batch(9, edges)
        feats = gen.standard_normal((9, dims[0]))
        labels = gen.integers(dims[-1], size=9)
        hard = one_hot(labels, dims[-1])
        params = init_model(arch, dims, dropout=dropout, seed=3)
        # nonzero biases keep rows whose ReLU inputs all died off the kink
        params.biases[:] = [0.1 * gen.standard_normal(b.shape) for b in params.biases]

        def total() -> float:
            logits, _ = forward(params, batch, feats, train_mode=True, seed=11)
            return loss_and_grads(logits, hard)[0].total

        logits, cache = forward(params, batch, feats, train_mode=True, seed=11)
        _, dlogits, _ = loss_and_grads(logits, hard)
        wgrads, bgrads = backward(params, cache, dlogits)
        for analytic, array in zip(wgrads + bgrads, params.weights + params.biases):
            assert rel_err(analytic, central_diff(total, array)) < 1e-5

    def test_operator_products_take_the_narrower_side(self, rng, monkeypatch):
        _, edges = random_undirected(rng, 8, 0.4)
        whole = make_batch(8, edges)
        neighbor = self._neighbor_batch()
        for batch in (whole, neighbor):
            batch.blocks(3)  # builds a graph's cached operator outside the recording
            widths = record_sparse_products(monkeypatch)
            dims = [3, 5, 7, 2]  # widens, widens, narrows
            params = init_model("gcn", dims, dropout=0.0, seed=0)
            logits, cache = forward(params, batch, rng.standard_normal((batch.num_nodes, 3)),
                                    train_mode=False)
            narrower = [min(a, b) for a, b in zip(dims[:-1], dims[1:])]
            assert widths == narrower
            widths.clear()
            backward(params, cache, rng.standard_normal(logits.shape))
            # top layer first; the first layer needs no input gradient
            assert widths == narrower[:0:-1]
            monkeypatch.undo()

    def test_layered_batch_uses_per_layer_graphs(self, rng):
        g_all = build_csr([(0, 1), (1, 2), (2, 3)], 4, symmetrize=True)
        lower = build_csr([(0, 1), (2, 3)], 4, symmetrize=True)
        upper = build_csr([(1, 2)], 4, symmetrize=True)
        layered = layered_batch(4, np.array([1]), (lower, upper))
        flat = Batch(np.arange(4), np.array([1]), g_all)
        feats = rng.standard_normal((4, 2))
        params = init_model("gcn", [2, 4, 2], dropout=0.0, seed=5)
        params.biases[:] = [0.1 * rng.standard_normal(b.shape) for b in params.biases]
        a, _ = forward(params, layered, feats, train_mode=False)
        b, _ = forward(params, flat, feats, train_mode=False)
        # dense per-layer oracle, read at the loss rows
        (w0, w1), (b0, b1) = params.weights, params.biases
        h = np.maximum(dense_sym_norm_self_loops(to_dense(lower)) @ feats @ w0 + b0, 0.0)
        expected = dense_sym_norm_self_loops(to_dense(upper)) @ h @ w1 + b1
        assert np.abs(a[layered.loss_rows] - expected[layered.train_local]).max() < 1e-12
        assert not np.allclose(a[layered.loss_rows], b[flat.loss_rows])
        with pytest.raises(ValueError, match="depth"):
            bad = Batch(np.arange(4), np.array([1]), layer_blocks=layered.layer_blocks[:1],
                        layer_rows=layered.layer_rows[:1])
            forward(params, bad, feats, train_mode=False)

    # a neighbor batch of the block-model graph whose three layers output
    # strictly fewer rows from the input side up
    @staticmethod
    def _neighbor_batch(dataset=None):
        d = neighbor_dataset() if dataset is None else dataset
        batch = neighbor_sample(d, [np.flatnonzero(d.train_mask)[:4]], [2, 2, 2], seed=2)[0]
        sizes = [r.size for r in batch.layer_rows]
        assert sizes[2] < sizes[1] < sizes[0] < batch.num_nodes  # the restriction is exercised
        return batch

    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_neighbor_batch_matches_finite_differences(self, dropout):
        gen = np.random.default_rng(4)
        batch = self._neighbor_batch()
        dims = [6, 3, 7, 2]  # narrows (A(HW)), widens ((AH)W), narrows
        feats = gen.standard_normal((batch.num_nodes, dims[0]))
        hard = one_hot(gen.integers(dims[-1], size=batch.train_local.size), dims[-1])
        params = init_model("gcn", dims, dropout=dropout, seed=3)
        params.biases[:] = [0.1 * gen.standard_normal(b.shape) for b in params.biases]

        def total() -> float:
            logits, _ = forward(params, batch, feats, train_mode=True, seed=11)
            return loss_and_grads(logits[batch.loss_rows], hard)[0].total

        logits, cache = forward(params, batch, feats, train_mode=True, seed=11)
        _, dtrain, _ = loss_and_grads(logits[batch.loss_rows], hard)
        dlogits = np.zeros_like(logits)
        dlogits[batch.loss_rows] = dtrain
        wgrads, bgrads = backward(params, cache, dlogits)
        for analytic, array in zip(wgrads + bgrads, params.weights + params.biases):
            assert rel_err(analytic, central_diff(total, array)) < 1e-5

    def test_full_fanout_seed_logits_equal_the_whole_graph_forward(self):
        """With fanouts at or above the maximum degree nothing is dropped, so
        the seeds' logits are the whole-graph forward's rows to a few ulps
        (the benchmark's ``neighbor`` graph, seed 3, one 64-seed batch)."""
        cfg = harness.build_config({"sampler.kind": "neighbor", "sampler.fanouts": "10,10,10",
                                    "sampler.seeds_per_batch": "64", "sbm.seed": "3"})
        d = harness.build_dataset(cfg)
        fanout = 10**6
        assert fanout >= d.graph.degrees.max()
        seeds = np.flatnonzero(d.train_mask)[:64]
        batch = neighbor_sample(d, [seeds], [fanout] * cfg.depth, seed=3)[0]
        dims = [d.features.shape[1]] + [cfg.hidden] * (cfg.depth - 1) + [d.num_classes]
        params = init_model("gcn", dims, dropout=0.0, seed=3)
        logits, _ = forward(params, batch, d.features[batch.global_ids], train_mode=False)
        whole, _ = forward(params, full_batch(d), d.features, train_mode=False)
        assert np.abs(logits[batch.loss_rows] - whole[seeds]).max() <= 4 * np.spacing(
            np.abs(whole).max())

    def test_layered_batch_computes_only_the_rows_the_next_layer_reads(self, rng):
        d = neighbor_dataset()
        batch = self._neighbor_batch(d)
        n, ids = batch.num_nodes, batch.global_ids
        # each layer's operator at batch height: the whole graph's dense oracle
        # on the picks read from the block's columns (no stored loops here)
        ops = [dense_sampled_rows(to_dense(d.graph), {u: cols[cols != u] for u, cols in
                                                      block_reads(batch, layer).items()})
               for layer in range(3)]
        ops = [op[np.ix_(ids, ids)] for op in ops]
        # expected output rows, from the top: the seeds, then each layer's
        # rows plus the neighbours they drew in the layer above
        expected = [None, None, batch.train_local]
        for layer in (2, 1):
            expected[layer - 1] = np.flatnonzero(ops[layer][expected[layer]].any(axis=0))
        sizes = [rows.size for rows in expected]
        feats = rng.standard_normal((n, 5))
        params = init_model("gcn", [5, 8, 8, 3], dropout=0.5, seed=0)
        logits, cache = forward(params, batch, feats, train_mode=True, seed=1)
        assert [z.shape[0] for z in cache.gates + [cache.logits]] == sizes
        assert [op.T.shape for op in cache.transposes] == [(sizes[0], n), (sizes[1], sizes[0]),
                                                         (sizes[2], sizes[1])]
        assert cache.scale == 2.0
        # dense oracle at full batch height; each layer's masks are drawn at the
        # height of its output rows and scattered to them (other rows are unread)
        gen = stream(1)
        h = feats
        for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
            z = ops[layer] @ h @ w + b
            if layer < 2:
                keep = np.zeros(z.shape, dtype=bool)
                keep[expected[layer]] = keep_rule(gen, (sizes[layer], z.shape[1]), 0.5)
                h = np.maximum(z, 0.0) * (keep / 0.5)
                # one mask per layer: its ReLU gate and keep mask at its output rows
                assert np.array_equal(cache.gates[layer], ((z > 0) & keep)[expected[layer]])
        assert np.abs(logits - z[batch.train_local]).max() < 1e-12
        # the backward pass keeps the same rows
        wgrads, _ = backward(params, cache, rng.standard_normal(logits.shape))
        assert [g.shape for g in wgrads] == [w.shape for w in params.weights]
        # an mlp reads no neighbours: every layer computes the seed rows only
        mlp = init_model("mlp", [5, 8, 8, 3], dropout=0.5, seed=0)
        logits, cache = forward(mlp, batch, feats, train_mode=True, seed=1)
        assert [z.shape[0] for z in cache.gates + [cache.logits]] == [batch.train_local.size] * 3
        gen = stream(1)
        h = feats[batch.train_local]
        for layer, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
            z = h @ w + b
            if layer < 2:
                h = np.maximum(z, 0.0) * (keep_rule(gen, z.shape, 0.5) / 0.5)
        assert np.abs(logits - z).max() < 1e-12

    def test_stale_cache_rejected(self, rng):
        batch = make_batch(3, [(0, 1)])
        feats = rng.standard_normal((3, 2))
        params = init_model("gcn", [2, 3, 2], dropout=0.0, seed=1)
        other = init_model("gcn", [2, 3, 2], dropout=0.0, seed=2)
        logits, cache = forward(params, batch, feats, train_mode=False)
        with pytest.raises(ValueError, match="stale"):
            backward(other, cache, np.zeros_like(logits))


class TestWholeGraphBackward:
    """A graph batch after ``restrict_backward``: every row forward, and a
    backward over the loss rows' receptive field only."""

    N = 40
    # depth 4 restricts hidden layers 1 and 2 and the logits; layer 0 back-propagates
    # at full height. Widen or square then narrow, and narrow, widen, narrow, narrow.
    DIMS = [[4, 8, 8, 8, 3], [6, 3, 7, 5, 2], [4, 8, 3], [4, 3]]
    DIM_IDS = ["widen_square_narrow", "narrow_widen_narrow", "depth2", "depth1"]

    @classmethod
    def batches(cls, depth: int = 4) -> tuple[Batch, Batch]:
        """The same sparse graph batch twice, the second restricted; three loss rows."""
        _, edges = random_undirected(np.random.default_rng(3), cls.N, 0.06)
        g = build_csr(edges, cls.N, symmetrize=True)
        train = np.array([3, 17, 30])
        full, restricted = Batch(np.arange(cls.N), train, g), Batch(np.arange(cls.N), train, g)
        restricted.restrict_backward(depth)
        # the rows each layer outputs (None: every row), input side first
        sizes = [cls.N if r is None else r.size for r in restricted._backward[1][1:]]
        if depth == 4:
            assert sizes == [cls.N, 9, 4, 3]  # strict at two hidden layers
        return full, restricted

    @pytest.mark.parametrize("dims", DIMS, ids=DIM_IDS)
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_gradients_match_the_full_height_backward(self, dims, dropout):
        full, restricted = self.batches(len(dims) - 1)
        gen = np.random.default_rng(1)
        feats = gen.standard_normal((self.N, dims[0]))
        params = init_model("gcn", dims, dropout=dropout, seed=2)
        params.biases[:] = [0.1 * gen.standard_normal(b.shape) for b in params.biases]
        dlogits = np.zeros((self.N, dims[-1]))
        dlogits[full.train_local] = gen.standard_normal((full.train_local.size, dims[-1]))
        runs = []
        for batch in (full, restricted):
            logits, cache = forward(params, batch, feats, train_mode=True, seed=7)
            runs.append((logits, *backward(params, cache, dlogits)))
        (logits_a, wa, ba), (logits_b, wb, bb) = runs
        assert logits_a.tobytes() == logits_b.tobytes()  # every row, bit for bit
        for a, b in zip(wa, wb):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()
        assert all(np.array_equal(a, b) for a, b in zip(ba, bb))

    @pytest.mark.parametrize("dims", DIMS[:2], ids=DIM_IDS[:2])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_training_path_matches_finite_differences(self, dims, dropout):
        """The harness's whole-graph step: a read-only feature matrix (A X kept on
        the batch), the loss on the loss rows, dlogits scattered to them."""
        _, batch = self.batches(len(dims) - 1)
        gen = np.random.default_rng(4)
        feats = gen.standard_normal((self.N, dims[0]))
        feats.setflags(write=False)
        hard = one_hot(gen.integers(dims[-1], size=batch.train_local.size), dims[-1])
        params = init_model("gcn", dims, dropout=dropout, seed=3)
        params.biases[:] = [0.1 * gen.standard_normal(b.shape) for b in params.biases]

        def total() -> float:
            logits, _ = forward(params, batch, feats, train_mode=True, seed=11)
            return loss_and_grads(logits[batch.loss_rows], hard)[0].total

        logits, cache = forward(params, batch, feats, train_mode=True, seed=11)
        _, dtrain, _ = loss_and_grads(logits[batch.loss_rows], hard)
        dlogits = np.zeros_like(logits)
        dlogits[batch.loss_rows] = dtrain
        wgrads, bgrads = backward(params, cache, dlogits)
        for analytic, array in zip(wgrads + bgrads, params.weights + params.biases):
            assert rel_err(analytic, central_diff(total, array)) < 1e-5

    def test_cache_holds_the_receptive_field_rows(self):
        """The benchmark's ``protocol`` graph at seed 1: 96 loss rows read 1,115
        rows, which read all 2,000."""
        cfg = harness.build_config({**harness.load_config_file(PROTOCOL_CFG), "sbm.seed": "1"})
        d = harness.build_dataset(cfg)
        hops = [d.train_mask]  # each layer's rows, from the top: the rows within k hops
        for _ in range(cfg.depth - 1):
            hops.insert(0, hops[0] | (d.graph._scipy @ hops[0] > 0))
        assert [int(m.sum()) for m in hops] == [2000, 1115, 96]
        batch = full_batch(d)
        batch.restrict_backward(cfg.depth)
        dims = [d.features.shape[1]] + [cfg.hidden] * (cfg.depth - 1) + [d.num_classes]
        params = init_model("gcn", dims, dropout=0.5, seed=1)
        logits, cache = forward(params, batch, d.features, train_mode=True, seed=2)
        whole, full_cache = forward(params, full_batch(d), d.features, train_mode=True, seed=2)
        assert logits.tobytes() == whole.tobytes()
        # A X and the gates at layer 0's rows, A H at layer 1's, and layer 2's input H at
        # the rows it reads, which are layer 1's
        assert [x.shape[0] for x in cache.layer_inputs] == [2000, 1115, 1115]
        for layer, mask in enumerate(hops[:2]):
            # the ReLU gate and dropout keep mask in one
            assert np.array_equal(cache.gates[layer], full_cache.gates[layer][mask])
        assert cache.scale == full_cache.scale == 2.0
        assert np.array_equal(cache.layer_inputs[2], full_cache.layer_inputs[2][hops[1]])
        assert np.array_equal(cache.logit_rows, np.flatnonzero(hops[2]))
        assert [op.shape for op in cache.transposes[1:]] == [(2000, 1115), (1115, 96)]

    def test_dlogits_outside_the_loss_rows_are_rejected(self, rng):
        _, batch = self.batches()
        params = init_model("gcn", [2, 4, 4, 4, 2], dropout=0.0, seed=0)
        logits, cache = forward(params, batch, rng.standard_normal((self.N, 2)), train_mode=False)
        dlogits = np.zeros_like(logits)
        dlogits[0] = 1.0  # row 0 carries no loss
        with pytest.raises(ValueError, match="outside the rows"):
            backward(params, cache, dlogits)

    def test_no_restriction_where_too_few_rows_are_left_out(self):
        """Half the rows carry a loss, and their receptive field leaves out fewer
        rows than that: the backward would copy more than it saves."""
        _, edges = random_undirected(np.random.default_rng(3), self.N, 0.06)
        g = build_csr(edges, self.N, symmetrize=True)
        batch = Batch(np.arange(self.N), np.arange(0, self.N, 2), g)
        batch.restrict_backward(3)
        op = g._sym_norm_op
        assert batch.blocks(3) == ((op, op, None, None),) * 3

    def test_blocks_are_built_once_and_only_for_a_graph(self):
        _, batch = self.batches()
        built = batch._backward
        batch.restrict_backward(3)
        assert batch._backward is built
        with pytest.raises(ValueError, match="depth 3"):
            batch.blocks(3)
        with pytest.raises(ValueError, match="only a graph batch"):
            TestBackward._neighbor_batch().restrict_backward(3)


class TestFirstProduct:
    """A graph batch forms layer 0's A X once for a read-only feature matrix."""

    def test_a_different_feature_matrix_never_reads_the_kept_product(self, monkeypatch):
        d = neighbor_dataset()
        batch = full_batch(d)
        params = init_model("gcn", [4, 8, 3], dropout=0.0, seed=0)  # (AH)W, then A(HW)
        x = d.features.copy()
        x.setflags(write=False)
        first, _ = forward(params, batch, x, train_mode=False)
        widths = record_sparse_products(monkeypatch)
        again, _ = forward(params, batch, x, train_mode=False)
        assert again.tobytes() == first.tobytes()
        assert widths == [3]  # only layer 1's product: A X was not formed again
        y = x + 1.0
        y.setflags(write=False)
        writeable = x.copy()
        for other in (y, writeable, writeable):
            logits, _ = forward(params, batch, other, train_mode=False)
            fresh, _ = forward(params, full_batch(d), other.copy(), train_mode=False)
            assert logits.tobytes() == fresh.tobytes()
            writeable += 1.0  # a writeable matrix may change between forwards
        assert batch.first_product(y) is batch.first_product(y)
        assert batch.first_product(writeable) is not batch.first_product(writeable)


class TestMemoryContract:
    """The forward keeps only what the backward reads, and the backward consumes it."""

    @pytest.mark.parametrize("layered", [False, True], ids=["whole_graph", "neighbor"])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    @pytest.mark.parametrize("arch", ["gcn", "mlp"])
    def test_inputs_and_parameters_are_never_written(self, arch, dropout, layered):
        d = neighbor_dataset()
        batch = TestBackward._neighbor_batch(d)
        if not layered:  # the same rows as one batch graph, every row computed
            sub, ids = induced_subgraph(d.graph, batch.global_ids)
            batch = Batch(ids, batch.train_local, sub)
        gen = np.random.default_rng(5)
        dims = [6, 3, 7, 2]  # narrows (A(HW)), widens ((AH)W), narrows
        feats = gen.standard_normal((batch.num_nodes, dims[0]))
        params = init_model(arch, dims, dropout=dropout, seed=3)
        params.biases[:] = [gen.standard_normal(b.shape) for b in params.biases]
        arrays = [feats, *params.weights, *params.biases]
        before = [a.tobytes() for a in arrays]
        logits, cache = forward(params, batch, feats, train_mode=True, seed=2)
        dlogits = gen.standard_normal(logits.shape)
        dlogits_before = dlogits.tobytes()
        assert [op is None for op in cache.transposes] == [arch == "mlp"] * 3
        backward(params, cache, dlogits)
        assert [a.tobytes() for a in arrays] == before
        assert dlogits.tobytes() == dlogits_before

    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_cache_holds_bool_gates_and_masks_and_is_released(self, dropout):
        batch = TestBackward._neighbor_batch()
        params = init_model("gcn", [6, 3, 7, 2], dropout=dropout, seed=3)
        feats = np.random.default_rng(0).standard_normal((batch.num_nodes, 6))
        logits, cache = forward(params, batch, feats, train_mode=True, seed=2)
        assert cache.logits is logits
        # one bool array per hidden layer, the ReLU gate and dropout keep mask in one,
        # at the rows that layer outputs
        assert [g.dtype for g in cache.gates] == [np.dtype(bool)] * 2
        assert [g.shape for g in cache.gates] == [(rows.size, w.shape[1]) for rows, w in
                                                  zip(batch.layer_rows, params.weights[:2])]
        assert cache.scale == 1.0 / (1.0 - dropout)
        backward(params, cache, np.ones_like(logits))
        assert cache.layer_inputs == [None] * 3
        assert cache.gates == [None] * 2

    def test_second_backward_on_one_cache_is_rejected(self, rng):
        batch = make_batch(4, [(0, 1), (2, 3)])
        params = init_model("gcn", [3, 5, 2], dropout=0.0, seed=1)
        logits, cache = forward(params, batch, rng.standard_normal((4, 3)), train_mode=False)
        backward(params, cache, np.ones_like(logits))
        with pytest.raises(ValueError, match="consumed cache"):
            backward(params, cache, np.ones_like(logits))

    @staticmethod
    def step_peak(dropout: float, restricted: bool, train_fraction: float = 0.5) -> float:
        """Traced peak of one forward and backward on a 4,000-node whole graph
        (by default half its nodes train rows), widths 16-128-128-8, in n x 128
        float64 arrays."""
        d = generate_sbm(blocks=8, nodes_per_block=500, p_in=0.02, p_out=0.001,
                         feature_dim=16, train_fraction=train_fraction, seed=0)
        batch = full_batch(d)
        if restricted:
            batch.restrict_backward(3)
        params = init_model("gcn", [16, 128, 128, 8], dropout=dropout, seed=0)
        forward(params, batch, d.features, train_mode=True, seed=1)  # builds the cached operator
        tracemalloc.start()
        try:
            logits, cache = forward(params, batch, d.features, train_mode=True, seed=1)
            dlogits = np.zeros_like(logits)
            dlogits[batch.loss_rows] = 1.0
            backward(params, cache, dlogits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (d.num_nodes * 128 * 8)

    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_training_step_peak_is_under_four_activation_arrays(self, dropout):
        """The traced peak is bounded by 4 n x 128 float64 arrays. Keeping float
        pre-activations and masks, and a new array per backward step, read 8.4
        at dropout 0 and 10.4 at dropout 0.5; a cache of bool gates that the
        backward releases, with dropout drawn at row height as 32-bit words,
        read 3.4 and 3.5; freeing each layer's input once ``AH`` is formed
        reads 2.6 and 3.1.
        """
        assert self.step_peak(dropout, restricted=False) <= 4

    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_restricted_step_peak_is_under_four_activation_arrays(self, dropout):
        """Restricting the backward (``Batch.restrict_backward``) never raises the
        peak. Here the 2,000 loss rows read 3,996 of the 4,000 rows. Restricting
        them anyway, with the forward copying the kept rows while the
        full-height arrays were alive, read 3.5 and 3.9 against 2.6 and 3.1;
        with the rows moved within the layer's own array it still read 2.59
        at dropout 0, from the backward's copy of the loss rows' gradients,
        so such a batch is no longer restricted. The thousandth of an array
        (4 KiB) allows for the interpreter's own allocations, which differ by
        up to about a kilobyte from call to call."""
        restricted = self.step_peak(dropout, restricted=True)
        assert restricted <= self.step_peak(dropout, restricted=False) + 1e-3

    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_restricting_few_loss_rows_lowers_the_step_peak(self, dropout):
        """200 loss rows read 2,126 of the 4,000 rows. The restricted step peaks
        at 2.28 and 2.60 arrays, against 2.57 and 3.13 unrestricted; copying
        the kept rows in the forward read 2.97 and 3.10."""
        restricted = self.step_peak(dropout, restricted=True, train_fraction=0.05)
        assert restricted <= self.step_peak(dropout, restricted=False, train_fraction=0.05) - 0.2


class TestAdam:
    def test_zero_grads_keep_params(self):
        values = [np.array([1.0, -2.0]), np.array([[3.0]])]
        before = [v.copy() for v in values]
        state = init_opt_state(values, lr=0.1)
        adam_step(values, [np.zeros(2), np.zeros((1, 1))], state)
        for old, new in zip(before, values):
            assert np.array_equal(old, new)
        assert state.step == 1

    def test_first_step_magnitude_and_sign(self):
        for g in (0.5, -2.0, 1e-3):
            values = [np.array([0.0])]
            state = init_opt_state(values, lr=0.05)
            adam_step(values, [np.array([g])], state)
            (new,) = values
            assert np.sign(new[0]) == -np.sign(g)
            assert abs(new[0]) == pytest.approx(0.05, rel=1e-5)

    def test_three_step_scalar_trace(self):
        # frozen from an independent scalar derivation of the update rule
        expected = [0.9000000024999999, 0.8733662993763179, 0.839323385842558]
        values = [np.array([1.0])]
        state = init_opt_state(values, lr=0.1)
        for g, want in zip([0.4, -0.2, 0.1], expected):
            adam_step(values, [np.array([g])], state)
            assert values[0][0] == pytest.approx(want, abs=1e-12)

    def test_non_finite_gradient_aborts(self):
        # a bad gradient in the last array must leave every earlier array,
        # and the moments and step count, as they were
        values = [np.array([1.0, 2.0]), np.array([3.0])]
        state = init_opt_state(values, lr=0.1)
        adam_step(values, [np.array([0.5, -0.5]), np.array([0.25])], state)
        snapshot = [a.copy() for a in (*values, *state.m, *state.v)]
        with pytest.raises(ValueError, match="non-finite"):
            adam_step(values, [np.array([0.5, 0.5]), np.array([np.nan])], state)
        assert state.step == 1
        for old, new in zip(snapshot, (*values, *state.m, *state.v)):
            assert np.array_equal(old, new)


class TestSignPrecompute:
    def test_zero_hops_returns_features(self, rng):
        g = build_csr([(0, 1)], 3, symmetrize=True)
        x = rng.standard_normal((3, 4))
        assert np.array_equal(sign_precompute(g, x, 0), x)

    def test_width_grows_per_hop(self, rng):
        g = build_csr([(0, 1), (1, 2)], 4, symmetrize=True)
        x = rng.standard_normal((4, 3))
        assert sign_precompute(g, x, 3).shape == (4, 12)

    def test_first_block_matches_dense_product(self, rng):
        dense, edges = random_undirected(rng, 7, 0.5)
        g = build_csr(edges, 7, symmetrize=True)
        x = rng.standard_normal((7, 3))
        out = sign_precompute(g, x, 2)
        expected = dense_sym_norm_self_loops(dense) @ x
        assert np.abs(out[:, 3:6] - expected).max() < 1e-12
        assert np.array_equal(out[:, :3], x)


def test_init_model_bounds_and_bias():
    params = init_model("gcn", [10, 20, 5], dropout=0.3, seed=0)
    bound = np.sqrt(6.0 / 30)
    assert np.abs(params.weights[0]).max() <= bound
    assert not params.biases[0].any()
    assert params.depth == 2
    assert params.weights[-1].shape[1] == 5


def test_model_params_validation():
    with pytest.raises(ValueError, match="chain"):
        ModelParams("mlp", [np.zeros((3, 4)), np.zeros((5, 2))], [np.zeros(4), np.zeros(2)])
    with pytest.raises(ValueError):
        ModelParams("rnn", [np.zeros((3, 4))], [np.zeros(4)])
    weights = [np.zeros((3, 4)), np.zeros((4, 5))]
    with pytest.raises(ValueError, match=r"layer 1 bias has shape \(7,\), expected \(5,\)"):
        ModelParams("mlp", weights, [np.zeros(4), np.zeros(7)])
    with pytest.raises(ValueError, match=r"layer 0 bias has shape \(1, 4\), expected \(4,\)"):
        ModelParams("mlp", weights, [np.zeros((1, 4)), np.zeros(5)])


def test_training_step_smoke(rng):
    d = generate_sbm(blocks=3, nodes_per_block=10, p_in=0.5, p_out=0.05,
                     feature_dim=4, train_fraction=0.5, seed=0)
    batch = full_batch(d)
    params = init_model("gcn", [4, 8, 3], dropout=0.0, seed=0)
    values = params.weights + params.biases
    state = init_opt_state(values, lr=0.05)
    first = None
    for _ in range(30):
        logits, cache = forward(params, batch, d.features, train_mode=False)
        hard = one_hot(d.labels[batch.train_local], 3)
        bd, dtrain, _ = loss_and_grads(logits[batch.train_local], hard)
        if first is None:
            first = bd.total
        dlogits = np.zeros_like(logits)
        dlogits[batch.train_local] = dtrain
        wg, bg = backward(params, cache, dlogits)
        adam_step(values, wg + bg, state)
    assert bd.total < first
