from __future__ import annotations

import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from als_graph import data
from als_graph import rng as rng_streams
from als_graph.data import (
    Dataset,
    generate_sbm,
    load_dataset,
    load_features,
    read_matrix_binary,
    save_dataset,
    write_features,
    write_matrix_binary,
)
from als_graph.graph import build_csr

from conftest import neighbors, structurally_equal


def scipy_adj(dataset):
    return dataset.graph._scipy


def dense_sbm(blocks, nodes_per_block, p_in, p_out, seed, feature_dim=8, feature_noise=1.0,
              train_fraction=0.5, val_fraction=0.25) -> Dataset:
    """The one-shot generator: a dense probability matrix against one (n, n) draw.

    The defaults are ``generate_sbm``'s.
    """
    gen = rng_streams.stream(seed, rng_streams.SBM)
    b, m = blocks, nodes_per_block
    n = b * m
    labels = np.repeat(np.arange(b, dtype=np.int64), m)

    prob = np.where(labels[:, None] == labels[None, :], p_in, p_out)
    coin = gen.random((n, n))
    edges = np.argwhere(np.triu(coin < prob, k=1))
    graph = build_csr(edges, n, symmetrize=True)

    means = np.zeros((b, feature_dim))
    means[np.arange(b), np.arange(b) % feature_dim] = 1.0
    features = means[labels] + feature_noise * gen.standard_normal((n, feature_dim))

    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    n_train = int(round(m * train_fraction))
    n_val = min(int(round(m * val_fraction)), m - n_train)
    for block in range(b):
        perm = block * m + gen.permutation(m)
        train[perm[:n_train]] = True
        val[perm[n_train : n_train + n_val]] = True
        test[perm[n_train + n_val :]] = True
    return Dataset(graph, features, labels, b, train, val, test)


def assert_same_dataset(a: Dataset, b: Dataset) -> None:
    assert a.graph.num_nodes == b.graph.num_nodes
    assert np.array_equal(a.graph.row_offsets, b.graph.row_offsets)
    assert np.array_equal(a.graph.col_indices, b.graph.col_indices)
    assert a.features.tobytes() == b.features.tobytes()
    assert np.array_equal(a.labels, b.labels)
    assert a.num_classes == b.num_classes
    for role in ("train", "val", "test"):
        assert np.array_equal(getattr(a, f"{role}_mask"), getattr(b, f"{role}_mask"))


SBM_LAYOUTS = [  # blocks, nodes_per_block, p_in, p_out
    (3, 37, 0.3, 0.05),
    (5, 12, 1.0, 0.0),
    (1, 60, 0.2, 0.9),
    (7, 13, 0.0, 1.0),
    (4, 1, 1.0, 1.0),
    (2, 50, 0.0, 0.0),
]


class TestChunkedSbm:
    # None keeps the 8 MiB budget (one chunk here); the other row counts do
    # not divide the block sizes, so chunks start and end inside blocks
    @pytest.mark.parametrize("rows", [None, 1, 5, 17, 36])
    @pytest.mark.parametrize("layout", SBM_LAYOUTS)
    def test_equals_dense_draw(self, monkeypatch, layout, rows):
        b, m, p_in, p_out = layout
        if rows is not None:
            monkeypatch.setattr(data, "SBM_CHUNK_BYTES", 8 * b * m * rows)
        params = dict(blocks=b, nodes_per_block=m, p_in=p_in, p_out=p_out, seed=b * m)
        assert_same_dataset(generate_sbm(**params), dense_sbm(**params))

    def test_peak_memory_is_bounded_at_6000_nodes(self):
        # dense_sbm peaks at 684 MB here: two float64 and two bool 6000 x 6000 arrays
        tracemalloc.start()
        try:
            d = generate_sbm(blocks=8, nodes_per_block=750, p_in=0.05, p_out=0.002, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.num_nodes == 6000
        assert peak < 30e6  # 19 MB at 8 MiB chunks, 42 MB at 32 MiB


class TestGenerateSbm:
    def test_disconnected_cliques_limit(self):
        d = generate_sbm(blocks=2, nodes_per_block=3, p_in=1.0, p_out=0.0,
                         feature_dim=2, seed=3)
        # two disjoint 3-cliques: every node has degree 2, no cross-block edges
        assert d.graph.degrees.tolist() == [2] * 6
        for u in range(3):
            assert all(int(v) < 3 for v in neighbors(d.graph, u))

    def test_same_seed_is_byte_identical(self):
        params = dict(blocks=3, nodes_per_block=8, p_in=0.4, p_out=0.05, seed=11)
        a, b = generate_sbm(**params), generate_sbm(**params)
        assert np.array_equal(a.graph.row_offsets, b.graph.row_offsets)
        assert np.array_equal(a.graph.col_indices, b.graph.col_indices)
        assert a.features.tobytes() == b.features.tobytes()
        assert np.array_equal(a.train_mask, b.train_mask)

    def test_edge_count_matches_binomial_oracle(self):
        n, p, seeds = 40, 0.15, 20
        pairs = n * (n - 1) / 2
        counts = []
        for seed in range(seeds):
            d = generate_sbm(blocks=2, nodes_per_block=n // 2, p_in=p, p_out=p, seed=seed)
            counts.append(d.graph.nnz / 2)
        mean = np.mean(counts)
        sigma_of_mean = np.sqrt(pairs * p * (1 - p) / seeds)
        assert abs(mean - pairs * p) < 4 * sigma_of_mean

    def test_zero_p_out_components_are_label_pure(self):
        d = generate_sbm(blocks=4, nodes_per_block=12, p_in=0.6, p_out=0.0, seed=5)
        n_comp, comp = connected_components(scipy_adj(d), directed=False)
        for c in range(n_comp):
            labels = np.unique(d.labels[comp == c])
            assert labels.size == 1

    def test_mask_sizes_match_fractions_per_block(self):
        d = generate_sbm(blocks=3, nodes_per_block=21, train_fraction=0.3, val_fraction=0.2, seed=2)
        for block in range(3):
            ids = slice(block * 21, (block + 1) * 21)
            assert abs(d.train_mask[ids].sum() - 21 * 0.3) <= 1
            assert abs(d.val_mask[ids].sum() - 21 * 0.2) <= 1
        assert not np.any(d.train_mask & d.val_mask)
        assert np.all(d.train_mask | d.val_mask | d.test_mask)

    def test_dataset_with_overlapping_masks_is_rejected_when_built(self):
        d = generate_sbm(blocks=2, nodes_per_block=5, seed=1)
        with pytest.raises(ValueError, match="train and test masks overlap"):
            Dataset(d.graph, d.features, d.labels, d.num_classes,
                    d.train_mask, d.val_mask, d.test_mask | d.train_mask)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError, match="blocks and nodes_per_block must be positive"):
            generate_sbm(blocks=0)
        with pytest.raises(ValueError, match=r"p_in must lie in \[0, 1\]"):
            generate_sbm(p_in=1.5)
        with pytest.raises(ValueError, match="split fractions must sum to at most 1"):
            generate_sbm(train_fraction=0.8, val_fraction=0.5)


class TestDatasetFiles:
    def test_round_trip_equals_original(self, tmp_path):
        d = generate_sbm(blocks=3, nodes_per_block=9, p_in=0.5, p_out=0.05,
                         feature_dim=5, seed=9)
        paths = save_dataset(d, tmp_path)
        loaded = load_dataset(paths["edges"], paths["features"], paths["labels"], paths["splits"])
        assert structurally_equal(loaded.graph, d.graph)
        assert np.array_equal(loaded.features, d.features)
        assert np.array_equal(loaded.labels, d.labels)
        assert loaded.num_classes == d.num_classes
        for role in ("train", "val", "test"):
            assert np.array_equal(getattr(loaded, f"{role}_mask"), getattr(d, f"{role}_mask"))

    def test_small_edge_file_symmetrizes(self, tmp_path):
        (tmp_path / "e.tsv").write_text("0\t1\n1\t2\n# comment\n0\t2\n2\t0\n")
        (tmp_path / "x.csv").write_text("1.0\n2.0\n3.0\n")
        (tmp_path / "y.csv").write_text("0,0\n1,1\n2,1\n")
        (tmp_path / "s.csv").write_text("0,train\n1,val\n2,test\n")
        d = load_dataset(tmp_path / "e.tsv", tmp_path / "x.csv", tmp_path / "y.csv", tmp_path / "s.csv")
        assert d.graph.nnz == 6  # three distinct undirected pairs
        assert d.num_classes == 2

    def test_label_for_missing_node_reports_line(self, tmp_path):
        (tmp_path / "e.tsv").write_text("0\t1\n")
        (tmp_path / "x.csv").write_text("1.0\n2.0\n")
        (tmp_path / "y.csv").write_text("0,0\n2,1\n")
        (tmp_path / "s.csv").write_text("0,train\n")
        with pytest.raises(ValueError, match=r"y\.csv:2"):
            load_dataset(tmp_path / "e.tsv", tmp_path / "x.csv", tmp_path / "y.csv", tmp_path / "s.csv")

    def test_malformed_edge_line_reports_line(self, tmp_path):
        (tmp_path / "e.tsv").write_text("0\t1\n0 1 2\n")
        (tmp_path / "x.csv").write_text("1.0\n2.0\n")
        with pytest.raises(ValueError, match=r"e\.tsv:2"):
            load_dataset(tmp_path / "e.tsv", tmp_path / "x.csv", tmp_path / "x.csv", tmp_path / "x.csv")

    def test_edge_id_beyond_feature_rows_reports_line(self, tmp_path):
        (tmp_path / "e.tsv").write_text("0\t1\n# comment\n1\t5\n")
        (tmp_path / "x.csv").write_text("1.0\n2.0\n3.0\n")
        (tmp_path / "y.csv").write_text("0,0\n")
        (tmp_path / "s.csv").write_text("0,train\n")
        with pytest.raises(ValueError, match=r"e\.tsv:3: node id 5 out of range for 3 nodes"):
            load_dataset(tmp_path / "e.tsv", tmp_path / "x.csv", tmp_path / "y.csv", tmp_path / "s.csv")

    def test_node_listed_twice_rejected(self, tmp_path):
        (tmp_path / "e.tsv").write_text("0\t1\n")
        (tmp_path / "x.csv").write_text("1.0\n2.0\n")
        (tmp_path / "y.csv").write_text("0,0\n1,1\n0,1\n")
        (tmp_path / "s.csv").write_text("0,train\n1,test\n")
        with pytest.raises(ValueError, match=r"y\.csv:3: node 0 listed more than once"):
            load_dataset(tmp_path / "e.tsv", tmp_path / "x.csv", tmp_path / "y.csv", tmp_path / "s.csv")

    @pytest.mark.parametrize("splits, message", [
        ("0,train\n# c\n0,test\n", "s.csv:3: node 0 listed more than once"),
        ("0,train\n2,test\n", "s.csv:2: node id 2 out of range for 2 nodes"),
        ("0,train\nx,test\n", "s.csv:2: malformed node id 'x'"),
    ])
    def test_bad_split_line_names_the_line(self, tmp_path, splits, message):
        (tmp_path / "e.tsv").write_text("0\t1\n")
        (tmp_path / "x.csv").write_text("1.0\n2.0\n")
        (tmp_path / "y.csv").write_text("0,0\n1,1\n")
        (tmp_path / "s.csv").write_text(splits)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_dataset(tmp_path / "e.tsv", tmp_path / "x.csv", tmp_path / "y.csv", tmp_path / "s.csv")

    def test_negative_split_node_rejected(self, tmp_path):
        (tmp_path / "e.tsv").write_text("0\t1\n")
        (tmp_path / "x.csv").write_text("1.0\n2.0\n")
        (tmp_path / "y.csv").write_text("0,0\n1,1\n")
        (tmp_path / "s.csv").write_text("0,train\n-1,test\n")
        with pytest.raises(ValueError, match=r"s\.csv:2: negative node id"):
            load_dataset(tmp_path / "e.tsv", tmp_path / "x.csv", tmp_path / "y.csv", tmp_path / "s.csv")

    def test_mask_node_without_label_rejected(self, tmp_path):
        (tmp_path / "e.tsv").write_text("0\t1\n")
        (tmp_path / "x.csv").write_text("1.0\n2.0\n")
        (tmp_path / "y.csv").write_text("0,0\n")
        (tmp_path / "s.csv").write_text("0,train\n1,test\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{tmp_path / 's.csv'}:2: node 1 has no label in {tmp_path / 'y.csv'}")):
            load_dataset(tmp_path / "e.tsv", tmp_path / "x.csv", tmp_path / "y.csv", tmp_path / "s.csv")


class TestMatrixPersistence:
    def test_binary_round_trip_is_exact(self, tmp_path, rng):
        m = rng.standard_normal((7, 3))
        write_matrix_binary(m, tmp_path / "m.bin")
        assert np.array_equal(read_matrix_binary(tmp_path / "m.bin"), m)
        assert np.array_equal(load_features(tmp_path / "m.bin"), m)  # told from CSV by its magic

    def test_binary_read_peaks_at_one_copy_of_the_payload(self, tmp_path, rng):
        """An f8 payload is read into the returned array, not into bytes first."""
        m = rng.standard_normal((400, 250))
        path = write_matrix_binary(m, tmp_path / "m.bin")
        tracemalloc.start()
        try:
            got = read_matrix_binary(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, m) and peak <= 1.1 * m.nbytes
        assert got.flags.writeable and got.flags.c_contiguous

    def test_f4_payload_reads_as_float64(self, tmp_path, rng):
        m = rng.standard_normal((5, 3)).astype("<f4")
        path = tmp_path / "m.bin"
        path.write_bytes(struct.pack("<4sIII", b"ALSM", 4, 5, 3) + m.tobytes())
        got = read_matrix_binary(path)
        assert got.dtype == np.float64 and np.array_equal(got, m)
        assert got.flags.writeable and got.flags.c_contiguous

    def test_large_features_go_binary(self, tmp_path, rng):
        small = rng.standard_normal((10, 4))
        assert write_features(small, tmp_path / "a").suffix == ".csv"
        big = np.zeros((1100, 1000))
        assert write_features(big, tmp_path / "b").suffix == ".bin"

    def test_trailing_bytes_rejected(self, tmp_path, rng):
        path = write_matrix_binary(rng.standard_normal((2, 3)), tmp_path / "m.bin")
        with open(path, "ab") as fh:
            fh.write(b"\0")
        with pytest.raises(ValueError, match="m.bin: trailing bytes"):
            read_matrix_binary(path)

    def test_forged_header_size_rejected_before_reading(self, tmp_path):
        # 4e9 x 4e9 float64 values claimed by a 16-byte file
        path = tmp_path / "m.bin"
        path.write_bytes(struct.pack("<4sIII", b"ALSM", 8, 4_000_000_000, 4_000_000_000))
        with pytest.raises(ValueError, match="m.bin: truncated matrix payload"):
            read_matrix_binary(path)

    def test_short_payload_rejected(self, tmp_path, rng):
        path = write_matrix_binary(rng.standard_normal((2, 3)), tmp_path / "m.bin")
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="m.bin: truncated matrix payload"):
            read_matrix_binary(path)

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "m.bin").write_bytes(b"XXXX" + b"\0" * 12)
        with pytest.raises(ValueError, match="magic"):
            read_matrix_binary(tmp_path / "m.bin")


class TestFeatureCsv:
    """Every CSV feature error names the file and line; an empty file is rejected on load."""

    @pytest.mark.parametrize("text, message", [
        ("1,2,3\n4,x,6\n", "could not convert string 'x'"),
        ("1,2,3\n4,5\n", "the number of columns changed from 3 to 2"),
        ("", "no matrix rows found"),
        ("# header only\n\n", "no matrix rows found"),
    ])
    def test_error_names_the_file(self, tmp_path, text, message):
        path = tmp_path / "x.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's empty-input warning must not leak
            with pytest.raises(ValueError, match=rf"x\.csv(:2)?: {re.escape(message)}"):
                load_features(path)

    @pytest.mark.parametrize("text, message", [
        ("# c\n1,2\n3,y\n", "3: could not convert string 'y' to float"),
        ("# c\n1,2\n3\n", "3: the number of columns changed from 2 to 1"),
        ("1,2\n\n# c\n3,4,5\n", "4: the number of columns changed from 2 to 3"),
        # float() reads these, numpy does not; the rescan must reject them too
        ("# c\n1,2\n3,1_0\n", "3: could not convert string '1_0' to float"),
        ("# c\n1,2\n3,\u0661\n", "3: could not convert string '\u0661' to float"),
        # numpy reads a non-ASCII space around a number, so the line to name is the next
        ("1,2\u00a0\n3,1_0\n", "2: could not convert string '1_0' to float"),
    ])
    def test_error_names_the_physical_line(self, tmp_path, text, message):
        path = tmp_path / "x.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            load_features(path)
        assert str(excinfo.value) == f"{path}:{message}"

    def test_empty_feature_file_rejected_before_the_other_files(self, tmp_path):
        (tmp_path / "x.csv").write_text("")
        write_matrix_binary(np.zeros((0, 3)), tmp_path / "features.bin")
        write_matrix_binary(np.zeros((4, 0)), tmp_path / "columnless.bin")  # a model would read no input
        for name, what in (("x.csv", "rows"), ("features.bin", "rows"), ("columnless.bin", "columns")):
            with pytest.raises(ValueError, match=rf"{re.escape(name)}: no matrix {what} found"):
                load_dataset(tmp_path / "missing.tsv", tmp_path / name,
                             tmp_path / "missing.csv", tmp_path / "missing.csv")
