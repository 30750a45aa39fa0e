from __future__ import annotations

import struct

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from als_graph.data import (
    SbmParams,
    generate_sbm,
    load_dataset,
    read_matrix_binary,
    save_dataset,
    write_features,
    write_matrix_binary,
)


def scipy_adj(dataset):
    return dataset.graph._scipy


class TestGenerateSbm:
    def test_disconnected_cliques_limit(self):
        d = generate_sbm(SbmParams(blocks=2, nodes_per_block=3, p_in=1.0, p_out=0.0,
                                   feature_dim=2, seed=3))
        # two disjoint 3-cliques: every node has degree 2, no cross-block edges
        assert d.graph.degrees.tolist() == [2] * 6
        for u in range(3):
            assert all(int(v) < 3 for v in d.graph.neighbors(u))

    def test_same_seed_is_byte_identical(self):
        params = SbmParams(blocks=3, nodes_per_block=8, p_in=0.4, p_out=0.05, seed=11)
        a, b = generate_sbm(params), generate_sbm(params)
        assert np.array_equal(a.graph.row_offsets, b.graph.row_offsets)
        assert np.array_equal(a.graph.col_indices, b.graph.col_indices)
        assert a.features.tobytes() == b.features.tobytes()
        assert np.array_equal(a.train_mask, b.train_mask)

    def test_edge_count_matches_binomial_oracle(self):
        n, p, seeds = 40, 0.15, 20
        pairs = n * (n - 1) / 2
        counts = []
        for seed in range(seeds):
            d = generate_sbm(SbmParams(blocks=2, nodes_per_block=n // 2, p_in=p, p_out=p, seed=seed))
            counts.append(d.graph.nnz / 2)
        mean = np.mean(counts)
        sigma_of_mean = np.sqrt(pairs * p * (1 - p) / seeds)
        assert abs(mean - pairs * p) < 4 * sigma_of_mean

    def test_zero_p_out_components_are_label_pure(self):
        d = generate_sbm(SbmParams(blocks=4, nodes_per_block=12, p_in=0.6, p_out=0.0, seed=5))
        n_comp, comp = connected_components(scipy_adj(d), directed=False)
        for c in range(n_comp):
            labels = np.unique(d.labels[comp == c])
            assert labels.size == 1

    def test_mask_sizes_match_fractions_per_block(self):
        params = SbmParams(blocks=3, nodes_per_block=21, train_fraction=0.3, val_fraction=0.2, seed=2)
        d = generate_sbm(params)
        for block in range(3):
            ids = slice(block * 21, (block + 1) * 21)
            assert abs(d.train_mask[ids].sum() - 21 * 0.3) <= 1
            assert abs(d.val_mask[ids].sum() - 21 * 0.2) <= 1
        assert not np.any(d.train_mask & d.val_mask)
        assert np.all(d.train_mask | d.val_mask | d.test_mask)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            generate_sbm(SbmParams(blocks=0))
        with pytest.raises(ValueError):
            generate_sbm(SbmParams(p_in=1.5))
        with pytest.raises(ValueError):
            generate_sbm(SbmParams(train_fraction=0.8, val_fraction=0.5))


class TestDatasetFiles:
    def test_round_trip_equals_original(self, tmp_path):
        d = generate_sbm(SbmParams(blocks=3, nodes_per_block=9, p_in=0.5, p_out=0.05,
                                   feature_dim=5, seed=9))
        paths = save_dataset(d, tmp_path)
        loaded = load_dataset(paths["edges"], paths["features"], paths["labels"], paths["splits"])
        assert loaded.graph.structurally_equal(d.graph)
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

    def test_class_id_above_count_rejected(self, tmp_path):
        (tmp_path / "e.tsv").write_text("0\t1\n")
        (tmp_path / "x.csv").write_text("1.0\n2.0\n")
        (tmp_path / "y.csv").write_text("0,0\n1,7\n")
        (tmp_path / "s.csv").write_text("0,train\n")
        with pytest.raises(ValueError, match=r"y\.csv:2: class id 7"):
            load_dataset(tmp_path / "e.tsv", tmp_path / "x.csv", tmp_path / "y.csv",
                         tmp_path / "s.csv", num_classes=2)

    def test_node_listed_twice_rejected(self, tmp_path):
        (tmp_path / "e.tsv").write_text("0\t1\n")
        (tmp_path / "x.csv").write_text("1.0\n2.0\n")
        (tmp_path / "y.csv").write_text("0,0\n1,1\n0,1\n")
        (tmp_path / "s.csv").write_text("0,train\n1,test\n")
        with pytest.raises(ValueError, match=r"y\.csv:3: node 0 listed more than once"):
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
        with pytest.raises(ValueError, match="no valid label"):
            load_dataset(tmp_path / "e.tsv", tmp_path / "x.csv", tmp_path / "y.csv", tmp_path / "s.csv")


class TestMatrixPersistence:
    def test_binary_round_trip_is_exact(self, tmp_path, rng):
        m = rng.standard_normal((7, 3))
        write_matrix_binary(m, tmp_path / "m.bin")
        assert np.array_equal(read_matrix_binary(tmp_path / "m.bin"), m)

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
