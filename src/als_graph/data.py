"""Dataset ingestion, synthetic block-model generation, and matrix persistence.

File formats
------------
* edge list: one ``src<TAB>dst`` per line, 0-based ids, ``#`` comments
* labels:    ``node_id,label`` lines
* splits:    ``node_id,{train|val|test}`` lines; absent nodes are unused
* features:  CSV rows for small matrices, or the raw binary format below for
  matrices above one million entries
* binary matrices: 16-byte header ``<4sIII`` = (magic ``ALSM``, element size
  in bytes, rows, cols) followed by little-endian row-major values
"""
from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rng as rng_streams
from .graph import CsrGraph, build_csr

__all__ = [
    "Dataset",
    "SbmParams",
    "generate_sbm",
    "load_dataset",
    "save_dataset",
    "one_hot",
    "read_edge_list",
    "read_labels",
    "write_matrix_binary",
    "read_matrix_binary",
    "write_features",
    "load_features",
]

MATRIX_MAGIC = b"ALSM"
BINARY_THRESHOLD = 1_000_000  # entries above which features go to binary


@dataclass
class Dataset:
    """Graph, node features, hard labels and disjoint train/val/test masks.

    ``labels`` holds a class id in ``[0, num_classes)`` for every node that
    belongs to a mask and ``-1`` for unlabeled nodes.
    """

    graph: CsrGraph
    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_features(self) -> int:
        return int(self.features.shape[1])

    def validate(self) -> "Dataset":
        n = self.graph.num_nodes
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise ValueError("feature matrix rows must match the node count")
        if not np.isfinite(self.features).all():
            raise ValueError("feature matrix contains non-finite values")
        if self.labels.shape != (n,):
            raise ValueError("labels must be one class id per node")
        for a, b in (("train", "val"), ("train", "test"), ("val", "test")):
            if np.any(getattr(self, f"{a}_mask") & getattr(self, f"{b}_mask")):
                raise ValueError(f"{a} and {b} masks overlap")
        masked = self.train_mask | self.val_mask | self.test_mask
        bad = masked & ((self.labels < 0) | (self.labels >= self.num_classes))
        if np.any(bad):
            raise ValueError(f"node {int(np.flatnonzero(bad)[0])} is in a mask but has no valid label")
        return self


def one_hot(labels, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


@dataclass
class SbmParams:
    """Planted-partition generator settings; labels equal the planted block."""

    blocks: int = 4
    nodes_per_block: int = 50
    p_in: float = 0.2
    p_out: float = 0.01
    feature_dim: int = 8
    feature_noise: float = 1.0
    train_fraction: float = 0.5
    val_fraction: float = 0.25
    seed: int = 0

    def validate(self) -> "SbmParams":
        if self.blocks <= 0 or self.nodes_per_block <= 0:
            raise ValueError("blocks and nodes_per_block must be positive")
        for name in ("p_in", "p_out"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.feature_dim <= 0:
            raise ValueError("feature_dim must be positive")
        if self.feature_noise < 0:
            raise ValueError("feature_noise must be nonnegative")
        if self.train_fraction < 0 or self.val_fraction < 0:
            raise ValueError("split fractions must be nonnegative")
        if self.train_fraction + self.val_fraction > 1.0 + 1e-12:
            raise ValueError("split fractions must sum to at most 1")
        return self


def generate_sbm(params: SbmParams) -> Dataset:
    """Sample a block-model dataset; deterministic given ``params.seed``.

    Class means are scaled one-hot basis vectors plus Gaussian noise, and the
    train/val/test masks are drawn per block at the requested fractions (the
    remainder of each block goes to the test mask).
    """
    params.validate()
    gen = rng_streams.stream(params.seed, rng_streams.SBM)
    b, m = params.blocks, params.nodes_per_block
    n = b * m
    labels = np.repeat(np.arange(b, dtype=np.int64), m)

    prob = np.where(labels[:, None] == labels[None, :], params.p_in, params.p_out)
    coin = gen.random((n, n))
    upper = np.triu(coin < prob, k=1)
    edges = np.argwhere(upper)
    graph = build_csr(edges, n, symmetrize=True)

    means = np.zeros((b, params.feature_dim))
    means[np.arange(b), np.arange(b) % params.feature_dim] = 1.0
    features = means[labels] + params.feature_noise * gen.standard_normal((n, params.feature_dim))

    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    n_train = int(round(m * params.train_fraction))
    n_val = min(int(round(m * params.val_fraction)), m - n_train)
    for block in range(b):
        perm = block * m + gen.permutation(m)
        train[perm[:n_train]] = True
        val[perm[n_train : n_train + n_val]] = True
        test[perm[n_train + n_val :]] = True
    return Dataset(graph, features, labels, b, train, val, test).validate()


# ---------------------------------------------------------------------------
# text parsing


def _parse_int(token: str, path, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: malformed {what} {token!r}") from None


def read_edge_list(path, num_nodes: int | None = None) -> tuple[np.ndarray, int]:
    """Parse an edge file; returns (pairs, max_id_plus_one).

    Every node id must lie below ``num_nodes`` when it is given.
    """
    pairs: list[tuple[int, int]] = []
    max_id = -1
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'src<TAB>dst', got {raw.strip()!r}")
            u = _parse_int(fields[0], path, lineno, "node id")
            v = _parse_int(fields[1], path, lineno, "node id")
            if u < 0 or v < 0:
                raise ValueError(f"{path}:{lineno}: negative node id")
            if num_nodes is not None and max(u, v) >= num_nodes:
                raise ValueError(f"{path}:{lineno}: node id {max(u, v)} out of range "
                                 f"for {num_nodes} nodes")
            pairs.append((u, v))
            max_id = max(max_id, u, v)
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return arr, max_id + 1


def _read_id_value_lines(path, what: str):
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'node_id,{what}', got {raw.strip()!r}")
            node = _parse_int(fields[0], path, lineno, "node id")
            if node < 0:
                raise ValueError(f"{path}:{lineno}: negative node id")
            yield lineno, node, fields[1].strip()


def read_labels(path, num_nodes: int | None = None,
                num_classes: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Parse ``node_id,label`` lines into (node ids, class ids), in file order.

    Every node id must lie below ``num_nodes`` and every class id below
    ``num_classes`` when they are given; a node may be listed only once.
    """
    nodes: dict[int, int] = {}
    for lineno, node, value in _read_id_value_lines(path, "label"):
        if num_nodes is not None and node >= num_nodes:
            raise ValueError(f"{path}:{lineno}: node id {node} out of range for {num_nodes} nodes")
        if node in nodes:
            raise ValueError(f"{path}:{lineno}: node {node} listed more than once")
        label = _parse_int(value, path, lineno, "label")
        if label < 0:
            raise ValueError(f"{path}:{lineno}: negative class id")
        if num_classes is not None and label >= num_classes:
            raise ValueError(f"{path}:{lineno}: class id {label} >= {num_classes}")
        nodes[node] = label
    if not nodes:
        raise ValueError(f"{path}: no labels found")
    return np.fromiter(nodes, dtype=np.int64), np.fromiter(nodes.values(), dtype=np.int64)


def load_dataset(edge_path, feature_path, label_path, split_path, *,
                 symmetrize: bool = True, num_classes: int | None = None) -> Dataset:
    """Assemble a Dataset from the four on-disk pieces.

    The feature matrix fixes the node count; every id in the other files must
    lie below it. The class count is inferred from the label file unless
    ``num_classes`` is given.
    """
    features = load_features(feature_path)
    n = features.shape[0]

    edges, _ = read_edge_list(edge_path, n)
    graph = build_csr(edges, n, symmetrize=symmetrize)

    nodes, classes = read_labels(label_path, n, num_classes)
    labels = np.full(n, -1, dtype=np.int64)
    labels[nodes] = classes
    if num_classes is None:
        num_classes = int(classes.max()) + 1

    masks = {"train": np.zeros(n, dtype=bool), "val": np.zeros(n, dtype=bool), "test": np.zeros(n, dtype=bool)}
    assigned = np.zeros(n, dtype=bool)
    for lineno, node, role in _read_id_value_lines(split_path, "split"):
        if node >= n:
            raise ValueError(f"{split_path}:{lineno}: node id {node} out of range for {n} nodes")
        if role not in masks:
            raise ValueError(f"{split_path}:{lineno}: unknown split {role!r}")
        if assigned[node]:
            raise ValueError(f"{split_path}:{lineno}: node {node} assigned to multiple splits")
        assigned[node] = True
        masks[role][node] = True

    return Dataset(graph, features, labels, num_classes,
                   masks["train"], masks["val"], masks["test"]).validate()


def save_dataset(dataset: Dataset, directory) -> dict[str, Path]:
    """Write the four dataset files under ``directory``; returns their paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "edges": directory / "edges.tsv",
        "features": directory / "features.csv",
        "labels": directory / "labels.csv",
        "splits": directory / "splits.csv",
    }
    u, v = dataset.graph.edge_arrays()
    keep = u <= v
    with open(paths["edges"], "w", encoding="utf-8") as fh:
        for a, b in zip(u[keep], v[keep]):
            fh.write(f"{a}\t{b}\n")
    paths["features"] = write_features(dataset.features, directory / "features")
    with open(paths["labels"], "w", encoding="utf-8") as fh:
        for node in np.flatnonzero(dataset.labels >= 0):
            fh.write(f"{node},{dataset.labels[node]}\n")
    with open(paths["splits"], "w", encoding="utf-8") as fh:
        for role in ("train", "val", "test"):
            for node in np.flatnonzero(getattr(dataset, f"{role}_mask")):
                fh.write(f"{node},{role}\n")
    return paths


# ---------------------------------------------------------------------------
# dense matrix persistence


def write_matrix_binary(matrix: np.ndarray, path) -> Path:
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("only 2-d matrices are supported")
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIII", MATRIX_MAGIC, 8, matrix.shape[0], matrix.shape[1]))
        fh.write(matrix.astype("<f8").tobytes())
    return path


def read_matrix_binary(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16:
            raise ValueError(f"{path}: truncated matrix header")
        magic, elem, rows, cols = struct.unpack("<4sIII", header)
        if magic != MATRIX_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if elem not in (4, 8):
            raise ValueError(f"{path}: unsupported element size {elem}")
        dtype = "<f8" if elem == 8 else "<f4"
        # checked against the file before reading, so a forged header allocates nothing
        expected = rows * cols * elem
        available = os.fstat(fh.fileno()).st_size - len(header)
        if available < expected:
            raise ValueError(f"{path}: truncated matrix payload")
        if available > expected:
            raise ValueError(f"{path}: trailing bytes after the matrix payload")
        data = np.frombuffer(fh.read(expected), dtype=dtype)
    return data.astype(np.float64).reshape(rows, cols)


def write_matrix_csv(matrix: np.ndarray, path) -> Path:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for row in np.asarray(matrix, dtype=np.float64):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return path


def read_matrix_csv(path) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", ndmin=2, comments="#")
    return np.asarray(data, dtype=np.float64)


def write_features(matrix: np.ndarray, stem) -> Path:
    """CSV below the size threshold, binary above it; returns the path used."""
    stem = Path(stem)
    if matrix.size > BINARY_THRESHOLD:
        return write_matrix_binary(matrix, stem.with_suffix(".bin"))
    return write_matrix_csv(matrix, stem.with_suffix(".csv"))


def load_features(path) -> np.ndarray:
    """Read a feature matrix, sniffing binary versus CSV from the magic bytes."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == MATRIX_MAGIC:
        return read_matrix_binary(path)
    return read_matrix_csv(path)
