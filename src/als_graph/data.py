"""Dataset ingestion, synthetic block-model generation, and matrix persistence.

File formats
------------
* edge list: one ``src<TAB>dst`` per line, 0-based ids
* labels:    ``node_id,label`` lines
* splits:    ``node_id,{train|val|test}`` lines; absent nodes are unused
* features:  CSV rows for small matrices, or the raw binary format below for
  matrices above one million entries
* binary matrices: 16-byte header ``<4sIII`` = (magic ``ALSM``, element size
  in bytes, rows, cols) followed by little-endian row-major values

The text formats skip ``#`` comments and blank lines; errors name ``file:line``.
"""
from __future__ import annotations

import os
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rng as rng_streams
from .graph import CsrGraph, build_csr

__all__ = [
    "Dataset",
    "generate_sbm",
    "load_dataset",
    "save_dataset",
    "one_hot",
]

MATRIX_MAGIC = b"ALSM"
BINARY_THRESHOLD = 1_000_000  # entries above which features go to binary
SBM_CHUNK_BYTES = 8 << 20  # uniform draws generate_sbm holds at once


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

    def __post_init__(self) -> None:
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


def one_hot(labels, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def _sbm_edges(gen: np.random.Generator, n: int, m: int, p_in: float, p_out: float) -> np.ndarray:
    """Upper-triangle pairs ``u < v`` with ``coin[u, v] < p``, in row-major order.

    ``coin`` is one ``(n, n)`` uniform draw and ``p`` is ``p_in`` inside a
    block of ``m`` consecutive nodes, ``p_out`` across blocks. The draw is
    made in whole-row chunks of at most ``SBM_CHUNK_BYTES``; rows come off
    the stream in order, so the draws and the pairs equal the one-shot draw.
    """
    rows = max(1, SBM_CHUNK_BYTES // (8 * n))
    us, vs = [], []
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        # columns below ``start`` lie under the diagonal for every row here
        coin = gen.random((stop - start, n))[:, start:]
        hit = coin < p_out
        for lo in range(start - start % m, stop, m):  # blocks that rows start..stop-1 belong to
            r0, r1, c1 = max(lo, start) - start, min(lo + m, stop) - start, lo + m - start
            hit[r0:r1, r0:c1] = coin[r0:r1, r0:c1] < p_in
        del coin  # frees this chunk's draw before the next one is made
        u, v = np.divmod(np.flatnonzero(hit), n - start)
        keep = u < v
        us.append(u[keep] + start)
        vs.append(v[keep] + start)
    return np.column_stack((np.concatenate(us), np.concatenate(vs)))


def generate_sbm(blocks: int = 4, nodes_per_block: int = 50, p_in: float = 0.2,
                 p_out: float = 0.01, feature_dim: int = 8, feature_noise: float = 1.0,
                 train_fraction: float = 0.5, val_fraction: float = 0.25, seed: int = 0) -> Dataset:
    """Sample a planted-partition dataset, labels = planted block; deterministic given ``seed``.

    Each node pair is an edge when its uniform draw falls below ``p_in``
    (same block) or ``p_out`` (different blocks). The ``n x n`` draw is made
    in row chunks of at most ``SBM_CHUNK_BYTES`` (8 MiB), so the draw never
    holds more than that and the rest of the peak grows with the edge list:
    19 MB traced at 6,000 nodes, where the one-shot draw peaks at 684 MB and
    32 MiB chunks at 42 MB. Time stays ``O(n^2)``: about 0.3 s at 6,000
    nodes on one core. Class means are scaled one-hot basis vectors plus
    Gaussian noise, and the train/val/test masks are drawn per block at the
    requested fractions (the remainder of each block goes to the test mask).
    """
    if blocks <= 0 or nodes_per_block <= 0:
        raise ValueError("blocks and nodes_per_block must be positive")
    for name, p in (("p_in", p_in), ("p_out", p_out)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")
    if feature_dim <= 0:
        raise ValueError("feature_dim must be positive")
    if feature_noise < 0:
        raise ValueError("feature_noise must be nonnegative")
    if train_fraction < 0 or val_fraction < 0:
        raise ValueError("split fractions must be nonnegative")
    if train_fraction + val_fraction > 1.0 + 1e-12:
        raise ValueError("split fractions must sum to at most 1")
    gen = rng_streams.stream(seed, rng_streams.SBM)
    b, m = blocks, nodes_per_block
    n = b * m
    labels = np.repeat(np.arange(b, dtype=np.int64), m)
    graph = build_csr(_sbm_edges(gen, n, m, p_in, p_out), n, symmetrize=True)

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


# ---------------------------------------------------------------------------
# text parsing


def scan_lines(lines):
    """1-based ``(lineno, text, stripped line)`` per line not blank once its ``#`` comment is cut."""
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if text:
            yield lineno, text, raw.strip()


def _parse_id(token: str, path, lineno: int, what: str = "node id", num_nodes: int | None = None) -> int:
    """A non-negative integer id, below ``num_nodes`` when it is given."""
    try:
        value = int(token)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: malformed {what} {token!r}") from None
    if value < 0:
        raise ValueError(f"{path}:{lineno}: negative {what}")
    if num_nodes is not None and value >= num_nodes:
        raise ValueError(f"{path}:{lineno}: {what} {value} out of range for {num_nodes} nodes")
    return value


def _read_two_fields(path, sep: str | None, form: str, num_nodes: int | None, once: bool = True):
    """``(lineno, node, second field)`` per line of two fields split at ``sep``
    (None: at whitespace), where errors name the line ``form``. The first field
    is a node id, below ``num_nodes`` when it is given; with ``once`` a node
    may be listed only once."""
    seen: set[int] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, text, raw in scan_lines(fh):
            fields = text.split(sep)
            if len(fields) != 2:
                raise ValueError(f"{path}:{lineno}: expected {form!r}, got {raw!r}")
            node = _parse_id(fields[0], path, lineno, num_nodes=num_nodes)
            if node in seen:
                raise ValueError(f"{path}:{lineno}: node {node} listed more than once")
            if once:
                seen.add(node)
            yield lineno, node, fields[1].strip()


def read_edge_list(path, num_nodes: int | None = None) -> tuple[np.ndarray, int]:
    """Parse an edge file; returns (pairs, max_id_plus_one).

    Every node id must lie below ``num_nodes`` when it is given.
    """
    lines = _read_two_fields(path, None, "src<TAB>dst", num_nodes, once=False)
    pairs = [(src, _parse_id(dst, path, lineno, num_nodes=num_nodes)) for lineno, src, dst in lines]
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return arr, int(arr.max(initial=-1)) + 1


def read_labels(path, num_nodes: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Parse ``node_id,label`` lines into (node ids, class ids), in file order.

    Every node id must lie below ``num_nodes`` when it is given; a node may be
    listed only once.
    """
    nodes: dict[int, int] = {}
    for lineno, node, value in _read_two_fields(path, ",", "node_id,label", num_nodes):
        nodes[node] = _parse_id(value, path, lineno, "class id")
    if not nodes:
        raise ValueError(f"{path}: no labels found")
    return np.fromiter(nodes, dtype=np.int64), np.fromiter(nodes.values(), dtype=np.int64)


def load_dataset(edge_path, feature_path, label_path, split_path) -> Dataset:
    """Assemble a Dataset from the four on-disk pieces.

    The feature matrix fixes the node count; every id in the other files must
    lie below it. Edges are stored in both directions, and the class count is
    one more than the largest class id in the label file.
    """
    features = load_features(feature_path)
    n = features.shape[0]

    edges, _ = read_edge_list(edge_path, n)
    graph = build_csr(edges, n, symmetrize=True)

    nodes, classes = read_labels(label_path, n)
    labels = np.full(n, -1, dtype=np.int64)
    labels[nodes] = classes
    num_classes = int(classes.max()) + 1

    masks = {"train": np.zeros(n, dtype=bool), "val": np.zeros(n, dtype=bool), "test": np.zeros(n, dtype=bool)}
    for lineno, node, role in _read_two_fields(split_path, ",", "node_id,split", n):
        if role not in masks:
            raise ValueError(f"{split_path}:{lineno}: unknown split {role!r}")
        if labels[node] < 0:
            raise ValueError(f"{split_path}:{lineno}: node {node} has no label in {label_path}")
        masks[role][node] = True

    return Dataset(graph, features, labels, num_classes,
                   masks["train"], masks["val"], masks["test"])


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
    np.savetxt(paths["edges"], np.column_stack((u[keep], v[keep])), fmt="%d", delimiter="\t")
    paths["features"] = write_features(dataset.features, directory / "features")
    labeled = np.flatnonzero(dataset.labels >= 0)
    np.savetxt(paths["labels"], np.column_stack((labeled, dataset.labels[labeled])), fmt="%d",
               delimiter=",")
    with open(paths["splits"], "w", encoding="utf-8") as fh:
        for role in ("train", "val", "test"):
            np.savetxt(fh, np.flatnonzero(getattr(dataset, f"{role}_mask")), fmt=f"%d,{role}")
    return paths


# ---------------------------------------------------------------------------
# dense matrix persistence


def write_matrix_binary(matrix: np.ndarray, path) -> Path:
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("only 2-d matrices are supported")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
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
        # an f8 payload is read straight into the result; f4 is converted once
        data = np.fromfile(fh, dtype=dtype, count=rows * cols)
    return data.astype(np.float64, copy=False).reshape(rows, cols)


def write_matrix_csv(matrix: np.ndarray, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for row in np.asarray(matrix, dtype=np.float64):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return path


def _csv_error(path) -> str | None:
    """``path:line: reason`` for the first CSV line that is not numbers in the first
    row's width; None when every line parses."""
    width = None
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, text, _ in scan_lines(fh):
            fields = text.split(",")
            if width is not None and len(fields) != width:
                return f"{path}:{lineno}: the number of columns changed from {width} to {len(fields)}"
            width = len(fields)
            for token in map(str.strip, fields):
                try:  # float() also reads "_" digit groups and non-ASCII digits; numpy does not
                    if "_" in token or not token.isascii():
                        raise ValueError(token)
                    float(token)
                except ValueError:
                    return f"{path}:{lineno}: could not convert string {token!r} to float"
    return None


def read_matrix_csv(path) -> np.ndarray:
    """Comma-separated rows; every error names the file and line, and an empty file is rejected."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # numpy's empty-file warning
        try:
            data = np.loadtxt(path, delimiter=",", ndmin=2, comments="#")
        except ValueError as exc:
            # numpy counts data rows from 0 past comments; rescan for the file's line
            raise ValueError(_csv_error(path) or f"{path}: {exc}") from None
    if data.size == 0:
        raise ValueError(f"{path}: no matrix rows found")
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
    if magic != MATRIX_MAGIC:
        return read_matrix_csv(path)
    features = read_matrix_binary(path)
    if features.shape[0] == 0:  # rejected as an empty CSV is
        raise ValueError(f"{path}: no matrix rows found")
    return features
