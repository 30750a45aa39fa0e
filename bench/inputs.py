"""Seeded input files for the file-loaded ``many_class`` workload.

The generator is the benchmark's own, not the program's: it writes the four
files that ``data.source = files`` reads (edge list, CSV features, labels,
splits), so the measured worker pays only for loading them. The graph is a
planted-partition model sampled exactly, one block pair at a time.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

BLOCKS = 40
NODES_PER_BLOCK = 150
FEATURE_DIM = 64
FEATURE_NOISE = 1.5
P_IN = 0.05
P_OUT = 5e-4
TRAIN_FRACTION = 0.1
VAL_FRACTION = 0.2


def write_many_class_inputs(directory: Path, seed: int) -> dict[str, Path]:
    """Write edges.tsv, features.csv, labels.csv and splits.csv; return their paths."""
    gen = np.random.default_rng(seed)
    m = NODES_PER_BLOCK
    n = BLOCKS * m
    labels = np.repeat(np.arange(BLOCKS), m)

    pieces = []
    for a in range(BLOCKS):
        for b in range(a, BLOCKS):
            hit = gen.random((m, m)) < (P_IN if a == b else P_OUT)
            if a == b:
                hit = np.triu(hit, k=1)
            u, v = np.nonzero(hit)
            pieces.append(np.stack([a * m + u, b * m + v], axis=1))
    edges = np.concatenate(pieces)

    means = np.zeros((BLOCKS, FEATURE_DIM))
    means[np.arange(BLOCKS), np.arange(BLOCKS) % FEATURE_DIM] = 1.0
    features = means[labels] + FEATURE_NOISE * gen.standard_normal((n, FEATURE_DIM))

    n_train = int(round(m * TRAIN_FRACTION))
    n_val = int(round(m * VAL_FRACTION))
    roles = np.empty(n, dtype=object)
    for block in range(BLOCKS):
        perm = block * m + gen.permutation(m)
        roles[perm[:n_train]] = "train"
        roles[perm[n_train : n_train + n_val]] = "val"
        roles[perm[n_train + n_val :]] = "test"

    directory.mkdir(parents=True, exist_ok=True)
    paths = {name: directory / f"{name}.{ext}" for name, ext in
             (("edges", "tsv"), ("features", "csv"), ("labels", "csv"), ("splits", "csv"))}
    np.savetxt(paths["edges"], edges, fmt="%d", delimiter="\t")
    np.savetxt(paths["features"], features, fmt="%.17g", delimiter=",")
    paths["labels"].write_text("".join(f"{i},{y}\n" for i, y in enumerate(labels)))
    paths["splits"].write_text("".join(f"{i},{r}\n" for i, r in enumerate(roles)))
    return paths
