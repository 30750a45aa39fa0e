"""The benchmark's three training workloads, as flat config mappings.

Each workload maps the benchmark seed to the ``key = value`` mapping that
``harness.build_config`` accepts, plus an accuracy floor for the correctness
gate. The floors sit several times above chance (1/8 for the two block-model
workloads, 1/40 for ``many_class``) and well below what the runs reach.
"""
from __future__ import annotations

from pathlib import Path

from inputs import write_many_class_inputs

# The acceptance PROTOCOL run of the test suite, with the seed made a parameter.
PROTOCOL = {
    "sbm.blocks": "8", "sbm.nodes_per_block": "250", "sbm.p_in": "0.05",
    "sbm.p_out": "0.002", "sbm.feature_dim": "16", "sbm.feature_noise": "6.0",
    "sbm.train_fraction": "0.05", "sbm.val_fraction": "0.2",
    "sampler.kind": "cluster", "sampler.num_parts": "2", "sampler.parts_per_batch": "2",
    "model.arch": "gcn", "model.depth": "3", "model.hidden": "128", "model.dropout": "0.0",
    "loss.mode": "als", "train.epochs": "100", "train.lr": "0.03",
    "pacing.kind": "linear", "pacing.r": "0.01", "pacing.alpha_max": "0.1",
    "loss.gamma": "0.001", "propagation.beta": "0.1", "propagation.k": "2",
}

NEIGHBOR = {
    "sampler.kind": "neighbor", "sampler.fanouts": "10,10,10",
    "sampler.seeds_per_batch": "64", "train.epochs": "20",
}

MANY_CLASS = {
    "data.source": "files",
    "sampler.kind": "cluster", "sampler.num_parts": "40", "sampler.parts_per_batch": "4",
    "propagation.k": "4", "model.depth": "3", "model.hidden": "64",
    "model.dropout": "0.5", "train.lr": "0.01", "train.epochs": "30",
}

ACC_FLOOR = {"protocol": 0.6, "neighbor": 0.6, "many_class": 0.3}
NAMES = tuple(ACC_FLOOR)


def prepare_inputs(workload: str, seed: int, work_dir: Path) -> dict[str, str]:
    """Write any input files the workload loads; return config keys naming them."""
    if workload != "many_class":
        return {}
    paths = write_many_class_inputs(work_dir / "inputs", seed)
    return {f"data.{name}": str(path) for name, path in paths.items()}


def config_mapping(workload: str, seed: int, input_keys: dict[str, str]) -> dict[str, str]:
    if workload == "protocol":
        return {**PROTOCOL, "sbm.seed": str(seed), "train.seed": str(seed)}
    if workload == "neighbor":
        return {**NEIGHBOR, "sbm.seed": str(seed), "train.seed": str(seed)}
    if workload == "many_class":
        return {**MANY_CLASS, **input_keys, "train.seed": str(seed)}
    raise ValueError(f"unknown workload {workload!r}")
