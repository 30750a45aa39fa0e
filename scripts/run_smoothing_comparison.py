#!/usr/bin/env python3
"""Plain vs uniform smoothing vs adaptive smoothing on a synthetic block model.

Reproduces the headline comparison at desk scale: a memorizing plain run grows
over-confident and its test loss climbs, while the smoothed runs stay
calibrated. Writes one report per (method, seed) and prints a summary table.
Each ``--set key=value`` overrides one config key after the other flags, e.g.
``--set sampler.kind=neighbor --set sampler.seeds_per_batch=16`` trains on
neighbor batches of 16 seeds.
"""
from __future__ import annotations

import argparse
from dataclasses import replace
from pathlib import Path

import numpy as np

from als_graph.harness import (
    ExperimentConfig,
    apply_overrides,
    build_config,
    load_config_file,
    run_experiment,
)
from als_graph.reporting import write_report

PROTOCOL_CFG = Path(__file__).resolve().parents[1] / "configs" / "protocol.cfg"


def base_config(args: argparse.Namespace) -> ExperimentConfig:
    return build_config(apply_overrides(load_config_file(PROTOCOL_CFG), [
        f"train.epochs={args.epochs}", f"train.lr={args.lr}",
        f"sampler.num_parts={args.num_parts}", f"sbm.feature_noise={args.feature_noise}",
        *args.set,
    ]))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=100)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--lr", type=float, default=0.03)
    parser.add_argument("--num-parts", type=int, default=2)
    parser.add_argument("--feature-noise", type=float, default=6.0)
    parser.add_argument("--out-dir", type=Path, default=Path("runs/smoothing_comparison"))
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one config key; repeatable")
    args = parser.parse_args()

    try:
        base = base_config(args)
    except ValueError as err:
        parser.error(str(err))
    methods = {
        "plain": replace(base, loss_mode="plain"),
        "ls": replace(base, loss_mode="ls", pacing_kind="constant", alpha_const=0.1),
        "als": base,
    }
    print(f"{'method':6s} {'test_acc':>16s} {'test_loss':>10s} {'train_mmp':>10s}")
    for name, cfg in methods.items():
        finals = []
        for seed in range(args.seeds):
            report = run_experiment(replace(cfg, seed=seed).validate())
            write_report(report, args.out_dir / f"{name}_seed{seed}.json")
            finals.append(report.per_epoch[-1])
        acc = np.array([r.test_acc for r in finals])
        loss = np.mean([r.test_loss for r in finals])
        mmp = np.mean([r.mean_max_prob for r in finals])
        print(f"{name:6s} {acc.mean():8.4f} +- {acc.std(ddof=1) if len(acc) > 1 else 0.0:.4f} "
              f"{loss:10.4f} {mmp:10.4f}")
    print(f"reports under {args.out_dir}")


if __name__ == "__main__":
    main()
