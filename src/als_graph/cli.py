"""Command-line entry point.

Subcommands: propagate | train | analyze-bias | ablate | sweep |
export-relevance. Every experiment subcommand takes ``--config <path>`` plus
trailing ``key=value`` overrides; failures exit nonzero after printing one
machine-readable JSON error line to stderr.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import harness
from .data import one_hot, read_edge_list, read_labels, write_matrix_binary
from .graph import build_csr
from .metrics import bias_stats
from .propagation import check_settings, propagate
from .reporting import write_csv, write_report


def _load_mapping(args) -> dict[str, str]:
    mapping = harness.load_config_file(args.config) if args.config else {}
    return harness.apply_overrides(mapping, args.overrides)


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("overrides", nargs="*", metavar="key=value",
                        help="override individual config keys")


def _make_dir(flag: str, value, directory: Path) -> None:
    try:  # before any work, so a bad output path costs no training
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"{flag} {value}: cannot make directory {directory} ({exc.strerror})") from None


def cmd_propagate(args) -> int:
    if args.num_nodes < 0:
        raise ValueError(f"--num-nodes must be non-negative (0 infers it), got {args.num_nodes}")
    cfg = harness.build_config(harness.load_config_file(args.config) if args.config else {})
    beta = cfg.beta if args.beta is None else args.beta
    k = cfg.k_steps if args.k is None else args.k
    check_settings(beta, k)  # before any input file is read
    edges, inferred = read_edge_list(args.graph, args.num_nodes or None)
    nodes, classes = read_labels(args.labels, args.num_nodes or None)
    num_nodes = args.num_nodes or max(inferred, int(nodes.max()) + 1)
    num_classes = int(classes.max()) + 1
    graph = build_csr(edges, num_nodes, symmetrize=True)
    y0 = np.zeros((num_nodes, num_classes))
    y0[nodes] = one_hot(classes, num_classes)
    write_matrix_binary(propagate(graph, y0, beta, k, args.self_loops or cfg.self_loops), args.out)
    print(f"wrote propagated labels ({num_nodes} x {num_classes}) to {args.out}")
    return 0


def cmd_train(args) -> int:
    out = Path(args.out)
    if out.suffix == ".csv":  # the per-epoch CSV goes to out.with_suffix(".csv")
        raise ValueError(f"--out {out}: the per-epoch CSV would overwrite the report; end it in .json")
    if out.is_dir():
        raise ValueError(f"--out {out}: is a directory; name the report file")
    cfg = harness.build_config(_load_mapping(args))
    if args.checkpoint_dir and cfg.repeats > 1:
        raise ValueError("--checkpoint-dir saves one run's parameters; "
                         f"it cannot be combined with train.repeats = {cfg.repeats}")
    _make_dir("--out", out, out.parent)
    if args.checkpoint_dir:
        _make_dir("--checkpoint-dir", args.checkpoint_dir, Path(args.checkpoint_dir))
    result = None if cfg.repeats > 1 else harness.run_training(cfg)
    report = harness.run_repeated(cfg)[0] if result is None else result.report
    if result is not None and result.refinement is not None:
        relevance = out.with_name(out.stem + ".relevance.csv")
        harness.export_relevance(result.refinement, relevance)
        report.final_relevance_path = str(relevance)
    if args.checkpoint_dir:
        harness.save_checkpoint(args.checkpoint_dir, result.params, result.refinement, cfg)
    json_path, csv_path = write_report(report, out)
    print(f"final test accuracy {report.final_test_acc_mean:.4f} "
          f"(+/- {report.final_test_acc_std:.4f} over {len(report.seeds)} seed(s))")
    print(f"wrote {json_path} and {csv_path}")
    return 0


def cmd_analyze_bias(args) -> int:
    if args.epochs < 1:
        raise ValueError(f"--epochs must be at least 1, got {args.epochs}")
    cfg = harness.build_config(_load_mapping(args))
    dataset = harness.build_dataset(cfg)
    partition = harness.build_partition(cfg, dataset)
    batches = []
    for epoch in range(args.epochs):
        batches.extend(b for b in harness.epoch_batches(cfg, dataset, partition, epoch)
                       if b.train_local.size)
    stats = bias_stats(batches, dataset)
    write_csv(args.out, ("class", "mean", "std"),
              zip(range(dataset.num_classes), stats.mean.tolist(), stats.std.tolist()))
    print(f"wrote per-class batch fraction stats over {stats.batch_count} batches to {args.out}")
    return 0


def cmd_ablate(args) -> int:
    cfg = harness.build_config(_load_mapping(args))
    _make_dir("--out-dir", args.out_dir, Path(args.out_dir))
    results = harness.run_ablations(cfg, args.out_dir)
    for name, report in results.items():
        print(f"{name}: {report.final_test_acc_mean:.4f} +/- {report.final_test_acc_std:.4f}")
    print(f"wrote reports and ablation_summary.csv to {args.out_dir}")
    return 0


def cmd_sweep(args) -> int:
    grid, mapping = harness.parse_sweep_grid(_load_mapping(args))
    cfg = harness.build_config(mapping)
    _make_dir("--out-dir", args.out_dir, Path(args.out_dir))
    rows = harness.run_sweep(cfg, grid, args.out_dir)
    print(f"swept {len(rows)} points; wrote sweep_summary.csv to {args.out_dir}")
    return 0


def cmd_export_relevance(args) -> int:
    path = Path(args.checkpoint)
    if path.is_dir():
        _, refinement = harness.load_checkpoint(path)
        if refinement is None:
            raise ValueError(f"checkpoint {path} holds no relevance matrix")
    else:
        refinement = harness.read_refinement(path)
    harness.export_relevance(refinement, args.out)
    print(f"wrote row-wise softmax of the relevance matrix to {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="als-graph",
                                     description="Adaptive label smoothing experiments on graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("propagate", help="precompute propagated labels")
    p.add_argument("--graph", required=True, help="edge list file")
    p.add_argument("--labels", required=True, help="observed labels file")
    p.add_argument("--out", required=True, help="output binary matrix")
    p.add_argument("--beta", type=float, default=None,
                   help=f"residual strength (default {harness.ExperimentConfig.beta})")
    p.add_argument("--k", type=int, default=None,
                   help=f"propagation steps (default {harness.ExperimentConfig.k_steps})")
    p.add_argument("--config", help="optional config supplying beta/k defaults and self-loops")
    p.add_argument("--num-nodes", type=int, default=0)
    p.add_argument("--self-loops", action="store_true", help="also average each node's own row")
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("train", help="train one configuration")
    _add_config_arguments(p)
    p.add_argument("--out", default="report.json", help="report path (CSV written alongside)")
    p.add_argument("--checkpoint-dir", help="also save parameter checkpoint here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("analyze-bias", help="per-class batch label fractions")
    _add_config_arguments(p)
    p.add_argument("--out", default="bias.csv")
    p.add_argument("--epochs", type=int, default=1, help="epochs of batches to aggregate")
    p.set_defaults(func=cmd_analyze_bias)

    p = sub.add_parser("ablate", help="adaptive smoothing against its ablations")
    _add_config_arguments(p)
    p.add_argument("--out-dir", default="ablation")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep", help="grid over sweep.* keys in the config")
    _add_config_arguments(p)
    p.add_argument("--out-dir", default="sweep")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export-relevance", help="write softmax of a saved relevance matrix")
    p.add_argument("--checkpoint", required=True, help="checkpoint dir or .bin matrix")
    p.add_argument("--out", default="relevance.csv")
    p.set_defaults(func=cmd_export_relevance)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single reporting point for the CLI
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
