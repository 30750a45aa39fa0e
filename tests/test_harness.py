from __future__ import annotations

import ctypes
import dataclasses
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from als_graph import harness
from als_graph import rng as rng_streams
from als_graph import sampling
from als_graph.data import generate_sbm, save_dataset, write_matrix_binary
from als_graph.harness import (
    ExperimentConfig,
    apply_overrides,
    build_config,
    compare_label_exploitation,
    config_to_flat,
    epoch_batches,
    export_relevance,
    label_input_features,
    load_checkpoint,
    load_config_file,
    parse_config_text,
    parse_sweep_grid,
    run_ablations,
    run_experiment,
    run_repeated,
    run_sweep,
    run_training,
    save_checkpoint,
)
from als_graph.model import adam_step, backward, forward, init_model, init_opt_state
from als_graph.propagation import init_label_matrix, propagate
from als_graph.reporting import load_report, report_to_dict, write_report
from als_graph.sampling import full_batch
from als_graph.smoothing import RefinementMatrix, alpha_at, init_refinement

from conftest import refine_soft_label

ROOT = Path(__file__).resolve().parents[1]


def small_cfg(**kwargs) -> ExperimentConfig:
    base = dict(
        sbm_blocks=3, sbm_nodes_per_block=20, sbm_p_in=0.3, sbm_p_out=0.02,
        sbm_feature_dim=5, sbm_feature_noise=1.0, sbm_train_fraction=0.3,
        sbm_val_fraction=0.2, num_parts=3, parts_per_batch=1,
        hidden=8, dropout=0.2, epochs=4, lr=0.05, loss_mode="als",
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


class TestConfig:
    def test_parse_and_overrides(self):
        text = """
        # comment
        loss.mode = ls
        train.epochs = 7   # trailing comment
        sampler.fanouts = 4,4,4
        """
        mapping = parse_config_text(text)
        mapping = apply_overrides(mapping, ["train.epochs=9", "model.dropout=0.0"])
        cfg = build_config(mapping)
        assert cfg.loss_mode == "ls"
        assert cfg.epochs == 9
        assert cfg.dropout == 0.0
        assert cfg.fanouts == (4, 4, 4)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            build_config({"trian.epochs": "3"})

    def test_bad_value_reported_with_key(self):
        with pytest.raises(ValueError, match="train.epochs"):
            build_config({"train.epochs": "many"})

    def test_ablation_flags_require_als(self):
        with pytest.raises(ValueError, match="ablation"):
            small_cfg(loss_mode="plain", no_pacing=True)

    def test_label_input_excludes_als(self):
        with pytest.raises(ValueError, match="label_input"):
            small_cfg(loss_mode="als", label_input=True)
        small_cfg(loss_mode="plain", label_input=True)  # fine

    def test_fanouts_must_match_depth(self):
        with pytest.raises(ValueError, match="fanouts"):
            small_cfg(sampler_kind="neighbor", depth=3, fanouts=(2, 2))

    @pytest.mark.parametrize("key, value", [
        ("sampler.seeds_per_batch", "0"),
        ("sampler.fanouts", "-1,5,5"),
        ("sampler.num_roots", "0"),
        ("sampler.walk_length", "-2"),
        ("sampler.num_parts", "0"),
        ("sampler.parts_per_batch", "9"),  # sampler.num_parts defaults to 8
        ("sampler.batches_per_epoch", "-1"),
    ])
    def test_bad_sampler_size_names_the_key(self, key, value):
        with pytest.raises(ValueError, match=re.escape(key)):
            build_config({"sampler.kind": "neighbor", key: value})

    @pytest.mark.parametrize("key, value", [
        ("model.sign_hops", "-1"),
        ("model.dropout", "1.0"),
        ("model.dropout", "-0.1"),
        ("loss.gamma", "-1"),
        ("train.seed", "-1"),
        ("sbm.seed", "-1"),
        ("train.epochs", "0"),
        ("train.repeats", "0"),
        ("train.lr", "0"),
        ("model.depth", "0"),
        ("model.hidden", "0"),
        ("sbm.blocks", "0"),
        ("sbm.nodes_per_block", "0"),
        ("sbm.p_in", "2"),
        ("sbm.p_out", "-0.1"),
        ("sbm.feature_dim", "0"),
        ("sbm.feature_noise", "-1"),
        ("sbm.train_fraction", "1.5"),
        ("sbm.val_fraction", "0.95"),  # sbm.train_fraction defaults to 0.1
        ("pacing.alpha_const", "2"),
        ("pacing.alpha_max", "-1"),
        ("pacing.b", "-1"),
        ("propagation.beta", "2"),
        ("propagation.k", "-1"),
        ("loss.stop_gradient", "maybe"),
    ])
    def test_bad_model_setting_names_the_key(self, key, value):
        with pytest.raises(ValueError, match=re.escape(key)):
            build_config({key: value})

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", [f.metadata["key"] for f in dataclasses.fields(ExperimentConfig)
                                     if f.type == "float"])
    def test_non_finite_float_names_the_key(self, key, value):
        """NaN passes every range check, so a float field must be finite first."""
        with pytest.raises(ValueError, match=re.escape(f"{key} must be finite, got {float(value)}")):
            build_config({key: value})

    @pytest.mark.parametrize("text, overrides, message", [
        ("ablate.no_propagation = true\nablate.no_refinement = true\n", [],
         "cannot ablate propagation and refinement together"),
        ("data.source = files\ndata.edges = e.tsv\ndata.features = x.csv\ndata.labels = y.csv\n",
         [], "files dataset needs data.splits"),
        ("train.lr = 0.1\ntrain.epochs 3\n", [], "exp.cfg:2: expected 'key = value', got 'train.epochs 3'"),
        ("train.lr = 0.1\n", ["train.epochs"], "override 'train.epochs' is not of the form key=value"),
    ])
    def test_rejected_config_names_the_problem(self, text, overrides, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build_config(apply_overrides(parse_config_text(text, origin="exp.cfg"), overrides))

    def test_replace_checks_the_new_config(self):
        with pytest.raises(ValueError, match=re.escape("train.epochs must be at least 1, got 0")):
            dataclasses.replace(small_cfg(), epochs=0)

    def test_config_cannot_be_changed_in_place(self):
        cfg = small_cfg()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.epochs = 0
        assert cfg.epochs == 4

    def test_num_parts_above_a_files_dataset_node_count_names_its_key(self, tmp_path):
        paths = save_dataset(harness.build_dataset(small_cfg()), tmp_path)
        cfg = small_cfg(num_parts=61, data_source="files",
                        **{f"data_{name}": str(path) for name, path in paths.items()})
        dataset = harness.build_dataset(cfg)
        with pytest.raises(ValueError, match=re.escape(
                "sampler.num_parts must be at most the node count (60), got 61")):
            harness.build_partition(cfg, dataset)
        assert harness.build_partition(dataclasses.replace(cfg, num_parts=60), dataset).num_parts == 60

    def test_values_parse_by_field_annotation(self):
        cfg = build_config({"loss.gamma": "0", "train.lr": "1", "train.epochs": "3",
                            "loss.stop_gradient": "yes", "sampler.fanouts": "1,2,3"})
        assert (cfg.gamma, cfg.lr, cfg.epochs) == (0.0, 1.0, 3)
        assert [type(v) for v in (cfg.gamma, cfg.lr, cfg.epochs)] == [float, float, int]
        assert cfg.stop_gradient is True and cfg.fanouts == (1, 2, 3)
        for text in ("false", "0", "no", "Off"):
            assert build_config({"loss.stop_gradient": text}).stop_gradient is False

    def test_readme_table_lists_every_config_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| key | default | meaning |", 1)[1].split("\n\n", 1)[0]
        documented = {key for row in table.splitlines() if row.startswith("| `")
                      for key in re.findall(r"`([^`]+)`", row.split("|")[1])}
        declared = {f.metadata["key"] for f in dataclasses.fields(ExperimentConfig)}
        assert len(declared) == 46
        assert documented == declared
        # each key's row names its declared choices and bounds
        rows = {key: row for row in table.splitlines() if row.startswith("| `")
                for key in re.findall(r"`([^`]+)`", row.split("|")[1])}
        missing = []
        for f in dataclasses.fields(ExperimentConfig):
            key, choices, least, most = (f.metadata[k] for k in ("key", "choices", "least", "most"))
            wanted = [f"`{choice}`" for choice in choices or ()]
            if most is not None:
                wanted.append(f"in [{least}, {most}]")
            elif least is not None:
                wanted.append(f"at least {least}")
            missing += [(key, text) for text in wanted if text not in rows[key]]
        assert missing == []

    def test_flat_round_trip(self):
        cfg = small_cfg()
        flat = config_to_flat(cfg)
        again = build_config(flat)
        assert again == cfg

    def test_sweep_grid_parsing(self):
        grid = parse_sweep_grid({"sweep.r": "0.01, 0.02", "sweep.k": "1,2", "loss.mode": "als"})
        assert grid == {"pacing_r": [0.01, 0.02], "k_steps": [1, 2]}

    def test_bad_sweep_value_names_the_key(self):
        with pytest.raises(ValueError, match=r"config key sweep\.k: invalid literal .* 'x'"):
            parse_sweep_grid({"sweep.k": "1,x"})
        # a value equal to an earlier one would run, and write the report of, one point twice
        for key, values, repeated in (("sweep.r", "0.01,0.010", "0.010"), ("sweep.k", "1, 2, 1", "1")):
            with pytest.raises(ValueError) as excinfo:
                parse_sweep_grid({key: values})
            assert str(excinfo.value) == f"config key {key}: value {repeated} repeats an earlier value"

    def test_key_set_twice_in_a_file_rejected(self):
        with pytest.raises(ValueError, match=r"exp\.cfg:3: key 'train\.lr' set more than once"):
            parse_config_text("train.lr = 0.1\n# again\ntrain.lr = 0.2\n", origin="exp.cfg")
        # a command-line override still wins over the file
        mapping = apply_overrides(parse_config_text("train.lr = 0.1\n"), ["train.lr=0.2"])
        assert build_config(mapping).lr == 0.2


class TestRunExperiment:
    def test_epoch_record_count(self):
        report = run_experiment(small_cfg(epochs=3))
        assert len(report.per_epoch) == 3
        assert [r.epoch for r in report.per_epoch] == [0, 1, 2]

    def test_als_with_zero_strength_matches_plain(self):
        shared = dict(pacing_kind="constant", alpha_const=0.0, gamma=0.0, seed=5)
        plain = run_experiment(small_cfg(loss_mode="plain", **shared))
        als = run_experiment(small_cfg(loss_mode="als", **shared))
        for a, b in zip(plain.per_epoch, als.per_epoch):
            assert a == b

    def test_no_pacing_pins_alpha(self):
        report = run_experiment(small_cfg(no_pacing=True, pacing_kind="linear", pacing_r=0.03))
        assert all(r.alpha_t == 0.1 for r in report.per_epoch)

    def test_pacing_recorded(self):
        report = run_experiment(small_cfg(pacing_kind="linear", pacing_r=0.02, alpha_max=0.05))
        assert [r.alpha_t for r in report.per_epoch] == [0.0, 0.02, 0.04, 0.05]

    def test_byte_identical_reports_same_seed(self, tmp_path):
        neighbor = dict(sampler_kind="neighbor", fanouts=(3, 3), depth=2, seeds_per_batch=8)
        for name, cfg in (("cluster", small_cfg(seed=3)),
                          ("neighbor", small_cfg(seed=3, dropout=0.5, **neighbor))):
            for i, report in enumerate([run_experiment(cfg), run_experiment(cfg)]):
                write_report(report, tmp_path / f"{name}{i}.json")
            for suffix in (".json", ".csv"):
                first, second = (tmp_path / f"{name}{i}{suffix}" for i in (0, 1))
                assert first.read_bytes() == second.read_bytes()

    def test_reported_train_loss_matches_frozen_reevaluation(self):
        cfg = small_cfg(epochs=3, seed=2)
        result = run_training(cfg)
        from als_graph.harness import _batch_loss
        from als_graph.model import forward

        last = result.report.per_epoch[-1]
        batch = full_batch(result.dataset)
        logits, _ = forward(result.params, batch, result.features, train_mode=False)
        breakdown, _, _ = _batch_loss(cfg, result.dataset, batch, logits, result.soft_labels,
                                      result.refinement, last.alpha_t)
        assert last.train_loss == breakdown.total
        train_ids = np.flatnonzero(result.dataset.train_mask)
        hits = logits[train_ids].argmax(axis=1) == result.dataset.labels[train_ids]
        assert last.train_acc == int(hits.sum()) / train_ids.size

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_epoch(self):
        with pytest.raises(RuntimeError, match="epoch"):
            run_experiment(small_cfg(lr=1e155, epochs=5, dropout=0.0))

    @pytest.mark.parametrize("kind,extra", [
        ("random_walk", dict(num_roots=6, walk_length=2)),
        ("neighbor", dict(fanouts=(3, 3), depth=2, seeds_per_batch=8)),
        ("full", {}),
    ])
    def test_other_samplers_run(self, kind, extra):
        report = run_experiment(small_cfg(sampler_kind=kind, epochs=2, **extra))
        assert len(report.per_epoch) == 2

    def test_mlp_and_sign_regimes_run(self):
        report = run_experiment(small_cfg(arch="mlp", sampler_kind="full", epochs=2,
                                          pacing_kind="exponential", pacing_b=0.1,
                                          pacing_r=-0.05))
        assert report.per_epoch[0].alpha_t == 0.1
        report = run_experiment(small_cfg(arch="mlp", sampler_kind="full", sign_hops=2, epochs=2))
        assert len(report.per_epoch) == 2

    def test_repeated_seeds_aggregate(self):
        aggregated, reports = run_repeated(small_cfg(repeats=3, epochs=2))
        assert len(reports) == 3
        assert aggregated.seeds == [0, 1, 2]
        finals = [r.per_epoch[-1].test_acc for r in reports]
        assert aggregated.final_test_acc_mean == pytest.approx(np.mean(finals))
        assert aggregated.final_test_acc_std == pytest.approx(np.std(finals, ddof=1))


class TestEvaluationForwards:
    @staticmethod
    def count_forwards(monkeypatch) -> dict[bool, list[int]]:
        """Batch sizes of the train-mode (True) and eval-mode (False) forwards."""
        calls: dict[bool, list[int]] = {True: [], False: []}
        real = harness.forward

        def counting(params, batch, features, train_mode, seed=0):
            calls[train_mode].append(batch.num_nodes)
            return real(params, batch, features, train_mode, seed)
        monkeypatch.setattr(harness, "forward", counting)
        return calls

    @pytest.mark.parametrize("extra, dropout", [
        pytest.param(dict(num_parts=3, parts_per_batch=3), 0.5, id="extra0"),
        pytest.param(dict(sampler_kind="full"), 0.5, id="extra1"),
        pytest.param(dict(num_parts=3, parts_per_batch=3), 0.0, id="extra0-no_dropout"),
        pytest.param(dict(sampler_kind="full"), 0.0, id="extra1-no_dropout"),
        pytest.param(dict(sampler_kind="full", loss_mode="ls"), 0.0, id="extra1-ls"),
    ])
    def test_whole_graph_batch_reuses_full_logits(self, monkeypatch, extra, dropout):
        calls = self.count_forwards(monkeypatch)
        cfg = small_cfg(epochs=3, dropout=dropout, **extra)
        result = run_training(cfg)
        n = result.dataset.num_nodes
        assert calls[False] == [n] * cfg.epochs
        # without dropout each epoch after the first trains on the previous
        # epoch's evaluation forward
        assert calls[True] == [n] * (1 if dropout == 0 else cfg.epochs)
        from als_graph.harness import _batch_loss
        from als_graph.model import forward

        (batch,) = epoch_batches(cfg, result.dataset, result.partition, cfg.epochs - 1)
        assert batch.graph is result.dataset.graph
        logits, _ = forward(result.params, batch, result.features[batch.global_ids],
                            train_mode=False)
        breakdown, _, _ = _batch_loss(cfg, result.dataset, batch, logits, result.soft_labels,
                                      result.refinement, result.report.per_epoch[-1].alpha_t)
        assert result.report.per_epoch[-1].train_loss == breakdown.total

    def test_batch_without_train_nodes_is_skipped(self, monkeypatch):
        cfg = small_cfg(epochs=3)
        expected = report_to_dict(run_training(cfg).report)
        dataset = harness.build_dataset(cfg)
        unlabeled = sampling._make_batch(dataset, np.flatnonzero(dataset.test_mask))
        assert unlabeled.train_local.size == 0
        real = harness.epoch_batches
        monkeypatch.setattr(harness, "epoch_batches", lambda *args: real(*args) + [unlabeled])
        calls = self.count_forwards(monkeypatch)
        result = run_training(cfg)
        assert report_to_dict(result.report) == expected
        assert unlabeled.num_nodes not in calls[True]

    def test_reuse_ends_at_the_first_adam_step(self, monkeypatch):
        calls = self.count_forwards(monkeypatch)
        # walks long enough to visit every node: two whole-graph batches an epoch
        cfg = small_cfg(sampler_kind="random_walk", num_roots=60, walk_length=10,
                        batches_per_epoch=2, dropout=0.0, epochs=3)
        result = run_training(cfg)
        for epoch in range(cfg.epochs):
            batches = epoch_batches(cfg, result.dataset, None, epoch)
            assert [b.graph is result.dataset.graph for b in batches] == [True, True]
        # only each later epoch's first batch reuses the evaluation forward
        assert len(calls[True]) == 2 * cfg.epochs - (cfg.epochs - 1)

    @pytest.mark.parametrize("extra, dropout", [
        pytest.param(dict(sampler_kind="neighbor", fanouts=(3, 3), depth=2, seeds_per_batch=8),
                     0.5, id="neighbor"),
        pytest.param(dict(sampler_kind="cluster", num_parts=3, parts_per_batch=1), 0.5,
                     id="cluster"),
        pytest.param(dict(sampler_kind="cluster", num_parts=3, parts_per_batch=1), 0.0,
                     id="cluster-no_dropout"),
    ])
    def test_unused_forwards_are_freed(self, monkeypatch, extra, dropout):
        """No batch here is the whole graph, so no eval forward outlives its epoch's
        training: it is gone before the next training forward or evaluation. The
        last training forward is gone before the evaluation. The features and
        the whole-graph batch's A X (``Batch.first_product``) live for the run."""
        alive: list[weakref.ref] = []  # arrays of the last eval forward
        trained: list[weakref.ref] = []  # arrays of the last training forward
        checks = {"train": 0, "eval": 0}
        real_forward, real_evaluate = harness.forward, harness._evaluate_epoch

        def refs(logits, cache, *kept):
            arrays = [logits, *cache.layer_inputs, *cache.gates]
            return [weakref.ref(a) for a in arrays if all(a is not k for k in kept)]

        def forward(params, batch, features, train_mode, seed=0):
            if not train_mode:
                return real_forward(params, batch, features, train_mode, seed)
            assert all(ref() is None for ref in alive)
            checks["train"] += bool(alive)
            logits, cache = real_forward(params, batch, features, train_mode, seed)
            trained[:] = refs(logits, cache, features)
            return logits, cache

        def evaluate(cfg, dataset, batch, feats, *args):
            assert all(ref() is None for ref in alive + trained)
            checks["eval"] += bool(alive)
            metrics, (logits, cache) = real_evaluate(cfg, dataset, batch, feats, *args)
            alive[:] = refs(logits, cache, feats, batch.first_product(feats))
            return metrics, (logits, cache)
        monkeypatch.setattr(harness, "forward", forward)
        monkeypatch.setattr(harness, "_evaluate_epoch", evaluate)
        cfg = small_cfg(dropout=dropout, epochs=3, **extra)
        run_training(cfg)
        assert checks["eval"] == cfg.epochs - 1 and checks["train"] >= cfg.epochs - 1

    @pytest.mark.parametrize("extra, restricted", [
        pytest.param(dict(sampler_kind="neighbor", fanouts=(3, 3), depth=2, seeds_per_batch=8),
                     False, id="neighbor"),
        pytest.param(dict(num_parts=3, parts_per_batch=1), False, id="cluster"),
        pytest.param(dict(sampler_kind="full", arch="mlp"), False, id="full-mlp"),
        pytest.param(dict(sampler_kind="full"), True, id="full"),
        pytest.param(dict(num_parts=3, parts_per_batch=3, dropout=0.0), True,
                     id="whole-cluster-no_dropout"),
    ])
    def test_only_whole_graph_gcn_training_restricts_the_backward(self, monkeypatch, extra,
                                                                  restricted):
        """The run holds one whole-graph batch, which every evaluation and every
        whole-graph training forward uses. Its backward is restricted to the
        train rows' receptive field once a GCN trains on it; a run that never
        does builds no blocks, and its evaluation forwards cache every row."""
        seen = []  # (train_mode, batch, the cache's logit rows) of every forward
        real = harness.forward

        def recording(params, batch, features, train_mode, seed=0):
            logits, cache = real(params, batch, features, train_mode, seed)
            seen.append((train_mode, batch, cache.logit_rows))
            return logits, cache
        monkeypatch.setattr(harness, "forward", recording)
        # 6 train rows, whose receptive field leaves out 28 of the 60 nodes: a
        # restriction that pays (``Batch.restrict_backward``)
        result = run_training(small_cfg(epochs=3, sbm_train_fraction=0.1, **extra))
        (whole,) = {id(batch): batch for mode, batch, _ in seen if not mode}.values()
        assert (whole._backward is not None) == restricted
        for mode, batch, rows in seen:
            if mode and batch.graph is result.dataset.graph:
                assert batch is whole
            if batch is whole:
                assert (rows is not None) == restricted
                assert rows is None or np.array_equal(rows, whole.train_local)

    def test_partial_batches_get_one_forward_each(self, monkeypatch):
        calls = self.count_forwards(monkeypatch)
        for dropout in (0.5, 0.0):
            calls[True].clear()
            calls[False].clear()
            cfg = small_cfg(epochs=3, dropout=dropout)
            result = run_training(cfg)
            per_epoch = [sum(b.train_local.size > 0 for b in
                             epoch_batches(cfg, result.dataset, result.partition, epoch))
                         for epoch in range(cfg.epochs)]
            assert min(per_epoch) > 1
            assert len(calls[True]) == sum(per_epoch)
            # train and test metrics come from one whole-graph eval forward
            assert calls[False] == [result.dataset.num_nodes] * cfg.epochs


# Two file-loaded runs in one fresh process; prints the second run's minor faults.
FAULT_PROBE = """
import resource, sys
from als_graph import harness
cfg = harness.build_config(harness.apply_overrides(harness.load_config_file(sys.argv[1]), sys.argv[2:]))
harness.run_experiment(cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
harness.run_experiment(cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="C library has no mallopt")
def test_file_loaded_run_keeps_its_heap_between_epochs(tmp_path):
    """Without pinned heap thresholds this run faults ~1,300 pages back in per epoch."""
    protocol_cfg = ROOT / "configs" / "protocol.cfg"
    paths = save_dataset(harness.build_dataset(build_config(load_config_file(protocol_cfg))),
                         tmp_path)
    overrides = ["data.source=files", "train.epochs=20",
                 *(f"data.{name}={path}" for name, path in paths.items())]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", FAULT_PROBE, str(protocol_cfg), *overrides],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) < 2_000


def serial_training(cfg: ExperimentConfig):
    """``run_training``'s loop with each epoch's batches built on this thread.

    Covers the configs ``TestBatchPrefetch`` uses: als loss with propagation,
    refinement and pacing, and dropout above 0 (so no forward is reused). Returns
    the per-epoch metrics and the final parameter values.
    """
    assert cfg.loss_mode == "als" and cfg.dropout > 0 and not cfg.no_pacing
    dataset = harness.build_dataset(cfg)
    yk = propagate(dataset.graph, init_label_matrix(dataset), cfg.beta, cfg.k_steps,
                   cfg.self_loops)
    feats = dataset.features
    dims = [feats.shape[1]] + [cfg.hidden] * (cfg.depth - 1) + [dataset.num_classes]
    params = init_model(cfg.arch, dims, cfg.dropout,
                        rng_streams.child_seed(cfg.seed, rng_streams.MODEL_INIT))
    refinement = init_refinement(dataset.num_classes,
                                 rng_streams.child_seed(cfg.seed, rng_streams.REFINEMENT_INIT))
    values = params.weights + params.biases + [refinement.w]
    state = init_opt_state(values, cfg.lr)
    partition = harness.build_partition(cfg, dataset)
    records = []
    for epoch in range(cfg.epochs):
        alpha = float(alpha_at(epoch, cfg.pacing_kind, cfg.alpha_const, cfg.pacing_r, cfg.pacing_b,
                                 cfg.alpha_max))
        batches = epoch_batches(cfg, dataset, partition, epoch)
        for j, batch in enumerate(batches):
            if batch.train_local.size == 0:
                continue
            logits, cache = forward(params, batch, feats[batch.global_ids], train_mode=True,
                                    seed=rng_streams.child_seed(cfg.seed, rng_streams.DROPOUT,
                                                                epoch, j))
            _, dtrain, dw = harness._batch_loss(cfg, dataset, batch, logits, yk, refinement,
                                                alpha)
            dlogits = np.zeros_like(logits)
            dlogits[batch.loss_rows] = dtrain
            wgrads, bgrads = backward(params, cache, dlogits)
            adam_step(values, wgrads + bgrads + [dw], state)
        metrics, _ = harness._evaluate_epoch(cfg, dataset, full_batch(dataset), feats, params,
                                             refinement, yk, alpha)
        records.append(metrics)
    return records, values


def test_neighbor_epoch_peaks_under_two_and_a_half_times_its_batches(monkeypatch):
    """One ``epoch_batches`` call on the benchmark ``neighbor`` config's graph
    (2,000 nodes, 200 seeds in 64-seed chunks, fanouts 10,10,10) peaks under
    ``tracemalloc`` at no more than 2.5x the bytes of the batches it returns.
    Building each batch alone read 2.0x; one pass per hop over all chunks
    reads 2.3x with each intermediate freed once read, and 5.1x with none
    freed before its function returns."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    cfg = build_config(workloads.config_mapping("neighbor", 3, {}))
    dataset = harness.build_dataset(cfg)
    epoch_batches(cfg, dataset, None, 0)  # the graph's cached degrees
    tracemalloc.start()
    try:
        batches = epoch_batches(cfg, dataset, None, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for b in batches for a in (
        b.global_ids, b.train_local, *b.layer_rows,
        *(x for block in b.layer_blocks for x in (block.data, block.indices, block.indptr))))
    assert peak <= 2.5 * held


class TestBatchPrefetch:
    """``run_training`` builds epoch e + 1's batches on one worker while epoch e trains."""

    @staticmethod
    def record_epochs(monkeypatch, fail_at: int | None = None) -> list[int]:
        """Epochs passed to ``harness.epoch_batches``; raises ``boom`` at ``fail_at``."""
        epochs: list[int] = []
        real = harness.epoch_batches

        def recording(cfg, dataset, partition, epoch):
            epochs.append(epoch)
            if epoch == fail_at:
                raise ValueError("boom")
            return real(cfg, dataset, partition, epoch)
        monkeypatch.setattr(harness, "epoch_batches", recording)
        return epochs

    def test_one_call_per_epoch_in_order(self, monkeypatch):
        epochs = self.record_epochs(monkeypatch)
        cfg = small_cfg(epochs=5)
        run_training(cfg)
        assert epochs == list(range(cfg.epochs))

    def test_sampler_error_surfaces_at_its_epoch(self, monkeypatch):
        epochs = self.record_epochs(monkeypatch, fail_at=2)
        steps: list[int] = []
        real_step = harness.adam_step

        def counting(values, grads, state):
            steps.append(1)
            return real_step(values, grads, state)
        monkeypatch.setattr(harness, "adam_step", counting)
        with pytest.raises(ValueError) as excinfo:
            run_training(small_cfg(sampler_kind="full", epochs=5))
        assert excinfo.type is ValueError and str(excinfo.value) == "boom"
        assert epochs == [0, 1, 2]
        assert len(steps) == 2  # one whole-graph batch in each of epochs 0 and 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_no_thread_outlives_the_run(self):
        before = threading.active_count()
        run_training(small_cfg(epochs=3))
        assert threading.active_count() == before
        with pytest.raises(RuntimeError, match="diverged"):
            run_training(small_cfg(lr=1e155, epochs=5, dropout=0.0))
        assert threading.active_count() == before

    @pytest.mark.parametrize("extra", [
        pytest.param(dict(sampler_kind="neighbor", fanouts=(3, 3), depth=2, seeds_per_batch=8),
                     id="neighbor"),
        pytest.param(dict(sampler_kind="cluster", num_parts=3, parts_per_batch=1), id="cluster"),
    ])
    def test_reports_equal_a_serial_loop(self, extra):
        cfg = small_cfg(dropout=0.5, epochs=3, seed=4, **extra)
        result = run_training(cfg)
        records, values = serial_training(cfg)
        assert [{k: getattr(r, k) for k in m} for r, m in
                zip(result.report.per_epoch, records, strict=True)] == records
        final = result.params.weights + result.params.biases + [result.refinement.w]
        assert all(np.array_equal(a, b) for a, b in zip(final, values, strict=True))


class TestLabelInput:
    def test_width_and_content(self):
        d = generate_sbm(blocks=3, nodes_per_block=10, train_fraction=0.3, seed=1)
        yk = propagate(d.graph, init_label_matrix(d), 0.2, 2)
        feats = label_input_features(d, yk)
        width = d.features.shape[1]
        assert feats.shape == (d.num_nodes, width + d.num_classes)
        assert feats[:, :width].tobytes() == d.features.tobytes()
        zero_rows = ~yk.any(axis=1)
        if zero_rows.any():
            assert not feats[zero_rows, width:].any()

    def test_experiment_with_label_input(self):
        report = run_experiment(small_cfg(loss_mode="plain", label_input=True, epochs=2))
        assert len(report.per_epoch) == 2


class TestExportRelevance:
    def test_zero_matrix_exports_uniform_rows(self, tmp_path):
        path = export_relevance(RefinementMatrix(np.zeros((4, 4))), tmp_path / "rel.csv")
        rows = np.loadtxt(path, delimiter=",", ndmin=2)
        assert np.array_equal(rows, np.full((4, 4), 0.25))

    def test_rows_sum_to_one_and_match_refine(self, tmp_path, rng):
        w = RefinementMatrix(rng.standard_normal((5, 5)))
        path = export_relevance(w, tmp_path / "rel.csv")
        rows = np.loadtxt(path, delimiter=",", ndmin=2)
        assert np.abs(rows.sum(axis=1) - 1.0).max() < 1e-9
        for i in range(5):
            basis = np.zeros(5)
            basis[i] = 1.0
            assert np.allclose(rows[i], refine_soft_label(w.w.T, basis), atol=1e-15)


class TestAnalyses:
    def test_ablation_family_runs(self, tmp_path):
        results = run_ablations(small_cfg(epochs=2), tmp_path)
        assert set(results) == {"als", "no_propagation", "no_refinement", "no_pacing"}
        summary = (tmp_path / "ablation_summary.csv").read_text().strip().splitlines()
        assert len(summary) == 5
        assert (tmp_path / "no_refinement.json").exists()

    def test_sweep_checks_every_point_before_the_first_run(self, tmp_path, monkeypatch):
        runs = []
        monkeypatch.setattr(harness, "run_repeated", lambda cfg: runs.append(cfg))
        with pytest.raises(ValueError, match=r"loss\.gamma must be at least 0, got -1\.0"):
            run_sweep(small_cfg(epochs=1), {"gamma": [1e-3, 1e-2, -1.0]}, tmp_path / "out")
        assert runs == []
        assert not (tmp_path / "out").exists()

    def test_sweep_writes_one_report_per_point(self, tmp_path):
        rows = run_sweep(small_cfg(epochs=1), {"pacing_r": [0.01, 0.02], "gamma": [0.001]},
                         tmp_path)
        assert len(rows) == 2
        assert len(list(tmp_path.glob("sweep_*.json"))) == 2
        header = (tmp_path / "sweep_summary.csv").read_text().splitlines()[0]
        assert header == "gamma,pacing_r,final_test_acc_mean,final_test_acc_std"

    def test_compare_label_exploitation(self, tmp_path):
        rows = compare_label_exploitation(small_cfg(loss_mode="plain", epochs=2),
                                          tmp_path / "methods.csv")
        assert [r["method"] for r in rows] == ["propagation_only", "label_input", "als"]
        lines = (tmp_path / "methods.csv").read_text().strip().splitlines()
        assert len(lines) == 4


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        result = run_training(small_cfg(epochs=2))
        save_checkpoint(tmp_path, result.params, result.refinement, small_cfg(epochs=2))
        params, refinement = load_checkpoint(tmp_path)
        for a, b in zip(params.weights, result.params.weights):
            assert np.array_equal(a, b)
        for a, b in zip(params.biases, result.params.biases):
            assert np.array_equal(a, b)
        assert np.array_equal(refinement.w, result.refinement.w)

    @pytest.mark.parametrize("rewrite, message", [
        *(pytest.param(lambda doc, key=key: json.dumps({k: v for k, v in doc.items() if k != key}),
                       f"manifest has no '{key}' key", id=key)
          for key in ("arch", "dropout", "weights", "biases")),
        pytest.param(lambda doc: json.dumps({**doc, "dropout": "0.5"}),
                     "'dropout' must be a number, got '0.5'", id="dropout_text"),
        pytest.param(lambda doc: "{bad", "manifest is not valid JSON: ", id="not_json"),
        pytest.param(lambda doc: "[1]", "manifest must be a JSON object, got list", id="list"),
    ])
    def test_manifest_missing_key_names_file_and_key(self, tmp_path, rewrite, message):
        result = run_training(small_cfg(epochs=1))
        save_checkpoint(tmp_path, result.params, result.refinement, small_cfg(epochs=1))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(rewrite(json.loads(manifest.read_text())))
        with pytest.raises(ValueError, match=re.escape(f"{manifest}: {message}")):
            load_checkpoint(tmp_path)

    @pytest.mark.parametrize("key, where", [("weights", "absolute"), ("weights", "parent"),
                                            ("biases", "subdirectory"), ("refinement", "parent")])
    def test_weight_file_outside_the_directory_is_rejected(self, tmp_path, key, where):
        result = run_training(small_cfg(epochs=1))
        ckpt = tmp_path / "ckpt"
        save_checkpoint(ckpt, result.params, result.refinement, small_cfg(epochs=1))
        manifest = ckpt / "manifest.json"
        doc = json.loads(manifest.read_text())
        name = doc[key] if key == "refinement" else doc[key][0]
        bad = {"absolute": str(tmp_path / name), "parent": f"../{name}",
               "subdirectory": f"sub/{name}"}[where]
        # a valid copy of the file where the manifest now points, so only the name is wrong
        (ckpt / bad).parent.mkdir(exist_ok=True)
        (ckpt / bad).write_bytes((ckpt / name).read_bytes())
        if key == "refinement":
            doc[key] = bad
        else:
            doc[key][0] = bad
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(
                f"{manifest}: '{key}' names {bad!r}, not a file in the checkpoint directory")):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize("key", ["weights", "biases"])
    def test_manifest_file_list_must_be_a_list(self, tmp_path, key):
        result = run_training(small_cfg(epochs=1))
        save_checkpoint(tmp_path, result.params, result.refinement, small_cfg(epochs=1))
        manifest = tmp_path / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc[key] = doc[key][0]  # one name where a list belongs
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(
                f"{manifest}: '{key}' must be a list of file names, got {doc[key]!r}")):
            load_checkpoint(tmp_path)

    def test_mis_sized_bias_file_names_the_layer(self, tmp_path):
        result = run_training(small_cfg(epochs=1))
        save_checkpoint(tmp_path, result.params, result.refinement, small_cfg(epochs=1))
        write_matrix_binary(np.zeros((1, 1)), tmp_path / "bias_1.bin")
        with pytest.raises(ValueError, match=r"manifest\.json: layer 1 bias has shape \(1,\)"):
            load_checkpoint(tmp_path)


class TestReporting:
    def test_csv_has_header_plus_row_per_epoch(self, tmp_path):
        report = run_experiment(small_cfg(epochs=3))
        _, csv_path = write_report(report, tmp_path / "report.json")
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 4
        assert lines[0] == "epoch,alpha_t,train_loss,test_loss,train_acc,test_acc,mean_max_prob"

    def test_empty_per_epoch_is_valid_json(self, tmp_path):
        report = run_experiment(small_cfg(epochs=1))
        report.per_epoch = []
        path, csv_path = write_report(report, tmp_path / "r.json")
        doc = json.loads(path.read_text())
        assert doc["per_epoch"] == []
        assert csv_path.read_text().strip().splitlines() == [
            "epoch,alpha_t,train_loss,test_loss,train_acc,test_acc,mean_max_prob"]

    def test_json_round_trip_reproduces_scalars_exactly(self, tmp_path):
        report = run_experiment(small_cfg(epochs=2))
        path, _ = write_report(report, tmp_path / "r.json")
        loaded = load_report(path)
        assert report_to_dict(loaded) == report_to_dict(report)
        for a, b in zip(loaded.per_epoch, report.per_epoch):
            assert a == b

    @pytest.mark.parametrize("drop", [("config",), ("per_epoch",), ("bias_stats", "std"),
                                      ("per_epoch", 0, "test_acc"), ("summary",),
                                      ("summary", "seeds"), ("final_relevance_path",)])
    def test_missing_key_names_file_and_key(self, tmp_path, drop):
        report = run_experiment(small_cfg(epochs=1))
        path, _ = write_report(report, tmp_path / "r.json")
        doc = json.loads(path.read_text())
        parent = doc
        for step in drop[:-1]:
            parent = parent[step]
        del parent[drop[-1]]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"r\.json: report has no '{drop[-1]}' key"):
            load_report(path)

    @pytest.mark.parametrize("rewrite, message", [
        pytest.param(lambda doc: "{bad", "report is not valid JSON: ", id="not_json"),
        pytest.param(lambda doc: "[1]", "report must be a JSON object, got list", id="list"),
        pytest.param(lambda doc: json.dumps({**doc, "summary": []}),
                     "'summary' must be a JSON object, got list", id="summary_list"),
        pytest.param(lambda doc: json.dumps({**doc, "per_epoch": [{**doc["per_epoch"][0], "test_acc": "high"}]}),
                     "'per_epoch[0].test_acc' must be a number, got 'high'", id="test_acc_string"),
        pytest.param(lambda doc: json.dumps({**doc, "summary": {**doc["summary"], "final_test_acc_mean": None}}),
                     "'summary.final_test_acc_mean' must be a number, got None", id="mean_null"),
        pytest.param(lambda doc: json.dumps({**doc, "bias_stats": {**doc["bias_stats"], "batch_count": 1.7}}),
                     "'bias_stats.batch_count' must be an integer, got 1.7", id="batch_count_float"),
        pytest.param(lambda doc: json.dumps({**doc, "summary": {**doc["summary"], "seeds": "abc"}}),
                     "'summary.seeds' must be a list of integers, got 'abc'", id="seeds_string"),
    ])
    def test_malformed_report_names_file_and_key(self, tmp_path, rewrite, message):
        report = run_experiment(small_cfg(epochs=1))
        path, _ = write_report(report, tmp_path / "r.json")
        path.write_text(rewrite(json.loads(path.read_text())))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_report(path)
