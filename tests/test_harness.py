from __future__ import annotations

import dataclasses
import json
import re
import threading
from pathlib import Path

import numpy as np
import pytest

from als_graph import harness
from als_graph import rng as rng_streams
from als_graph.data import SbmParams, generate_sbm
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
from als_graph.propagation import PropagationConfig, init_label_matrix, propagate
from als_graph.reporting import load_report, report_to_dict, write_report
from als_graph.smoothing import RefinementMatrix, alpha_at, init_refinement, refine_soft_label


def small_cfg(**kwargs) -> ExperimentConfig:
    base = dict(
        sbm_blocks=3, sbm_nodes_per_block=20, sbm_p_in=0.3, sbm_p_out=0.02,
        sbm_feature_dim=5, sbm_feature_noise=1.0, sbm_train_fraction=0.3,
        sbm_val_fraction=0.2, num_parts=3, parts_per_batch=1,
        hidden=8, dropout=0.2, epochs=4, lr=0.05, loss_mode="als",
    )
    base.update(kwargs)
    return ExperimentConfig(**base).validate()


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
    ])
    def test_bad_model_setting_names_the_key(self, key, value):
        with pytest.raises(ValueError, match=re.escape(key)):
            build_config({key: value})

    def test_values_parse_by_field_annotation(self):
        cfg = build_config({"loss.gamma": "0", "train.lr": "1", "train.epochs": "3",
                            "loss.stop_gradient": "yes", "sampler.fanouts": "1,2,3"})
        assert (cfg.gamma, cfg.lr, cfg.epochs) == (0.0, 1.0, 3)
        assert [type(v) for v in (cfg.gamma, cfg.lr, cfg.epochs)] == [float, float, int]
        assert cfg.stop_gradient is True and cfg.fanouts == (1, 2, 3)

    def test_readme_table_lists_every_config_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| key | default | meaning |", 1)[1].split("\n\n", 1)[0]
        documented = {key for row in table.splitlines() if row.startswith("| `")
                      for key in re.findall(r"`([^`]+)`", row.split("|")[1])}
        declared = {f.metadata["key"] for f in dataclasses.fields(ExperimentConfig)}
        assert len(declared) == 46
        assert documented == declared

    def test_flat_round_trip(self):
        cfg = small_cfg()
        flat = config_to_flat(cfg)
        again = build_config(flat)
        assert again == cfg

    def test_sweep_grid_parsing(self):
        grid = parse_sweep_grid({"sweep.r": "0.01, 0.02", "sweep.k": "1,2", "loss.mode": "als"})
        assert grid == {"pacing_r": [0.01, 0.02], "k_steps": [1, 2]}


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
        cfg = small_cfg(seed=3)
        for i, report in enumerate([run_experiment(cfg), run_experiment(cfg)]):
            write_report(report, tmp_path / f"r{i}.json")
        assert (tmp_path / "r0.json").read_bytes() == (tmp_path / "r1.json").read_bytes()
        assert (tmp_path / "r0.csv").read_bytes() == (tmp_path / "r1.csv").read_bytes()

    def test_reported_train_loss_matches_frozen_reevaluation(self):
        cfg = small_cfg(epochs=3, seed=2)
        result = run_training(cfg)
        from als_graph.harness import _batch_loss
        from als_graph.model import forward

        last = cfg.epochs - 1
        alpha = result.report.per_epoch[-1].alpha_t
        batches = epoch_batches(cfg, result.dataset, result.partition, last)
        totals = []
        for batch in batches:
            if batch.train_local.size == 0:
                continue
            logits, _ = forward(result.params, batch, result.features[batch.global_ids],
                                train_mode=False)
            breakdown, _, _ = _batch_loss(cfg, result.dataset, batch, logits,
                                          result.soft_labels, result.refinement, alpha)
            totals.append(breakdown.total)
        assert result.report.per_epoch[-1].train_loss == float(np.mean(totals))

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
        assert batch.subgraph is result.dataset.graph
        logits, _ = forward(result.params, batch, result.features[batch.global_ids],
                            train_mode=False)
        breakdown, _, _ = _batch_loss(cfg, result.dataset, batch, logits, result.soft_labels,
                                      result.refinement, result.report.per_epoch[-1].alpha_t)
        assert result.report.per_epoch[-1].train_loss == breakdown.total

    def test_reuse_ends_at_the_first_adam_step(self, monkeypatch):
        calls = self.count_forwards(monkeypatch)
        # walks long enough to visit every node: two whole-graph batches an epoch
        cfg = small_cfg(sampler_kind="random_walk", num_roots=60, walk_length=10,
                        batches_per_epoch=2, dropout=0.0, epochs=3)
        result = run_training(cfg)
        for epoch in range(cfg.epochs):
            batches = epoch_batches(cfg, result.dataset, None, epoch)
            assert [b.subgraph is result.dataset.graph for b in batches] == [True, True]
        # only each later epoch's first batch reuses the evaluation forward
        assert len(calls[True]) == 2 * cfg.epochs - (cfg.epochs - 1)

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
            assert len(calls[False]) == sum(per_epoch) + cfg.epochs


def serial_training(cfg: ExperimentConfig):
    """``run_training``'s loop with each epoch's batches built on this thread.

    Covers the configs ``TestBatchPrefetch`` uses: als loss with propagation
    and refinement, and dropout above 0 (so no forward is reused). Returns
    the per-epoch metrics and the final parameter values.
    """
    assert cfg.loss_mode == "als" and cfg.dropout > 0
    dataset = harness.build_dataset(cfg)
    yk = propagate(dataset.graph, init_label_matrix(dataset),
                   PropagationConfig(cfg.beta, cfg.k_steps, cfg.self_loops))
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
        alpha = float(alpha_at(cfg.pacing_schedule(), epoch))
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
        metrics, _ = harness._evaluate_epoch(cfg, dataset, feats, params, refinement, yk,
                                             batches, alpha)
        records.append(metrics)
    return records, values


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
        d = generate_sbm(SbmParams(blocks=3, nodes_per_block=10, train_fraction=0.3, seed=1))
        yk = propagate(d.graph, init_label_matrix(d), PropagationConfig(0.2, 2))
        feats = label_input_features(d, yk)
        assert feats.shape == (d.num_nodes, d.num_features + d.num_classes)
        assert feats[:, : d.num_features].tobytes() == d.features.tobytes()
        zero_rows = ~yk.any(axis=1)
        if zero_rows.any():
            assert not feats[zero_rows, d.num_features:].any()

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
        transposed = RefinementMatrix(w.w.T.copy())
        for i in range(5):
            basis = np.zeros(5)
            basis[i] = 1.0
            assert np.allclose(rows[i], refine_soft_label(transposed, basis), atol=1e-15)


class TestAnalyses:
    def test_ablation_family_runs(self, tmp_path):
        results = run_ablations(small_cfg(epochs=2), tmp_path)
        assert set(results) == {"als", "no_propagation", "no_refinement", "no_pacing"}
        summary = (tmp_path / "ablation_summary.csv").read_text().strip().splitlines()
        assert len(summary) == 5
        assert (tmp_path / "no_refinement.json").exists()

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
