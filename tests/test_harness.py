from __future__ import annotations

import json
import re

import numpy as np
import pytest

from als_graph import harness
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
from als_graph.propagation import PropagationConfig, init_label_matrix, propagate
from als_graph.reporting import load_report, report_to_dict, write_report
from als_graph.smoothing import RefinementMatrix, refine_soft_label


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
    ])
    def test_bad_sampler_size_names_the_key(self, key, value):
        with pytest.raises(ValueError, match=re.escape(key)):
            build_config({"sampler.kind": "neighbor", key: value})

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
    def count_eval_forwards(monkeypatch) -> list[int]:
        calls: list[int] = []
        real = harness.forward

        def counting(params, batch, features, train_mode, seed=0):
            if not train_mode:
                calls.append(batch.num_nodes)
            return real(params, batch, features, train_mode, seed)
        monkeypatch.setattr(harness, "forward", counting)
        return calls

    @pytest.mark.parametrize("extra", [dict(num_parts=3, parts_per_batch=3),
                                       dict(sampler_kind="full")])
    def test_whole_graph_batch_reuses_full_logits(self, monkeypatch, extra):
        calls = self.count_eval_forwards(monkeypatch)
        cfg = small_cfg(epochs=3, **extra)
        result = run_training(cfg)
        assert calls == [result.dataset.num_nodes] * cfg.epochs
        from als_graph.harness import _batch_loss
        from als_graph.model import forward

        (batch,) = epoch_batches(cfg, result.dataset, result.partition, cfg.epochs - 1)
        assert batch.subgraph is result.dataset.graph
        logits, _ = forward(result.params, batch, result.features[batch.global_ids],
                            train_mode=False)
        breakdown, _, _ = _batch_loss(cfg, result.dataset, batch, logits, result.soft_labels,
                                      result.refinement, result.report.per_epoch[-1].alpha_t)
        assert result.report.per_epoch[-1].train_loss == breakdown.total

    def test_partial_batches_get_one_forward_each(self, monkeypatch):
        calls = self.count_eval_forwards(monkeypatch)
        cfg = small_cfg(epochs=3)
        result = run_training(cfg)
        per_epoch = [sum(b.train_local.size > 0 for b in
                         epoch_batches(cfg, result.dataset, result.partition, epoch))
                     for epoch in range(cfg.epochs)]
        assert min(per_epoch) > 1
        assert len(calls) == sum(per_epoch) + cfg.epochs


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
