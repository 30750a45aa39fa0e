"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the directional experiments (criteria 6 and 7) share one module-scoped
set of training runs and take a few minutes combined.
"""
from __future__ import annotations

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from als_graph.data import generate_sbm, one_hot
from als_graph.graph import build_csr
from als_graph.harness import (
    ExperimentConfig,
    build_config,
    compare_label_exploitation,
    load_config_file,
    run_experiment,
)
from als_graph.metrics import bias_stats
from als_graph.model import backward, forward, init_model
from als_graph.propagation import (
    init_label_matrix,
    predict_by_propagation,
    propagate,
)
from als_graph.reporting import write_report
from als_graph.sampling import cluster_batches, full_batch, partition_clusters
from als_graph.smoothing import RefinementMatrix, alpha_at, loss_and_grads

from conftest import central_diff, random_distribution, random_undirected, rel_err, to_dense


def _report(num: int, name: str, passed: bool, detail: str = "") -> None:
    print(f"[acceptance] criterion {num:02d} ({name}): {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"criterion {num} ({name}) failed: {detail}"


# the calibrated directional protocol; the file's header says what it pins
PROTOCOL_CFG = Path(__file__).resolve().parents[1] / "configs" / "protocol.cfg"
PROTOCOL = build_config(load_config_file(PROTOCOL_CFG))
PROTOCOL_SEEDS = range(5)


@pytest.fixture(scope="module")
def smoothing_runs():
    """Final-epoch records for plain, full adaptive smoothing and its ablations."""
    variants = {
        "plain": replace(PROTOCOL, loss_mode="plain"),
        "als": PROTOCOL,
        "no_propagation": replace(PROTOCOL, no_propagation=True),
        "no_refinement": replace(PROTOCOL, no_refinement=True),
        "no_pacing": replace(PROTOCOL, no_pacing=True),
    }
    records, elapsed = {}, {}
    for name, cfg in variants.items():
        start = time.perf_counter()
        records[name] = [run_experiment(replace(cfg, seed=s)).per_epoch[-1]
                         for s in PROTOCOL_SEEDS]
        elapsed[name] = time.perf_counter() - start
    return records, elapsed


def test_criterion_01_propagation_matches_dense_iteration():
    start = time.perf_counter()
    gen = np.random.default_rng(1)
    betas = (0.0, 0.1, 0.5, 1.0)
    worst = 0.0
    for i in range(50):
        n = int(gen.integers(2, 65))
        c = int(gen.integers(1, 9))
        k = int(gen.integers(0, 9))
        beta = betas[i % 4]
        dense, edges = random_undirected(gen, n, float(gen.uniform(0.05, 0.5)))
        g = build_csr(edges, n, symmetrize=True)
        y0 = np.zeros((n, c))
        labeled = gen.permutation(n)[: max(1, n // 3)]
        y0[labeled, gen.integers(c, size=labeled.size)] = 1.0

        deg = dense.sum(axis=1)
        inv = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
        op = np.diag(inv) @ dense
        expected = y0.copy()
        for _ in range(k):
            expected = (1.0 - beta) * (op @ expected) + beta * y0

        got = propagate(g, y0, beta, k)
        worst = max(worst, float(np.abs(got - expected).max()))
    took = time.perf_counter() - start
    _report(1, "propagation oracle equivalence", worst < 1e-12 and took < 10.0,
            f"max abs diff {worst:.2e}, {took:.1f}s")


def test_criterion_02_gradient_exactness():
    start = time.perf_counter()
    modes = ("plain", "ls", "als")
    worst = 0.0
    for i in range(20):
        gen = np.random.default_rng(100 + i)
        mode = modes[i % 3]
        arch = ("gcn", "mlp")[i % 2]
        dataset = generate_sbm(
            blocks=int(gen.integers(2, 4)), nodes_per_block=int(gen.integers(4, 7)),
            p_in=0.5, p_out=0.1, feature_dim=4, feature_noise=1.0,
            train_fraction=0.5, val_fraction=0.2, seed=int(gen.integers(1000)))
        batch = full_batch(dataset)
        c = dataset.num_classes
        params = init_model(arch, [4, 5, c], dropout=0.0, seed=int(gen.integers(1000)))
        w = RefinementMatrix(0.5 * gen.standard_normal((c, c)))
        yk = propagate(dataset.graph, init_label_matrix(dataset), 0.3, 2)
        rows = batch.train_local
        hard = one_hot(dataset.labels[batch.global_ids[rows]], c)
        alpha, gamma = 0.3, 0.7

        def total() -> float:
            logits, _ = forward(params, batch, dataset.features, train_mode=True, seed=0)
            if mode == "plain":
                bd, _, _ = loss_and_grads(logits[rows], hard)
            elif mode == "ls":
                bd, _, _ = loss_and_grads(logits[rows], hard, alpha_t=alpha, mode="ls")
            else:
                bd, _, _ = loss_and_grads(logits[rows], hard, yk[batch.global_ids[rows]],
                                          w, alpha, gamma, "als")
            return bd.total

        logits, cache = forward(params, batch, dataset.features, train_mode=True, seed=0)
        if mode == "plain":
            _, dtrain, dw = loss_and_grads(logits[rows], hard)
        elif mode == "ls":
            _, dtrain, dw = loss_and_grads(logits[rows], hard, alpha_t=alpha, mode="ls")
        else:
            _, dtrain, dw = loss_and_grads(logits[rows], hard, yk[batch.global_ids[rows]],
                                           w, alpha, gamma, "als")
        dlogits = np.zeros_like(logits)
        dlogits[rows] = dtrain
        wgrads, bgrads = backward(params, cache, dlogits)
        for analytic, array in zip(wgrads + bgrads + [dw],
                                   params.weights + params.biases + [w.w]):
            worst = max(worst, rel_err(analytic, central_diff(total, array)))
    took = time.perf_counter() - start
    _report(2, "gradient exactness", worst < 1e-5 and took < 60.0,
            f"max rel err {worst:.2e}, {took:.1f}s")


def test_criterion_03_loss_algebra():
    gen = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        c = int(gen.integers(2, 9))
        y = np.zeros(c)
        y[int(gen.integers(c))] = 1.0
        soft = random_distribution(gen, c)
        pred = random_distribution(gen, c)
        alpha = float(gen.random())
        log_pred = np.log(pred)
        lhs = -np.sum(((1 - alpha) * y + alpha * soft) * log_pred)
        rhs = -(1 - alpha) * np.sum(y * log_pred) - alpha * np.sum(soft * log_pred)
        worst = max(worst, abs(lhs - rhs))

    exact = True
    for i in range(30):
        g2 = np.random.default_rng(300 + i)
        batch, c = int(g2.integers(1, 9)), int(g2.integers(2, 7))
        logits = g2.standard_normal((batch, c))
        hard = one_hot(g2.integers(c, size=batch), c)
        yk = g2.random((batch, c))
        w = RefinementMatrix(g2.standard_normal((c, c)))
        plain_bd, plain_dl, plain_dw = loss_and_grads(logits, hard)
        als0_bd, als0_dl, als0_dw = loss_and_grads(logits, hard, yk, w, 0.0, 0.0, "als")
        exact &= als0_bd.total == plain_bd.total
        exact &= np.array_equal(als0_dl, plain_dl) and np.array_equal(als0_dw, plain_dw)
        alpha = float(g2.random())
        ls_bd, ls_dl, _ = loss_and_grads(logits, hard, alpha_t=alpha, mode="ls")
        uni_bd, uni_dl, _ = loss_and_grads(logits, hard, yk, RefinementMatrix(np.zeros((c, c))),
                                           alpha, 0.0, "als")
        exact &= uni_bd.total == ls_bd.total and np.array_equal(uni_dl, ls_dl)
        exact &= uni_bd.ce_hard == ls_bd.ce_hard and uni_bd.ce_soft == ls_bd.ce_soft
    _report(3, "loss algebra", worst < 1e-12 and exact,
            f"identity max diff {worst:.2e}, exact reductions {exact}")


def test_criterion_04_pacing_closed_forms():
    worst = 0.0
    rates = (-0.2, -0.01, 0.0, 0.005, 0.01, 0.1)
    initials = (0.0, 0.05, 0.1, 0.15, 0.2)
    caps = (0.0, 0.05, 0.1, 0.5, 1.0)
    epochs = (0, 1, 5, 10, 100, 10**6)
    saturated = True
    for r in rates:
        for cap in caps:
            lin = dict(kind="linear", r=r, alpha_max=cap)
            for t in epochs:
                worst = max(worst, abs(alpha_at(t, **lin) - min(r * t, cap)))
            for b in initials:
                exp = dict(kind="exponential", b=b, r=r, alpha_max=cap)
                for t in epochs:
                    if r * t > 700.0:
                        # beyond float range the closed form is exact by
                        # saturation: the cap for b > 0, zero for b == 0
                        saturated &= alpha_at(t, **exp) == (cap if b > 0 else 0.0)
                    else:
                        worst = max(worst, abs(alpha_at(t, **exp) - min(b * math.exp(r * t), cap)))
    _report(4, "pacing closed forms", worst < 1e-15 and saturated,
            f"max diff {worst:.2e}, saturation exact {saturated}")


def test_criterion_05_bias_amplification():
    start = time.perf_counter()
    params = dict(blocks=8, nodes_per_block=250, p_in=0.05, p_out=0.002,
                  feature_dim=16, feature_noise=1.0,
                  train_fraction=0.3, val_fraction=0.2)
    ratios = []
    for seed in range(10):
        d = generate_sbm(**params, seed=seed)
        partition = partition_clusters(d.graph, 8, seed=seed)
        batches = cluster_batches(d, partition, 2, seed=seed)
        clustered_std = float(bias_stats(batches, d).std.mean())

        # Monte-Carlo oracle: uniformly random batches of the same node counts,
        # class fractions counted directly from labels
        gen = np.random.default_rng(10_000 + seed)
        order = gen.permutation(d.num_nodes)
        fractions, cursor = [], 0
        for size in (b.num_nodes for b in batches):
            members = order[cursor : cursor + size]
            cursor += size
            train_members = members[d.train_mask[members]]
            counts = np.bincount(d.labels[train_members], minlength=d.num_classes)
            fractions.append(counts / counts.sum())
        random_std = float(np.stack(fractions).std(axis=0, ddof=1).mean())
        ratios.append(clustered_std / random_std)
    mean_ratio = float(np.mean(ratios))
    took = time.perf_counter() - start
    _report(5, "bias amplification", mean_ratio > 2.0 and took < 60.0,
            f"clustered/random std ratio {mean_ratio:.1f}, {took:.1f}s")


def test_criterion_06_overconfidence_reduction(smoothing_runs):
    records, elapsed = smoothing_runs
    plain, als = records["plain"], records["als"]
    mmp_plain = np.mean([r.mean_max_prob for r in plain])
    mmp_als = np.mean([r.mean_max_prob for r in als])
    loss_wins = sum(a.test_loss < p.test_loss for a, p in zip(als, plain))
    worst_acc_delta = min(a.test_acc - p.test_acc for a, p in zip(als, plain))
    took = elapsed["plain"] + elapsed["als"]
    ok = (mmp_als < mmp_plain) and loss_wins >= 4 and worst_acc_delta >= -0.005 and took < 600.0
    _report(6, "over-confidence reduction", ok,
            f"mmp {mmp_als:.3f}<{mmp_plain:.3f}, test-loss wins {loss_wins}/5, "
            f"worst acc delta {worst_acc_delta:+.4f}, {took:.0f}s")


def test_criterion_07_ablation_ordering(smoothing_runs):
    records, _ = smoothing_runs
    als_mean = np.mean([r.test_acc for r in records["als"]])
    margins = {}
    for name in ("no_propagation", "no_refinement", "no_pacing"):
        margins[name] = float(als_mean - np.mean([r.test_acc for r in records[name]]))
    ok = all(m >= -0.003 for m in margins.values())
    detail = ", ".join(f"{k} {v * 100:+.2f}pp" for k, v in margins.items())
    _report(7, "ablation ordering", ok, detail)


def test_criterion_08_baseline_coverage(tmp_path):
    # all three label-exploitation methods under one config schema, one CSV
    cfg = ExperimentConfig(
        sbm_blocks=3, sbm_nodes_per_block=20, sbm_p_in=0.4, sbm_p_out=0.02,
        sbm_feature_dim=6, sbm_feature_noise=1.0, sbm_train_fraction=0.3,
        sbm_val_fraction=0.2, num_parts=3, parts_per_batch=1,
        hidden=8, dropout=0.0, epochs=5, lr=0.05, loss_mode="plain",
    )
    rows = compare_label_exploitation(cfg, tmp_path / "methods.csv")
    methods = [r["method"] for r in rows]
    csv_lines = (tmp_path / "methods.csv").read_text().strip().splitlines()

    # propagation-only on pure blocks with one seeded label per block: every
    # node reached within the step budget must be predicted correctly
    d = generate_sbm(blocks=4, nodes_per_block=30, p_in=0.3, p_out=0.0,
                     feature_dim=4, train_fraction=0.5, val_fraction=0.0, seed=11)
    train = np.zeros(d.num_nodes, dtype=bool)
    train[np.arange(4) * 30] = True
    d.train_mask, d.val_mask, d.test_mask = train, np.zeros_like(train), ~train
    k = 16
    yk = propagate(d.graph, init_label_matrix(d), 0.5, k)
    pred, abstain = predict_by_propagation(yk)

    dense = to_dense(d.graph)
    reached = train.copy()
    for _ in range(k):
        frontier = (dense[reached].sum(axis=0) > 0) & ~reached
        if not frontier.any():
            break
        reached |= frontier
    reachable_acc = float((pred[reached] == d.labels[reached]).mean())
    ok = (methods == ["propagation_only", "label_input", "als"]
          and len(csv_lines) == 4
          and np.array_equal(~abstain, reached)
          and reachable_acc == 1.0)
    _report(8, "baseline coverage", ok,
            f"methods {methods}, reachable accuracy {reachable_acc:.0%}")


def test_criterion_09_determinism(tmp_path):
    cfg = ExperimentConfig(
        sbm_blocks=3, sbm_nodes_per_block=15, sbm_p_in=0.3, sbm_p_out=0.02,
        sbm_feature_dim=4, sbm_train_fraction=0.4, sbm_val_fraction=0.2,
        num_parts=3, parts_per_batch=1, hidden=8, dropout=0.5,
        epochs=3, lr=0.05, loss_mode="als", seed=17,
    )
    paths = []
    for i in range(2):
        report = run_experiment(cfg)
        paths.append(write_report(report, tmp_path / f"run{i}.json"))
    same_json = paths[0][0].read_bytes() == paths[1][0].read_bytes()
    same_csv = paths[0][1].read_bytes() == paths[1][1].read_bytes()
    _report(9, "determinism", same_json and same_csv,
            f"json identical {same_json}, csv identical {same_csv}")


FLICKR_DIR = Path(__file__).resolve().parent.parent / "data" / "flickr"


def test_criterion_10_flickr_stretch():
    # optional, not gating: runs only when a local copy of the real dataset is
    # provided (see README for the expected files)
    if not FLICKR_DIR.is_dir():
        print("[acceptance] criterion 10 (real-data stretch): SKIP "
              f"(no dataset at {FLICKR_DIR})")
        pytest.skip("Flickr dataset not bundled; place files under data/flickr to run")
    cfg = ExperimentConfig(
        data_source="files",
        data_edges=str(FLICKR_DIR / "edges.tsv"),
        data_features=str(FLICKR_DIR / "features.bin"),
        data_labels=str(FLICKR_DIR / "labels.csv"),
        data_splits=str(FLICKR_DIR / "splits.csv"),
        sampler_kind="random_walk", num_roots=2000, walk_length=2,
        arch="gcn", depth=3, hidden=64, dropout=0.2,
        epochs=30, lr=0.01, loss_mode="plain", repeats=5,
        pacing_kind="linear", pacing_r=5e-3, alpha_max=0.1, gamma=5e-3,
        beta=0.5, k_steps=2,
    )
    from als_graph.harness import run_repeated

    plain, _ = run_repeated(cfg)
    als, _ = run_repeated(replace(cfg, loss_mode="als"))
    _report(10, "real-data stretch", als.final_test_acc_mean >= plain.final_test_acc_mean,
            f"als {als.final_test_acc_mean:.4f} vs plain {plain.final_test_acc_mean:.4f}")
