from __future__ import annotations

import json

import numpy as np
import pytest

from als_graph import harness
from als_graph.cli import main
from als_graph.data import read_matrix_binary

SMALL_CONFIG = """
sbm.blocks = 3
sbm.nodes_per_block = 15
sbm.p_in = 0.3
sbm.p_out = 0.02
sbm.feature_dim = 4
sbm.train_fraction = 0.4
sbm.val_fraction = 0.2
sampler.num_parts = 3
sampler.parts_per_batch = 1
model.hidden = 8
model.dropout = 0.0
train.epochs = 2
train.lr = 0.05
loss.mode = als
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(SMALL_CONFIG)
    return path


def test_train_writes_report_and_relevance(tmp_path, config_path, capsys):
    out = tmp_path / "report.json"
    code = main(["train", "--config", str(config_path), "--out", str(out),
                 "--checkpoint-dir", str(tmp_path / "ckpt")])
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["per_epoch"]) == 2
    assert doc["final_relevance_path"].endswith("report.relevance.csv")
    assert (tmp_path / "report.relevance.csv").exists()
    assert (tmp_path / "report.csv").exists()
    assert (tmp_path / "ckpt" / "manifest.json").exists()
    assert "final test accuracy" in capsys.readouterr().out


def test_train_accepts_overrides(tmp_path, config_path):
    out = tmp_path / "r.json"
    code = main(["train", "--config", str(config_path), "--out", str(out),
                 "train.epochs=1", "loss.mode=plain"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["per_epoch"]) == 1
    assert doc["config"]["loss.mode"] == "plain"
    assert doc["final_relevance_path"] is None


def test_train_rejects_checkpoint_dir_with_repeats(tmp_path, config_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "run_training", None)  # any training call would fail
    out = tmp_path / "r.json"
    code = main(["train", "--config", str(config_path), "--out", str(out),
                 "--checkpoint-dir", str(tmp_path / "ckpt"), "train.repeats=2"])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert "--checkpoint-dir" in err["message"] and "train.repeats" in err["message"]
    assert not out.exists() and not (tmp_path / "ckpt").exists()


def test_propagate_round_trip(tmp_path):
    (tmp_path / "g.tsv").write_text("0\t1\n1\t2\n")
    (tmp_path / "y.csv").write_text("0,1\n")
    out = tmp_path / "yk.bin"
    code = main(["propagate", "--graph", str(tmp_path / "g.tsv"),
                 "--labels", str(tmp_path / "y.csv"), "--out", str(out),
                 "--beta", "0.5", "--k", "1"])
    assert code == 0
    yk = read_matrix_binary(out)
    # one labeled node (class 1 of 2), one step at beta=0.5 over a path graph
    assert yk.shape == (3, 2)
    assert np.allclose(yk, [[0.0, 0.5], [0.0, 0.25], [0.0, 0.0]])


@pytest.mark.parametrize("labels, extra, message", [
    ("0,1\n5,0\n", ["--num-nodes", "3"], "y.csv:2: node id 5 out of range for 3 nodes"),
    ("0,1\n2,0\n0,0\n", [], "y.csv:3: node 0 listed more than once"),
])
def test_propagate_rejects_bad_label_lines(tmp_path, capsys, labels, extra, message):
    (tmp_path / "g.tsv").write_text("0\t1\n1\t2\n")
    (tmp_path / "y.csv").write_text(labels)
    code = main(["propagate", "--graph", str(tmp_path / "g.tsv"), "--labels",
                 str(tmp_path / "y.csv"), "--out", str(tmp_path / "yk.bin"), *extra])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert err["message"].endswith(message)
    assert not (tmp_path / "yk.bin").exists()


def test_propagate_rejects_edge_id_beyond_num_nodes(tmp_path, capsys):
    (tmp_path / "g.tsv").write_text("0\t1\n1\t5\n")
    (tmp_path / "y.csv").write_text("0,1\n")
    code = main(["propagate", "--graph", str(tmp_path / "g.tsv"), "--labels",
                 str(tmp_path / "y.csv"), "--out", str(tmp_path / "yk.bin"), "--num-nodes", "3"])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert err["message"].endswith("g.tsv:2: node id 5 out of range for 3 nodes")
    assert not (tmp_path / "yk.bin").exists()


def test_analyze_bias_csv(tmp_path, config_path):
    out = tmp_path / "bias.csv"
    code = main(["analyze-bias", "--config", str(config_path), "--out", str(out),
                 "--epochs", "2"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "class,mean,std"
    assert len(lines) == 4


def test_ablate_writes_summary(tmp_path, config_path):
    out_dir = tmp_path / "abl"
    code = main(["ablate", "--config", str(config_path), "--out-dir", str(out_dir),
                 "train.epochs=1"])
    assert code == 0
    assert (out_dir / "ablation_summary.csv").exists()
    assert (out_dir / "als.json").exists()


def test_sweep_requires_grid(tmp_path, config_path, capsys):
    code = main(["sweep", "--config", str(config_path), "--out-dir", str(tmp_path / "s")])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert "sweep" in err["message"]


def test_sweep_with_grid(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SMALL_CONFIG + "sweep.r = 0.01,0.02\ntrain.epochs = 1\n")
    out_dir = tmp_path / "sweep_out"
    code = main(["sweep", "--config", str(cfg), "--out-dir", str(out_dir)])
    assert code == 0
    assert (out_dir / "sweep_summary.csv").exists()
    assert len(list(out_dir.glob("sweep_*.json"))) == 2


def test_export_relevance_from_checkpoint(tmp_path, config_path):
    ckpt = tmp_path / "ckpt"
    main(["train", "--config", str(config_path), "--out", str(tmp_path / "r.json"),
          "--checkpoint-dir", str(ckpt)])
    out = tmp_path / "relevance.csv"
    code = main(["export-relevance", "--checkpoint", str(ckpt), "--out", str(out)])
    assert code == 0
    rows = np.loadtxt(out, delimiter=",", ndmin=2)
    assert rows.shape == (3, 3)
    assert np.abs(rows.sum(axis=1) - 1.0).max() < 1e-9


def test_bad_config_reports_machine_readable_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("loss.mode = warp\n")
    code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert "loss.mode" in err["message"]


def test_missing_file_fails_cleanly(tmp_path, capsys):
    code = main(["train", "--config", str(tmp_path / "absent.cfg"),
                 "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "FileNotFoundError"
