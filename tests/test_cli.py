from __future__ import annotations

import json

import numpy as np
import pytest

from als_graph import harness
from als_graph.cli import main
from als_graph.data import read_matrix_binary, write_matrix_binary
from als_graph.graph import build_csr
from als_graph.propagation import propagate

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


def test_train_with_repeats_writes_a_summary_over_the_seeds(tmp_path, config_path, capsys):
    out = tmp_path / "r.json"
    code = main(["train", "--config", str(config_path), "--out", str(out), "train.repeats=2"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["seeds"] == [0, 1]
    assert doc["final_relevance_path"] is None
    assert not (tmp_path / "r.relevance.csv").exists()
    assert "over 2 seed(s)" in capsys.readouterr().out


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


def test_propagate_takes_self_loops_from_the_config(tmp_path):
    (tmp_path / "g.tsv").write_text("0\t1\n1\t2\n2\t3\n")
    (tmp_path / "y.csv").write_text("0,1\n3,0\n")
    (tmp_path / "p.cfg").write_text("propagation.beta = 0.3\npropagation.k = 3\n"
                                    "propagation.self_loops = true\n")
    out = tmp_path / "yk.bin"
    code = main(["propagate", "--graph", str(tmp_path / "g.tsv"), "--labels",
                 str(tmp_path / "y.csv"), "--out", str(out), "--config", str(tmp_path / "p.cfg")])
    assert code == 0
    g = build_csr(np.array([[0, 1], [1, 2], [2, 3]]), 4, symmetrize=True)
    y0 = np.zeros((4, 2))
    y0[0, 1] = y0[3, 0] = 1.0
    expected = propagate(g, y0, 0.3, 3, True)
    assert np.array_equal(read_matrix_binary(out), expected)
    assert not np.array_equal(expected, propagate(g, y0, 0.3, 3, False))


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


@pytest.mark.parametrize("flag, value, message", [
    ("--beta", "2", "beta must lie in [0, 1]"),
    ("--k", "-1", "num_steps must be nonnegative"),
])
def test_propagate_rejects_bad_settings_before_reading_input(tmp_path, capsys, flag, value, message):
    code = main(["propagate", "--graph", str(tmp_path / "absent.tsv"), "--labels",
                 str(tmp_path / "absent.csv"), "--out", str(tmp_path / "yk.bin"), flag, value])
    assert code == 1
    assert json.loads(capsys.readouterr().err.strip()) == {"error": "ValueError", "message": message}
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


def test_propagate_rejects_negative_num_nodes(tmp_path, capsys):
    (tmp_path / "e.txt").write_text("0\t1\n")
    (tmp_path / "y.csv").write_text("0,1\n")
    code = main(["propagate", "--graph", str(tmp_path / "e.txt"), "--labels",
                 str(tmp_path / "y.csv"), "--out", str(tmp_path / "yk.bin"), "--num-nodes", "-3"])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert "--num-nodes" in err["message"]
    assert not (tmp_path / "yk.bin").exists()


def test_analyze_bias_csv(tmp_path, config_path):
    out = tmp_path / "bias.csv"
    code = main(["analyze-bias", "--config", str(config_path), "--out", str(out),
                 "--epochs", "2"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "class,mean,std"
    assert len(lines) == 4
    for c, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert int(fields[0]) == c
        assert all(0.0 <= float(x) <= 1.0 for x in fields[1:])


@pytest.mark.parametrize("epochs", ["0", "-2"])
def test_analyze_bias_rejects_epochs_below_one(tmp_path, config_path, capsys, epochs):
    out = tmp_path / "bias.csv"
    code = main(["analyze-bias", "--config", str(config_path), "--out", str(out),
                 "--epochs", epochs])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert "--epochs" in err["message"]
    assert not out.exists()


def test_num_parts_above_the_node_count_names_its_key(tmp_path, config_path, capsys):
    code = main(["train", "--config", str(config_path), "--out", str(tmp_path / "r.json"),
                 "sampler.num_parts=50"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["message"] == "sampler.num_parts must be at most the node count (45), got 50"


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


@pytest.mark.parametrize("values", [",", ""])
def test_sweep_key_with_no_values_is_rejected(tmp_path, config_path, capsys, values):
    out_dir = tmp_path / "s"
    code = main(["sweep", "--config", str(config_path), "--out-dir", str(out_dir),
                 f"sweep.gamma={values}"])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ValueError", "message": "config key sweep.gamma: no values"}
    assert not (out_dir / "sweep_summary.csv").exists()


def test_sweep_with_grid(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SMALL_CONFIG + "sweep.r = 0.01,0.02\n")
    out_dir = tmp_path / "sweep_out"
    code = main(["sweep", "--config", str(cfg), "--out-dir", str(out_dir), "train.epochs=1"])
    assert code == 0
    assert (out_dir / "sweep_summary.csv").exists()
    assert len(list(out_dir.glob("sweep_*.json"))) == 2


@pytest.mark.parametrize("command, out_name", [
    ("train", "r.json"),
    ("analyze-bias", "bias.csv"),
    ("propagate", "yk.bin"),
    ("export-relevance", "rel.csv"),
])
def test_out_path_directory_is_created(tmp_path, config_path, command, out_name):
    (tmp_path / "g.tsv").write_text("0\t1\n1\t2\n")
    (tmp_path / "y.csv").write_text("0,1\n")
    write_matrix_binary(np.eye(3), tmp_path / "w.bin")
    inputs = {
        "train": ["--config", str(config_path)],
        "analyze-bias": ["--config", str(config_path)],
        "propagate": ["--graph", str(tmp_path / "g.tsv"), "--labels", str(tmp_path / "y.csv")],
        "export-relevance": ["--checkpoint", str(tmp_path / "w.bin")],
    }
    out = tmp_path / "missing" / out_name
    assert main([command, *inputs[command], "--out", str(out)]) == 0
    assert out.exists()
    if command == "train":  # the relevance CSV is written before the report
        assert (out.parent / "r.relevance.csv").exists() and (out.parent / "r.csv").exists()


def test_train_rejects_an_out_path_that_is_its_own_csv(tmp_path, config_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["train", "--config", str(config_path), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError" and err["message"].startswith(f"--out {out}: ")
    assert list(tmp_path.iterdir()) == [config_path]  # nothing trained, nothing written


@pytest.mark.parametrize("command, flag, target, reason", [
    ("train", "--out", "dir", "is a directory"),
    ("train", "--out", "file/r.json", "cannot make directory"),
    ("train", "--checkpoint-dir", "file", "cannot make directory"),
    ("ablate", "--out-dir", "file", "cannot make directory"),
    ("sweep", "--out-dir", "file", "cannot make directory"),
])
def test_an_unusable_output_path_is_rejected_before_any_training(tmp_path, config_path, capsys, monkeypatch,
                                                                 command, flag, target, reason):
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    monkeypatch.setattr(harness, "run_training", lambda cfg: pytest.fail("trained before the check"))
    extra = ["--out", str(tmp_path / "r.json")] if flag == "--checkpoint-dir" else []
    extra += ["sweep.r=0.01"] if command == "sweep" else []
    value = tmp_path / target
    assert main([command, "--config", str(config_path), flag, str(value), *extra]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError" and err["message"].startswith(f"{flag} {value}: {reason}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "exp.cfg", "file"]  # nothing written


@pytest.mark.parametrize("command", ["train", "analyze-bias", "propagate"])
def test_a_sweep_key_is_unknown_outside_sweep(tmp_path, config_path, capsys, command):
    """Only ``sweep`` reads sweep.* keys; anywhere else one would silently do nothing."""
    config_path.write_text(SMALL_CONFIG + "sweep.r = abc\n")
    extra = (["--graph", str(tmp_path / "g.tsv"), "--labels", str(tmp_path / "y.csv")]
             if command == "propagate" else ["sweep.k=x,y"])
    out = tmp_path / "out.bin"
    assert main([command, "--config", str(config_path), "--out", str(out), *extra]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ValueError", "message": "unknown config key 'sweep.r'"}
    assert not out.exists()


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


def test_export_relevance_rejects_a_checkpoint_without_relevance(tmp_path, config_path, capsys):
    ckpt = tmp_path / "ckpt"
    assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "r.json"),
                 "--checkpoint-dir", str(ckpt), "loss.mode=plain"]) == 0
    capsys.readouterr()
    out = tmp_path / "relevance.csv"
    assert main(["export-relevance", "--checkpoint", str(ckpt), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ValueError", "message": f"checkpoint {ckpt} holds no relevance matrix"}
    assert not out.exists()


def test_export_relevance_rejects_manifest_without_weights(tmp_path, config_path, capsys):
    ckpt = tmp_path / "ckpt"
    main(["train", "--config", str(config_path), "--out", str(tmp_path / "r.json"),
          "--checkpoint-dir", str(ckpt)])
    manifest = ckpt / "manifest.json"
    doc = json.loads(manifest.read_text())
    del doc["weights"]
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "relevance.csv"
    code = main(["export-relevance", "--checkpoint", str(ckpt), "--out", str(out)])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert err["message"] == f"{manifest}: manifest has no 'weights' key"
    assert not out.exists()


@pytest.mark.parametrize("source", ["bin", "manifest"])
def test_export_relevance_names_a_non_square_file(tmp_path, config_path, capsys, source):
    ckpt = tmp_path / "ckpt"
    if source == "manifest":
        main(["train", "--config", str(config_path), "--out", str(tmp_path / "r.json"),
              "--checkpoint-dir", str(ckpt)])
        bad = ckpt / json.loads((ckpt / "manifest.json").read_text())["refinement"]
    else:
        bad = tmp_path / "w.bin"
    write_matrix_binary(np.zeros((2, 3)), bad)
    capsys.readouterr()
    out = tmp_path / "relevance.csv"
    code = main(["export-relevance", "--checkpoint", str(ckpt if source == "manifest" else bad),
                 "--out", str(out)])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ValueError", "message": f"{bad}: relevance matrix must be square"}
    assert not out.exists()


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
