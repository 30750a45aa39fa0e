"""Each experiment script runs end to end at one epoch and one seed."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> str:
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_smoothing_comparison(tmp_path):
    stdout = run_script("run_smoothing_comparison.py", "--epochs", "1", "--seeds", "1",
                        "--out-dir", str(tmp_path))
    assert sorted(p.name for p in tmp_path.glob("*.json")) == [
        "als_seed0.json", "ls_seed0.json", "plain_seed0.json"]
    assert [line.split()[0] for line in stdout.splitlines()[1:4]] == ["plain", "ls", "als"]


def test_smoothing_comparison_takes_config_overrides(tmp_path):
    stdout = run_script("run_smoothing_comparison.py", "--epochs", "1", "--seeds", "1",
                        "--set", "sampler.kind=neighbor", "--set", "sampler.seeds_per_batch=16",
                        "--out-dir", str(tmp_path))
    assert [line.split()[0] for line in stdout.splitlines()[1:4]] == ["plain", "ls", "als"]
    config = json.loads((tmp_path / "als_seed0.json").read_text())["config"]
    assert (config["sampler.kind"], config["sampler.seeds_per_batch"]) == ("neighbor", 16)


def test_compare_label_exploitation(tmp_path):
    out = tmp_path / "methods.csv"
    run_script("compare_label_exploitation.py", "--epochs", "1", "--repeats", "1",
               "--out", str(out))
    rows = out.read_text().splitlines()
    assert rows[0] == "method,final_test_acc_mean,final_test_acc_std"
    assert [row.split(",")[0] for row in rows[1:]] == ["propagation_only", "label_input", "als"]
