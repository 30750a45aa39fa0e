"""Training-pipeline benchmark for als-graph.

Run from the repository root:

    python3 bench/run.py --workload protocol --seed 1 --seconds 30 --trace 0

``--workload`` is one of ``protocol``, ``neighbor`` and ``many_class`` (see
``bench/manifest.json`` for why each was chosen and which layer metric should
move which end-to-end metric). The workload's inputs come from ``--seed``;
the ``many_class`` input files are written before the measured worker starts.
The worker (``bench/worker.py``) repeats ``harness.run_experiment`` for
``--seconds`` with BLAS and OpenMP pinned to one thread. With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced runs and reports per-layer self times and counts, writing the spans to
``.bench_work/<workload>-<seed>/spans.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the machine header and the same metrics for a reader, ``failed_share``
among them. The exit code is 0 when a result was printed.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from workloads import NAMES, config_mapping, prepare_inputs

BENCH_DIR = Path(__file__).resolve().parent
THREADS = 1  # BLAS/OpenMP threads in the worker; never more than nproc
EXIT_DEADLINE_S = 170.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    started = time.monotonic()

    root = Path.cwd()
    src = root / "src"
    if not (src / "als_graph" / "harness.py").is_file():
        print(f"error: {src}/als_graph not found; run from the repository root",
              file=sys.stderr)
        return 2

    work_dir = root / ".bench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        input_keys = prepare_inputs(args.workload, args.seed, work_dir)
        job = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": bool(args.trace), "root": str(root), "work_dir": str(work_dir),
            "config": config_mapping(args.workload, args.seed, input_keys),
        }
        threads = str(min(THREADS, os.cpu_count() or 1))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
                   filter(None, [str(src), os.environ.get("PYTHONPATH")])),
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads}
        budget = EXIT_DEADLINE_S - (time.monotonic() - started)
        try:
            proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(job)],
                                  env=env, cwd=root, stdout=subprocess.PIPE, text=True,
                                  timeout=budget)
        except subprocess.TimeoutExpired:
            print(f"error: worker did not finish within {budget:.0f} s", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work_dir / "inputs", ignore_errors=True)
        if not any(work_dir.iterdir()):
            work_dir.rmdir()

    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    info = result.pop("info")
    machine = info.pop("machine")
    print(f"# machine: {json.dumps(machine, sort_keys=True)}")
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{json.dumps(info, sort_keys=True)}")
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"{'failed_share':32s} {share:>16.6g} ratio "
          f"({result['failed']} of {result['attempted']} runs)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
