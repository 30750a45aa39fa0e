"""Experiment report records and their JSON/CSV persistence.

A report serializes to a JSON document with keys ``config``, ``per_epoch``,
``bias_stats``, ``final_relevance_path`` and ``summary``; the per-epoch loss
curves are additionally written as a CSV sibling (same stem, ``.csv``).
Serialization is deterministic, so identical runs produce byte-identical
files.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .metrics import BiasStats

__all__ = ["EpochRecord", "ExperimentReport", "write_report", "load_report"]


@dataclass
class EpochRecord:
    epoch: int
    alpha_t: float
    train_loss: float
    test_loss: float
    train_acc: float
    test_acc: float
    mean_max_prob: float


CSV_COLUMNS = tuple(f.name for f in fields(EpochRecord))


@dataclass
class ExperimentReport:
    """Everything one training run (or a seed-aggregated family) produced.

    ``per_epoch`` and ``bias_stats`` come from the base seed's run;
    ``final_test_acc_mean``/``std`` aggregate the final test accuracy over
    all seeds in ``seeds`` (std is the sample estimate, zero for one seed).
    """

    config: dict
    per_epoch: list[EpochRecord]
    bias_stats: BiasStats
    final_relevance_path: str | None = None
    final_test_acc_mean: float = 0.0
    final_test_acc_std: float = 0.0
    seeds: list[int] = field(default_factory=list)


def report_to_dict(report: ExperimentReport) -> dict:
    return {
        "config": dict(report.config),
        "per_epoch": [
            {col: getattr(rec, col) for col in CSV_COLUMNS} for rec in report.per_epoch
        ],
        "bias_stats": {
            "mean": [float(x) for x in report.bias_stats.mean],
            "std": [float(x) for x in report.bias_stats.std],
            "batch_count": report.bias_stats.batch_count,
        },
        "final_relevance_path": report.final_relevance_path,
        "summary": {
            "final_test_acc_mean": report.final_test_acc_mean,
            "final_test_acc_std": report.final_test_acc_std,
            "seeds": list(report.seeds),
        },
    }


NUMBER, INT = (int, float), (int,)  # the Python types of a JSON number and of a JSON integer


def _typed(section: dict, key: str, where: str, types: tuple, what: str, listed: bool = False):
    """``section[key]`` when its type (each entry's, for a ``listed`` key) is one of ``types``;
    otherwise an error that names the key as ``where + key``."""
    value = section[key]
    entries = value if listed and isinstance(value, list) else [value]
    if (listed and not isinstance(value, list)) or any(type(v) not in types for v in entries):
        raise ValueError(f"'{where}{key}' must be {what}, got {value!r}")
    return value


def _report_from_dict(doc: dict) -> ExperimentReport:
    for key, kind in (("config", dict), ("per_epoch", list), ("bias_stats", dict), ("summary", dict)):
        if not isinstance(doc[key], kind):
            raise ValueError(f"{key!r} must be a JSON {'object' if kind is dict else 'array'}, "
                             f"got {type(doc[key]).__name__}")
    records = []
    for i, rec in enumerate(doc["per_epoch"]):
        where = f"per_epoch[{i}]."
        records.append(EpochRecord(_typed(rec, "epoch", where, INT, "an integer"),
                                   *(_typed(rec, col, where, NUMBER, "a number") for col in CSV_COLUMNS[1:])))
    stats, summary = doc["bias_stats"], doc["summary"]
    mean, std = (np.asarray(_typed(stats, key, "bias_stats.", NUMBER, "a list of numbers", listed=True),
                            dtype=np.float64) for key in ("mean", "std"))
    return ExperimentReport(
        config=doc["config"],
        per_epoch=records,
        bias_stats=BiasStats(mean, std, _typed(stats, "batch_count", "bias_stats.", INT, "an integer")),
        final_relevance_path=_typed(doc, "final_relevance_path", "", (str, type(None)), "a string or null"),
        final_test_acc_mean=_typed(summary, "final_test_acc_mean", "summary.", NUMBER, "a number"),
        final_test_acc_std=_typed(summary, "final_test_acc_std", "summary.", NUMBER, "a number"),
        seeds=_typed(summary, "seeds", "summary.", INT, "a list of integers", listed=True),
    )


def write_report(report: ExperimentReport, path) -> tuple[Path, Path]:
    """Write the JSON document plus the loss-curve CSV; returns both paths."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_to_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    rows = ([getattr(rec, col) for col in CSV_COLUMNS] for rec in report.per_epoch)
    return path, write_csv(path.with_suffix(".csv"), CSV_COLUMNS, rows)


def write_csv(path, columns, rows) -> Path:
    """Header line, then one line of ``str`` values per row; creates the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")
    return path


def _read_json_object(path, what: str) -> dict:
    """The JSON object the file ``path`` holds; an error names the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {what} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: {what} must be a JSON object, got {type(doc).__name__}")
    return doc


def load_report(path) -> ExperimentReport:
    """A report written by ``write_report``; an error names the file, and the key where one applies."""
    doc = _read_json_object(path, "report")
    try:
        return _report_from_dict(doc)
    except KeyError as exc:
        raise ValueError(f"{path}: report has no {exc.args[0]!r} key") from None
    except (TypeError, ValueError) as exc:  # a value of the wrong JSON type
        raise ValueError(f"{path}: {exc}") from None
