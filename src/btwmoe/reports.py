"""File outputs for experiment runs: records.csv, weight/alpha trajectories,
the final metrics report, and model checkpoints."""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .moe import REGRESSION, save_checkpoint
from .training import ExperimentResult
from .weighting import write_alpha_trajectory_csv, write_weight_trajectory_csv

REGRESSION_METRIC_COLUMNS = [
    "mae",
    "corr",
    "corr_degenerate",
    "acc7",
    "acc5",
    "acc2_incl_zero",
    "acc2_nonzero",
    "weighted_f1_incl_zero",
    "weighted_f1_nonzero",
]
CLASSIFICATION_METRIC_COLUMNS = ["accuracy", "macro_f1", "weighted_f1"]

# Documents the binary-accuracy convention used throughout the reports.
ZERO_HANDLING_NOTE = (
    "acc2_incl_zero counts a zero target as non-positive over all instances; "
    "acc2_nonzero drops zero targets before comparing signs"
)


def metric_columns(task: str) -> list[str]:
    return REGRESSION_METRIC_COLUMNS if task == REGRESSION else CLASSIFICATION_METRIC_COLUMNS


def write_records_csv(result: ExperimentResult, path) -> None:
    """One row per epoch. Wall-clock durations stay in memory: the file must
    be byte-identical across reruns of the same config."""
    task = result.config.moe.task
    cols = metric_columns(task)
    n_mod = result.config.moe.n_modalities
    header = (
        ["epoch", "phase", "train_loss", "val_loss"]
        + [f"val_{c}" for c in cols]
        + ["alpha"]
        + [f"mean_weight_{m}" for m in range(n_mod)]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rec in result.records:
            row = [rec.epoch, rec.phase, repr(rec.train_loss), repr(rec.val_loss)]
            row += [repr(float(rec.val_metrics[c])) for c in cols]
            row += [repr(float(rec.alpha))]
            row += [repr(float(w)) for w in rec.mean_weights]
            writer.writerow(row)


def write_metrics_report(result: ExperimentResult, path) -> None:
    weighted = result.weighted_records
    last = weighted[-1] if weighted else None
    mi_by_epoch = [[float(v) for v in r.mi] for r in weighted if r.mi is not None]
    report = {
        "header": {"zero_handling": ZERO_HANDLING_NOTE},
        "variant": result.config.variant,
        "seed": result.config.seed,
        "task": result.config.moe.task,
        "n_epochs": len(result.records),
        "val": result.val_bundle,
        "test": result.test_bundle,
        "final_mean_weights": None if last is None else [float(w) for w in last.mean_weights],
        "final_eval_weights": None if last is None else [float(w) for w in last.eval_weights],
        "modality_mi_by_epoch": mi_by_epoch,
        "modality_mi_final": mi_by_epoch[-1] if mi_by_epoch else None,
    }
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def export_result(result: ExperimentResult, out_dir) -> None:
    """Write every run artifact into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_records_csv(result, out / "records.csv")
    write_weight_trajectory_csv(
        out / "weights_trajectory.csv", result.weight_epochs, result.weight_matrices
    )
    write_alpha_trajectory_csv(
        out / "alpha_trajectory.csv",
        result.weight_epochs,
        [r.alpha for r in result.weighted_records],
    )
    write_metrics_report(result, out / "metrics.json")
    ckpt_dir = out / "checkpoints"
    ckpt_dir.mkdir(exist_ok=True)
    save_checkpoint(result.final_params, ckpt_dir / "final.btwm")
    for m, params in enumerate(result.unimodal_params):
        save_checkpoint(params, ckpt_dir / f"unimodal_{m}.btwm")
