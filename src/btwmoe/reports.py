"""File outputs for experiment runs: records.csv, the weight trajectory, the
final metrics report and model checkpoints; the run manifest; and the
summary.csv of a compare grid. The alpha trajectory is the alpha column of
records.csv."""

from __future__ import annotations

import hashlib
import json
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .moe import save_checkpoint
from .training import ExperimentResult

# Documents the binary-accuracy convention used throughout the reports.
ZERO_HANDLING_NOTE = (
    "acc2_incl_zero counts a zero target as non-positive over all instances; "
    "acc2_nonzero drops zero targets before comparing signs"
)


def write_records_csv(result: ExperimentResult, path) -> None:
    """One row per epoch. Wall-clock durations stay in memory: the file must
    be byte-identical across reruns of the same config. The metric columns
    are the keys of the task's metric bundle, in its order."""
    cols = list(result.test_bundle)
    n_mod = result.dataset.n_modalities
    header = (
        ["epoch", "phase", "train_loss", "val_loss"]
        + [f"val_{c}" for c in cols]
        + ["alpha"]
        + [f"mean_weight_{m}" for m in range(n_mod)]
    )
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for rec in result.records:
            row = [str(rec.epoch), rec.phase, repr(rec.train_loss), repr(rec.val_loss)]
            row += [repr(float(rec.val_metrics[c])) for c in cols]
            row += [repr(float(rec.alpha))]
            row += [repr(float(w)) for w in rec.mean_weights]
            fh.write(",".join(row) + "\r\n")


def write_weight_trajectory_csv(path, epochs, matrices) -> None:
    """Write per-epoch weight matrices as rows of (epoch, instance, modality, weight).

    Rows are comma-joined and end in CRLF, as in records.csv (no field needs
    quoting); the ",instance,modality," cells are built once per shape and
    each matrix is written as one string.
    """
    shape, cells = None, []
    with open(path, "w", newline="") as fh:
        fh.write("epoch,instance,modality,weight\r\n")
        for epoch, w in zip(epochs, matrices):
            if w.shape != shape:
                shape = w.shape
                cells = [f",{i},{j}," for i, j in product(*map(range, shape))]
            values = map(repr, w.ravel().tolist())
            fh.write("".join([f"{epoch}{cell}{value}\r\n" for cell, value in zip(cells, values)]))


def write_metrics_report(result: ExperimentResult, path) -> None:
    weighted = result.weighted_records
    last = weighted[-1] if weighted else None
    mi_by_epoch = [[float(v) for v in r.mi] for r in weighted if r.mi is not None]
    report = {
        "header": {"zero_handling": ZERO_HANDLING_NOTE},
        "variant": result.config.variant,
        "seed": result.config.seed,
        "task": result.dataset.task,
        "n_epochs": len(result.records),
        "val": result.val_bundle,
        "test": result.test_bundle,
        "final_mean_weights": None if last is None else [float(w) for w in last.mean_weights],
        "final_eval_weights": None if last is None else [float(w) for w in last.eval_weights],
        "modality_mi_by_epoch": mi_by_epoch,
        "modality_mi_final": mi_by_epoch[-1] if mi_by_epoch else None,
    }
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def export_result(result: ExperimentResult, out_dir) -> list[Path]:
    """Write every run artifact into out_dir; return the paths written."""
    out = Path(out_dir)
    checkpoints = {out / "checkpoints" / "final.btwm": result.final_params}
    for m, params in enumerate(result.unimodal_params):
        checkpoints[out / "checkpoints" / f"unimodal_{m}.btwm"] = params
    (out / "checkpoints").mkdir(parents=True, exist_ok=True)
    write_records_csv(result, out / "records.csv")
    write_weight_trajectory_csv(
        out / "weights_trajectory.csv", result.weight_epochs, result.weight_matrices
    )
    write_metrics_report(result, out / "metrics.json")
    for path, params in checkpoints.items():
        save_checkpoint(params, path)
    return [out / "records.csv", out / "weights_trajectory.csv", out / "metrics.json",
            *checkpoints]


def write_manifest(out_dir, command: str, config: bytes, outputs, extra: dict) -> None:
    """manifest.json: the tool, the command, the sha256 and text of the config
    bytes the command parsed (see read_config), the files this command wrote
    under out_dir (outputs), and extra."""
    manifest = {
        "tool": "btwmoe",
        "tool_version": __version__,
        "command": command,
        "config_sha256": hashlib.sha256(config).hexdigest(),
        "config_echo": config.decode("utf-8-sig"),
        "outputs": sorted(str(Path(p).relative_to(out_dir)) for p in outputs),
    }
    manifest.update(extra)
    (Path(out_dir) / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def write_summary_csv(path, variants: list[str], bundles: dict[str, list[dict]]) -> None:
    """One row per variant with test bundles: the seed count, then the mean and
    std of each test metric (the bundle's keys, in its order) over its
    bundles. Without any bundle the header is just variant,n_seeds."""
    cols = next((list(b) for rows in bundles.values() for b in rows), [])
    with open(path, "w", newline="") as fh:
        header = ["variant", "n_seeds"]
        for c in cols:
            header += [f"test_{c}_mean", f"test_{c}_std"]
        fh.write(",".join(header) + "\n")
        for variant in variants:
            rows = bundles.get(variant, [])
            if not rows:
                continue
            out_row = [variant, str(len(rows))]
            for c in cols:
                vals = np.array([r[c] for r in rows])
                out_row += [repr(float(vals.mean())), repr(float(vals.std()))]
            fh.write(",".join(out_row) + "\n")
