"""Evaluation metrics for sentiment-style regression and label classification.

Binning conventions for the regression accuracies:
  * Acc-7: round both series to integers, clamp to [-3, 3], exact-match rate.
  * Acc-5: same with clamp to [-2, 2].
  * Acc-2 include-zero: sign agreement with zero counted as non-positive,
    over all instances.
  * Acc-2 non-zero: sign agreement restricted to instances whose target is
    non-zero.
The two weighted-F1 variants for regression use the binary labels induced by
the same two Acc-2 conventions.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError


class PearsonResult(NamedTuple):
    value: float
    degenerate: bool


def _check_regression_pair(predictions, targets):
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.ndim != 1 or t.ndim != 1:
        raise InvalidInputError("predictions and targets must be one-dimensional")
    if p.shape != t.shape:
        raise InvalidInputError(f"length mismatch: {p.shape[0]} vs {t.shape[0]}")
    if p.shape[0] < 2:
        raise InvalidInputError("regression metrics need at least 2 instances")
    return p, t


def mae(predictions, targets) -> float:
    """Mean absolute error."""
    p, t = _check_regression_pair(predictions, targets)
    return float(np.mean(np.abs(p - t)))


def pearson(predictions, targets) -> PearsonResult:
    """Sample Pearson correlation; 0 with a degenerate flag when either side is constant."""
    p, t = _check_regression_pair(predictions, targets)
    pc = p - p.mean()
    tc = t - t.mean()
    denom = np.sqrt(np.sum(pc * pc) * np.sum(tc * tc))
    if denom == 0.0:
        return PearsonResult(0.0, True)
    return PearsonResult(float(np.sum(pc * tc) / denom), False)


def _bin_scores(x: np.ndarray, bound: int) -> np.ndarray:
    return np.clip(np.rint(x), -bound, bound)


def acc_k(predictions, targets, k) -> float:
    """Binned accuracy: k in {7, 5, "2-include-zero", "2-nonzero"}."""
    p, t = _check_regression_pair(predictions, targets)
    if k == 7:
        return float(np.mean(_bin_scores(p, 3) == _bin_scores(t, 3)))
    if k == 5:
        return float(np.mean(_bin_scores(p, 2) == _bin_scores(t, 2)))
    if k == "2-include-zero":
        return float(np.mean((p > 0) == (t > 0)))
    if k == "2-nonzero":
        keep = t != 0
        if not keep.any():
            return 0.0
        return float(np.mean((p[keep] > 0) == (t[keep] > 0)))
    raise InvalidInputError(f"unknown accuracy variant {k!r}")


def f1_scores(predicted_labels, true_labels) -> tuple[float, float, float]:
    """(macro_f1, weighted_f1, accuracy) over integer class labels.

    Per-class F1 is 0 for classes with neither predicted nor true positives.
    Macro averages over the classes present in the targets; weighted uses
    the target supports as weights.
    """
    pred = np.asarray(predicted_labels)
    true = np.asarray(true_labels)
    if pred.ndim != 1 or true.ndim != 1 or pred.shape != true.shape:
        raise InvalidInputError("label series must be aligned one-dimensional arrays")
    if pred.shape[0] < 1:
        raise InvalidInputError("need at least 1 instance")

    accuracy = float(np.mean(pred == true))
    classes = np.unique(true)
    f1_per_class = np.zeros(classes.shape[0])
    supports = np.zeros(classes.shape[0])
    for idx, c in enumerate(classes):
        tp = float(np.sum((pred == c) & (true == c)))
        n_pred = float(np.sum(pred == c))
        n_true = float(np.sum(true == c))
        supports[idx] = n_true
        if n_pred + n_true == 0:
            continue
        f1_per_class[idx] = 2.0 * tp / (n_pred + n_true)
    macro = float(np.mean(f1_per_class))
    if np.all(supports == supports[0]):
        # Equal supports make the weighted mean identical to the macro mean;
        # reuse it so the identity holds bit-for-bit.
        weighted = macro
    else:
        weighted = float(np.sum(f1_per_class * supports) / supports.sum())
    return macro, weighted, accuracy


def regression_bundle(predictions, targets) -> dict[str, float]:
    """All regression metrics keyed by stable column names."""
    corr = pearson(predictions, targets)
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    wf1_incl = f1_scores((p > 0).astype(int), (t > 0).astype(int))[1]
    keep = t != 0
    if keep.any():
        wf1_excl = f1_scores((p[keep] > 0).astype(int), (t[keep] > 0).astype(int))[1]
    else:
        wf1_excl = 0.0
    return {
        "mae": mae(predictions, targets),
        "corr": corr.value,
        "corr_degenerate": float(corr.degenerate),
        "acc7": acc_k(predictions, targets, 7),
        "acc5": acc_k(predictions, targets, 5),
        "acc2_incl_zero": acc_k(predictions, targets, "2-include-zero"),
        "acc2_nonzero": acc_k(predictions, targets, "2-nonzero"),
        "weighted_f1_incl_zero": wf1_incl,
        "weighted_f1_nonzero": wf1_excl,
    }


def classification_bundle(predicted_labels, true_labels) -> dict[str, float]:
    """All classification metrics keyed by stable column names."""
    macro, weighted, accuracy = f1_scores(predicted_labels, true_labels)
    return {
        "accuracy": accuracy,
        "macro_f1": macro,
        "weighted_f1": weighted,
    }
