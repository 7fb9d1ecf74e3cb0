"""Per-instance and per-modality weights, their combinators, and EMA smoothing.

Both raw inputs come from predictions alone: uni stacks the M frozen
unimodal outputs, (M, N) regression means or (M, N, C) class probabilities,
and multi is the multimodal output, (N,) or (N, C); the rank of multi says
the task. A weight matrix is an (N, M) array whose rows are L1-normalized.
Raw KL matrices hold the un-normalized per-instance divergences; modality
MI is a length-M vector. Rows that would normalize to 0/0 fall back to the
uniform vector, which reproduces unweighted training for those instances.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .distributions import categorical_kl_array, gaussian_kl_array, residual_variance_array
from .errors import InvalidInputError
from .mi import discrete_mi, ksg_mi

# The adaptive smoothing schedule, a constant of the method: start mid-range,
# move in fixed steps, never leave the clamp interval.
ALPHA_INIT = 0.5
ALPHA_STEP = 0.1
ALPHA_MIN = 0.1
ALPHA_MAX = 0.9

# How far a weight matrix may stray from row-stochastic by float rounding.
WEIGHT_ATOL = 1e-9


def _normalize_rows(values: np.ndarray) -> np.ndarray:
    """Row-wise L1 normalization with a uniform fallback for all-zero rows."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise InvalidInputError(f"expected an (N, M) matrix, got shape {values.shape}")
    if np.any(values < 0) or not np.all(np.isfinite(values)):
        raise InvalidInputError("weight entries must be finite and non-negative")
    sums = values.sum(axis=1, keepdims=True)
    degenerate = sums[:, 0] == 0.0
    out = np.empty_like(values)
    np.divide(values, sums, out=out, where=sums > 0)
    if degenerate.any():
        out[degenerate] = 1.0 / values.shape[1]
    return out


def validate_weight_matrix(w: np.ndarray) -> None:
    """Raise unless w is row-stochastic within WEIGHT_ATOL: entries in [0, 1], rows sum to 1."""
    if w.ndim != 2:
        raise InvalidInputError(f"weight matrix must be 2-D, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise InvalidInputError("weight matrix has non-finite entries")
    if np.any(w < -WEIGHT_ATOL) or np.any(w > 1 + WEIGHT_ATOL):
        raise InvalidInputError("weight entries outside [0, 1]")
    if np.any(np.abs(w.sum(axis=1) - 1.0) > WEIGHT_ATOL):
        raise InvalidInputError("weight rows do not sum to 1")


def _is_regression(uni: np.ndarray, multi: np.ndarray, targets: np.ndarray | None = None) -> bool:
    """Whether the outputs are regression means rather than class
    probabilities; raises unless uni stacks M >= 1 outputs shaped like multi,
    with one row per target when targets are given."""
    if (multi.ndim not in (1, 2) or uni.shape[1:] != multi.shape
            or (targets is not None and multi.shape[0] != targets.shape[0])):
        tail = "" if targets is None else f", targets {targets.shape}"
        raise InvalidInputError(f"outputs misaligned: uni {uni.shape}, multi {multi.shape}{tail}")
    if uni.shape[0] == 0:
        raise InvalidInputError("no unimodal predictions")
    return multi.ndim == 1


def instance_kl_weights(targets: np.ndarray, uni: np.ndarray, multi: np.ndarray) -> np.ndarray:
    """Raw per-instance weights: KL(unimodal_i^(m) || multimodal_i), (N, M).

    Regression compares per-instance Gaussians: an output is the mean, and
    its residual variance against the target is the variance. Classification
    compares the class-probability vectors. One broadcast kernel call covers
    every instance and modality.
    """
    if _is_regression(uni, multi, targets):
        raw = gaussian_kl_array(
            uni, residual_variance_array(targets, uni),
            multi, residual_variance_array(targets, multi),
        )
    else:
        raw = categorical_kl_array(uni, multi)
    return np.ascontiguousarray(raw.T)


def modality_mi(uni: np.ndarray, multi: np.ndarray, jitter_seed: int) -> np.ndarray:
    """Modality MI, (M,): each unimodal output series against the multimodal
    one. Regression means take the KSG estimate; class probabilities take
    discrete MI between their argmax labels."""
    if _is_regression(uni, multi):
        return np.array([ksg_mi(u, multi, jitter_seed=jitter_seed) for u in uni])
    multi_labels = np.argmax(multi, axis=1)
    return np.array([discrete_mi(labels, multi_labels) for labels in np.argmax(uni, axis=2)])


def combine_local(raw: np.ndarray) -> np.ndarray:
    """Instance-level weights only: each row of raw, L1-normalized."""
    return _normalize_rows(raw)


def combine_bilevel(raw: np.ndarray, mi: np.ndarray) -> np.ndarray:
    """Bi-level weights: raw KL entries rescaled by modality MI, then row-normalized."""
    raw = np.asarray(raw, dtype=np.float64)
    mi = np.asarray(mi, dtype=np.float64)
    if mi.ndim != 1 or raw.ndim != 2 or mi.shape[0] != raw.shape[1]:
        raise InvalidInputError(f"MI length {mi.shape} does not match raw columns {raw.shape}")
    if np.any(mi < 0) or not np.all(np.isfinite(mi)):
        raise InvalidInputError("MI entries must be finite and non-negative")
    return _normalize_rows(raw * mi[None, :])


def combine_global_kl(raw: np.ndarray) -> np.ndarray:
    """Dataset-averaged KL weights: combine_global_mi of raw's column means,
    one row per instance."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 2 or raw.shape[0] == 0:
        raise InvalidInputError(f"expected a non-empty (N, M) matrix, got shape {raw.shape}")
    return combine_global_mi(raw.mean(axis=0), raw.shape[0])


def combine_global_mi(mi: np.ndarray, n: int) -> np.ndarray:
    """Modality-MI-only weights: n copies of the normalized MI vector."""
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    mi = np.asarray(mi, dtype=np.float64)
    if mi.ndim != 1:
        raise InvalidInputError(f"MI must be a vector, got shape {mi.shape}")
    row = _normalize_rows(mi[None, :])
    return np.repeat(row, n, axis=0)


@dataclass(frozen=True)
class SmoothingState:
    """Adaptive EMA state: previous smoothed weights, current factor and
    previous metric. The first state holds the weights that training used
    before smoothing began (the uniform matrix after the warm phase)."""

    prev_weights: np.ndarray
    alpha: float = ALPHA_INIT
    prev_metric: float | None = None

    def __post_init__(self):
        if not (ALPHA_MIN <= self.alpha <= ALPHA_MAX):
            raise InvalidInputError(f"alpha {self.alpha} outside [{ALPHA_MIN}, {ALPHA_MAX}]")
        validate_weight_matrix(self.prev_weights)


def smooth_update(
    state: SmoothingState, new_weights: np.ndarray, current_metric: float
) -> tuple[np.ndarray, SmoothingState]:
    """Blend new weights into the previous smoothed weights with adaptive alpha.

    current_metric is lower when better. Alpha steps up by ALPHA_STEP when it
    fell strictly below the last update's metric and down by it otherwise,
    clamped to [ALPHA_MIN, ALPHA_MAX]; the blended rows are re-normalized to
    absorb float drift. A state with no previous metric keeps its alpha.
    """
    validate_weight_matrix(new_weights)

    alpha = state.alpha
    if state.prev_metric is not None:
        step = ALPHA_STEP if current_metric < state.prev_metric else -ALPHA_STEP
        alpha = min(max(alpha + step, ALPHA_MIN), ALPHA_MAX)

    if state.prev_weights.shape != new_weights.shape:
        raise InvalidInputError(
            f"shape drift: prev {state.prev_weights.shape} vs new {new_weights.shape}"
        )
    smoothed = _normalize_rows(alpha * new_weights + (1.0 - alpha) * state.prev_weights)

    return smoothed, replace(
        state, alpha=alpha, prev_weights=smoothed, prev_metric=float(current_metric)
    )

