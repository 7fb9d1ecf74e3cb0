"""Probability distributions and exact KL divergences.

These are the primitives behind the instance-level weights: a per-instance
Gaussian for regression outputs (mean plus a residual-variance estimate) and
a categorical distribution for classification outputs. All divergences are
in nats. The kernels work on whole arrays and validate each array once; the
scalar functions and the GaussianParams/CategoricalDist types wrap them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ShapeError

# Squared residuals of exactly-correct predictions would give a degenerate
# Gaussian and an infinite KL; every variance is clamped to this floor.
VARIANCE_FLOOR = 1e-6

# Softmax outputs can underflow to 0; categorical KL clamps the reference
# distribution to this floor before evaluating.
PROB_FLOOR = 1e-9

# The Gaussian kernels square with np.float_power, which calls the C
# library's pow like Python's float **, and take logs with math.log
# elementwise. NumPy's own x*x and SIMD log differ from these in the last ulp
# on a few inputs in ten thousand, and training can amplify one such ulp into
# a different top-k routing choice; with the C library's functions every
# weight, and so every result, equals that of the scalar formula bit for bit.
_libm_log = np.frompyfunc(math.log, 1, 1)


def _validate_gaussian(mean, variance) -> None:
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(variance))):
        raise InvalidInputError("non-finite Gaussian parameters")
    if np.any(variance < VARIANCE_FLOOR):
        raise InvalidInputError(f"variance {np.min(variance)} below floor {VARIANCE_FLOOR}")


def _validate_probs(probs: np.ndarray) -> None:
    if probs.ndim < 1 or probs.shape[-1] < 2:
        raise ShapeError(f"probs need a class axis of length >= 2, got shape {probs.shape}")
    if not np.all(np.isfinite(probs)):
        raise InvalidInputError("non-finite class probabilities")
    if np.any(probs < 0) or np.any(probs > 1):
        raise InvalidInputError("class probabilities outside [0, 1]")
    sums = probs.sum(axis=-1)
    off = np.abs(sums - 1.0) > 1e-9
    if np.any(off):
        raise InvalidInputError(f"class probabilities sum to {sums[off].flat[0]}, not 1")


@dataclass(frozen=True)
class GaussianParams:
    """A univariate Gaussian given by mean and variance (not std deviation)."""

    mean: float
    variance: float

    def __post_init__(self):
        _validate_gaussian(self.mean, self.variance)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


@dataclass(frozen=True)
class CategoricalDist:
    """A categorical distribution over C >= 2 classes."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", p)
        if p.ndim != 1:
            raise ShapeError(f"probs must be a vector of length >= 2, got shape {p.shape}")
        _validate_probs(p)

    @property
    def n_classes(self) -> int:
        return int(self.probs.shape[0])


def residual_variance_array(y_true, mu) -> np.ndarray:
    """Squared prediction errors, clamped to the variance floor, over broadcast arrays.

    The squared residual is an unbiased estimate of the conditional variance
    of the target given the inputs, which is how regression predictions are
    promoted to Gaussians.
    """
    y_true = np.asarray(y_true, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    if not (np.all(np.isfinite(y_true)) and np.all(np.isfinite(mu))):
        raise InvalidInputError("non-finite inputs to the residual variance")
    return np.maximum(np.float_power(y_true - mu, 2), VARIANCE_FLOOR)


def gaussian_kl_array(p_mean, p_var, q_mean, q_var) -> np.ndarray:
    """Closed-form KL(p || q) between univariate Gaussians over broadcast arrays, in nats.

    log(s_q/s_p) + (s_p^2 + (m_p - m_q)^2) / (2 s_q^2) - 1/2, with s the
    standard deviation. Identical inputs give exactly 0.0, and rounding on
    nearly identical ones is clamped to 0.0, so no value is negative. Every
    parameter must be finite and every variance at least VARIANCE_FLOOR.
    """
    p_mean, p_var, q_mean, q_var = (
        np.asarray(a, dtype=np.float64) for a in (p_mean, p_var, q_mean, q_var)
    )
    _validate_gaussian(p_mean, p_var)
    _validate_gaussian(q_mean, q_var)
    log_term = np.asarray(_libm_log(np.sqrt(q_var) / np.sqrt(p_var)), dtype=np.float64)
    quad_term = (p_var + np.float_power(p_mean - q_mean, 2)) / (2.0 * q_var)
    return np.maximum(log_term + quad_term - 0.5, 0.0)


def _sum_positive_terms(terms: np.ndarray, positive: np.ndarray) -> np.ndarray:
    """Sum each row's terms over its positive-probability classes, in class order.

    np.sum groups its additions by the number of terms, so a row is summed at
    its own compacted length: the result equals a sum over p[p > 0] bit for
    bit, also when zero-probability classes sit between positive ones.
    """
    counts = positive.sum(axis=-1)
    if np.all(counts == terms.shape[-1]):
        return terms.sum(axis=-1)
    order = np.argsort(~positive, axis=-1, kind="stable")
    packed = np.take_along_axis(terms, order, axis=-1)
    out = np.empty(counts.shape)
    for count in np.unique(counts):
        rows = counts == count
        out[rows] = packed[rows][:, :count].sum(axis=-1)
    return out


def categorical_kl_array(p, q) -> np.ndarray:
    """KL(p || q) between categoricals over broadcast (..., C) arrays, in nats.

    0 log 0 = 0. Each q is clamped to [PROB_FLOOR, 1] and renormalized before
    evaluation so zero-support classes stay finite. KL(p || p) is exactly
    0.0. Every row must be a probability vector (entries in [0, 1], summing
    to 1 within 1e-9) and p and q must have the same number of classes.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    _validate_probs(p)
    _validate_probs(q)
    if p.shape[-1] != q.shape[-1]:
        raise ShapeError(f"class count mismatch: {p.shape[-1]} vs {q.shape[-1]}")
    try:
        shape = np.broadcast_shapes(p.shape, q.shape)
    except ValueError as exc:
        raise ShapeError(f"cannot broadcast {p.shape} against {q.shape}") from exc
    identical = np.all(p == q, axis=-1)
    q = np.clip(q, PROB_FLOOR, 1.0)
    q = q / q.sum(axis=-1, keepdims=True)
    p = np.broadcast_to(p, shape)
    positive = p > 0
    logs = np.log(p / q, out=np.zeros(shape), where=positive)
    kl = np.maximum(_sum_positive_terms(p * logs, positive), 0.0)
    return np.where(identical, 0.0, kl)


def residual_variance(y_true: float, mu: float) -> float:
    """Squared prediction error of one prediction, clamped to the variance floor."""
    return float(residual_variance_array(y_true, mu))


def gaussian_kl(p: GaussianParams, q: GaussianParams) -> float:
    """KL(p || q) between two univariate Gaussians, in nats; see gaussian_kl_array."""
    return float(gaussian_kl_array(p.mean, p.variance, q.mean, q.variance))


def categorical_kl(p: CategoricalDist, q: CategoricalDist) -> float:
    """KL(p || q) between two categoricals, in nats; see categorical_kl_array."""
    return float(categorical_kl_array(p.probs, q.probs))


def kl_quadrature_oracle(p: GaussianParams, q: GaussianParams, grid_points: int) -> float:
    """Trapezoidal approximation of the Gaussian KL integral, in nats.

    Integrates p(x) * (log p(x) - log q(x)) on a grid spanning both means
    padded by 12 standard deviations of the wider Gaussian. Densities are
    evaluated in log space so tails cannot overflow the ratio. This is a
    deliberately independent check on gaussian_kl, not a fast path.
    """
    if grid_points < 10_000:
        raise InvalidInputError(f"grid_points must be >= 10000, got {grid_points}")
    wide = max(p.std, q.std)
    lo = min(p.mean, q.mean) - 12.0 * wide
    hi = max(p.mean, q.mean) + 12.0 * wide
    x = np.linspace(lo, hi, grid_points)

    def log_pdf(g: GaussianParams) -> np.ndarray:
        return -0.5 * np.log(2.0 * np.pi * g.variance) - (x - g.mean) ** 2 / (2.0 * g.variance)

    lp = log_pdf(p)
    lq = log_pdf(q)
    integrand = np.exp(lp) * (lp - lq)
    dx = (hi - lo) / (grid_points - 1)
    return float(dx * (integrand.sum() - 0.5 * (integrand[0] + integrand[-1])))
