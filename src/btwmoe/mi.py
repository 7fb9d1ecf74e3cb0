"""Mutual information between prediction series, in nats.

Discrete MI uses empirical contingency-table frequencies over hard labels.
Continuous MI uses the Kraskov-Stoegbauer-Grassberger k-nearest-neighbor
estimator (variant 1) with Chebyshev neighborhoods.
"""

from __future__ import annotations

import zlib

import numpy as np
from scipy.special import digamma

from .errors import InvalidInputError

# Amplitude of the deterministic tie-breaking jitter, relative to the value
# scale of each series. Exact ties would otherwise break the strict
# within-radius neighbor counts.
JITTER_RELATIVE_AMPLITUDE = 1e-10


def discrete_mi(a: np.ndarray, b: np.ndarray) -> float:
    """Empirical mutual information between two label series.

    Frequencies come straight from the joint contingency table, with every
    instance weighted 1/N. Exact for the degenerate cases: identical series
    give the empirical entropy, empirically independent series give 0.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 1 or b.ndim != 1:
        raise InvalidInputError("label series must be one-dimensional")
    if a.shape[0] != b.shape[0]:
        raise InvalidInputError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[0] < 2:
        raise InvalidInputError("need at least 2 labels")

    n = a.shape[0]
    a_idx = np.unique(a, return_inverse=True)[1]
    b_idx = np.unique(b, return_inverse=True)[1]
    n_a = int(a_idx.max()) + 1
    n_b = int(b_idx.max()) + 1
    joint = np.zeros((n_a, n_b))
    np.add.at(joint, (a_idx, b_idx), 1.0)
    joint /= n
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)

    mask = joint > 0
    outer = pa[:, None] * pb[None, :]
    terms = joint[mask] * np.log(joint[mask] / outer[mask])
    # Summing in sorted order makes the result invariant under transposing
    # the contingency table, so symmetry holds bit-for-bit.
    mi = float(np.sort(terms).sum())
    return max(mi, 0.0)


def _series_jitter(x: np.ndarray, jitter_seed: int) -> np.ndarray:
    """Deterministic tie-breaking jitter derived from the series content.

    Seeding from a content hash (not the argument position) keeps ksg_mi
    exactly symmetric: each series receives the same jitter whichever side
    it is passed on.
    """
    scale = float(np.std(x))
    if scale == 0.0:
        scale = max(1.0, float(np.abs(x).max()))
    digest = zlib.crc32(np.ascontiguousarray(x, dtype=np.float64).tobytes())
    rng = np.random.default_rng([jitter_seed & 0xFFFFFFFF, digest])
    amp = JITTER_RELATIVE_AMPLITUDE * scale
    return rng.uniform(-amp, amp, size=x.shape[0])


def _marginal_counts(v: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """For each i, how many j != i have |v_j - v_i| <= radius_i.

    Sorted values put every neighborhood in one contiguous run. searchsorted
    at v_i -/+ radius_i only guesses its ends, since the rounded bounds may
    disagree with the rounded differences; each end then steps one place at a
    time, judged by the actual |v_j - v_i|, until no end moves. The run holds
    v_i itself, so it is never empty and the steps stay in range.
    """
    s = np.sort(v)
    n = s.shape[0]
    lo = np.searchsorted(s, v - radius, side="left")
    hi = np.searchsorted(s, v + radius, side="right")
    while True:
        grow_lo = (lo > 0) & (np.abs(s[np.maximum(lo - 1, 0)] - v) <= radius)
        shrink_lo = np.abs(s[lo] - v) > radius
        grow_hi = (hi < n) & (np.abs(s[np.minimum(hi, n - 1)] - v) <= radius)
        shrink_hi = np.abs(s[hi - 1] - v) > radius
        step_lo = shrink_lo.astype(np.intp) - grow_lo
        step_hi = grow_hi.astype(np.intp) - shrink_hi
        if not (step_lo.any() or step_hi.any()):
            return hi - lo - 1
        lo += step_lo
        hi += step_hi


def ksg_mi(x: np.ndarray, y: np.ndarray, k: int = 3, jitter_seed: int = 0) -> float:
    """KSG (variant 1) mutual information estimate between two score series.

    MI ~= psi(k) + psi(N) - mean_i[psi(n_x(i)+1) + psi(n_y(i)+1)], where
    n_x(i) counts points strictly inside the Chebyshev distance to the k-th
    joint-space neighbor of point i. Negative estimates are clamped to 0. A
    constant series carries no information: the estimate is exactly 0.0.

    Args:
        x, y: one-dimensional series of equal length N >= k + 2.
        k: neighbor order (default 3).
        jitter_seed: seed for the deterministic tie-breaking jitter.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1:
        raise InvalidInputError("score series must be one-dimensional")
    if x.shape[0] != y.shape[0]:
        raise InvalidInputError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    n = x.shape[0]
    if n < k + 2:
        raise InvalidInputError(f"need at least k+2={k + 2} samples, got {n}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InvalidInputError("score series must be finite")
    # Jitter would turn a constant series into noise, and two equal constant
    # series into the same noise, which looks perfectly dependent.
    if np.all(x == x[0]) or np.all(y == y[0]):
        return 0.0

    # Imported on first use: scipy.spatial adds start-up time and resident
    # memory that only regression MI needs.
    from scipy.spatial import cKDTree

    xj = x + _series_jitter(x, jitter_seed)
    yj = y + _series_jitter(y, jitter_seed)
    joint = np.column_stack([xj, yj])

    # k+1 because the query point is its own nearest neighbor at distance 0.
    dist, _ = cKDTree(joint).query(joint, k=k + 1, p=np.inf)
    # Strictly-inside counts: shrink the radius by one ulp.
    radius = np.nextafter(dist[:, k], 0.0)
    n_x = _marginal_counts(xj, radius)
    n_y = _marginal_counts(yj, radius)

    mi = float(digamma(k) + digamma(n) - np.mean(digamma(n_x + 1) + digamma(n_y + 1)))
    return max(mi, 0.0)


def gaussian_mi_analytic(rho: float) -> float:
    """Exact MI of a bivariate Gaussian with correlation rho: -0.5 ln(1 - rho^2)."""
    if not abs(rho) < 1:
        raise InvalidInputError(f"|rho| must be < 1, got {rho}")
    return -0.5 * float(np.log(1.0 - rho * rho))
