"""Mutual information estimators: frozen examples and statistical properties."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from conftest import empirical_entropy

from btwmoe.errors import InvalidInputError
from btwmoe.mi import (
    _marginal_counts,
    discrete_mi,
    gaussian_mi_analytic,
    ksg_mi,
)


def bivariate_normal(rho, n, seed):
    rng = np.random.default_rng(seed)
    xy = rng.multivariate_normal([0.0, 0.0], [[1.0, rho], [rho, 1.0]], size=n)
    return xy[:, 0], xy[:, 1]


class TestDiscreteMi:
    def test_identical_series_give_entropy(self):
        a = np.array([0, 0, 1, 1])
        assert discrete_mi(a, a) == pytest.approx(np.log(2), abs=1e-12)

    def test_empirically_independent_series(self):
        assert discrete_mi([0, 0, 1, 1], [0, 1, 0, 1]) == 0.0

    def test_bijective_relabeling_preserves_entropy(self):
        a = [0, 1, 2, 0, 1, 2]
        b = [2, 0, 1, 2, 0, 1]
        assert discrete_mi(a, b) == pytest.approx(np.log(3), abs=1e-12)

    def test_self_information_randomized(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(2, 200))
            c = int(rng.integers(2, 6))
            a = rng.integers(0, c, size=n)
            assert discrete_mi(a, a) == pytest.approx(empirical_entropy(a), abs=1e-12)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            a = rng.integers(0, 4, size=100)
            b = rng.integers(0, 3, size=100)
            assert discrete_mi(a, b) == discrete_mi(b, a)

    def test_non_negative_randomized(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            a = rng.integers(0, 5, size=50)
            b = rng.integers(0, 5, size=50)
            assert discrete_mi(a, b) >= 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(InvalidInputError, match="length mismatch: 2 vs 3"):
            discrete_mi([0, 1], [0, 1, 0])


class TestKsgMi:
    def test_independent_series_near_zero(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(5000)
        y = rng.standard_normal(5000)
        assert abs(ksg_mi(x, y)) <= 0.02

    def test_correlated_gaussian_matches_analytic(self):
        target = gaussian_mi_analytic(0.9)
        estimates = [ksg_mi(*bivariate_normal(0.9, 10_000, seed)) for seed in range(3)]
        assert np.mean(estimates) == pytest.approx(target, abs=0.05)

    def test_deterministic_dependence_diverges(self):
        x = np.random.default_rng(3).standard_normal(1000)
        assert ksg_mi(x, x) > 2.0

    def test_symmetry_with_fixed_jitter_seed(self):
        x, y = bivariate_normal(0.5, 800, seed=5)
        assert abs(ksg_mi(x, y, jitter_seed=9) - ksg_mi(y, x, jitter_seed=9)) <= 1e-9

    def test_clamped_non_negative(self):
        rng = np.random.default_rng(31)
        for seed in range(10):
            x = rng.standard_normal(300)
            y = rng.standard_normal(300)
            assert ksg_mi(x, y, jitter_seed=seed) >= 0.0

    def test_permutation_destroys_dependence(self):
        x, y = bivariate_normal(0.9, 5000, seed=17)
        assert ksg_mi(x, y) > 0.5
        y_shuf = np.random.default_rng(99).permutation(y)
        assert ksg_mi(x, y_shuf) < 0.05

    def test_consistency_larger_samples_are_closer(self):
        target = gaussian_mi_analytic(0.9)
        err_small, err_large = [], []
        for seed in range(10):
            xs, ys = bivariate_normal(0.9, 500, seed=100 + seed)
            xl, yl = bivariate_normal(0.9, 10_000, seed=200 + seed)
            err_small.append(abs(ksg_mi(xs, ys) - target))
            err_large.append(abs(ksg_mi(xl, yl) - target))
        assert np.mean(err_large) < np.mean(err_small)

    def test_exact_ties_are_handled(self):
        # Heavily duplicated values would break strict neighbor counts
        # without the jitter.
        x = np.repeat([0.0, 1.0, 2.0], 50)
        y = np.repeat([2.0, 1.0, 0.0], 50)
        mi = ksg_mi(x, y)
        assert np.isfinite(mi) and mi >= 0.0

    def test_constant_series_carry_no_information(self):
        # Equal constant series used to get equal jitter, which looked like
        # perfect dependence (4.38 nats here).
        ones = np.ones(200)
        assert ksg_mi(ones, ones) == 0.0
        x = np.random.default_rng(4).standard_normal(200)
        assert ksg_mi(ones, x) == 0.0
        assert ksg_mi(x, np.full(200, -2.5), jitter_seed=7) == 0.0

    def test_too_few_samples_raises(self):
        with pytest.raises(InvalidInputError, match=r"need at least k\+2=5 samples, got 4"):
            ksg_mi(np.arange(4.0), np.arange(4.0))

    def test_shape_validation(self):
        with pytest.raises(InvalidInputError, match="score series must be one-dimensional"):
            ksg_mi(np.zeros((5, 2)), np.zeros(5))
        with pytest.raises(InvalidInputError, match="length mismatch: 5 vs 6"):
            ksg_mi(np.zeros(5), np.zeros(6))


@st.composite
def series_with_radii(draw):
    """A series with duplicates, and per-point radii that often tie a gap exactly."""
    grid = draw(st.sampled_from([1.0, 0.1, 1e-10, 3.7]))
    n = draw(st.integers(1, 60))
    v = np.array(draw(st.lists(
        st.integers(-8, 8).map(lambda i: i * grid) | st.floats(-10, 10), min_size=n, max_size=n,
    )))
    partners = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    eps = np.abs(v[partners] - v)
    bump = draw(st.lists(st.sampled_from([0, 0, 1, -1]), min_size=n, max_size=n))
    eps = np.where(np.array(bump) > 0, np.nextafter(eps, np.inf), eps)
    eps = np.where(np.array(bump) < 0, np.nextafter(eps, 0.0), eps)
    return v, eps


@given(series_with_radii())
@settings(max_examples=300, deadline=None)
def test_marginal_counts_match_kd_tree_ball_counts(case):
    v, eps = case
    radius = np.nextafter(eps, 0.0)
    column = v[:, None]
    expected = cKDTree(column).query_ball_point(column, radius, p=np.inf, return_length=True) - 1
    np.testing.assert_array_equal(_marginal_counts(v, radius), expected)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 400),
       rho=st.floats(-0.95, 0.95, exclude_min=True, exclude_max=True))
@settings(max_examples=100, deadline=None)
def test_ksg_mi_ignores_the_row_order_of_continuous_series(seed, n, rho):
    # Permuting the rows of (x, y) together changes only the order in which
    # the digamma terms are summed (2.7e-15 was seen). On tied series the
    # estimate depends on row order; see _series_jitter.
    x, y = bivariate_normal(rho, n, seed)
    perm = np.random.default_rng(seed).permutation(n)
    assert abs(ksg_mi(x[perm], y[perm]) - ksg_mi(x, y)) <= 1e-12


class TestGaussianMiAnalytic:
    def test_independence(self):
        assert gaussian_mi_analytic(0.0) == 0.0

    def test_frozen_value_and_sign_symmetry(self):
        assert gaussian_mi_analytic(0.9) == pytest.approx(0.8303656, abs=1e-6)
        assert gaussian_mi_analytic(-0.9) == gaussian_mi_analytic(0.9)

    def test_rejects_degenerate_correlation(self):
        with pytest.raises(InvalidInputError):
            gaussian_mi_analytic(1.0)
        with pytest.raises(InvalidInputError):
            gaussian_mi_analytic(-1.5)


def test_cli_import_leaves_scipy_spatial_unloaded():
    # ksg_mi imports cKDTree on first use, so classification runs and gen-data
    # never load scipy.spatial.
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    code = "import sys, btwmoe.cli; assert 'scipy.spatial' not in sys.modules"
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
