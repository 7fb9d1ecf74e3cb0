"""KL-divergence primitives: frozen examples, oracle agreement, and properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from btwmoe.distributions import (
    PROB_FLOOR,
    VARIANCE_FLOOR,
    CategoricalDist,
    GaussianParams,
    categorical_kl,
    categorical_kl_array,
    gaussian_kl,
    gaussian_kl_array,
    kl_quadrature_oracle,
    residual_variance,
    residual_variance_array,
)
from btwmoe.errors import InvalidInputError


def random_gaussian(rng):
    return GaussianParams(
        mean=float(rng.uniform(-10, 10)),
        variance=float(rng.uniform(0.01, 100)),
    )


def random_categorical(rng, n_classes):
    p = rng.uniform(0.0, 1.0, size=n_classes)
    return CategoricalDist(p / p.sum())


class TestResidualVariance:
    def test_direct_evaluation(self):
        assert residual_variance(2.0, 0.5) == pytest.approx(2.25)
        assert residual_variance(-3.0, 3.0) == pytest.approx(36.0)

    def test_zero_residual_clamps_to_floor(self):
        assert residual_variance(1.0, 1.0) == VARIANCE_FLOOR

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            residual_variance(float("nan"), 0.0)
        with pytest.raises(InvalidInputError):
            residual_variance(0.0, float("inf"))


class TestGaussianKl:
    def test_identical_distributions_are_exactly_zero(self):
        assert gaussian_kl(GaussianParams(0, 1), GaussianParams(0, 1)) == 0.0
        assert gaussian_kl(GaussianParams(5, 2), GaussianParams(5, 2)) == 0.0

    def test_frozen_quadrature_value(self):
        # 0.4431471806 was frozen from kl_quadrature_oracle((0,1), (1,4), 1e5).
        got = gaussian_kl(GaussianParams(0, 1), GaussianParams(1, 4))
        assert got == pytest.approx(0.4431471806, abs=1e-9)

    def test_invalid_params_rejected_at_construction(self):
        with pytest.raises(InvalidInputError):
            GaussianParams(0.0, 0.0)
        with pytest.raises(InvalidInputError):
            GaussianParams(float("nan"), 1.0)

    def test_oracle_agreement_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p, q = random_gaussian(rng), random_gaussian(rng)
            closed = gaussian_kl(p, q)
            quad = kl_quadrature_oracle(p, q, 100_000)
            assert abs(closed - quad) <= 1e-6

    def test_non_negative_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            assert gaussian_kl(random_gaussian(rng), random_gaussian(rng)) >= -1e-12

    def test_asymmetry_witness(self):
        p, q = GaussianParams(0, 1), GaussianParams(1, 4)
        assert abs(gaussian_kl(p, q) - gaussian_kl(q, p)) > 0.1


class TestQuadratureOracle:
    def test_identical_distributions_vanish(self):
        p = GaussianParams(0, 1)
        assert abs(kl_quadrature_oracle(p, p, 100_000)) < 1e-8

    def test_matches_closed_form(self):
        p, q = GaussianParams(2, 0.5), GaussianParams(-1, 3)
        assert kl_quadrature_oracle(p, q, 100_000) == pytest.approx(
            gaussian_kl(p, q), abs=1e-6
        )

    def test_rejects_coarse_grid(self):
        with pytest.raises(InvalidInputError):
            kl_quadrature_oracle(GaussianParams(0, 1), GaussianParams(0, 1), 100)


class TestCategoricalKl:
    def test_identical_distributions_are_exactly_zero(self):
        p = CategoricalDist(np.array([0.5, 0.5]))
        assert categorical_kl(p, p) == 0.0
        spike = CategoricalDist(np.array([1.0, 0.0]))
        assert categorical_kl(spike, spike) == 0.0

    def test_hand_summed_values(self):
        p = CategoricalDist(np.array([1.0, 0.0]))
        q = CategoricalDist(np.array([0.5, 0.5]))
        # sum_c p_c log(p_c/q_c) = log 2
        assert categorical_kl(p, q) == pytest.approx(np.log(2), abs=1e-9)

        p3 = CategoricalDist(np.array([0.25, 0.25, 0.5]))
        q3 = CategoricalDist(np.array([0.5, 0.25, 0.25]))
        # 0.25 log(1/2) + 0 + 0.5 log 2 = 0.25 log 2
        assert categorical_kl(p3, q3) == pytest.approx(0.25 * np.log(2), abs=1e-9)

    def test_length_mismatch_raises(self):
        p = CategoricalDist(np.array([0.5, 0.5]))
        q = CategoricalDist(np.array([1 / 3, 1 / 3, 1 / 3]))
        with pytest.raises(InvalidInputError, match="class count mismatch: 2 vs 3"):
            categorical_kl(p, q)

    def test_zero_support_stays_finite(self):
        p = CategoricalDist(np.array([0.5, 0.5]))
        q = CategoricalDist(np.array([1.0, 0.0]))
        kl = categorical_kl(p, q)
        assert np.isfinite(kl)
        # q's zero entry is lifted to the floor, so the tail term is ~0.5 log(0.5/1e-9)
        assert kl == pytest.approx(0.5 * np.log(0.5) + 0.5 * np.log(0.5 / PROB_FLOOR), rel=1e-6)

    def test_non_negative_randomized(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            c = int(rng.integers(2, 8))
            kl = categorical_kl(random_categorical(rng, c), random_categorical(rng, c))
            assert kl >= -1e-12

    def test_asymmetry_witness(self):
        p = CategoricalDist(np.array([1.0, 0.0]))
        q = CategoricalDist(np.array([0.5, 0.5]))
        assert abs(categorical_kl(p, q) - categorical_kl(q, p)) > 0.1

    def test_invalid_probs_rejected(self):
        with pytest.raises(InvalidInputError):
            CategoricalDist(np.array([0.7, 0.7]))
        with pytest.raises(InvalidInputError):
            CategoricalDist(np.array([1.2, -0.2]))
        with pytest.raises(InvalidInputError, match="class axis of length >= 2"):
            CategoricalDist(np.array([1.0]))


@given(
    mp=st.floats(-10, 10),
    vp=st.floats(0.01, 100),
    mq=st.floats(-10, 10),
    vq=st.floats(0.01, 100),
)
@settings(max_examples=200, deadline=None)
def test_gaussian_kl_nonnegative_property(mp, vp, mq, vq):
    kl = gaussian_kl(GaussianParams(mp, vp), GaussianParams(mq, vq))
    assert kl >= 0.0


@given(
    raw_p=st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=6),
    raw_q=st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_categorical_kl_nonnegative_property(raw_p, raw_q):
    n = min(len(raw_p), len(raw_q))
    p = np.array(raw_p[:n]) / np.sum(raw_p[:n])
    q = np.array(raw_q[:n]) / np.sum(raw_q[:n])
    assert categorical_kl(CategoricalDist(p), CategoricalDist(q)) >= -1e-12


# Array kernels against independent references.

means = st.floats(-10, 10)
variances = st.floats(VARIANCE_FLOOR, 100)


@st.composite
def gaussian_batches(draw):
    """(p_mean, p_var) of shape (M, N) and (q_mean, q_var) of shape (N,)."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    return (
        draw(hnp.arrays(np.float64, (m, n), elements=means)),
        draw(hnp.arrays(np.float64, (m, n), elements=variances)),
        draw(hnp.arrays(np.float64, n, elements=means)),
        draw(hnp.arrays(np.float64, n, elements=variances)),
    )


@given(gaussian_batches())
@settings(max_examples=200, deadline=None)
def test_gaussian_kl_array_equals_scalar_closed_form_bitwise(batch):
    p_mean, p_var, q_mean, q_var = batch
    got = gaussian_kl_array(p_mean, p_var, q_mean, q_var)
    assert got.shape == p_mean.shape
    for (j, i), value in np.ndenumerate(got):
        mp, vp, mq, vq = (float(v) for v in (p_mean[j, i], p_var[j, i], q_mean[i], q_var[i]))
        expected = max(
            math.log(math.sqrt(vq) / math.sqrt(vp)) + (vp + (mp - mq) ** 2) / (2.0 * vq) - 0.5, 0.0
        )
        assert value == expected
        assert gaussian_kl(GaussianParams(mp, vp), GaussianParams(mq, vq)) == expected


def test_gaussian_kernels_equal_scalar_formula_on_many_values():
    # NumPy's x*x and log differ from Python's ** and math.log in the last ulp
    # on a few values in ten thousand; this batch holds such values, and
    # training results depend on the kernels matching bit for bit.
    rng = np.random.default_rng(2024)
    n = 20_000
    p_mean, q_mean = rng.normal(0, 3, n), rng.normal(0, 3, n)
    p_var, q_var = rng.uniform(VARIANCE_FLOOR, 20, n), rng.uniform(VARIANCE_FLOOR, 20, n)
    kl = gaussian_kl_array(p_mean, p_var, q_mean, q_var).tolist()
    var = residual_variance_array(p_mean, q_mean).tolist()
    for i, (mp, vp, mq, vq) in enumerate(zip(p_mean.tolist(), p_var.tolist(), q_mean.tolist(), q_var.tolist())):
        assert kl[i] == max(
            math.log(math.sqrt(vq) / math.sqrt(vp)) + (vp + (mp - mq) ** 2) / (2.0 * vq) - 0.5, 0.0
        )
        assert var[i] == max((mp - mq) ** 2, VARIANCE_FLOOR)


@given(gaussian_batches())
@settings(max_examples=100, deadline=None)
def test_gaussian_kl_array_identical_inputs_are_exactly_zero(batch):
    p_mean, p_var, _, _ = batch
    assert np.all(gaussian_kl_array(p_mean, p_var, p_mean, p_var) == 0.0)


@st.composite
def near_coincident_gaussians(draw):
    """(p_mean, p_var, q_mean, q_var) of shape (N,), q within about 1e-9 of p."""
    n = draw(st.integers(1, 64))
    nudges = hnp.arrays(np.float64, n, elements=st.floats(-1e-9, 1e-9))
    p_mean = draw(hnp.arrays(np.float64, n, elements=means))
    p_var = draw(hnp.arrays(np.float64, n, elements=variances))
    q_mean = p_mean + draw(nudges)
    q_var = np.maximum(p_var * (1.0 + draw(nudges)), VARIANCE_FLOOR)
    return p_mean, p_var, q_mean, q_var


@given(near_coincident_gaussians())
@settings(max_examples=200, deadline=None)
def test_gaussian_kl_array_is_never_negative_near_coincidence(batch):
    # Without a clamp, log_term + quad_term - 0.5 rounds below 0 on about a
    # quarter of such pairs, and the weight normalisation rejects the entry.
    assert np.all(gaussian_kl_array(*batch) >= 0.0)


def reference_categorical_kl(pv, qv):
    """The per-row categorical KL the array kernel replaced, kept as the reference."""
    if np.array_equal(pv, qv):
        return 0.0
    qv = np.clip(qv, PROB_FLOOR, 1.0)
    qv = qv / qv.sum()
    mask = pv > 0
    kl = float(np.sum(pv[mask] * np.log(pv[mask] / qv[mask])))
    return max(kl, 0.0)


@st.composite
def prob_rows(draw, shape):
    """Probability rows of the given (..., C) shape, with exact zeros mixed in."""
    raw = draw(hnp.arrays(
        np.float64, shape, elements=st.floats(0, 1) | st.just(0.0) | st.just(1.0),
    ))
    raw[raw.sum(axis=-1) == 0, 0] = 1.0
    return raw / raw.sum(axis=-1, keepdims=True)


@st.composite
def categorical_batches(draw):
    """p of shape (M, N, C) and q of shape (N, C), some p rows equal to q."""
    m, n, c = draw(st.integers(1, 3)), draw(st.integers(1, 6)), draw(st.integers(2, 10))
    p = draw(prob_rows((m, n, c)))
    q = draw(prob_rows((n, c)))
    same = draw(hnp.arrays(np.bool_, (m, n)))
    p[same] = np.broadcast_to(q, p.shape)[same]
    return p, q


@given(categorical_batches())
@settings(max_examples=300, deadline=None)
def test_categorical_kl_array_equals_per_row_formula_bitwise(batch):
    p, q = batch
    got = categorical_kl_array(p, q)
    assert got.shape == p.shape[:2]
    for (j, i), value in np.ndenumerate(got):
        assert value == reference_categorical_kl(p[j, i], q[i])


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_residual_variance_array_matches_scalar(data):
    n = data.draw(st.integers(1, 20))
    y = data.draw(hnp.arrays(np.float64, n, elements=st.floats(-1e3, 1e3)))
    mu = data.draw(hnp.arrays(np.float64, n, elements=st.floats(-1e3, 1e3)))
    got = residual_variance_array(y, mu)
    assert residual_variance_array(y, y).tolist() == [VARIANCE_FLOOR] * n
    for i in range(n):
        expected = max((float(y[i]) - float(mu[i])) ** 2, VARIANCE_FLOOR)
        assert got[i] == expected
        assert residual_variance(float(y[i]), float(mu[i])) == expected


@given(gaussian_batches(), st.data())
@settings(max_examples=100, deadline=None)
def test_gaussian_kl_array_rejects_what_the_params_reject(batch, data):
    arrays = [a.copy() for a in batch]
    which = data.draw(st.integers(0, 3))
    bad = data.draw(st.sampled_from(
        [np.nan, np.inf, -np.inf] + ([0.0, VARIANCE_FLOOR / 2, -1.0] if which % 2 else [])
    ))
    arrays[which].flat[data.draw(st.integers(0, arrays[which].size - 1))] = bad
    with pytest.raises(InvalidInputError):
        gaussian_kl_array(*arrays)


@given(categorical_batches(), st.data())
@settings(max_examples=100, deadline=None)
def test_categorical_kl_array_rejects_what_the_dist_rejects(batch, data):
    p, q = (a.copy() for a in batch)
    target = data.draw(st.sampled_from([p, q]))
    target.flat[data.draw(st.integers(0, target.size - 1))] = data.draw(
        st.sampled_from([np.nan, np.inf, -0.5, 1.5])
    )
    with pytest.raises(InvalidInputError):
        categorical_kl_array(p, q)


class TestArrayKernelErrors:
    def test_probabilities_not_summing_to_one(self):
        with pytest.raises(InvalidInputError):
            categorical_kl_array(np.full((3, 2), 0.5), np.array([[0.5, 0.5], [0.6, 0.6], [0.5, 0.5]]))

    def test_class_count_mismatch(self):
        with pytest.raises(InvalidInputError, match="class count mismatch: 2 vs 3"):
            categorical_kl_array(np.full((2, 4, 2), 0.5), np.full((4, 3), 1 / 3))

    def test_single_class_rejected(self):
        with pytest.raises(InvalidInputError, match="class axis of length >= 2"):
            categorical_kl_array(np.ones((3, 1)), np.ones((3, 1)))

    def test_unbroadcastable_shapes(self):
        with pytest.raises(InvalidInputError, match="cannot broadcast"):
            categorical_kl_array(np.full((2, 4, 2), 0.5), np.full((3, 2), 0.5))

    def test_residual_variance_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            residual_variance_array(np.array([0.0, np.nan]), np.zeros(2))
