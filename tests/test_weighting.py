"""Weight combinators, adaptive EMA smoothing, and the weight-trajectory file."""

import csv
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from btwmoe.distributions import gaussian_kl_array, residual_variance_array
from btwmoe.errors import InvalidInputError
from btwmoe.mi import discrete_mi, ksg_mi
from btwmoe.reports import write_weight_trajectory_csv
from btwmoe.weighting import (
    SmoothingState,
    combine_bilevel,
    combine_global_kl,
    combine_global_mi,
    combine_local,
    instance_kl_weights,
    modality_mi,
    smooth_update,
    validate_weight_matrix,
)

raw_matrices = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 8), st.integers(2, 5)),
    elements=st.floats(0, 50),
)


class TestInstanceKlWeights:
    def test_regression_row_matches_scalar_kl(self):
        # Residual variances against the target 2: 1 and 4 for the unimodal
        # outputs, 4 for the multimodal one.
        raw = instance_kl_weights(np.array([2.0]), np.array([[1.0], [0.0]]), np.array([0.0]))
        np.testing.assert_allclose(raw, [[0.4431471806, 0.0]], atol=1e-9)

    def test_regression_gaussians_take_residual_variances(self):
        targets = np.array([0.0, 1.0, 2.0, -3.0])
        uni = np.array([[0.5, 1.0, 1.5, -1.0], [2.0, -1.0, 2.0, 0.0]])
        multi = np.array([0.1, 0.9, 2.5, -2.0])
        expected = gaussian_kl_array(
            uni, residual_variance_array(targets, uni),
            multi, residual_variance_array(targets, multi),
        ).T
        assert np.array_equal(instance_kl_weights(targets, uni, multi), expected)

    def test_classification_identical_predictions_give_zero_matrix(self):
        probs = np.full((2, 3, 4), 0.25)
        raw = instance_kl_weights(np.zeros(3, dtype=np.int64), probs, np.full((3, 4), 0.25))
        assert np.all(raw == 0.0)

    def test_classification_row_matches_scalar_kl(self):
        uni = np.array([[[1.0, 0.0]], [[0.5, 0.5]]])
        raw = instance_kl_weights(np.zeros(1, dtype=np.int64), uni, np.array([[0.5, 0.5]]))
        np.testing.assert_allclose(raw, [[np.log(2), 0.0]], atol=1e-9)


class TestModalityMi:
    def test_regression_takes_ksg_per_modality(self):
        rng = np.random.default_rng(5)
        multi = rng.standard_normal(60)
        uni = np.stack([multi + 0.1 * rng.standard_normal(60), rng.standard_normal(60)])
        expected = [ksg_mi(u, multi, jitter_seed=7) for u in uni]
        assert np.array_equal(modality_mi(uni, multi, jitter_seed=7), expected)

    def test_classification_takes_discrete_mi_of_argmax_labels(self):
        rng = np.random.default_rng(6)
        uni = rng.dirichlet(np.ones(3), size=(2, 40))
        multi = rng.dirichlet(np.ones(3), size=40)
        labels = np.argmax(multi, axis=1)
        expected = [discrete_mi(np.argmax(u, axis=1), labels) for u in uni]
        assert np.array_equal(modality_mi(uni, multi, jitter_seed=7), expected)


# Both raw weight inputs, called on (uni, multi, targets); modality MI reads no targets.
WEIGHERS = pytest.mark.parametrize("weigh", [
    lambda uni, multi, targets: instance_kl_weights(targets, uni, multi),
    lambda uni, multi, targets: modality_mi(uni, multi, jitter_seed=0),
], ids=["instance_kl", "modality_mi"])


class TestOutputChecks:
    @WEIGHERS
    def test_no_unimodal_predictions_rejected(self, weigh):
        with pytest.raises(InvalidInputError, match="no unimodal predictions"):
            weigh(np.zeros((0, 6)), np.zeros(6), np.zeros(6))

    @WEIGHERS
    @pytest.mark.parametrize("uni, multi", [
        (np.zeros((2, 6)), np.zeros(5)),
        (np.zeros((2, 6, 2)), np.zeros((6, 4))),
    ], ids=["uni-vs-multi", "class-counts"])
    def test_misaligned_outputs_rejected(self, weigh, uni, multi):
        message = f"outputs misaligned: uni {uni.shape}, multi {multi.shape}"
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            weigh(uni, multi, np.zeros(6))

    def test_outputs_misaligned_with_targets_rejected(self):
        message = "outputs misaligned: uni (2, 4), multi (4,), targets (3,)"
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            instance_kl_weights(np.zeros(3), np.zeros((2, 4)), np.zeros(4))


class TestCombinators:
    def test_local_normalizes_rows(self):
        np.testing.assert_allclose(
            combine_local(np.array([[2.0, 3.0, 5.0]])), [[0.2, 0.3, 0.5]]
        )
        np.testing.assert_allclose(
            combine_local(np.array([[0.4431471806, 0.0]])), [[1.0, 0.0]]
        )

    def test_local_uniform_fallback_for_zero_row(self):
        np.testing.assert_allclose(
            combine_local(np.zeros((1, 3))), [[1 / 3, 1 / 3, 1 / 3]]
        )

    def test_bilevel_rescales_by_mi(self):
        w = combine_bilevel(np.array([[0.5, 0.5]]), np.array([0.8, 0.2]))
        np.testing.assert_allclose(w, [[0.8, 0.2]])

    def test_bilevel_with_uniform_mi_equals_local_bitwise(self):
        rng = np.random.default_rng(3)
        raw = rng.uniform(0, 5, size=(20, 3))
        mi = np.ones(3)
        assert np.array_equal(combine_bilevel(raw, mi), combine_local(raw))

    def test_bilevel_zero_mi_falls_back_to_uniform(self):
        w = combine_bilevel(np.array([[1.0, 1.0]]), np.array([0.0, 0.0]))
        np.testing.assert_allclose(w, [[0.5, 0.5]])

    def test_bilevel_shape_mismatch(self):
        with pytest.raises(InvalidInputError, match="MI length"):
            combine_bilevel(np.ones((2, 3)), np.ones(2))

    def test_global_kl_uses_column_means(self):
        raw = np.array([[1.0, 3.0], [3.0, 1.0]])
        np.testing.assert_allclose(combine_global_kl(raw), [[0.5, 0.5], [0.5, 0.5]])

    def test_global_kl_single_informative_column(self):
        raw = np.array([[2.0, 0.0], [7.0, 0.0], [1.0, 0.0]])
        np.testing.assert_allclose(combine_global_kl(raw), np.tile([1.0, 0.0], (3, 1)))

    def test_global_kl_single_row_equals_local(self):
        raw = np.array([[0.2, 0.5, 0.3]])
        np.testing.assert_allclose(combine_global_kl(raw), combine_local(raw))

    def test_global_mi_tiles_normalized_vector(self):
        w = combine_global_mi(np.array([0.6, 0.2, 0.2]), n=4)
        np.testing.assert_allclose(w, np.tile([0.6, 0.2, 0.2], (4, 1)))
        np.testing.assert_allclose(
            combine_global_mi(np.array([1.0, 3.0]), n=1), [[0.25, 0.75]]
        )

    def test_global_mi_zero_fallback(self):
        np.testing.assert_allclose(
            combine_global_mi(np.zeros(2), n=2), np.full((2, 2), 0.5)
        )

    def test_global_mi_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            combine_global_mi(np.array([1.0, 2.0]), n=0)

    @given(raw=raw_matrices)
    @settings(max_examples=150, deadline=None)
    def test_all_combinators_are_row_stochastic(self, raw):
        mi = np.linspace(0.1, 1.0, raw.shape[1])
        for w in (
            combine_local(raw),
            combine_bilevel(raw, mi),
            combine_global_kl(raw),
            combine_global_mi(mi, raw.shape[0]),
        ):
            validate_weight_matrix(w)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        raw = rng.uniform(0.1, 4.0, size=(6, 3))
        scaled = raw.copy()
        scaled[2] *= 17.5
        np.testing.assert_allclose(
            combine_local(raw)[2], combine_local(scaled)[2], atol=1e-12
        )
        mi = rng.uniform(0.1, 1.0, size=3)
        np.testing.assert_allclose(
            combine_bilevel(raw, mi), combine_bilevel(raw, 3.7 * mi), atol=1e-12
        )

    def test_global_kl_on_identical_rows_equals_local(self):
        row = np.array([0.1, 0.6, 0.3])
        raw = np.tile(row, (5, 1))
        np.testing.assert_allclose(combine_global_kl(raw), combine_local(raw), atol=1e-12)


class TestSmoothing:
    def test_convex_combination(self):
        state = SmoothingState(alpha=0.5, prev_weights=np.array([[0.4, 0.6]]), prev_metric=None)
        smoothed, _ = smooth_update(state, np.array([[0.8, 0.2]]), current_metric=1.0)
        np.testing.assert_allclose(smoothed, [[0.6, 0.4]])

    def test_alpha_clamps_at_bounds(self):
        state = SmoothingState(alpha=0.9, prev_weights=np.array([[1.0, 0.0]]), prev_metric=2.0)
        _, next_state = smooth_update(state, np.array([[1.0, 0.0]]), current_metric=1.0)
        assert next_state.alpha == 0.9  # improving at the ceiling stays put

        state = SmoothingState(alpha=0.1, prev_weights=np.array([[1.0, 0.0]]), prev_metric=1.0)
        _, next_state = smooth_update(state, np.array([[1.0, 0.0]]), current_metric=2.0)
        assert next_state.alpha == 0.1

    @pytest.mark.parametrize("alpha", [0.95, 0.05])
    def test_alpha_outside_the_clamp_is_rejected(self, alpha):
        with pytest.raises(InvalidInputError, match=f"alpha {alpha} outside"):
            SmoothingState(np.array([[0.5, 0.5]]), alpha=alpha)

    def test_alpha_moves_by_exact_steps(self):
        state = SmoothingState(prev_weights=np.array([[0.5, 0.5]]), prev_metric=1.0)
        metrics = [0.9, 0.95, 0.8, 0.7, 0.99, 0.5]
        alphas = [state.alpha]
        for metric in metrics:
            _, state = smooth_update(state, np.array([[0.5, 0.5]]), metric)
            alphas.append(state.alpha)
        diffs = np.diff(alphas)
        for d in diffs:
            assert min(abs(d), abs(d - 0.1), abs(d + 0.1)) < 1e-12
        assert all(0.1 <= a <= 0.9 for a in alphas)

    def test_negated_f1_raises_alpha_when_f1_rises(self):
        # Classification smooths on the weighted F1 negated (lower is better).
        state = SmoothingState(prev_weights=np.array([[0.5, 0.5]]), prev_metric=-0.5)
        _, up = smooth_update(state, np.array([[0.5, 0.5]]), -0.6)
        assert up.alpha == pytest.approx(0.6)
        _, down = smooth_update(state, np.array([[0.5, 0.5]]), -0.4)
        assert down.alpha == pytest.approx(0.4)

    def test_smoothed_entries_stay_between_old_and_new(self):
        rng = np.random.default_rng(11)
        state = SmoothingState(
            alpha=0.3,
            prev_weights=combine_local(rng.uniform(0, 1, (10, 4))),
            prev_metric=1.0,
        )
        new = combine_local(rng.uniform(0, 1, (10, 4)))
        # Reproduce the blend before re-normalization to check convexity.
        blended = 0.2 * new + 0.8 * state.prev_weights  # alpha steps down to 0.2
        _, next_state = smooth_update(state, new, current_metric=2.0)
        assert next_state.alpha == pytest.approx(0.2)
        lo = np.minimum(new, state.prev_weights)
        hi = np.maximum(new, state.prev_weights)
        assert np.all(blended >= lo - 1e-12) and np.all(blended <= hi + 1e-12)

    def test_shape_drift_raises(self):
        state = SmoothingState(prev_weights=np.array([[0.5, 0.5]]), prev_metric=1.0)
        with pytest.raises(InvalidInputError, match="shape drift"):
            smooth_update(state, np.full((2, 2), 0.5), current_metric=0.5)

    def test_smoothed_rows_stay_stochastic_over_many_epochs(self):
        rng = np.random.default_rng(13)
        state = SmoothingState(np.full((8, 3), 1.0 / 3))
        for epoch in range(50):
            new = combine_local(rng.uniform(0, 2, (8, 3)))
            smoothed, state = smooth_update(state, new, float(rng.uniform(0, 1)))
            validate_weight_matrix(smoothed)


@st.composite
def model_outputs(draw, n_modalities):
    """(targets, uni, multi) of either task for n_modalities modalities, N in
    10-300: regression means, or class probabilities over 2-4 classes. Modality
    0 sometimes predicts exactly the multimodal output (zero KL)."""
    n = draw(st.integers(10, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.sampled_from(["regression", "classification"])) == "regression":
        targets = rng.standard_normal(n)
        multi = targets + 0.5 * rng.standard_normal(n)
        strength = rng.uniform(0, 1, size=(n_modalities, 1))
        uni = strength * targets + rng.standard_normal((n_modalities, n))
    else:
        n_classes = draw(st.integers(2, 4))
        targets = rng.integers(0, n_classes, size=n)
        multi = rng.dirichlet(np.ones(n_classes), size=n)
        uni = rng.dirichlet(np.ones(n_classes), size=(n_modalities, n))
    if draw(st.booleans()):
        uni[0] = multi
    return targets, uni, multi


def bilevel_parts(targets, uni, multi):
    """(raw KL, modality MI, bi-level weights), as a weighted epoch makes them."""
    raw = instance_kl_weights(targets, uni, multi)
    mi = modality_mi(uni, multi, jitter_seed=3)
    return raw, mi, combine_bilevel(raw, mi)


class TestModalitySymmetry:
    """The method treats modalities alike: their order means nothing, and two
    identical modalities are weighted identically. Bounds fixed in advance:
    the per-modality quantities are exact; a bi-level row is normalized by a
    sum taken in modality order, so it may move by a few ulps."""

    @given(data=st.data(), n_modalities=st.integers(2, 5))
    @settings(max_examples=150, deadline=None)
    def test_permuting_modalities_permutes_the_weights(self, data, n_modalities):
        targets, uni, multi = data.draw(model_outputs(n_modalities))
        order = np.array(data.draw(st.permutations(range(n_modalities))))
        raw, mi, bilevel = bilevel_parts(targets, uni, multi)
        raw_p, mi_p, bilevel_p = bilevel_parts(targets, uni[order], multi)
        assert np.array_equal(raw_p, raw[:, order])
        assert np.array_equal(mi_p, mi[order])
        assert np.max(np.abs(bilevel_p - bilevel[:, order])) <= 4 * np.finfo(float).eps

    @given(data=st.data(), n_modalities=st.integers(2, 5))
    @settings(max_examples=150, deadline=None)
    def test_a_duplicated_modality_gets_equal_weights(self, data, n_modalities):
        targets, uni, multi = data.draw(model_outputs(n_modalities - 1))
        twin = data.draw(st.integers(0, n_modalities - 2))
        uni = np.concatenate([uni, uni[twin:twin + 1]])
        raw, mi, bilevel = bilevel_parts(targets, uni, multi)
        assert np.array_equal(raw[:, twin], raw[:, -1])
        assert mi[twin] == mi[-1]
        assert np.array_equal(bilevel[:, twin], bilevel[:, -1])


class TestCsvExport:
    """reports.write_weight_trajectory_csv, the file form of the smoothed weights."""

    def test_weight_trajectory_round_trip(self, tmp_path):
        path = tmp_path / "weights_trajectory.csv"
        w1 = np.array([[0.25, 0.75], [0.5, 0.5]])
        w2 = np.array([[0.4, 0.6], [0.9, 0.1]])
        write_weight_trajectory_csv(path, [1, 2], [w1, w2])
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "instance", "modality", "weight"]
        assert len(rows) == 1 + 2 * 4
        assert float(rows[1][3]) == 0.25
        assert rows[1][:3] == ["1", "0", "0"]

    @given(
        matrices=st.lists(
            hnp.arrays(
                dtype=np.float64,
                shape=st.tuples(st.integers(0, 5), st.integers(1, 4)),
                elements=st.floats(0, 1) | st.sampled_from([0.0, 1.0, 0.1, 1e-300, 5e-324]),
            ),
            max_size=4,
        ),
        first_epoch=st.integers(0, 1000),
    )
    @settings(max_examples=100, deadline=None)
    def test_weight_trajectory_bytes_match_csv_writer(self, tmp_path_factory, matrices, first_epoch):
        epochs = list(range(first_epoch, first_epoch + len(matrices)))
        path = tmp_path_factory.mktemp("csv") / "weights_trajectory.csv"
        write_weight_trajectory_csv(path, epochs, matrices)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["epoch", "instance", "modality", "weight"])
        for epoch, w in zip(epochs, matrices):
            for i in range(w.shape[0]):
                for m in range(w.shape[1]):
                    writer.writerow([epoch, i, m, repr(float(w[i, m]))])
        assert path.read_bytes() == expected.getvalue().encode()
