"""Evaluation-metric protocol: hand-computed cases and invariances."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from btwmoe.errors import InvalidInputError
from btwmoe.metrics import (
    acc_k,
    classification_bundle,
    f1_scores,
    mae,
    pearson,
    regression_bundle,
)


class TestMae:
    def test_perfect_predictions(self):
        assert mae([1.0, -2.0, 0.5], [1.0, -2.0, 0.5]) == 0.0

    def test_direct_arithmetic(self):
        assert mae([0.0, 0.0], [1.0, -1.0]) == 1.0

    def test_rejects_single_instance(self):
        with pytest.raises(InvalidInputError):
            mae([0.5], [0.5])


class TestPearson:
    def test_affine_invariance(self):
        t = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        assert pearson(2 * t + 1, t).value == pytest.approx(1.0, abs=1e-9)
        assert pearson(0.3 * t - 7, t).value == pytest.approx(1.0, abs=1e-9)

    def test_anticorrelation(self):
        t = np.array([-1.0, 0.0, 2.0])
        assert pearson(-t, t).value == pytest.approx(-1.0, abs=1e-12)

    def test_constant_predictions_flagged(self):
        result = pearson([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])
        assert result.value == 0.0
        assert result.degenerate


class TestAccK:
    def test_exact_match_seven_class(self):
        vals = [-3.0, -1.0, 0.0, 2.0, 3.0]
        assert acc_k(vals, vals, 7) == 1.0

    def test_round_then_clamp(self):
        # 2.6 rounds to 3; 3.0 stays 3 -> match.
        assert acc_k([2.6, 2.6], [3.0, 3.0], 7) == 1.0
        # 3.7 clamps to 3 under Acc-7 but to 2 under Acc-5.
        assert acc_k([3.7, 3.7], [3.0, 3.0], 7) == 1.0
        assert acc_k([3.7, 3.7], [3.0, 3.0], 5) == 1.0  # both clamp to 2

    def test_binning_idempotence(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-4, 4, size=100)
        binned = np.clip(np.rint(x), -3, 3)
        assert acc_k(binned, binned, 7) == 1.0
        assert np.array_equal(np.clip(np.rint(binned), -3, 3), binned)

    def test_acc2_zero_handling_pair(self):
        # Zero target: include-zero treats it as non-positive; non-zero drops it.
        preds = [0.1, -0.1]
        targets = [0.0, -2.0]
        assert acc_k(preds, targets, "2-nonzero") == 1.0
        # Include-zero: pred 0.1 is positive but target 0 is non-positive -> miss.
        assert acc_k(preds, targets, "2-include-zero") == 0.5

    def test_unknown_variant_rejected(self):
        with pytest.raises(InvalidInputError):
            acc_k([0.0, 1.0], [0.0, 1.0], 3)


class TestF1Scores:
    def test_perfect_labels(self):
        labels = np.array([0, 1, 2, 3, 0, 1, 2, 3])
        assert f1_scores(labels, labels) == (1.0, 1.0, 1.0)

    def test_single_correct_instance(self):
        assert f1_scores([2], [2]) == (1.0, 1.0, 1.0)

    def test_confusion_matrix_case(self):
        # All predictions are class 0; targets are half 0, half 1.
        pred = np.zeros(10, dtype=int)
        true = np.array([0] * 5 + [1] * 5)
        macro, weighted, accuracy = f1_scores(pred, true)
        assert accuracy == 0.5
        assert macro == pytest.approx((2 / 3 + 0.0) / 2)
        assert weighted == pytest.approx(1 / 3)

    def test_weighted_equals_macro_for_equal_supports(self):
        rng = np.random.default_rng(4)
        true = np.repeat([0, 1, 2], 40)
        pred = rng.integers(0, 3, size=true.shape[0])
        macro, weighted, _ = f1_scores(pred, true)
        assert weighted == macro

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError, match="label series must be aligned"):
            f1_scores([0, 1], [0, 1, 2])


def f1_scores_per_class(pred, true):
    """f1_scores by its definition: one class of the targets at a time."""
    accuracy = float(np.mean(pred == true))
    classes = np.unique(true)
    f1_per_class = np.zeros(classes.shape[0])
    supports = np.zeros(classes.shape[0])
    for idx, c in enumerate(classes):
        tp = float(np.sum((pred == c) & (true == c)))
        n_pred = float(np.sum(pred == c))
        n_true = float(np.sum(true == c))
        supports[idx] = n_true
        f1_per_class[idx] = 2.0 * tp / (n_pred + n_true)
    macro = float(np.mean(f1_per_class))
    if np.all(supports == supports[0]):
        weighted = macro
    else:
        weighted = float(np.sum(f1_per_class * supports) / supports.sum())
    return macro, weighted, accuracy


# (predicted, target) label pairs: a predicted label may be missing from the
# targets, the targets may hold one class, and supports may tie or differ.
@given(pairs=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=60))
@example(pairs=[(4, 1), (0, 1), (1, 1)])
@example(pairs=[(0, 0), (1, 1), (1, 0), (2, 1)])
@example(pairs=[(5, 0), (0, 2), (2, 2), (3, 0), (2, 0)])
@settings(max_examples=300, deadline=None)
def test_f1_scores_equal_their_per_class_definition(pairs):
    pred, true = np.array(pairs).T
    assert f1_scores(pred, true) == f1_scores_per_class(pred, true)


@given(seed=st.integers(0, 1000))
@settings(max_examples=50, deadline=None)
def test_metrics_are_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    n = 40
    preds = rng.uniform(-3, 3, size=n)
    targets = rng.uniform(-3, 3, size=n)
    perm = rng.permutation(n)
    assert mae(preds, targets) == pytest.approx(mae(preds[perm], targets[perm]), abs=1e-12)
    assert pearson(preds, targets).value == pytest.approx(
        pearson(preds[perm], targets[perm]).value, abs=1e-9
    )
    for k in (7, 5, "2-include-zero", "2-nonzero"):
        assert acc_k(preds, targets, k) == acc_k(preds[perm], targets[perm], k)
    labels_p = rng.integers(0, 4, size=n)
    labels_t = rng.integers(0, 4, size=n)
    assert f1_scores(labels_p, labels_t) == f1_scores(labels_p[perm], labels_t[perm])


class TestBundles:
    def test_regression_bundle_keys_and_perfect_case(self):
        t = np.array([-2.0, -1.0, 0.5, 1.0, 2.0])
        bundle = regression_bundle(t, t)
        assert bundle["mae"] == 0.0
        assert bundle["corr"] == pytest.approx(1.0)
        assert bundle["acc7"] == 1.0
        assert bundle["acc5"] == 1.0
        assert bundle["acc2_incl_zero"] == 1.0
        assert bundle["weighted_f1_incl_zero"] == 1.0

    def test_classification_bundle(self):
        bundle = classification_bundle([0, 1, 1, 2], [0, 1, 2, 2])
        assert bundle["accuracy"] == 0.75
        assert 0 < bundle["macro_f1"] <= 1
        assert 0 < bundle["weighted_f1"] <= 1


# Exact zeros, rounding ties and values past the Acc-7 clamp, drawn often.
_SCORES = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 2.5, -3.5, 1e-300, -1e-300]),
                    st.floats(-5, 5, allow_nan=False))


@given(pairs=st.lists(st.tuples(_SCORES, _SCORES), min_size=2, max_size=60),
       zero_targets=st.booleans())
@settings(max_examples=300, deadline=None)
def test_regression_bundle_accuracies_equal_acc_k(pairs, zero_targets):
    preds, targets = (np.array(column) for column in zip(*pairs))
    if zero_targets:
        targets = np.zeros_like(targets)
    bundle = regression_bundle(preds, targets)
    for key, k in [("acc7", 7), ("acc5", 5), ("acc2_incl_zero", "2-include-zero"),
                   ("acc2_nonzero", "2-nonzero")]:
        expected = acc_k(preds, targets, k)
        assert bundle[key] == expected and type(bundle[key]) is type(expected), key
