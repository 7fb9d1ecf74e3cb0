"""Aligned unimodal and multimodal predictions for one data split."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .distributions import VARIANCE_FLOOR, residual_variance_array
from .errors import IncompleteInputError, InvalidInputError, ShapeError
from .moe import CLASSIFICATION, REGRESSION


@dataclass
class PredictionSet:
    """Frozen unimodal predictions next to the current multimodal predictions.

    Regression carries per-instance Gaussian parameters (mean plus a
    residual-variance estimate against the ground truth). Classification
    carries full class-probability vectors; hard labels are their argmax.

    Shapes: unimodal arrays are (M, N) or (M, N, C); multimodal arrays are
    (N,) or (N, C); targets are (N,).
    """

    task: str
    targets: np.ndarray
    uni_mean: np.ndarray | None = None
    uni_var: np.ndarray | None = None
    multi_mean: np.ndarray | None = None
    multi_var: np.ndarray | None = None
    uni_probs: np.ndarray | None = None
    multi_probs: np.ndarray | None = None

    def __post_init__(self):
        if self.task not in (REGRESSION, CLASSIFICATION):
            raise InvalidInputError(f"unknown task {self.task!r}")
        n = self.targets.shape[0]
        if self.task == REGRESSION:
            if self.uni_mean is None or self.uni_var is None:
                raise IncompleteInputError("regression needs unimodal means and variances")
            if self.multi_mean is None or self.multi_var is None:
                raise IncompleteInputError("regression needs multimodal mean and variance")
            if self.uni_mean.shape != self.uni_var.shape or self.uni_mean.ndim != 2:
                raise ShapeError("unimodal mean/var must both be (M, N)")
            if self.uni_mean.shape[1] != n or self.multi_mean.shape != (n,):
                raise ShapeError("prediction series misaligned with targets")
            if np.any(self.uni_var < VARIANCE_FLOOR) or np.any(self.multi_var < VARIANCE_FLOOR):
                raise InvalidInputError("variances below the variance floor")
        else:
            if self.uni_probs is None or self.multi_probs is None:
                raise IncompleteInputError("classification needs unimodal and multimodal probs")
            if self.uni_probs.ndim != 3 or self.multi_probs.ndim != 2:
                raise ShapeError("probs must be (M, N, C) and (N, C)")
            if self.uni_probs.shape[1] != n or self.multi_probs.shape[0] != n:
                raise ShapeError("prediction series misaligned with targets")
            if self.uni_probs.shape[2] != self.multi_probs.shape[1]:
                raise ShapeError("class-count mismatch between unimodal and multimodal probs")

    @property
    def n_instances(self) -> int:
        return int(self.targets.shape[0])

    @property
    def n_modalities(self) -> int:
        if self.task == REGRESSION:
            return int(self.uni_mean.shape[0])
        return int(self.uni_probs.shape[0])

    @property
    def uni_labels(self) -> np.ndarray:
        """Hard unimodal labels (M, N), classification only."""
        return np.argmax(self.uni_probs, axis=2)

    @property
    def multi_labels(self) -> np.ndarray:
        """Hard multimodal labels (N,), classification only."""
        return np.argmax(self.multi_probs, axis=1)

    @classmethod
    def from_predictions(cls, task: str, targets: np.ndarray, uni_list, multi) -> "PredictionSet":
        """Build a set from raw model outputs: (N,) means or (N, C) probabilities.

        Regression adds each series' residual variance against the targets.
        The unimodal side is made read-only; it is a fixed reference point.
        """
        if len(uni_list) == 0:
            raise IncompleteInputError("no unimodal predictions")
        uni = np.stack(uni_list)
        uni.flags.writeable = False
        if task != REGRESSION:
            return cls(task=task, targets=targets, uni_probs=uni, multi_probs=multi)
        uni_var = residual_variance_array(targets, uni)
        uni_var.flags.writeable = False
        return cls(
            task=task,
            targets=targets,
            uni_mean=uni,
            uni_var=uni_var,
            multi_mean=multi,
            multi_var=residual_variance_array(targets, multi),
        )

    def with_multimodal(self, multi: np.ndarray) -> "PredictionSet":
        """Copy of this set with the multimodal side replaced by raw outputs."""
        if self.task == REGRESSION:
            return replace(
                self, multi_mean=multi, multi_var=residual_variance_array(self.targets, multi)
            )
        return replace(self, multi_probs=multi)
