"""Aligned unimodal and multimodal predictions for one data split."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import IncompleteInputError, InvalidInputError, ShapeError
from .moe import CLASSIFICATION, REGRESSION

# Rank of one model's outputs: (N,) means or (N, C) class probabilities.
_OUTPUT_RANK = {REGRESSION: 1, CLASSIFICATION: 2}


@dataclass
class PredictionSet:
    """Frozen unimodal outputs next to the current multimodal outputs.

    uni stacks the M unimodal models' raw outputs, (M, N) or (M, N, C);
    multi is the multimodal model's, (N,) or (N, C); targets are (N,).
    """

    task: str
    targets: np.ndarray
    uni: np.ndarray
    multi: np.ndarray

    def __post_init__(self):
        if self.task not in _OUTPUT_RANK:
            raise InvalidInputError(f"unknown task {self.task!r}")
        if (self.uni.ndim != _OUTPUT_RANK[self.task] + 1 or self.uni.shape[1:] != self.multi.shape
                or self.multi.shape[0] != self.targets.shape[0]):
            raise ShapeError(
                f"{self.task} outputs misaligned: uni {self.uni.shape}, multi "
                f"{self.multi.shape}, targets {self.targets.shape}"
            )

    @property
    def n_modalities(self) -> int:
        return int(self.uni.shape[0])

    @classmethod
    def from_predictions(cls, task: str, targets: np.ndarray, uni_list, multi) -> "PredictionSet":
        """Build a set from raw model outputs; the unimodal stack is made
        read-only, as it is a fixed reference point."""
        if len(uni_list) == 0:
            raise IncompleteInputError("no unimodal predictions")
        uni = np.stack(uni_list)
        uni.flags.writeable = False
        return cls(task=task, targets=targets, uni=uni, multi=multi)

    def with_multimodal(self, multi: np.ndarray) -> "PredictionSet":
        """Copy of this set with the multimodal outputs replaced."""
        return replace(self, multi=multi)
