"""Aligned unimodal and multimodal predictions for one data split."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
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
            raise InvalidInputError(
                f"{self.task} outputs misaligned: uni {self.uni.shape}, multi "
                f"{self.multi.shape}, targets {self.targets.shape}"
            )
        if self.uni.shape[0] == 0:
            raise InvalidInputError("no unimodal predictions")

    @property
    def n_modalities(self) -> int:
        return int(self.uni.shape[0])
