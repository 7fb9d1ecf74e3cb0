"""Synthetic multimodal datasets with controllable per-modality informativeness.

Each instance has a scalar latent signal. A modality with informativeness a
sees a random projection of (a * signal + (1 - a) * independent noise), so
a = 1 determines the target exactly and a = 0 is pure distractor. Targets
are the signal itself (regression) or its quantile bins (classification).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidInputError
from .moe import CLASSIFICATION, REGRESSION, DataBatch, read_tensor_records, write_tensor_record

TRAIN, VAL, TEST = 0, 1, 2
SPLIT_NAMES = {"train": TRAIN, "val": VAL, "test": TEST}


@dataclass(frozen=True)
class SyntheticSpec:
    n_instances: int
    modality_dims: tuple[int, ...]
    informativeness: tuple[float, ...]
    noise_sigma: float = 0.1
    task: str = REGRESSION
    n_classes: int = 0
    nonlinearity: str = "linear"
    seed: int = 0
    # Optional Dirichlet-style class priors for imbalanced classification bins.
    class_priors: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "modality_dims", tuple(int(d) for d in self.modality_dims))
        object.__setattr__(self, "informativeness", tuple(float(a) for a in self.informativeness))
        if self.class_priors is not None:
            object.__setattr__(self, "class_priors", tuple(float(p) for p in self.class_priors))
        if self.n_instances < 2:
            raise InvalidInputError("n_instances must be >= 2")
        if self.seed < 0:
            raise InvalidInputError(f"data.seed must be >= 0, got {self.seed}")
        if len(self.modality_dims) != len(self.informativeness):
            raise InvalidInputError("informativeness length must equal modality count")
        if any(d < 1 for d in self.modality_dims):
            raise InvalidInputError(f"modality_dims must all be >= 1, got {self.modality_dims}")
        if any(not 0.0 <= a <= 1.0 for a in self.informativeness):
            raise InvalidInputError("informativeness values must lie in [0, 1]")
        if not any(a > 0 for a in self.informativeness):
            raise InvalidInputError("at least one modality must have informativeness > 0")
        if not 0 <= self.noise_sigma < math.inf:
            raise InvalidInputError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.task not in (REGRESSION, CLASSIFICATION):
            raise InvalidInputError(f"unknown task {self.task!r}")
        if self.task == CLASSIFICATION and not 2 <= self.n_classes <= self.n_instances:
            raise InvalidInputError(f"classification needs 2 <= n_classes <= n_instances "
                                   f"({self.n_instances}), got {self.n_classes}")
        if self.nonlinearity not in ("linear", "tanh-mixed"):
            raise InvalidInputError(f"unknown nonlinearity {self.nonlinearity!r}")
        if self.class_priors is not None:
            if len(self.class_priors) != self.n_classes:
                raise InvalidInputError("class_priors length must equal n_classes")
            if not (all(p > 0 for p in self.class_priors)
                    and math.isfinite(sum(self.class_priors))):
                raise InvalidInputError(f"class_priors must be positive with a finite sum, "
                                       f"got {self.class_priors}")

    @property
    def n_modalities(self) -> int:
        return len(self.modality_dims)

    def to_dict(self) -> dict:
        d = asdict(self)
        if self.class_priors is None:
            del d["class_priors"]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SyntheticSpec":
        return cls(**d)  # __post_init__ turns the JSON lists back into tuples


@dataclass
class Dataset:
    features: list[np.ndarray]
    targets: np.ndarray
    split_tags: np.ndarray  # int8 codes: 0 train, 1 val, 2 test
    task: str
    n_classes: int = 0
    spec: SyntheticSpec | None = None
    split_seed: int | None = None
    split_fractions: tuple[float, float, float] | None = None

    @property
    def n_instances(self) -> int:
        return int(self.targets.shape[0])

    @property
    def n_modalities(self) -> int:
        return len(self.features)

    def indices(self, split: str) -> np.ndarray:
        return np.nonzero(self.split_tags == SPLIT_NAMES[split])[0]

    def batch(self, split: str) -> DataBatch:
        idx = self.indices(split)
        if idx.size == 0:
            raise InvalidInputError(f"split {split!r} is empty")
        return DataBatch(
            features=[f[idx] for f in self.features],
            targets=self.targets[idx],
        )


def _quantile_bins(signal: np.ndarray, n_classes: int, priors) -> np.ndarray:
    """Rank-based binning: balanced classes, or prior-shaped ones when given."""
    n = signal.shape[0]
    order = np.argsort(signal, kind="stable")
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n)
    if priors is None:
        return (ranks * n_classes) // n
    cum = np.cumsum(np.asarray(priors, dtype=np.float64))
    cum /= cum[-1]
    boundaries = np.rint(cum * n).astype(np.int64)
    return np.searchsorted(boundaries, ranks, side="right")


def generate(spec: SyntheticSpec) -> Dataset:
    """Draw a dataset from the spec; bit-identical for identical specs."""
    signal_rng = np.random.default_rng([spec.seed, 0])
    signal = signal_rng.standard_normal(spec.n_instances)

    features = []
    for m in range(spec.n_modalities):
        rng = np.random.default_rng([spec.seed, 1 + m])
        dim = spec.modality_dims[m]
        a = spec.informativeness[m]
        distractor = rng.standard_normal(spec.n_instances)
        projection = rng.standard_normal(dim)
        base = a * signal + (1.0 - a) * distractor
        mat = base[:, None] * projection[None, :]
        if spec.nonlinearity == "tanh-mixed":
            mat = mat.copy()
            mat[:, 1::2] = np.tanh(mat[:, 1::2])
        if spec.noise_sigma > 0:
            mat = mat + spec.noise_sigma * rng.standard_normal((spec.n_instances, dim))
        # Standardize columns so feature scale is independent of the noise
        # level and projection draw; keeps training stable across specs.
        mat = mat - mat.mean(axis=0)
        stds = mat.std(axis=0)
        if not np.isfinite(stds).all():
            raise InvalidInputError(f"noise_sigma {spec.noise_sigma} overflows modality {m}")
        stds[stds == 0] = 1.0
        features.append(mat / stds)

    if spec.task == REGRESSION:
        targets = signal
        n_classes = 0
    else:
        targets = _quantile_bins(signal, spec.n_classes, spec.class_priors)
        n_classes = spec.n_classes

    return Dataset(
        features=features,
        targets=targets,
        split_tags=np.zeros(spec.n_instances, dtype=np.int8),
        task=spec.task,
        n_classes=n_classes,
        spec=spec,
    )


def split(dataset: Dataset, fractions, seed: int) -> Dataset:
    """Tag instances train/val/test by a seeded permutation, reproducibly."""
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) != 3:
        raise InvalidInputError("expected exactly three fractions")
    if not all(f > 0 for f in fractions):  # also rejects nan
        raise InvalidInputError(f"fractions must all be positive, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise InvalidInputError(f"fractions sum to {sum(fractions)}, not 1")
    if seed < 0:
        raise InvalidInputError(f"split.seed must be >= 0, got {seed}")

    n = dataset.n_instances
    n_train = int(round(fractions[0] * n))
    n_val = int(round(fractions[1] * n))
    if n_train + n_val >= n:
        raise InvalidInputError("train+val fractions leave no test instances")
    perm = np.random.default_rng(seed).permutation(n)
    tags = np.empty(n, dtype=np.int8)
    tags[perm[:n_train]] = TRAIN
    tags[perm[n_train : n_train + n_val]] = VAL
    tags[perm[n_train + n_val :]] = TEST
    return Dataset(
        features=dataset.features,
        targets=dataset.targets,
        split_tags=tags,
        task=dataset.task,
        n_classes=dataset.n_classes,
        spec=dataset.spec,
        split_seed=seed,
        split_fractions=fractions,
    )


def save_dataset(dataset: Dataset, out_dir) -> list[Path]:
    """Write meta.json and one tensor-record file per modality and for the
    targets into out_dir; return the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    modality_files = [f"modality_{m}.bin" for m in range(dataset.n_modalities)]
    written = [out / name for name in [*modality_files, "targets.bin"]]
    for path, mat in zip(written, [*dataset.features, dataset.targets]):
        with open(path, "wb") as fh:
            write_tensor_record(fh, mat)
    meta = {
        "format": "btwmoe-dataset-v1",
        "n_instances": dataset.n_instances,
        "task": dataset.task,
        "n_classes": dataset.n_classes,
        "modality_files": modality_files,
        "targets_file": "targets.bin",
        "split_tags": dataset.split_tags.tolist(),
        "split_seed": dataset.split_seed,
        "split_fractions": list(dataset.split_fractions) if dataset.split_fractions else None,
        "spec": dataset.spec.to_dict() if dataset.spec else None,
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
    return [*written, out / "meta.json"]


def load_dataset(in_dir) -> Dataset:
    """Read a directory written by save_dataset. A missing, truncated or
    malformed file, or one holding a value no run can use (non-finite, a
    class label outside 0..n_classes-1, a split tag other than 0, 1, 2),
    raises InvalidInputError naming that file."""
    src = Path(in_dir)
    meta_path = src / "meta.json"
    try:
        meta = json.loads(meta_path.read_text())
    except (OSError, ValueError) as exc:  # missing, unreadable or malformed
        raise InvalidInputError(f"cannot read dataset {src}: {exc}") from exc
    if not isinstance(meta, dict) or meta.get("format") != "btwmoe-dataset-v1":
        raise InvalidInputError(f"unrecognized dataset format in {src}")
    try:
        paths = [src / name for name in [*meta["modality_files"], meta["targets_file"]]]
        task, n_classes = meta["task"], int(meta["n_classes"])
        split_tags = np.asarray(meta["split_tags"])
        spec = SyntheticSpec.from_dict(meta["spec"]) if meta.get("spec") else None
        split_fractions = tuple(meta["split_fractions"]) if meta.get("split_fractions") else None
    except KeyError as exc:
        raise InvalidInputError(f"dataset metadata {meta_path} has no key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"malformed dataset metadata {meta_path}: {exc}") from exc

    if split_tags.ndim != 1 or not np.isin(split_tags, (TRAIN, VAL, TEST)).all():
        raise InvalidInputError(f"dataset metadata {meta_path} has split tags outside 0, 1, 2")
    split_tags = split_tags.astype(np.int8)

    matrices = []
    for path in paths:
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise InvalidInputError(f"dataset {src}: {exc}") from exc  # exc names the file
        matrices.append(read_tensor_records(path, raw, 0, 1)[0])
    *features, targets = matrices
    for path, mat, ndim in zip(paths, matrices, [2] * len(features) + [1]):
        if mat.ndim != ndim or len(mat) != split_tags.size:
            raise InvalidInputError(
                f"dataset file {path} has shape {mat.shape}, but {meta_path} lists "
                f"{split_tags.size} split tags"
            )
        if not np.isfinite(mat).all():
            raise InvalidInputError(f"dataset file {path} holds a non-finite value")
    if task == CLASSIFICATION:
        if ((targets < 0) | (targets >= n_classes) | (targets != np.floor(targets))).any():
            raise InvalidInputError(f"dataset file {paths[-1]} holds a class label outside "
                                    f"0..{n_classes - 1}")
        targets = targets.astype(np.int64)
    return Dataset(
        features=features,
        targets=targets,
        split_tags=split_tags,
        task=task,
        n_classes=n_classes,
        spec=spec,
        split_seed=meta.get("split_seed"),
        split_fractions=split_fractions,
    )
