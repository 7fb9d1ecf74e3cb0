"""Three-phase training: unimodal initialization, unweighted multimodal warm
training, then dynamically weighted epochs.

Phase one trains one model per modality and freezes its predictions; they are
the reference points for every later weight computation. Phase two trains the
multimodal model without weighting. Phase three, per epoch: rebuild the raw
KL matrix from the frozen unimodal predictions against the current multimodal
predictions, estimate modality MI when the variant calls for it, combine,
smooth, train one epoch with the weights scaling the modality embeddings, and
refresh the multimodal predictions.

Seed-splitting rule (experiment seed S): unimodal model m trains from stream
S + m; the multimodal model from stream S (continuing through warm and
weighted epochs); the dataset from data.seed; the split from S + 13; MI
jitter from S + 101 + weighted-epoch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidInputError, TrainingFailureError
from .metrics import classification_bundle, regression_bundle
from .mi import discrete_mi, ksg_mi
from .moe import (
    REGRESSION,
    DataBatch,
    MoeConfig,
    ModelParams,
    _forward,
    backward,
    init_params,
    loss_and_pred_grad,
    sgd_step,
)
from .predictions import PredictionSet
from .synthetic import Dataset, SyntheticSpec, generate, split
from .weighting import (
    ALPHA_INIT,
    ALPHA_MAX,
    ALPHA_MIN,
    ALPHA_STEP,
    HIGHER_IS_BETTER,
    LOWER_IS_BETTER,
    SmoothingState,
    combine_bilevel,
    combine_global_kl,
    combine_global_mi,
    combine_local,
    instance_kl_weights,
    smooth_update,
)

VARIANTS = ("unweighted", "btw_local", "btw_global_kl", "btw_global_mi", "btw")
MI_VARIANTS = ("btw_global_mi", "btw")

_SPLIT_SEED_OFFSET = 13
_JITTER_SEED_OFFSET = 101
_KSG_K = 3


@dataclass(frozen=True)
class ExperimentConfig:
    variant: str = "btw"
    epochs_unimodal: int = 10
    epochs_warm: int = 2
    epochs_weighted: int = 8
    lr: float = 0.02
    # Multiplicative per-epoch lr decay after the warm phase, keyed to the
    # global epoch index so it is variant-independent.
    lr_decay: float = 1.0
    batch_size: int = 256
    moe: MoeConfig | None = None
    data: SyntheticSpec | None = None
    data_path: str | None = None
    split_fractions: tuple[float, float, float] = (0.7, 0.15, 0.15)
    alpha_init: float = ALPHA_INIT
    alpha_step: float = ALPHA_STEP
    alpha_min: float = ALPHA_MIN
    alpha_max: float = ALPHA_MAX
    seed: int = 0
    # Equation-reduction test hooks. Neither touches the training RNG stream:
    # force_uniform_mi replaces the MI estimate with ones, force_unit_weights
    # applies all-ones weights while the weight pipeline still runs.
    force_uniform_mi: bool = False
    force_unit_weights: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InvalidInputError(f"unknown variant {self.variant!r}")
        if min(self.epochs_unimodal, self.epochs_warm, self.epochs_weighted) < 0:
            raise InvalidInputError("epoch counts must be >= 0")
        if self.lr <= 0:
            raise InvalidInputError("lr must be > 0")
        if self.batch_size < 1:
            raise InvalidInputError("batch_size must be >= 1")
        if self.data is None and self.data_path is None:
            raise InvalidInputError("config needs either an inline data spec or a data path")


@dataclass
class EpochRecord:
    epoch: int
    phase: str
    train_loss: float
    val_loss: float
    val_metrics: dict[str, float]
    alpha: float
    mean_weights: np.ndarray
    duration_s: float

    def validate(self):
        for key, value in self.val_metrics.items():
            if not np.isfinite(value):
                raise InvalidInputError(f"non-finite metric {key} at epoch {self.epoch}")
        if abs(float(self.mean_weights.sum()) - 1.0) > 1e-6:
            raise InvalidInputError(f"mean weights sum != 1 at epoch {self.epoch}")


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    dataset: Dataset
    records: list[EpochRecord]
    unimodal_params: list[ModelParams]
    final_params: ModelParams
    train_preds: PredictionSet | None = None
    weight_epochs: list[int] = field(default_factory=list)
    weight_matrices: list[np.ndarray] = field(default_factory=list)
    alphas: list[float] = field(default_factory=list)
    mi_by_epoch: list[np.ndarray] = field(default_factory=list)
    final_mean_weights: np.ndarray | None = None
    final_eval_weights: np.ndarray | None = None
    val_bundle: dict[str, float] | None = None
    test_bundle: dict[str, float] | None = None


def improvement_direction(task: str) -> tuple[str, str]:
    """(metric key, direction) steering the adaptive smoothing factor."""
    if task == REGRESSION:
        return "mae", LOWER_IS_BETTER
    return "weighted_f1", HIGHER_IS_BETTER


def _epoch_lr(config: ExperimentConfig, epoch_index: int) -> float:
    """Learning rate for a multimodal epoch, decayed after the warm phase."""
    past_warm = max(0, epoch_index - config.epochs_warm)
    return config.lr * config.lr_decay**past_warm


def _collect_predictions(
    params: ModelParams, batch: DataBatch, weights=None, modality=None
) -> np.ndarray:
    """Raw model outputs from a prediction-only pass, which keeps no expert caches.

    weights is (N, M), or a 1-D per-modality row applied to every instance.
    """
    if weights is not None and np.ndim(weights) == 1:
        weights = np.tile(np.asarray(weights, dtype=np.float64), (batch.n_instances, 1))
    modalities = None if modality is None else [modality]
    preds, _ = _forward(params, batch, weights=weights, modalities=modalities, keep_trace=False)
    return preds


def _score(params: ModelParams, batch: DataBatch, weights=None) -> tuple[float, dict[str, float]]:
    """(loss, metric bundle) of the model on a batch."""
    preds = _collect_predictions(params, batch, weights)
    cfg = params.config
    loss, _ = loss_and_pred_grad(cfg, preds, batch.targets)
    if cfg.task == REGRESSION:
        return loss, regression_bundle(preds, batch.targets)
    return loss, classification_bundle(np.argmax(preds, axis=1), batch.targets.astype(np.int64))


def _train_one_epoch(
    params: ModelParams,
    batch: DataBatch,
    lr: float,
    batch_size: int,
    rng: np.random.Generator,
    phase: str,
    epoch: int,
    weights: np.ndarray | None = None,
    modality: int | None = None,
) -> tuple[ModelParams, float]:
    """One pass over the batch in a seeded shuffle order; returns the mean loss."""
    cfg = params.config
    n = batch.n_instances
    perm = rng.permutation(n)
    total, count = 0.0, 0
    try:
        for start in range(0, n, batch_size):
            idx = perm[start : start + batch_size]
            sub = batch.take(idx)
            sub_weights = weights[idx] if weights is not None else None
            if modality is None:
                preds, trace = _forward(params, sub, weights=sub_weights)
            else:
                preds, trace = _forward(params, sub, weights=None, modalities=[modality])
            loss, d_pred = loss_and_pred_grad(cfg, preds, sub.targets)
            grads = backward(trace, d_pred)
            params = sgd_step(params, grads, lr)
            total += loss * idx.size
            count += idx.size
    except FloatingPointError as exc:
        raise TrainingFailureError(phase, epoch, str(exc)) from exc
    mean_loss = total / count
    if not np.isfinite(mean_loss):
        raise TrainingFailureError(phase, epoch, f"loss diverged to {mean_loss}")
    return params, mean_loss


def resolve_dataset(config: ExperimentConfig) -> Dataset:
    """Generate (or load) and split the experiment dataset."""
    if config.data_path is not None:
        from .synthetic import load_dataset

        dataset = load_dataset(config.data_path)
        if not (dataset.split_tags > 0).any():
            dataset = split(dataset, config.split_fractions, seed=config.seed + _SPLIT_SEED_OFFSET)
        return dataset
    dataset = generate(config.data)
    return split(dataset, config.split_fractions, seed=config.seed + _SPLIT_SEED_OFFSET)


def default_moe_config(dataset: Dataset) -> MoeConfig:
    return MoeConfig(
        input_dims=tuple(f.shape[1] for f in dataset.features),
        task=dataset.task,
        n_classes=dataset.n_classes,
    )


def train_unimodal_all(
    config: ExperimentConfig, dataset: Dataset
) -> tuple[list[ModelParams], list[np.ndarray]]:
    """Train one model per modality; return the models and their train-split outputs.

    Modality m uses the random stream seeded with config.seed + m for both
    initialization and batch order, so runs can be parallelized without
    changing results.
    """
    moe_cfg = config.moe or default_moe_config(dataset)
    train_batch = dataset.batch("train")

    models: list[ModelParams] = []
    uni_train = []
    for m in range(moe_cfg.n_modalities):
        rng = np.random.default_rng(config.seed + m)
        params = init_params(moe_cfg, rng)
        for epoch in range(1, config.epochs_unimodal + 1):
            params, _ = _train_one_epoch(
                params, train_batch, config.lr, config.batch_size, rng,
                phase=f"unimodal[{m}]", epoch=epoch, modality=m,
            )
        models.append(params)
        uni_train.append(_collect_predictions(params, train_batch, modality=m))
    return models, uni_train


def train_multimodal_warm(
    config: ExperimentConfig,
    dataset: Dataset,
    rng: np.random.Generator,
    n_epochs: int,
    records: list[EpochRecord],
) -> ModelParams:
    """Unweighted multimodal epochs on the shared stream; appends EpochRecords."""
    moe_cfg = config.moe
    train_batch = dataset.batch("train")
    params = init_params(moe_cfg, rng)
    uniform_row = np.full(moe_cfg.n_modalities, 1.0 / moe_cfg.n_modalities)
    for _ in range(n_epochs):
        epoch_index = len(records) + 1
        started = time.perf_counter()
        params, train_loss = _train_one_epoch(
            params, train_batch, _epoch_lr(config, epoch_index), config.batch_size, rng,
            phase="warm", epoch=epoch_index,
        )
        val_loss, val_metrics = _score(params, dataset.batch("val"))
        record = EpochRecord(
            epoch=epoch_index,
            phase="warm",
            train_loss=train_loss,
            val_loss=val_loss,
            val_metrics=val_metrics,
            alpha=config.alpha_init,
            mean_weights=uniform_row.copy(),
            duration_s=time.perf_counter() - started,
        )
        record.validate()
        records.append(record)
    return params


def modality_mi(preds: PredictionSet, jitter_seed: int) -> np.ndarray:
    """Per-modality MI between unimodal and multimodal prediction series."""
    m = preds.n_modalities
    out = np.zeros(m)
    if preds.task == REGRESSION:
        for j in range(m):
            out[j] = ksg_mi(preds.uni_mean[j], preds.multi_mean, k=_KSG_K, jitter_seed=jitter_seed)
    else:
        multi_labels = preds.multi_labels
        uni_labels = preds.uni_labels
        for j in range(m):
            out[j] = discrete_mi(uni_labels[j], multi_labels)
    return out


def _combine(config: ExperimentConfig, raw: np.ndarray, mi: np.ndarray | None) -> np.ndarray:
    if config.variant == "btw_local":
        return combine_local(raw)
    if config.variant == "btw_global_kl":
        return combine_global_kl(raw)
    if config.variant == "btw_global_mi":
        return combine_global_mi(mi, raw.shape[0])
    return combine_bilevel(raw, mi)


def run_weighted_phase(
    config: ExperimentConfig,
    dataset: Dataset,
    params: ModelParams,
    train_preds: PredictionSet,
    state: SmoothingState,
    rng: np.random.Generator,
    records: list[EpochRecord],
    result: ExperimentResult,
) -> tuple[ModelParams, PredictionSet]:
    """The dynamically weighted epochs; mutates records and the result trackers."""
    if config.variant == "unweighted":
        raise InvalidInputError("the unweighted variant has no weighted phase")
    moe_cfg = config.moe
    metric_key, direction = improvement_direction(moe_cfg.task)
    train_batch = dataset.batch("train")
    n_train = train_batch.n_instances
    n_mod = moe_cfg.n_modalities

    # Smoothing metric: validation quality at the end of the previous epoch.
    if records:
        current_metric = records[-1].val_metrics[metric_key]
    else:
        current_metric = _score(params, dataset.batch("val"))[1][metric_key]

    for weighted_epoch in range(1, config.epochs_weighted + 1):
        epoch_index = len(records) + 1
        started = time.perf_counter()

        raw = instance_kl_weights(train_preds)
        mi = None
        if config.variant in MI_VARIANTS:
            if config.force_uniform_mi:
                mi = np.ones(n_mod)
            else:
                mi = modality_mi(
                    train_preds,
                    jitter_seed=config.seed + _JITTER_SEED_OFFSET + weighted_epoch,
                )
            result.mi_by_epoch.append(mi.copy())

        new_weights = _combine(config, raw, mi)
        smoothed, state = smooth_update(state, new_weights, current_metric, direction)
        # Weights are applied at relative scale (M * W, mean scale 1): the
        # row-stochastic rows express modality proportions, and rescaling by
        # M makes uniform rows reproduce the unweighted baseline exactly.
        # The all-ones hook overrides application while the pipeline (and
        # its records) keep running, so losses stay comparable.
        if config.force_unit_weights:
            applied = np.ones((n_train, n_mod))
        else:
            applied = n_mod * smoothed
        applied_row = applied.mean(axis=0)

        params, train_loss = _train_one_epoch(
            params, train_batch, _epoch_lr(config, epoch_index), config.batch_size, rng,
            phase="weighted", epoch=epoch_index, weights=applied,
        )

        train_preds = train_preds.with_multimodal(
            _collect_predictions(params, train_batch, weights=applied)
        )
        val_loss, val_metrics = _score(params, dataset.batch("val"), applied_row)
        current_metric = val_metrics[metric_key]

        result.weight_epochs.append(epoch_index)
        result.weight_matrices.append(smoothed.copy())
        result.alphas.append(state.alpha)
        record = EpochRecord(
            epoch=epoch_index,
            phase="weighted",
            train_loss=train_loss,
            val_loss=val_loss,
            val_metrics=val_metrics,
            alpha=state.alpha,
            mean_weights=smoothed.mean(axis=0),
            duration_s=time.perf_counter() - started,
        )
        record.validate()
        records.append(record)
        result.final_eval_weights = applied_row

    return params, train_preds


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the full three-phase experiment deterministically."""
    dataset = resolve_dataset(config)
    moe_cfg = config.moe or default_moe_config(dataset)
    config = replace(config, moe=moe_cfg)

    needs_weights = config.variant != "unweighted"
    if needs_weights:
        unimodal_params, uni_train = train_unimodal_all(config, dataset)
    else:
        unimodal_params, uni_train = [], None

    records: list[EpochRecord] = []
    rng = np.random.default_rng(config.seed)
    # The unweighted baseline folds its nominally weighted epochs into the
    # warm loop, so every variant trains the same total number of epochs.
    n_warm = config.epochs_warm + (0 if needs_weights else config.epochs_weighted)
    params = train_multimodal_warm(config, dataset, rng, n_warm, records)

    result = ExperimentResult(
        config=config,
        dataset=dataset,
        records=records,
        unimodal_params=unimodal_params,
        final_params=params,
    )

    if not needs_weights:
        result.val_bundle = evaluate(params, dataset, "val")
        result.test_bundle = evaluate(params, dataset, "test")
        return result

    train_batch = dataset.batch("train")
    train_preds = PredictionSet.from_predictions(
        moe_cfg.task, train_batch.targets, uni_train, _collect_predictions(params, train_batch)
    )

    # The warm phase trains under implicitly uniform weights, so the EMA
    # recursion starts from the uniform matrix rather than from nothing.
    n_train = train_batch.n_instances
    uniform = np.full((n_train, moe_cfg.n_modalities), 1.0 / moe_cfg.n_modalities)
    state = SmoothingState(
        alpha=config.alpha_init,
        alpha_step=config.alpha_step,
        alpha_min=config.alpha_min,
        alpha_max=config.alpha_max,
        prev_weights=uniform,
        prev_metric=None,
    )
    params, train_preds = run_weighted_phase(
        config, dataset, params, train_preds, state, rng, records, result
    )

    result.final_params = params
    result.train_preds = train_preds
    result.final_mean_weights = records[-1].mean_weights if result.weight_epochs else None
    eval_row = result.final_eval_weights
    result.val_bundle = evaluate(params, dataset, "val", eval_row)
    result.test_bundle = evaluate(params, dataset, "test", eval_row)
    return result


def evaluate(
    params: ModelParams,
    dataset: Dataset,
    split_name: str,
    eval_weights: np.ndarray | None = None,
) -> dict[str, float]:
    """Metric bundle on a split, with per-modality weights broadcast to all rows.

    Instance-level weights need ground truth, so evaluation reuses the final
    per-modality mean weights uniformly; None means unweighted.
    """
    return _score(params, dataset.batch(split_name), eval_weights)[1]
