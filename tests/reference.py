"""A straight-line reference of a whole experiment, to check run_experiment
against bit for bit.

It runs in one process, with no lanes, jobs or deferred scores, and states
the method as README does, one instance and one modality at a time: KL from
the scalar gaussian_kl/categorical_kl and residual_variance, MI from
ksg_mi/discrete_mi, the four combinators and the EMA with a per-row
normaliser, and the adaptive factor that steps up when val MAE fell or val
weighted F1 rose. Of btwmoe it reuses only resolve_dataset, the metric
bundles and the model primitives.

The MI jitter's seed decides a result only where KSG meets tied outputs,
so random configs do not check it; test_training.py's
test_tied_outputs_read_the_mi_jitter does.
"""

import numpy as np

from btwmoe.distributions import (
    CategoricalDist,
    GaussianParams,
    categorical_kl,
    gaussian_kl,
    residual_variance,
)
from btwmoe.metrics import classification_bundle, regression_bundle
from btwmoe.mi import discrete_mi, ksg_mi
from btwmoe.moe import (
    DataBatch,
    backward,
    forward,
    init_params,
    loss_and_pred_grad,
    modality_slice,
    sgd_step,
)
from btwmoe.training import EpochRecord, ExperimentResult, resolve_dataset

# README's seed-splitting rule: MI jitter from S + 101 + weighted-epoch.
JITTER_OFFSET = 101


def train_epoch(params, features, targets, rows, config, rng, weights=None):
    """One shuffled pass of mini-batch SGD over rows; (params, mean loss)."""
    order = rng.permutation(rows.size)
    total = 0.0
    for start in range(0, rows.size, config.batch_size):
        idx = order[start : start + config.batch_size]
        batch = DataBatch([f[rows[idx]] for f in features], targets[rows[idx]])
        preds, trace = forward(params, batch, None if weights is None else weights[idx])
        loss, d_pred = loss_and_pred_grad(params.config, preds, batch.targets)
        params = sgd_step(params, backward(trace, d_pred), config.lr)
        total += loss * idx.size
    return params, total / rows.size


def score(params, batch, row=None):
    """(loss, metric bundle) of a split, with row applied to every instance."""
    weights = None if row is None else np.tile(row, (batch.n_instances, 1))
    preds = forward(params, batch, weights)[0]
    loss = loss_and_pred_grad(params.config, preds, batch.targets)[0]
    if params.config.task == "regression":
        return loss, regression_bundle(preds, batch.targets)
    return loss, classification_bundle(np.argmax(preds, axis=1), batch.targets.astype(np.int64))


def kl_matrix(targets, uni, multi):
    """(N, M) raw KL(unimodal_i^(m) || multimodal_i), entry by entry."""
    n_mod, n = uni.shape[0], multi.shape[0]
    raw = np.empty((n, n_mod))
    for i in range(n):
        for m in range(n_mod):
            if multi.ndim == 1:
                p = GaussianParams(uni[m, i], residual_variance(targets[i], uni[m, i]))
                q = GaussianParams(multi[i], residual_variance(targets[i], multi[i]))
                raw[i, m] = gaussian_kl(p, q)
            else:
                raw[i, m] = categorical_kl(CategoricalDist(uni[m, i]), CategoricalDist(multi[i]))
    return raw


def mi_vector(uni, multi, jitter_seed):
    if multi.ndim == 1:
        return np.array([ksg_mi(u, multi, jitter_seed=jitter_seed) for u in uni])
    labels = np.argmax(multi, axis=1)
    return np.array([discrete_mi(np.argmax(u, axis=1), labels) for u in uni])


def normalize(values):
    """Each row divided by its sum; a row summing to 0 becomes uniform."""
    out = np.empty(values.shape)
    for i, row in enumerate(values):
        total = row.sum()
        out[i] = row / total if total > 0 else 1.0 / row.size
    return out


def combine(variant, raw, mi, n):
    if variant == "btw_local":
        return normalize(raw)
    if variant == "btw_global_kl":
        return np.repeat(normalize(raw.mean(axis=0)[None, :]), n, axis=0)
    if variant == "btw_global_mi":
        return np.repeat(normalize(mi[None, :]), n, axis=0)
    return normalize(raw * mi[None, :])


def improved(task, metrics, before):
    if task == "regression":
        return metrics["mae"] < before["mae"]
    return metrics["weighted_f1"] > before["weighted_f1"]


def run_reference(config) -> ExperimentResult:
    """config's run, straight through; every duration_s reads 0."""
    dataset = resolve_dataset(config)
    model = config.model_config(dataset)
    n_mod = dataset.n_modalities
    train_idx = dataset.indices("train")
    val, test, train = dataset.batch("val"), dataset.batch("test"), dataset.batch("train")
    weighted = config.variant != "unweighted"
    # The unweighted baseline trains its weighted epochs as warm ones.
    n_warm = config.epochs_warm + (0 if weighted else config.epochs_weighted)
    n_weighted = config.epochs_weighted if weighted else 0

    unimodal_params, uni = [], []
    for m in range(n_mod if weighted else 0):
        rng = np.random.default_rng(config.seed + m)
        params = modality_slice(init_params(model, rng), m)
        for _ in range(config.epochs_unimodal):
            params = train_epoch(params, [dataset.features[m]], dataset.targets, train_idx,
                                 config, rng)[0]
        unimodal_params.append(params)
        uni.append(forward(params, DataBatch([train.features[m]]))[0])
    uni = np.stack(uni) if uni else None

    rng = np.random.default_rng(config.seed)
    params = init_params(model, rng)
    records = []
    for epoch in range(1, n_warm + 1):
        params, train_loss = train_epoch(params, dataset.features, dataset.targets, train_idx,
                                         config, rng)
        val_loss, val_metrics = score(params, val)
        records.append(EpochRecord(epoch, "warm", train_loss, val_loss, val_metrics, 0.5,
                                   np.full(n_mod, 1.0 / n_mod), 0.0))
    val_metrics = records[-1].val_metrics if records else score(params, val)[1]

    smoothed = np.full((train_idx.size, n_mod), 1.0 / n_mod)
    alpha, before, applied = 0.5, None, None
    for w in range(1, n_weighted + 1):
        multi = forward(params, train, applied)[0]
        mi = None
        if config.variant in ("btw_global_mi", "btw"):
            mi = mi_vector(uni, multi, config.seed + JITTER_OFFSET + w)
        raw = kl_matrix(train.targets, uni, multi)
        if before is not None:
            alpha = min(max(alpha + (0.1 if improved(dataset.task, val_metrics, before) else -0.1),
                            0.1), 0.9)
        before = val_metrics
        new = combine(config.variant, raw, mi, train_idx.size)
        smoothed = normalize(alpha * new + (1.0 - alpha) * smoothed)
        applied = n_mod * smoothed
        row = applied.mean(axis=0)
        params, train_loss = train_epoch(params, dataset.features, dataset.targets, train_idx,
                                         config, rng, applied)
        val_loss, val_metrics = score(params, val, row)
        records.append(EpochRecord(config.epochs_warm + w, "weighted", train_loss, val_loss,
                                   val_metrics, alpha, smoothed.mean(axis=0), 0.0,
                                   smoothed, mi, row))

    test_bundle = score(params, test, records[-1].eval_weights if records else None)[1]
    return ExperimentResult(config, dataset, records, unimodal_params, params, val_metrics,
                            test_bundle)
