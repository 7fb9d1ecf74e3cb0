"""Three-phase training: unimodal initialization, unweighted multimodal warm
training, then dynamically weighted epochs.

Phase one trains one model per modality and freezes its predictions; they are
the reference points for every later weight computation. Phase two trains the
multimodal model without weighting. Phase three, per epoch: predict the train
split with the current multimodal model under the weights it last trained
with, rebuild the raw KL matrix from the frozen unimodal predictions against
those, estimate modality MI when the variant calls for it, combine, smooth,
and train one epoch with the weights scaling the modality embeddings.

plan() decides whether a run can start before any of this; once it has,
every package error is a training failure naming its phase and epoch.

The work runs on lanes (open_lanes), one per free usable core: this process
and children forked from it. It reaches them as jobs (_start), each a
function named by module and name with its arguments: a child gets its
share of jobs as one message, and every job, this process's own too, hands
back one call that gives its result or raises its failure. The unimodal
models train beside the warm phase; the same children then serve the
weighted phase, scoring each epoch's val split and estimating the MI of a
share of the modalities while this process goes on. Every result, and every
failure's phase and epoch, is the same on any number of lanes.

Seed-splitting rule (experiment seed S): unimodal model m trains from stream
S + m; the multimodal model from stream S (continuing through warm and
weighted epochs); the dataset from data.seed; the split from S + 13; MI
jitter from S + 101 + weighted-epoch.
"""

from __future__ import annotations

import math
import os
import sys
import time
from collections.abc import Callable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, cached_property, partial
from typing import NamedTuple

import numpy as np

from .errors import BtwError, InvalidInputError, NumericOverflowError, TrainingFailureError
from .metrics import classification_bundle, regression_bundle
from .mi import KSG_K
from .moe import (
    REGRESSION,
    DataBatch,
    MoeConfig,
    ModelParams,
    _forward,
    backward,
    init_params,
    loss_and_pred_grad,
    modality_slice,
    sgd_step,
)
from .synthetic import Dataset, SyntheticSpec, generate, load_dataset, split
from .weighting import (
    ALPHA_INIT,
    HIGHER_IS_BETTER,
    LOWER_IS_BETTER,
    SmoothingState,
    combine_bilevel,
    combine_global_kl,
    combine_global_mi,
    combine_local,
    instance_kl_weights,
    modality_mi,
    smooth_update,
)

VARIANTS = ("unweighted", "btw_local", "btw_global_kl", "btw_global_mi", "btw")
MI_VARIANTS = ("btw_global_mi", "btw")

DEFAULT_SPLIT_FRACTIONS = (0.7, 0.15, 0.15)
_SPLIT_SEED_OFFSET = 13
_JITTER_SEED_OFFSET = 101


@dataclass(frozen=True)
class ExperimentConfig:
    variant: str = "btw"
    epochs_unimodal: int = 10
    epochs_warm: int = 2
    epochs_weighted: int = 8
    lr: float = 0.02
    batch_size: int = 256
    # The moe.* keys: the architecture that model_config fits to the data.
    moe_embed_dim: int = MoeConfig.embed_dim
    moe_n_experts: int = MoeConfig.n_experts
    moe_top_k: int = MoeConfig.top_k
    moe_expert_hidden: int = MoeConfig.expert_hidden
    moe_n_moe_layers: int = MoeConfig.n_moe_layers
    data: SyntheticSpec | None = None
    data_path: str | None = None
    # None: a loaded dataset's stored split if it has one, else
    # DEFAULT_SPLIT_FRACTIONS. A stored split cannot be re-split.
    split_fractions: tuple[float, float, float] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InvalidInputError(
                f"unknown variant {self.variant!r} (choose from {', '.join(VARIANTS)})"
            )
        if min(self.epochs_unimodal, self.epochs_warm, self.epochs_weighted) < 0:
            raise InvalidInputError("epoch counts must be >= 0")
        if not math.isfinite(self.lr):
            raise InvalidInputError(f"lr must be finite, got {self.lr}")
        if self.lr <= 0:
            raise InvalidInputError(f"lr must be > 0, got {self.lr}")
        if self.batch_size < 1:
            raise InvalidInputError("batch_size must be >= 1")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")
        if self.data is None and self.data_path is None:
            raise InvalidInputError("config needs either an inline data spec or a data path")

    def model_config(self, data: Dataset | SyntheticSpec) -> MoeConfig:
        """The model that trains on data: this config's architecture with the
        data's modality dims, task and class count."""
        return MoeConfig(
            input_dims=data.modality_dims,
            embed_dim=self.moe_embed_dim,
            n_experts=self.moe_n_experts,
            top_k=self.moe_top_k,
            expert_hidden=self.moe_expert_hidden,
            n_moe_layers=self.moe_n_moe_layers,
            task=data.task,
            n_classes=data.n_classes,
        )

    @property
    def moe(self) -> MoeConfig | None:
        """The model of an inline spec, known before plan(); None with a data path."""
        return self.model_config(self.data) if self.data_path is None else None


@dataclass
class EpochRecord:
    """One epoch. A weighted record also holds `weights`, the smoothed (N, M)
    train weight matrix; `mi`, the modality MI vector (MI variants only); and
    `eval_weights`, the per-modality row its val pass applied. Warm records
    leave all three None.

    Every val metric is finite: _score raises on a non-finite loss before it
    scores, and the predictions it scores (_forward checks the head) and the
    targets are finite. mean_weights sums to 1: a warm row is uniform, and a
    weighted row is the mean of rows that SmoothingState has checked sum to 1
    within WEIGHT_ATOL."""

    epoch: int
    phase: str
    train_loss: float
    val_loss: float
    val_metrics: dict[str, float]
    alpha: float
    mean_weights: np.ndarray
    duration_s: float
    weights: np.ndarray | None = None
    mi: np.ndarray | None = None
    eval_weights: np.ndarray | None = None


@dataclass
class ExperimentResult:
    """A finished run, built once at its end; `records` is its only per-epoch store."""

    config: ExperimentConfig
    dataset: Dataset
    records: list[EpochRecord]
    unimodal_params: list[ModelParams]
    final_params: ModelParams
    val_bundle: dict[str, float]
    test_bundle: dict[str, float]

    # Views over records, each computed once per result: a caller that edits
    # a returned list sees its edit on the next read.
    @cached_property
    def weighted_records(self) -> list[EpochRecord]:
        return [r for r in self.records if r.phase == "weighted"]

    @cached_property
    def weight_epochs(self) -> list[int]:
        return [r.epoch for r in self.weighted_records]

    @cached_property
    def weight_matrices(self) -> list[np.ndarray]:
        return [r.weights for r in self.weighted_records]


def improvement_direction(task: str) -> tuple[str, str]:
    """(metric key, direction) steering the adaptive smoothing factor."""
    if task == REGRESSION:
        return "mae", LOWER_IS_BETTER
    return "weighted_f1", HIGHER_IS_BETTER


def _collect_predictions(params: ModelParams, batch: DataBatch, weights=None) -> np.ndarray:
    """Raw model outputs of a train refresh: a prediction-only pass, which
    keeps no expert caches, under per-instance weights (N, M) or none."""
    return _forward(params, batch, weights=weights, keep_trace=False)[0]


def _score(params: ModelParams, batch: DataBatch, row=None) -> tuple[float, dict[str, float]]:
    """(loss, metric bundle) of a prediction-only pass on a batch, with the
    per-modality weight row applied to every instance; None means unweighted."""
    weights = None if row is None else np.broadcast_to(row, (batch.n_instances, len(row)))
    preds, _ = _forward(params, batch, weights=weights, keep_trace=False)
    cfg = params.config
    loss, _ = loss_and_pred_grad(cfg, preds, batch.targets)
    if not np.isfinite(loss):
        raise NumericOverflowError(f"loss diverged to {loss}")
    if cfg.task == REGRESSION:
        return loss, regression_bundle(preds, batch.targets)
    return loss, classification_bundle(np.argmax(preds, axis=1), batch.targets.astype(np.int64))


@contextmanager
def _failures_in(phase: str, epoch: int):
    """Report any package error as a failure of this phase and epoch.

    Wraps an epoch's work and the prediction passes on its result, so a last
    SGD step that diverges is charged to the epoch that took it. Whatever
    plan() accepted may fail only this way once training has started.
    """
    try:
        yield
    except TrainingFailureError:  # already charged to its phase and epoch
        raise
    except BtwError as exc:
        raise TrainingFailureError(phase, epoch, str(exc)) from exc


def _train_one_epoch(
    params: ModelParams,
    features: list[np.ndarray],
    targets: np.ndarray,
    rows: np.ndarray,
    lr: float,
    batch_size: int,
    rng: np.random.Generator,
    weights: np.ndarray | None = None,
) -> tuple[ModelParams, float]:
    """One pass over the given rows of features and targets in a seeded
    shuffle order; returns the mean loss.

    Each mini-batch is gathered from the arrays as they are, so no copy of
    the rows outlives its step. weights, if given, has one row per entry of
    rows, in their order.
    """
    cfg = params.config
    n = rows.size
    perm = rng.permutation(n)
    total, count = 0.0, 0
    for start in range(0, n, batch_size):
        idx = perm[start : start + batch_size]
        picked = rows[idx]
        sub = DataBatch([f[picked] for f in features], targets[picked])
        sub_weights = weights[idx] if weights is not None else None
        preds, trace = _forward(params, sub, weights=sub_weights)
        loss, d_pred = loss_and_pred_grad(cfg, preds, sub.targets)
        grads = backward(trace, d_pred)
        params = sgd_step(params, grads, lr)
        total += loss * idx.size
        count += idx.size
    mean_loss = total / count
    if not np.isfinite(mean_loss):
        raise NumericOverflowError(f"loss diverged to {mean_loss}")
    return params, mean_loss


def resolve_dataset(config: ExperimentConfig) -> Dataset:
    """Generate (or load) and split the experiment dataset."""
    if config.data_path is None:
        dataset = generate(config.data)
    else:
        dataset = load_dataset(config.data_path)
        if (dataset.split_tags > 0).any():
            if config.split_fractions is not None:
                raise InvalidInputError(
                    f"split.fractions {config.split_fractions} conflicts with the stored split "
                    f"{dataset.split_fractions} of dataset {config.data_path}; drop "
                    f"split.fractions to use the stored one"
                )
            return dataset
    fractions = config.split_fractions or DEFAULT_SPLIT_FRACTIONS
    return split(dataset, fractions, seed=config.seed + _SPLIT_SEED_OFFSET)


def plan(config: ExperimentConfig) -> Dataset:
    """Decide whether a run can start; return its dataset if so.

    Resolves the dataset (raising its data errors), fits the architecture to
    it (model_config: the modality dims, task and class count are the
    dataset's, so with a data path the inline data.* keys feed only gen-data),
    and raises InvalidInputError naming the first split too small for what
    reads it. Every variant trains on the train split, so it needs 1
    instance; MI variants also estimate modality MI on it: KSG needs KSG_K +
    2 instances, discrete MI 2. val and test are scored: regression metrics
    need 2 instances, classification metrics 1.
    """
    dataset = resolve_dataset(config)
    config.model_config(dataset)
    if dataset.task == REGRESSION:
        metrics, mi = (2, "regression metrics need"), (KSG_K + 2, "KSG mutual information needs")
    else:
        metrics, mi = (1, "classification metrics need"), (2, "discrete mutual information needs")
    train = mi if config.variant in MI_VARIANTS else (1, "training needs")
    for name, (need, reader) in [("train", train), ("val", metrics), ("test", metrics)]:
        have = dataset.indices(name).size
        if have < need:
            raise InvalidInputError(
                f"{reader} at least {need} instances; the {name} split has {have}"
            )
    return dataset


def _train_unimodal(
    config: ExperimentConfig, dataset: Dataset, m: int
) -> tuple[ModelParams, np.ndarray]:
    """Unimodal model m and its train-split outputs (see train_unimodal_all)."""
    train_idx = dataset.indices("train")
    features = [dataset.features[m]]
    rng = np.random.default_rng(config.seed + m)
    params = modality_slice(init_params(config.model_config(dataset), rng), m)
    for epoch in range(1, config.epochs_unimodal + 1):
        with _failures_in(f"unimodal[{m}]", epoch):
            params, _ = _train_one_epoch(
                params, features, dataset.targets, train_idx, config.lr, config.batch_size, rng
            )
    with _failures_in(f"unimodal[{m}]", config.epochs_unimodal):
        return params, _collect_predictions(params, DataBatch([features[0][train_idx]]))


def train_unimodal_all(
    config: ExperimentConfig, dataset: Dataset
) -> tuple[list[ModelParams], list[np.ndarray]]:
    """Train one model per modality; return the models and their train-split outputs.

    Model m is a single-modality MoE: modality m's slice of a multimodal model
    initialised from the random stream seeded with config.seed + m, which then
    also draws its batch order. No model reads another's stream or result, so
    run_experiment trains them on separate cores next to the warm phase (see
    open_lanes) with the same results, bit for bit. This is the sequential
    reference for that: it trains them one after another, and the tests and
    the benchmark's tracer call it by name.
    """
    trained = [_train_unimodal(config, dataset, m) for m in range(dataset.n_modalities)]
    return [params for params, _ in trained], [preds for _, preds in trained]


def train_multimodal_warm(
    config: ExperimentConfig,
    dataset: Dataset,
    rng: np.random.Generator,
    n_epochs: int,
    records: list[EpochRecord],
) -> ModelParams:
    """Unweighted multimodal epochs on the shared stream; appends EpochRecords."""
    train_idx = dataset.indices("train")
    params = init_params(config.model_config(dataset), rng)
    uniform_row = np.full(dataset.n_modalities, 1.0 / dataset.n_modalities)
    for _ in range(n_epochs):
        epoch_index = len(records) + 1
        started = time.perf_counter()
        with _failures_in("warm", epoch_index):
            params, train_loss = _train_one_epoch(
                params, dataset.features, dataset.targets, train_idx,
                config.lr, config.batch_size, rng,
            )
            val_loss, val_metrics = _score(params, dataset.batch("val"))
            records.append(EpochRecord(
                epoch=epoch_index,
                phase="warm",
                train_loss=train_loss,
                val_loss=val_loss,
                val_metrics=val_metrics,
                alpha=ALPHA_INIT,
                mean_weights=uniform_row.copy(),
                duration_s=time.perf_counter() - started,
            ))
    return params


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
    uni_train: list[np.ndarray],
    rng: np.random.Generator,
    records: list[EpochRecord],
    lanes: Sequence[_Lane] = (),
) -> ModelParams:
    """The dynamically weighted epochs: appends one EpochRecord per epoch and
    returns the final parameters.

    Child lanes, if given (see open_lanes), take jobs off this process's
    chain of epochs. The first scores each epoch's val split while this
    process refreshes the next epoch's train outputs, and each estimates the
    MI of a share of the modalities while this process computes the KL
    weights and the last share; once the last job is out, it closes them.
    The results and records are the same on any number of lanes, and so is
    the phase and epoch of a failure: an epoch's failure waits for the val
    score of the epoch before it, which reports first.
    """
    if config.variant == "unweighted":
        raise InvalidInputError("the unweighted variant has no weighted phase")
    metric_key, direction = improvement_direction(dataset.task)
    train_idx = dataset.indices("train")
    train_targets = dataset.targets[train_idx]
    n_train = train_idx.size
    n_mod = dataset.n_modalities
    # The unimodal outputs are the fixed reference point of every epoch.
    uni = np.stack(uni_train)
    uni.flags.writeable = False
    # Smoothing metric: validation quality at the end of the previous epoch,
    # or of the initial model when no warm epoch ran.
    if records:
        current_metric = records[-1].val_metrics[metric_key]
    elif config.epochs_weighted:
        with _failures_in("warm", 0):
            current_metric = _score(params, dataset.batch("val"))[1][metric_key]
    # The warm phase trains under implicitly uniform weights, so the EMA
    # recursion starts from the uniform matrix.
    state = SmoothingState(prev_weights=np.full((n_train, n_mod), 1.0 / n_mod))
    # The weights the model last trained with: none for the warm model.
    applied = None
    first_epoch = len(records) + 1
    # The last epoch's start, val score (which may still be out on a lane)
    # and record fields.
    pending = None

    def settle(until=None):
        # Append the pending epoch's record once its val score is in; its
        # duration runs to the next epoch's start, the last one's to now.
        nonlocal pending, current_metric
        (started, score, fields), pending = pending, None
        with _failures_in("weighted", fields["epoch"]):
            val_loss, val_metrics = score()
        current_metric = val_metrics[metric_key]
        records.append(EpochRecord(
            val_loss=val_loss,
            val_metrics=val_metrics,
            duration_s=(time.perf_counter() if until is None else until) - started,
            **fields,
        ))

    for weighted_epoch in range(1, config.epochs_weighted + 1):
        epoch_index = first_epoch + weighted_epoch - 1
        started = time.perf_counter()
        try:
            with _failures_in("weighted", epoch_index):
                # The refresh pass gathers the train split for its own length only.
                multi = _collect_predictions(params, dataset.batch("train"), weights=applied)
                mi_parts = []
                if config.variant in MI_VARIANTS:
                    jitter_seed = config.seed + _JITTER_SEED_OFFSET + weighted_epoch
                    mi_parts = _start(lanes, [
                        _Job("weighted", epoch_index, __name__, "modality_mi",
                             (uni[m : m + 1], multi, jitter_seed))
                        for m in range(n_mod)
                    ])
                raw = instance_kl_weights(train_targets, uni, multi)
                if pending:
                    settle(started)
                mi = np.concatenate([part() for part in mi_parts]) if mi_parts else None
                new_weights = _combine(config, raw, mi)
                smoothed, state = smooth_update(state, new_weights, current_metric, direction)
                # Weights are applied at relative scale (M * W, mean scale 1): the
                # row-stochastic rows express modality proportions, and rescaling
                # by M makes uniform rows reproduce the unweighted baseline exactly.
                applied = n_mod * smoothed
                applied_row = applied.mean(axis=0)

                params, train_loss = _train_one_epoch(
                    params, dataset.features, dataset.targets, train_idx,
                    config.lr, config.batch_size, rng, weights=applied,
                )
                # One job: the first child lane scores it, if there is one.
                (score,) = _start(lanes, [_Job("weighted", epoch_index, __name__, "_score",
                                               (params, dataset.batch("val"), applied_row))])
        except TrainingFailureError:
            if pending:  # the epoch before reports its own failure first
                settle()
            raise
        pending = (started, score, dict(
            epoch=epoch_index,
            phase="weighted",
            train_loss=train_loss,
            alpha=state.alpha,
            mean_weights=smoothed.mean(axis=0),
            weights=smoothed,
            mi=mi,
            eval_weights=applied_row,
        ))
    # No job follows, so the lanes exit while this process finishes the run.
    for lane in lanes:
        lane.send(None)
    if pending:
        settle()

    return params


def _usable_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _lane_count(n_tasks: int) -> int:
    """One lane per free usable core and at most one per task; 1 where a fork
    is unavailable or unsafe."""
    cores = _usable_cores()
    if min(cores, n_tasks) < 2:
        return 1
    import multiprocessing
    import threading

    # A child lane already has its core. A forked child keeps only the
    # forking thread, so a lock another thread holds at the fork would stay
    # held in the child.
    if (
        "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.parent_process() is not None
        or threading.active_count() > 1
    ):
        return 1
    # Each live child lane of this process (a compare cell's) holds a core.
    return max(1, min(cores - len(multiprocessing.active_children()), n_tasks))


def _shares(n_items: int, n_lanes: int) -> list[slice]:
    """n_items cut into n_lanes contiguous shares, the larger ones first."""
    bounds = [-(-n_items * k // n_lanes) for k in range(n_lanes + 1)]
    return [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]


class _Job(NamedTuple):
    """Function `name` of module `module`, called with `args` on a lane
    (_start); a lane that dies before it reports fails it as phase at epoch."""

    phase: str
    epoch: int
    module: str
    name: str
    args: tuple


def _run(job: _Job) -> tuple[bool, object]:
    """(True, result) of a job that returned, (False, exception) of one that
    raised. The name is looked up as the job runs, in the running process's
    own copy of the module, so a name patched before a fork applies there."""
    try:
        return True, getattr(sys.modules[job.module], job.name)(*job.args)
    except Exception as exc:
        return False, exc


def _child_lane(conn) -> None:
    # Serve shares of jobs (see _start), one message each, until closed.
    for share in iter(conn.recv, None):
        conn.send([_run(job) for job in share])


@dataclass
class _Lane:
    """A child lane: its process and this process's end of the pipe to it."""

    process: object
    conn: object

    def send(self, message) -> None:
        """Send a share of jobs, or None to close the lane: it exits once it
        has sent every result, and ignores any later message."""
        try:
            self.conn.send(message)
        except OSError:  # its process has exited, which the next receive reports
            pass

    def receive(self, share: list[_Job]) -> list[tuple[bool, object]]:
        """The outcomes (_run) of the earliest share not yet received. If the
        process exited first, each job of the share fails."""
        try:
            return self.conn.recv()
        except (EOFError, OSError):  # a reset, if a later share was left unread
            self.process.join()
            detail = f"its process exited with code {self.process.exitcode} before reporting"
            return [(False, TrainingFailureError(job.phase, job.epoch, detail)) for job in share]


@contextmanager
def open_lanes(n_tasks: int):
    """Fork and yield the child lanes for n_tasks independent tasks: with
    this process, one lane per free usable core and at most one per task.
    They serve jobs (_start) until the block ends; then they are closed and
    joined, and stopped first if it raises."""
    n_lanes = _lane_count(n_tasks)
    children: list[_Lane] = []
    try:
        if n_lanes > 1:
            import multiprocessing

            context = multiprocessing.get_context("fork")
            for _ in range(n_lanes - 1):
                conn, child_conn = context.Pipe()
                process = context.Process(target=_child_lane, args=(child_conn,), daemon=True)
                process.start()
                child_conn.close()
                children.append(_Lane(process, conn))
        yield children
    except BaseException:
        for lane in children:
            lane.process.terminate()
        raise
    else:
        for lane in children:
            lane.send(None)
    finally:
        for lane in children:
            lane.process.join()
            lane.conn.close()


def _start(lanes: Sequence[_Lane], jobs: list[_Job]) -> list[Callable[[], object]]:
    """Start jobs on the child lanes and this process; return one call per
    job, in job order, that gives its result or raises its failure.

    The jobs are cut into contiguous shares (_shares), one per lane. A child
    lane gets its share as one message and sends back every job's outcome
    in one; only the jobs and the outcomes are pickled. This process runs
    the last share, the smallest, before this returns. A lane's results are
    asked for in the order its shares were started.
    """
    shares = [jobs[share] for share in _shares(len(jobs), len(lanes) + 1)]
    for lane, share in zip(lanes, shares):
        if share:  # an empty share's reply would be read as a later share's
            lane.send(share)
    here = [_run(job) for job in shares[-1]]
    outcomes = [cache(partial(lane.receive, share)) for lane, share in zip(lanes, shares)]
    outcomes.append(lambda: here)
    return [partial(_result, got, i) for got, share in zip(outcomes, shares)
            for i in range(len(share))]


def _result(outcomes: Callable[[], list[tuple[bool, object]]], i: int) -> object:
    finished, value = outcomes()[i]
    if not finished:
        raise value
    return value


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the full three-phase experiment deterministically."""
    return run_planned(config, plan(config))


def run_planned(config: ExperimentConfig, dataset: Dataset) -> ExperimentResult:
    """Run an experiment from its config and the dataset plan() returned for it.

    The unimodal models and the warm phase read nothing of each other, so
    they run side by side as jobs on lanes (open_lanes); the weighted phase
    starts from all of them, and its child lanes, kept from that start, take
    its val scores and a share of its MI (run_weighted_phase). They are
    closed before this returns.
    """
    needs_weights = config.variant != "unweighted"
    records: list[EpochRecord] = []
    rng = np.random.default_rng(config.seed)
    # The unweighted baseline folds its nominally weighted epochs into the
    # warm loop, so every variant trains the same total number of epochs.
    n_warm = config.epochs_warm + (0 if needs_weights else config.epochs_weighted)
    n_unimodal = dataset.n_modalities if needs_weights else 0
    prefix = [_Job(f"unimodal[{m}]", 0, __name__, "_train_unimodal", (config, dataset, m))
              for m in range(n_unimodal)]
    # Warm goes last: the last share runs in this process, which owns rng
    # and records.
    prefix.append(_Job("warm", 0, __name__, "train_multimodal_warm",
                       (config, dataset, rng, n_warm, records)))
    with open_lanes(len(prefix)) as lanes:
        # The first failure in job order raises, whichever lane ran it.
        *unimodal, params = [result() for result in _start(lanes, prefix)]
        unimodal_params = [model for model, _ in unimodal]
        if needs_weights:
            uni_train = [preds for _, preds in unimodal]
            params = run_weighted_phase(config, dataset, params, uni_train, rng, records, lanes)

        # Instance weights need ground truth, so evaluation applies the last
        # weighted epoch's per-modality row to every instance (None,
        # unweighted, when no weighted epoch ran). That epoch already scored
        # the val split with these parameters and weights; scoring is a pass
        # on its result, which overlaps the closed lanes' exit.
        eval_row = records[-1].eval_weights if records else None
        with _failures_in(records[-1].phase if records else "warm", len(records)):
            val_bundle = (records[-1].val_metrics if records
                          else _score(params, dataset.batch("val"))[1])
            test_bundle = _score(params, dataset.batch("test"), eval_row)[1]
    return ExperimentResult(
        config, dataset, records, unimodal_params, params, val_bundle, test_bundle
    )
