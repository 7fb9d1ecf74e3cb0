"""A small multimodal mixture-of-experts model in plain NumPy.

Each modality has its own affine encoder and, inside every MoE layer, its
own router over a shared pool of two-layer GELU experts. Routing is top-k
with the gate softmax taken over the selected logits only; expert outputs
are gate-weighted and added back through a residual connection. Modality
embeddings are mean-pooled before the task head.

Parameters live in one contiguous float64 buffer (`ModelParams.flat`) with
named views, the experts stacked as (L, E, D, H); gradients use the same
layout, so an SGD step is one vector update. The forward pass stacks the
M modality streams into one (M*B, D) batch per layer. The M routers are
one stacked (M, B, D) @ (M, D, E) matmul (their gradients two more); then
one stable argsort of the selected expert indices groups the (row, slot)
pairs by expert (sort-based dispatch, as in GShard and Switch Transformer),
so each layer runs E expert matmul pairs over the shared pool instead of
M*E. The expert stage runs groups of experts on contiguous pairs
(MegaBlocks' grouped layout without its padding, which would not reproduce
the per-expert results bit for bit), one GELU per group. A training pass
(keep_trace) makes one group, as backward reads whole (P, H) arrays; a
prediction pass makes one per expert, so it holds one expert's hidden block
and its GELU scratch at a time. The gating and the scatter back to rows run
once per layer over all pairs. A unimodal model is a single-modality config,
cut from a multimodal one by modality_slice.

Backpropagation is written out analytically (reverse mode), with the top-k
selection treated as a constant and the gate softmax differentiated exactly.
A finite-difference gradient checker guards the whole thing.

The GELU's erf comes from scipy.special, about 0.25 s of import. _gelu, not
this module, imports it, so a process that never trains (gen-data, --help, a
config or plan error) never loads it.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import InvalidInputError, NumericOverflowError

REGRESSION = "regression"
CLASSIFICATION = "classification"

CHECKPOINT_MAGIC = b"BTWM"
CHECKPOINT_FORMAT_VERSION = 1

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class MoeConfig:
    """Every field but input_dims, task and n_classes, which the data state,
    is an architecture option, mirrored as ExperimentConfig.moe_<name>."""

    input_dims: tuple[int, ...]
    embed_dim: int = 32
    n_experts: int = 4
    top_k: int = 2
    expert_hidden: int = 64
    n_moe_layers: int = 1
    task: str = REGRESSION
    n_classes: int = 0

    def __post_init__(self):
        object.__setattr__(self, "input_dims", tuple(int(d) for d in self.input_dims))
        if len(self.input_dims) < 1 or any(d < 1 for d in self.input_dims):
            raise InvalidInputError(f"bad input_dims {self.input_dims}")
        if not (1 <= self.top_k <= self.n_experts):
            raise InvalidInputError(f"top_k {self.top_k} outside [1, {self.n_experts}]")
        if self.embed_dim < 1 or self.expert_hidden < 1 or self.n_moe_layers < 1:
            raise InvalidInputError("embed_dim, expert_hidden, n_moe_layers must be >= 1")
        if self.task not in (REGRESSION, CLASSIFICATION):
            raise InvalidInputError(f"unknown task {self.task!r}")
        if self.task == CLASSIFICATION and self.n_classes < 2:
            raise InvalidInputError("classification needs n_classes >= 2")

    @property
    def n_modalities(self) -> int:
        return len(self.input_dims)

    @property
    def head_dim(self) -> int:
        return 1 if self.task == REGRESSION else self.n_classes

    @cached_property
    def layout(self) -> tuple[int, tuple[tuple[int, int, tuple[int, ...]], ...]]:
        """(buffer size, (start, stop, shape) per view) of the flat parameter buffer.

        Views in order: enc_w[m] for each modality, then enc_b, router_w,
        exp_w1, exp_b1, exp_w2, exp_b2, head_w, head_b (see ModelParams).
        """
        m, d, e, h, n_layers = (self.n_modalities, self.embed_dim, self.n_experts,
                                self.expert_hidden, self.n_moe_layers)
        shapes = [(dim, d) for dim in self.input_dims] + [
            (m, d), (n_layers, m, d, e), (n_layers, e, d, h), (n_layers, e, h),
            (n_layers, e, h, d), (n_layers, e, d), (d, self.head_dim), (self.head_dim,),
        ]
        stops = np.cumsum([math.prod(s) for s in shapes]).tolist()
        return stops[-1], tuple(zip([0] + stops[:-1], stops, shapes))

    def to_dict(self) -> dict:
        return {**asdict(self), "activation": "gelu"}  # the experts' only activation

    @classmethod
    def from_dict(cls, d: dict) -> "MoeConfig":
        d = dict(d)
        activation = d.pop("activation")
        if activation != "gelu":
            raise InvalidInputError(f"unsupported activation {activation!r}")
        return cls(**d)


@dataclass
class DataBatch:
    """Per-modality feature matrices (each (B, d_m)) plus optional targets."""

    features: list[np.ndarray]
    targets: np.ndarray | None = None

    @property
    def n_instances(self) -> int:
        return int(self.features[0].shape[0])


class ModelParams:
    """Every parameter in one contiguous float64 buffer, exposed as named views.

    enc_w is a list of (d_m, D) views, one per modality; enc_b is (M, D),
    router_w (L, M, D, E), exp_w1 (L, E, D, H), exp_b1 (L, E, H),
    exp_w2 (L, E, H, D), exp_b2 (L, E, D), head_w (D, C) and head_b (C,).
    Gradients are ModelParams of the same layout. Without flat, all zeros.
    """

    def __init__(self, config: MoeConfig, flat: np.ndarray | None = None):
        size, views = config.layout
        self.config = config
        self.flat = np.zeros(size) if flat is None else flat
        arrays = [self.flat[start:stop].reshape(shape) for start, stop, shape in views]
        n_mod = config.n_modalities
        self.enc_w = arrays[:n_mod]
        (self.enc_b, self.router_w, self.exp_w1, self.exp_b1,
         self.exp_w2, self.exp_b2, self.head_w, self.head_b) = arrays[n_mod:]

    def __reduce__(self):
        # Pickle the buffer alone: pickled views would unpickle as copies
        # that no longer share it.
        return type(self), (self.config, self.flat)

    def tensors(self):
        """(name, view) pairs in the checkpoint's fixed order."""
        cfg = self.config
        for m in range(cfg.n_modalities):
            yield f"enc_w[{m}]", self.enc_w[m]
            yield f"enc_b[{m}]", self.enc_b[m]
        for layer in range(cfg.n_moe_layers):
            for m in range(cfg.n_modalities):
                yield f"router_w[{layer}][{m}]", self.router_w[layer, m]
            for e in range(cfg.n_experts):
                yield f"exp_w1[{layer}][{e}]", self.exp_w1[layer, e]
                yield f"exp_b1[{layer}][{e}]", self.exp_b1[layer, e]
                yield f"exp_w2[{layer}][{e}]", self.exp_w2[layer, e]
                yield f"exp_b2[{layer}][{e}]", self.exp_b2[layer, e]
        yield "head_w", self.head_w
        yield "head_b", self.head_b


def modality_slice(params: ModelParams, m: int) -> ModelParams:
    """Modality m's encoder and routers with the shared experts and head, as a
    model whose config keeps only input_dims[m]."""
    cfg = params.config
    sliced = ModelParams(replace(cfg, input_dims=(cfg.input_dims[m],)))
    sliced.enc_w[0][...] = params.enc_w[m]
    sliced.enc_b[...] = params.enc_b[m]
    sliced.router_w[...] = params.router_w[:, m : m + 1]
    for name in ("exp_w1", "exp_b1", "exp_w2", "exp_b2", "head_w", "head_b"):
        getattr(sliced, name)[...] = getattr(params, name)
    return sliced


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


def init_params(config: MoeConfig, seed: int | np.random.Generator) -> ModelParams:
    """Glorot-uniform weights and zero biases, drawn from one stream in a fixed order.

    Per layer the routers come first, then every expert's first and then
    every expert's second matrix; a stacked draw equals the per-tensor draws.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    d, h, e_n, n_mod = config.embed_dim, config.expert_hidden, config.n_experts, config.n_modalities
    params = ModelParams(config)
    for m, dim in enumerate(config.input_dims):
        params.enc_w[m][...] = _glorot(rng, dim, d, (dim, d))
    for layer in range(config.n_moe_layers):
        params.router_w[layer] = _glorot(rng, d, e_n, (n_mod, d, e_n))
        params.exp_w1[layer] = _glorot(rng, d, h, (e_n, d, h))
        params.exp_w2[layer] = _glorot(rng, h, d, (e_n, h, d))
    params.head_w[...] = _glorot(rng, d, config.head_dim, (d, config.head_dim))
    return params


def _gelu(z: np.ndarray, c: np.ndarray, h: np.ndarray) -> None:
    """GELU h = 0.5 * z * c, with c = 1 + erf(z / sqrt 2) written into c.

    h may be z itself. A training pass gives a whole (P, H) c, which backward
    reads; a prediction pass gives one expert's block of scratch.

    erf is imported at the first call (see the module docstring); a repeat
    import costs about 1 us. training.open_lanes imports scipy.special before
    it forks, so the child lanes share one copy.
    """
    from scipy.special import erf

    np.divide(z, _SQRT2, out=c)
    erf(c, out=c)
    c += 1.0
    np.multiply(0.5, z, out=h)
    h *= c


def _gelu_grad(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """GELU derivative, given c = 1 + erf(x / sqrt 2) from the forward pass.

    0.5 * c + x * phi(x), evaluated in place in two buffers: each fresh
    temporary of a few hundred KB costs page faults.
    """
    phi = -0.5 * x
    phi *= x
    np.exp(phi, out=phi)
    phi *= _INV_SQRT_2PI
    phi *= x
    grad = 0.5 * c
    grad += phi
    return grad


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _check_finite(arr: np.ndarray, layer: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericOverflowError(f"non-finite activation in {layer}")


@dataclass
class _LayerCache:
    """One MoE layer over the stacked (M*B, D) batch; modality m owns rows m*B:(m+1)*B.

    The (row, slot) pairs are kept flat in dispatch order: grouped by expert
    ascending, row-major within a group, expert e owning bounds[e]:bounds[e+1].
    """

    t_in: np.ndarray
    logits: np.ndarray
    selected: np.ndarray  # (M*B, K) expert indices
    gate: np.ndarray  # (M*B, K)
    order: np.ndarray  # (P,) flat (row, slot) index of each pair, P = M*B*K
    rows: np.ndarray  # (P,) row of each pair
    gates: np.ndarray  # (P,) gate value of each pair
    positions: np.ndarray  # (M*B, K) each row's pair positions, experts ascending
    bounds: np.ndarray  # (E+1,)
    z1: np.ndarray  # (P, H)
    c: np.ndarray  # (P, H) 1 + erf(z1 / sqrt 2)
    h: np.ndarray  # (P, H) GELU(z1)
    z2: np.ndarray  # (P, D), before gating


@dataclass
class ForwardTrace:
    params: ModelParams
    features: list[np.ndarray]
    weights: np.ndarray | None
    layer_caches: list[_LayerCache]  # [layer], streams stacked in modality order
    pooled: np.ndarray
    probs: np.ndarray | None


def _expert_spans(bounds: np.ndarray) -> list[tuple[int, int, int]]:
    """(e, lo, hi) for every expert that received pairs, experts ascending."""
    edges = bounds.tolist()
    return [(e, lo, hi) for e, (lo, hi) in enumerate(zip(edges, edges[1:])) if hi > lo]


def _gather_add(acc: np.ndarray, values: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Add values[positions[r, j]] to acc[r] for j = 0, 1, ...: each row's expert
    contributions in ascending expert order, as a per-expert scatter adds them."""
    for j in range(positions.shape[1]):
        acc += values[positions[:, j]]
    return acc


def _experts(t, rows, spans, experts, z2, keep):
    """Fill z2 (P, D) with the expert outputs; return (z1, c, h) if keep, else Nones.

    Experts run in groups: the group's first matmuls and bias adds, one GELU
    over its pairs, then its second matmuls and bias adds. With keep (a
    training pass) all experts are one group in whole (P, H) buffers, which
    backward reads. Without, each expert is a group in one reused (largest
    block, H) buffer, its GELU in place with an (n, H) scratch for c, so a
    prediction pass holds one expert's hidden block and its scratch at a time.
    """
    w1, b1, w2, b2 = experts
    width = w1.shape[2]
    if keep:
        z1 = np.empty((len(z2), width))
        c, h = np.empty_like(z1), np.empty_like(z1)
        groups = [(0, len(z2), spans)]
    else:
        z1 = h = np.empty((max((hi - lo for _, lo, hi in spans), default=0), width))
        groups = [(lo, hi, [(e, lo, hi)]) for e, lo, hi in spans]
    for start, stop, members in groups:
        for e, lo, hi in members:
            block = np.matmul(t[rows[lo:hi]], w1[e], out=z1[lo - start : hi - start])
            block += b1[e]
        n = stop - start
        # A fresh scratch per group: the row gather above is freed by now, and
        # one scratch kept across experts would coexist with every gather.
        _gelu(z1[:n], c if keep else np.empty((n, width)), h[:n])
        for e, lo, hi in members:
            block = np.matmul(h[lo - start : hi - start], w2[e], out=z2[lo:hi])
            block += b2[e]
    return (z1, c, h) if keep else (None, None, None)


def _top_k_select(logits: np.ndarray, k: int) -> np.ndarray:
    # Stable sort on negated logits: equal logits keep index order, so the
    # lower expert index wins ties.
    order = np.argsort(-logits, axis=1, kind="stable")
    return order[:, :k]


def _forward(
    params: ModelParams,
    batch: DataBatch,
    weights: np.ndarray | None = None,
    keep_trace: bool = True,
) -> tuple[np.ndarray, ForwardTrace | None]:
    """Multimodal forward pass; returns predictions and the trace for backward.

    Regression predictions are a (B,) vector of means; classification
    predictions are (B, C) softmax probabilities. When weights (B, M) are
    given (finite, else InvalidInputError), each modality embedding is
    scaled by its entry before routing; all-ones weights reproduce the
    unweighted pass bit for bit. Each layer's routers are one stacked matmul.
    With keep_trace=False the pass keeps no caches, returns None for the
    trace and runs each expert as its own _experts group, so the largest
    (pairs, expert_hidden) arrays it holds are one expert's block and its
    GELU scratch; a training pass runs one group of all experts, whose z1,
    c and h backward reads. Both give the same bits.
    """
    cfg = params.config
    n_mod = cfg.n_modalities
    if len(batch.features) != n_mod:
        raise InvalidInputError(
            f"batch has {len(batch.features)} modalities, config expects {n_mod}"
        )
    b = batch.n_instances
    for m in range(n_mod):
        if batch.features[m].shape != (b, cfg.input_dims[m]):
            raise InvalidInputError(
                f"modality {m} features {batch.features[m].shape} != {(b, cfg.input_dims[m])}"
            )
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (b, n_mod):
            raise InvalidInputError(f"weights {weights.shape} != {(b, n_mod)}")
        if not np.isfinite(weights).all():
            raise InvalidInputError("weights have non-finite entries")

    blocks = [slice(m * b, (m + 1) * b) for m in range(n_mod)]
    t = np.empty((n_mod * b, cfg.embed_dim))
    for m in range(n_mod):
        e0 = np.matmul(batch.features[m], params.enc_w[m], out=t[blocks[m]])
        e0 += params.enc_b[m]
        _check_finite(e0, f"encoder[{m}]")
        if weights is not None:
            e0 *= weights[:, m : m + 1]

    layer_caches: list[_LayerCache] = []
    n_rows, k = n_mod * b, cfg.top_k
    n_pairs = n_rows * k
    for layer in range(cfg.n_moe_layers):
        # One (B, D) @ (D, E) matmul per modality block, stacked; explicit
        # dims, because a 0-row batch cannot reshape with -1.
        logits = t.reshape(n_mod, b, cfg.embed_dim) @ params.router_w[layer]
        logits = logits.reshape(n_rows, cfg.n_experts)
        if not np.isfinite(logits).all():
            m = np.flatnonzero(~np.isfinite(logits).all(axis=1))[0] // b
            raise NumericOverflowError(f"non-finite activation in router[{layer}][{m}]")
        selected = _top_k_select(logits, k)
        gate = _softmax_rows(logits[np.arange(n_rows)[:, None], selected])
        # Sort-based dispatch: a stable sort groups the (row, slot) pairs by
        # expert and keeps them row-major within each group.
        flat_selected = selected.ravel()
        order = np.argsort(flat_selected, kind="stable")
        rows = order // k
        gates = gate.ravel()[order]
        bounds = np.zeros(cfg.n_experts + 1, dtype=np.intp)
        np.cumsum(np.bincount(flat_selected, minlength=cfg.n_experts), out=bounds[1:])
        spans = _expert_spans(bounds)

        experts = (params.exp_w1[layer], params.exp_b1[layer],
                   params.exp_w2[layer], params.exp_b2[layer])
        z2 = np.empty((n_pairs, cfg.embed_dim))
        z1, c, h = _experts(t, rows, spans, experts, z2, keep_trace)
        if not np.isfinite(z2).all():
            first_bad = np.flatnonzero(~np.isfinite(z2).all(axis=1))[0]
            e = int(np.searchsorted(bounds, first_bad, side="right")) - 1
            raise NumericOverflowError(f"non-finite activation in expert[{layer}][{e}]")
        # Each row's pair positions, sorted, list its experts in ascending order.
        positions = np.empty(n_pairs, dtype=np.intp)
        positions[order] = np.arange(n_pairs)
        positions = np.sort(positions.reshape(n_rows, k), axis=1)
        if keep_trace:
            layer_caches.append(_LayerCache(
                t_in=t, logits=logits, selected=selected, gate=gate, order=order, rows=rows,
                gates=gates, positions=positions, bounds=bounds, z1=z1, c=c, h=h, z2=z2,
            ))
            gated = gates[:, None] * z2  # backward reads z2 before gating
        else:
            gated = z2
            gated *= gates[:, None]
        out = _gather_add(np.zeros_like(t), gated, positions)
        out += t  # the residual path
        t = out

    pooled = t.reshape(n_mod, b, cfg.embed_dim).sum(axis=0) / n_mod
    scores = pooled @ params.head_w + params.head_b
    _check_finite(scores, "head")
    if cfg.task == REGRESSION:
        predictions = scores[:, 0]
        probs = None
    else:
        probs = _softmax_rows(scores)
        predictions = probs
    if not keep_trace:
        return predictions, None

    trace = ForwardTrace(
        params=params,
        features=batch.features,
        weights=weights,
        layer_caches=layer_caches,
        pooled=pooled,
        probs=probs,
    )
    return predictions, trace


# The public name. Training calls _forward, the name bench/tracing.py wraps.
forward = _forward


def backward(trace: ForwardTrace, loss_grad: np.ndarray) -> ModelParams:
    """Exact reverse-mode gradients for every parameter, in the parameter layout.

    loss_grad is the gradient of the loss w.r.t. the forward predictions:
    (B,) for regression means, (B, C) for classification probabilities (the
    softmax is differentiated here). Top-k selection is held constant.
    """
    params = trace.params
    cfg = params.config
    grads = ModelParams(cfg)

    if cfg.task == REGRESSION:
        d_scores = np.asarray(loss_grad, dtype=np.float64)[:, None]
    else:
        d_probs = np.asarray(loss_grad, dtype=np.float64)
        p = trace.probs
        d_scores = p * (d_probs - np.sum(d_probs * p, axis=1, keepdims=True))

    grads.head_w[...] = trace.pooled.T @ d_scores
    grads.head_b[...] = d_scores.sum(axis=0)
    d_pooled = d_scores @ params.head_w.T

    n_mod = cfg.n_modalities
    b = d_pooled.shape[0]
    blocks = [slice(m * b, (m + 1) * b) for m in range(n_mod)]
    d_t = np.tile(d_pooled / n_mod, (n_mod, 1))
    for layer in reversed(range(cfg.n_moe_layers)):
        cache = trace.layer_caches[layer]
        spans = _expert_spans(cache.bounds)
        d_rows = d_t[cache.rows]
        d_gate = np.empty(cache.gate.size)
        d_gate[cache.order] = np.sum(d_rows * cache.z2, axis=1)
        d_gate = d_gate.reshape(cache.gate.shape)
        d_z2 = d_rows
        d_z2 *= cache.gates[:, None]
        d_z1 = np.empty_like(cache.h)
        for e, lo, hi in spans:
            block = d_z2[lo:hi]
            np.matmul(cache.h[lo:hi].T, block, out=grads.exp_w2[layer, e])
            np.sum(block, axis=0, out=grads.exp_b2[layer, e])
            np.matmul(block, params.exp_w2[layer, e].T, out=d_z1[lo:hi])
        d_z1 *= _gelu_grad(cache.z1, cache.c)
        x = cache.t_in[cache.rows]
        d_x = np.empty_like(x)
        for e, lo, hi in spans:
            block = d_z1[lo:hi]
            np.matmul(x[lo:hi].T, block, out=grads.exp_w1[layer, e])
            np.sum(block, axis=0, out=grads.exp_b1[layer, e])
            np.matmul(block, params.exp_w1[layer, e].T, out=d_x[lo:hi])
        d_t_in = _gather_add(d_t.copy(), d_x, cache.positions)  # residual path plus experts
        # Gate softmax over the selected logits only.
        d_sel_logits = cache.gate * (
            d_gate - np.sum(d_gate * cache.gate, axis=1, keepdims=True)
        )
        d_logits = np.zeros_like(cache.logits)
        d_logits[np.arange(d_logits.shape[0])[:, None], cache.selected] = d_sel_logits
        d_logits = d_logits.reshape(n_mod, b, cfg.n_experts)
        stacked = (n_mod, b, cfg.embed_dim)  # t_in and d_t_in by modality block
        grads.router_w[layer] += cache.t_in.reshape(stacked).transpose(0, 2, 1) @ d_logits
        d_t_in.reshape(stacked)[...] += d_logits @ params.router_w[layer].transpose(0, 2, 1)
        d_t = d_t_in
    for m in range(n_mod):
        d_e0 = d_t[blocks[m]]
        if trace.weights is not None:
            d_e0 = d_e0 * trace.weights[:, m : m + 1]
        grads.enc_w[m] += trace.features[m].T @ d_e0
        grads.enc_b[m] += d_e0.sum(axis=0)
    return grads


def sgd_step(params: ModelParams, grads: ModelParams, lr: float) -> ModelParams:
    """One plain gradient step; returns new parameters, inputs untouched."""
    if lr < 0:
        raise InvalidInputError(f"lr must be >= 0, got {lr}")
    if not np.isfinite(grads.flat).all():
        name = next(name for name, g in grads.tensors() if not np.all(np.isfinite(g)))
        raise NumericOverflowError(f"non-finite gradient for {name}")
    return ModelParams(params.config, params.flat - lr * grads.flat)


def loss_and_pred_grad(config: MoeConfig, predictions: np.ndarray, targets: np.ndarray):
    """(mean loss, its gradient in the predictions): MSE for regression,
    cross-entropy of the class probabilities for classification."""
    b = predictions.shape[0]
    if config.task == REGRESSION:
        diff = predictions - targets
        return float(np.mean(diff * diff)), 2.0 * diff / b
    idx, labels = np.arange(b), targets.astype(np.int64)
    p_true = np.clip(predictions[idx, labels], 1e-12, None)
    d_probs = np.zeros_like(predictions)
    d_probs[idx, labels] = -1.0 / (p_true * b)
    return float(-np.mean(np.log(p_true))), d_probs


def grad_check(
    params: ModelParams,
    batch: DataBatch,
    n_probes: int = 50,
    epsilon: float = 1e-5,
    seed: int = 0,
    weights: np.ndarray | None = None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Probes n_probes scalar parameters chosen uniformly over the flat buffer,
    through forward(params, batch, weights), so a weighted pass is checked
    when weights (B, M) are given.
    The relative denominator is max(|analytic|, |numeric|, 1e-8).
    """
    if n_probes < 1:
        raise InvalidInputError("n_probes must be >= 1")
    if batch.targets is None:
        raise InvalidInputError("grad_check needs a batch with targets")

    predictions, trace = _forward(params, batch, weights=weights)
    _, d_pred = loss_and_pred_grad(params.config, predictions, batch.targets)
    grads = backward(trace, d_pred)

    def loss_at() -> float:
        pred, _ = _forward(params, batch, weights=weights, keep_trace=False)
        return loss_and_pred_grad(params.config, pred, batch.targets)[0]

    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in rng.integers(0, params.flat.size, size=n_probes):
        original = params.flat[i]
        params.flat[i] = original + epsilon
        loss_plus = loss_at()
        params.flat[i] = original - epsilon
        loss_minus = loss_at()
        params.flat[i] = original
        numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
        analytic = grads.flat[i]
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst


def write_tensor_record(fh, arr) -> None:
    """Append one tensor record to a binary file: uint32 ndim, the uint32
    dims, then the values as little-endian float64."""
    arr = np.ascontiguousarray(arr, dtype="<f8")
    fh.write(struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape))
    fh.write(arr.tobytes())


def read_tensor_records(path, raw: bytes, offset: int, count: int) -> list[np.ndarray]:
    """Decode count tensor records from raw, the bytes of the file at path,
    starting at offset. The file must end with the last record: one that ends
    inside a record or runs past the last raises InvalidInputError naming path."""
    tensors = []
    for _ in range(count):
        ndim = struct.unpack_from("<I", raw, offset)[0] if len(raw) >= offset + 4 else None
        if ndim is None or len(raw) < offset + 4 + 4 * ndim:
            raise InvalidInputError(f"file {path} ends inside a tensor record header")
        shape = struct.unpack_from(f"<{ndim}I", raw, offset + 4)
        offset += 4 + 4 * ndim
        size = math.prod(shape)
        if len(raw) < offset + 8 * size:
            raise InvalidInputError(f"file {path} ends inside a tensor record of shape {shape}")
        tensors.append(np.frombuffer(raw, "<f8", size, offset).reshape(shape).astype(np.float64))
        offset += 8 * size
    if offset != len(raw):
        raise InvalidInputError(f"file {path} has {len(raw) - offset} bytes past its last "
                                f"tensor record")
    return tensors


def save_checkpoint(params: ModelParams, path) -> None:
    """Versioned binary container: magic, format version, config, then one
    tensor record per view of params.tensors()."""
    cfg_bytes = json.dumps(params.config.to_dict(), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<2I", CHECKPOINT_FORMAT_VERSION, len(cfg_bytes)))
        fh.write(cfg_bytes)
        for _, arr in params.tensors():
            write_tensor_record(fh, arr)


def load_checkpoint(path) -> ModelParams:
    """Read a save_checkpoint file. A damaged file (wrong magic or version,
    a header or record cut short, bytes past the last record, an unreadable
    config block) raises InvalidInputError naming path."""
    raw = Path(path).read_bytes()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise InvalidInputError(f"checkpoint {path} has bad magic {raw[:4]!r}")
    if len(raw) < 12:
        raise InvalidInputError(f"checkpoint {path} ends inside its header")
    fmt_version, cfg_len = struct.unpack_from("<2I", raw, 4)
    if fmt_version != CHECKPOINT_FORMAT_VERSION:
        raise InvalidInputError(
            f"checkpoint {path} has unsupported format version {fmt_version}"
        )
    try:
        config = MoeConfig.from_dict(json.loads(raw[12 : 12 + cfg_len].decode("utf-8")))
    except (ValueError, TypeError, KeyError) as exc:
        raise InvalidInputError(f"checkpoint {path} has an unreadable config: {exc}") from exc

    # Tensors were written in tensors() order; each fills its view in place.
    params = ModelParams(config)
    views = list(params.tensors())
    tensors = read_tensor_records(path, raw, 12 + cfg_len, len(views))
    for (name, like), arr in zip(views, tensors):
        if arr.shape != like.shape:
            raise InvalidInputError(
                f"checkpoint tensor {name} has shape {arr.shape}, expected {like.shape}"
            )
        like[...] = arr
    return params
