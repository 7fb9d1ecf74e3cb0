#!/usr/bin/env python3
"""The desk-scale multimodal MoE: routing, gradients, training, checkpoints.

Builds a three-modality model, inspects which experts each modality's router
selects, validates the hand-written backward pass against finite differences,
fits a small regression batch, and round-trips the binary checkpoint.
"""

import tempfile
from pathlib import Path

import numpy as np

from btwmoe import DataBatch, MoeConfig, forward, grad_check, init_params
from btwmoe import load_checkpoint, save_checkpoint, sgd_step, unimodal_forward
from btwmoe.moe import backward, loss_and_pred_grad

config = MoeConfig(
    input_dims=(16, 12, 8),
    embed_dim=32,
    n_experts=4,
    top_k=2,
    expert_hidden=64,
    n_moe_layers=1,
    task="regression",
)
params = init_params(config, seed=0)
rng = np.random.default_rng(0)
batch = DataBatch(
    features=[rng.standard_normal((8, d)) for d in config.input_dims],
    targets=rng.standard_normal(8),
)

print("=== Per-modality routing ===")
predictions, trace = forward(params, batch)
# One cache per layer, holding every modality stream's rows stacked in order.
selected = trace.layer_caches[0].selected.reshape(
    config.n_modalities, batch.n_instances, config.top_k
)
for m in range(config.n_modalities):
    counts = np.bincount(selected[m].ravel(), minlength=config.n_experts)
    print(f"modality {m}: expert usage counts {counts.tolist()} "
          f"(top-{config.top_k} of {config.n_experts})")
print()

print("=== Gradient check (central differences) ===")
err = grad_check(params, batch, n_probes=50, epsilon=1e-5)
print(f"max relative error over 50 probes: {err:.2e}\n")

print("=== Unimodal streams ignore other modalities ===")
uni = unimodal_forward(params, batch, modality=0)
perturbed = DataBatch([batch.features[0], batch.features[1] + 100.0, batch.features[2]],
                      batch.targets)
print("perturbing modality 1 changes modality-0 predictions:",
      not np.array_equal(uni, unimodal_forward(params, perturbed, 0)))
print()

print("=== 150 SGD steps on a linearly solvable batch ===")
targets = batch.features[0] @ rng.standard_normal(16) * 0.3
train_batch = DataBatch(batch.features, targets)
model = init_params(config, seed=1)
for step in range(150):
    preds, tr = forward(model, train_batch)
    loss, d_pred = loss_and_pred_grad(config, preds, targets)
    if step % 50 == 0:
        print(f"step {step:3d}: mse {loss:.5f}")
    model = sgd_step(model, backward(tr, d_pred), lr=0.05)
final_loss, _ = loss_and_pred_grad(config, forward(model, train_batch)[0], targets)
print(f"final    : mse {final_loss:.5f}\n")

print("=== Checkpoint round trip ===")
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.btwm"
    save_checkpoint(model, path)
    restored = load_checkpoint(path)
    same = np.array_equal(forward(model, train_batch)[0], forward(restored, train_batch)[0])
    print(f"container: {path.stat().st_size} bytes, bit-identical predictions: {same}")
