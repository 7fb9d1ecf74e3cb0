#!/usr/bin/env python3
"""End to end: unweighted baseline vs bi-level weighting on the noise config.

Runs the three-phase procedure (unimodal initialization, warm multimodal
training, dynamically weighted epochs) for the unweighted baseline and the
bi-level variant on data where one modality is pure noise, then prints the
weight trajectories and the final comparison. Takes a few seconds.
"""

import numpy as np

from btwmoe import ExperimentConfig, SyntheticSpec, run_experiment

spec = SyntheticSpec(
    n_instances=2000,
    modality_dims=(16, 16, 16),
    informativeness=(0.9, 0.5, 0.0),
    noise_sigma=1.5,
    task="regression",
    seed=0,
)
base = dict(data=spec, moe_embed_dim=16, moe_expert_hidden=32, seed=0, lr=0.02,
            batch_size=256, epochs_unimodal=10, epochs_warm=2, epochs_weighted=8)

print("running unweighted baseline ...")
baseline = run_experiment(ExperimentConfig(variant="unweighted", **base))
print("running bi-level (btw) variant ...\n")
btw = run_experiment(ExperimentConfig(variant="btw", **base))

print("=== Weighted-phase trajectory (btw) ===")
print(f"{'epoch':>5} {'val MAE':>8} {'alpha':>6}  mean weights (m0, m1, noise)")
for record in btw.records:
    if record.phase != "weighted":
        continue
    w = ", ".join(f"{x:.3f}" for x in record.mean_weights)
    print(f"{record.epoch:5d} {record.val_metrics['mae']:8.4f} {record.alpha:6.2f}  [{w}]")
print()

print("=== Modality-level MI per weighted epoch (btw) ===")
for record in btw.weighted_records:
    print(f"epoch {record.epoch}: {np.round(record.mi, 3).tolist()}")
print(f"the pure-noise modality (index 2) stays minimal: "
      f"{int(np.argmin(btw.records[-1].mi))} == 2\n")

print("=== Test-split comparison ===")
for name, result in (("unweighted", baseline), ("btw", btw)):
    b = result.test_bundle
    print(f"{name:10s}: MAE {b['mae']:.4f}  Corr {b['corr']:.4f}  "
          f"Acc-5 {b['acc5']:.4f}  Acc-2 {b['acc2_incl_zero']:.4f}/{b['acc2_nonzero']:.4f}")
print("\nbi-level weighting demotes the noise modality and recovers accuracy")
print("the baseline loses to noise at this training budget.")
