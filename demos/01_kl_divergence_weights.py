#!/usr/bin/env python3
"""Instance-level KL weights, from scalar divergences up to a weight matrix.

Walks through the regression case: predictions become Gaussians (mean plus a
squared-residual variance estimate), divergences against the multimodal
Gaussian become raw weights, and row normalization turns them into the
per-instance modality mix.
"""

import numpy as np

from btwmoe import (
    CategoricalDist,
    GaussianParams,
    categorical_kl,
    combine_local,
    gaussian_kl,
    instance_kl_weights,
    kl_quadrature_oracle,
    residual_variance,
)

print("=== Closed-form Gaussian KL vs numerical quadrature ===")
p = GaussianParams(mean=0.0, variance=1.0)
q = GaussianParams(mean=1.0, variance=4.0)
closed = gaussian_kl(p, q)
quad = kl_quadrature_oracle(p, q, grid_points=100_000)
print(f"KL(N(0,1) || N(1,4))  closed form: {closed:.10f}")
print(f"                      quadrature:  {quad:.10f}")
print(f"                      |gap|:       {abs(closed - quad):.2e}")
print(f"asymmetry: KL(q || p) = {gaussian_kl(q, p):.6f}\n")

print("=== Categorical KL for classification predictions ===")
confident = CategoricalDist(np.array([0.9, 0.05, 0.05]))
uniformish = CategoricalDist(np.array([0.4, 0.3, 0.3]))
print(f"KL(confident || uniformish) = {categorical_kl(confident, uniformish):.6f}")
print(f"KL(uniformish || confident) = {categorical_kl(uniformish, confident):.6f}")
print(f"KL(p || p) is exactly {categorical_kl(confident, confident)}\n")

print("=== Squared residuals as variance estimates ===")
y_true = 1.5
for prediction in (1.4, 0.0, 1.5):
    var = residual_variance(y_true, prediction)
    print(f"target {y_true}, prediction {prediction}: variance estimate {var:.6g}")
print()

print("=== From predictions to a per-instance weight matrix ===")
# Three instances, two modalities. Modality 0 predicts well; modality 1 is
# essentially guessing the mean.
targets = np.array([1.2, -0.8, 2.0])
uni = np.array([
    [1.1, -0.7, 1.8],   # modality 0: close to the targets
    [0.1, 0.0, -0.1],   # modality 1: no signal
])
multi = np.array([1.0, -0.6, 1.7])
# instance_kl_weights turns each output into a Gaussian whose variance is the
# residual variance above.
raw = instance_kl_weights(targets, uni, multi)
weights = combine_local(raw)
print("raw KL matrix (instances x modalities):")
print(np.round(raw, 4))
print("row-normalized weights:")
print(np.round(weights, 4))
print("note how the disagreeing modality attracts weight: the divergence")
print("measures unique information, not accuracy.")
