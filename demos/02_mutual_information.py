#!/usr/bin/env python3
"""Modality-level mutual information: the kNN estimator against ground truth.

For bivariate Gaussians the true MI is -0.5 ln(1 - rho^2), which makes the
Kraskov estimator easy to audit. Discrete MI on hard labels is exact.
"""

import numpy as np

from btwmoe import discrete_mi, gaussian_mi_analytic, ksg_mi

print("=== KSG estimator vs analytic Gaussian MI (N=8000, k=3) ===")
rng = np.random.default_rng(0)
print(f"{'rho':>5} {'analytic':>10} {'estimate':>10} {'error':>9}")
for rho in (0.0, 0.3, 0.6, 0.9, 0.99):
    xy = rng.multivariate_normal([0, 0], [[1, rho], [rho, 1]], size=8000)
    est = ksg_mi(xy[:, 0], xy[:, 1])
    true = gaussian_mi_analytic(rho)
    print(f"{rho:5.2f} {true:10.4f} {est:10.4f} {est - true:+9.4f}")
print()

print("=== Dependence, independence, and shuffling ===")
x = rng.standard_normal(3000)
y_dep = 0.8 * x + 0.2 * rng.standard_normal(3000)
print(f"dependent pair:        MI = {ksg_mi(x, y_dep):.4f}")
print(f"shuffled partner:      MI = {ksg_mi(x, rng.permutation(y_dep)):.4f}")
print(f"identical series:      MI = {ksg_mi(x, x):.4f} (diverges with N)")
print()

print("=== Discrete MI on hard class labels ===")
a = np.array([0, 0, 1, 1, 2, 2])
print(f"MI(a, a)              = {discrete_mi(a, a):.6f} (= entropy of a, ln 3 = {np.log(3):.6f})")
print(f"MI(a, relabeled a)    = {discrete_mi(a, (a + 1) % 3):.6f} (bijections preserve MI)")
b = np.array([0, 1, 0, 1, 0, 1])
print(f"MI(a, independent b)  = {discrete_mi(a, b):.6f}")
