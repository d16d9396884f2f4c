"""Covariance shrinkage targets and the intensity that picks itself.

Shows the blend (1-lambda) S + lambda T rescuing a rank-deficient pooled
covariance, the ridge reparameterization, and the analytic intensity
fading as evidence accumulates.
"""

import numpy as np

from rlda import (
    NotPositiveDefiniteError,
    ShrinkageTarget,
    SimulationConfig,
    group_means,
    lw_lambda,
    mahalanobis_sq,
    pooled_covariance,
    shrink_covariance,
    simulate,
    sparse_shift,
)

# 20 observations in 50 dimensions: S is singular.
cfg = SimulationConfig(n=10, m=10, p=50, sigma=1.0, c=0.3, shift=sparse_shift(50, 3, 2.0), seed=4)
data = simulate(cfg)
s = pooled_covariance(data, group_means(data), "within-group")
print(f"pooled covariance rank: {np.linalg.matrix_rank(s)} of {s.shape[0]}")

try:
    shrink_covariance(s, ShrinkageTarget.identity(), 0.0)
except NotPositiveDefiniteError as exc:
    print("lambda=0 fails as it must:", exc)

cov = shrink_covariance(s, ShrinkageTarget.identity(), 0.2)
print(f"lambda=0.2 factorizes; condition number {np.linalg.cond(cov.matrix):.1f}")
d = data.values[0] - data.values[1]
print(f"kernel distance between two rows: {mahalanobis_sq(cov, d):.2f}\n")

# Equal-correlation target: common variance on the diagonal, common
# covariance off it; the variance scale defaults to the data.
t2 = ShrinkageTarget.equal_correlation(theta2=0.15)
cov2 = shrink_covariance(s, t2, 0.5)
print(f"equal-correlation blend, off-diagonal sample: {cov2.matrix[0, 1]:.3f}\n")

# The ridge form lambda S + (1-lambda) I is the identity-target blend with
# the roles of lambda swapped, so it needs no function of its own.
r = 0.8 * s + 0.2 * np.eye(s.shape[0])
t = shrink_covariance(s, ShrinkageTarget.identity(), 0.2)
print("ridge(0.8) == blend-to-identity(0.2):", np.allclose(r, t.matrix), "\n")

# Analytic intensity: big when data are scarce, fading as n grows.
for n in (20, 200, 2000):
    d_n = simulate(SimulationConfig(n=n, m=n, p=6, sigma=1.0, c=0.3, shift=np.zeros(6), seed=100 + n))
    print(f"n per group = {n:5d}: analytic intensity = {lw_lambda(d_n, ShrinkageTarget.identity()):.4f}")
