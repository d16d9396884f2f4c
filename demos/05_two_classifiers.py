"""Two routes to the same classifier: Cholesky kernel vs SVD kernel.

The fitted-model route factorizes the p x p regularized covariance; the
SVD route factorizes the n x p centered data instead, which is the natural
choice when n < p. On the matched ridge kernel they agree to rounding.
"""

import time

import numpy as np

from rlda import (
    MeanRegularizer,
    ShrinkageTarget,
    SimulationConfig,
    classify,
    classify_alg1,
    classify_alg2,
    discriminant_scores,
    fit,
    fit_svd_ridge,
    simulate,
    sparse_shift,
)
from rlda.covariance import GRAM_POOLED_MEAN

cfg = SimulationConfig(n=20, m=20, p=60, sigma=1.0, c=0.3, shift=sparse_shift(60, 4, 2.0), seed=6)
data = simulate(cfg)
queries = simulate(
    SimulationConfig(n=30, m=30, p=60, sigma=1.0, c=0.3, shift=sparse_shift(60, 4, 2.0), seed=7)
)

# --- fitted model ------------------------------------------------------------
model = fit(data, ShrinkageTarget.identity(), lam=0.3, mean_reg=MeanRegularizer("l2", 0.2))
pred = classify(model, queries.values)
print(f"fitted classifier, held-out accuracy: {np.mean(pred == queries.labels):.3f}")
print("scores at one query:", np.round(discriminant_scores(model, queries.values[0]), 2), "\n")

# --- one-shot Cholesky route vs SVD route on the matched kernel ---------------
lam_ridge = 0.6
z = queries.values[:10]
labels_chol = classify_alg1(
    data, ShrinkageTarget.identity(), 1.0 - lam_ridge, 0.2, "empirical", z,
    s_convention=GRAM_POOLED_MEAN,
)
svd_model = fit_svd_ridge(data, lam_ridge, mode="exact")
labels_svd = classify_alg2(svd_model, 0.2, "empirical", z)
print("Cholesky route labels:", labels_chol)
print("SVD route labels     :", labels_svd)
print("agree:", bool(np.all(labels_chol == labels_svd)), "\n")

# --- a rough timing feel (perfbench/run.py gives medians over repetitions) ---
t0 = time.perf_counter()
for _ in range(20):
    fit(data, ShrinkageTarget.identity(), 0.3)
t_chol = (time.perf_counter() - t0) / 20
t0 = time.perf_counter()
for _ in range(20):
    fit_svd_ridge(data, lam_ridge)
t_svd = (time.perf_counter() - t0) / 20
print(f"fit time, Cholesky route: {t_chol * 1e3:.2f} ms; SVD route: {t_svd * 1e3:.2f} ms")
