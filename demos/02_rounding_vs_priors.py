"""Parameter rounding is an implicit Gaussian prior.

Checks numerically that estimating a rounded parameter is the same problem
as Bayesian estimation with an inflated prior covariance, then measures the
mean squared error payoff of exploiting that equivalence on the posteriors
checked here, ``posterior_xi_fixed_mu`` and ``posterior_xi_random_mu``.
"""

import numpy as np

from rlda import (
    GaussianPrior,
    QuantizationScenario,
    demo_quantization,
    posterior_mean_general,
    posterior_xi_fixed_mu,
    posterior_xi_random_mu,
)

rng = np.random.default_rng(2)
p = 5

# --- fixed center ------------------------------------------------------------
# A parameter xi = mu + tau with tau ~ N(0, delta2 I) behaves exactly like a
# parameter drawn from the prior N(mu, delta2 I).
mu = rng.standard_normal(p)
scen = QuantizationScenario(sigma2=1.0, delta2=0.5, n=8, p=p, mu=mu)
xbar = rng.standard_normal(p)
direct = posterior_xi_fixed_mu(xbar, scen).mean
via_prior = posterior_mean_general(
    xbar, scen.n, np.eye(p), GaussianPrior.full(mu, 0.5 * np.eye(p))
).mean
print("fixed-center equivalence, max gap:", float(np.max(np.abs(direct - via_prior))))

# --- random center -----------------------------------------------------------
# With a Gaussian center N(theta, psi), the two uncertainty sources add:
# the implied prior is N(theta, psi + delta2 I).
theta = np.zeros(p)
psi = 0.5 * np.eye(p) + 0.1
scen2 = QuantizationScenario(sigma2=1.0, delta2=0.7, n=8, p=p, theta=theta, psi=psi)
direct2 = posterior_xi_random_mu(xbar, scen2).mean
via_sum = posterior_mean_general(
    xbar, scen2.n, np.eye(p), GaussianPrior.full(theta, psi + 0.7 * np.eye(p))
).mean
print("random-center equivalence, max gap:", float(np.max(np.abs(direct2 - via_sum))))
print()

# --- does it help? -----------------------------------------------------------
# demo_quantization estimates every replication with posterior_xi_fixed_mu
# itself, so the payoff below is that of the estimator certified above.
report = demo_quantization(QuantizationScenario(sigma2=1.0, delta2=1.0, n=10, p=5, mu=np.zeros(5)), seed=3)
print(f"estimating the rounded parameter over {report['replications']} replications:")
print(f"  sample mean mse     : {report['mse_naive']:.4f}")
print(f"  posterior mean mse  : {report['mse_posterior']:.4f}")
print("-> accounting for the rounding error buys a strictly smaller error")
