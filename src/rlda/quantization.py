"""Estimation under parameter rounding, viewed as Bayesian estimation.

A rounded (quantized) parameter ``xi = mu + tau`` with Gaussian rounding
error ``tau ~ N(0, delta2 I)`` is distributionally identical to a parameter
drawn from a Gaussian prior centered at ``mu`` with covariance ``delta2 I``;
when ``mu`` itself carries a Gaussian prior ``N(theta, Psi)`` the two
uncertainty sources add, giving the prior ``N(theta, Psi + delta2 I)``.
Both statements are certified numerically by the test suite; the demo below
measures the mean squared error payoff of exploiting them on
:func:`posterior_xi_fixed_mu` and :func:`posterior_xi_random_mu` themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._linalg import cholesky_lower, ensure_symmetric
from .bayes import GaussianPrior, PosteriorSummary, posterior_mean_conjugate_scalar, posterior_mean_general

__all__ = [
    "QuantizationScenario",
    "demo_quantization",
    "posterior_xi_fixed_mu",
    "posterior_xi_random_mu",
]

# Observation values drawn per block in demo_quantization (4 MB of float64).
_NOISE_BLOCK_VALUES = 2**19


@dataclass(frozen=True)
class QuantizationScenario:
    """Observation model ``X_i = xi + e_i`` with rounded parameter ``xi = mu + tau``.

    ``e_i ~ N_p(0, sigma2 I)`` i.i.d. and ``tau ~ N_p(0, delta2 I)``
    independent of everything else. ``mu`` is either a fixed vector or, in
    the doubly uncertain reading, itself Gaussian ``N_p(theta, psi)``
    (set ``theta`` and ``psi`` instead of ``mu``).

    ``delta2 = 0`` is allowed and means no rounding error.
    """

    sigma2: float
    delta2: float
    n: int
    p: int
    mu: np.ndarray | None = None
    theta: np.ndarray | None = None
    psi: np.ndarray | None = None

    def __post_init__(self):
        if not 0 < self.sigma2 < np.inf:
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2}")
        if not 0 <= self.delta2 < np.inf:
            raise ValueError(f"delta2 must be nonnegative and finite, got {self.delta2}")
        if self.n < 1 or self.p < 1:
            raise ValueError("n and p must be positive")
        fixed = self.mu is not None
        random = self.theta is not None or self.psi is not None
        if fixed == random:
            raise ValueError("set either mu (fixed center) or theta and psi (random center)")
        if fixed:
            mu = np.asarray(self.mu, dtype=float).reshape(-1)
            if mu.shape != (self.p,):
                raise ValueError("mu must be a length-p vector")
            if not np.isfinite(mu).all():
                raise ValueError("mu must be finite")
            mu.setflags(write=False)
            object.__setattr__(self, "mu", mu)
        else:
            if self.theta is None or self.psi is None:
                raise ValueError("the random-center form needs both theta and psi")
            theta = np.asarray(self.theta, dtype=float).reshape(-1)
            psi = ensure_symmetric(self.psi, "psi")
            if theta.shape != (self.p,) or psi.shape != (self.p, self.p):
                raise ValueError("theta must be length p and psi p x p")
            theta.setflags(write=False)
            psi.setflags(write=False)
            object.__setattr__(self, "theta", theta)
            object.__setattr__(self, "psi", psi)

    @property
    def has_fixed_center(self) -> bool:
        return self.mu is not None


def _require_rounding_variance(scenario: QuantizationScenario) -> None:
    """The fixed-center posterior's prior is ``N(mu, delta2 I)``, which needs ``delta2 > 0``."""
    if scenario.has_fixed_center and scenario.delta2 <= 0:
        raise ValueError("the fixed-center posterior requires delta2 > 0")


def posterior_xi_fixed_mu(xbar, scenario: QuantizationScenario) -> PosteriorSummary:
    """Posterior mean of the rounded parameter when the center ``mu`` is fixed.

    The rounding error acts as the prior ``xi ~ N(mu, delta2 I)`` against
    the likelihood ``xbar ~ N(xi, sigma2/n I)``. With isotropic covariances
    the prior precision is ``(sigma2/delta2) Sigma^-1``, so the scalar
    conjugate form applies and the weight is
    ``sigma2 / (n delta2 + sigma2)``.
    """
    if not scenario.has_fixed_center:
        raise ValueError("scenario must carry a fixed mu")
    _require_rounding_variance(scenario)
    return posterior_mean_conjugate_scalar(
        xbar, scenario.n, c=scenario.sigma2 / scenario.delta2, theta=scenario.mu
    )


def posterior_xi_random_mu(xbar, scenario: QuantizationScenario) -> PosteriorSummary:
    """Posterior mean of the rounded parameter when the center is Gaussian.

    The two uncertainty sources combine additively into the prior
    ``xi ~ N(theta, psi + delta2 I)``; the general closed form does the rest.
    """
    if scenario.has_fixed_center:
        raise ValueError("scenario must carry a random center (theta, psi)")
    prior = GaussianPrior.full(scenario.theta, scenario.psi + scenario.delta2 * np.eye(scenario.p))
    sigma = scenario.sigma2 * np.eye(scenario.p)
    return posterior_mean_general(xbar, scenario.n, sigma, prior)


def demo_quantization(
    scenario: QuantizationScenario,
    seed: int,
    replications: int = 10_000,
    fit_delta2: float | None = None,
) -> dict:
    """Monte Carlo comparison of the naive mean against the rounded-parameter posterior.

    Each replication draws a fresh rounding offset ``tau`` (and, in the
    random-center form, a fresh center), simulates ``n`` observations, and
    estimates ``xi`` both by the sample mean and by the posterior mean of
    :func:`posterior_xi_fixed_mu` or :func:`posterior_xi_random_mu`, applied
    to the block of all replications' sample means at once.
    Observations are drawn in blocks of replications, so memory is
    ``O(replications p + n p)`` rather than ``O(replications n p)``.
    ``fit_delta2`` overrides the rounding variance assumed by the posterior
    (the data are still generated with ``scenario.delta2``), which makes it
    possible to study deliberately flat or misspecified priors. Like
    ``delta2`` it must be nonnegative and finite; the fixed-center
    posterior needs the rounding variance it assumes to be positive.

    Returns
    -------
    dict
        ``{"mse_naive": ..., "mse_posterior": ..., "replications": ...,
        "seed": ..., "scenario": ...}`` where the errors are mean squared
        Euclidean errors against the replication's true ``xi``.
    """
    if replications < 1:
        raise ValueError("replications must be positive")
    if fit_delta2 is not None and not np.isfinite(fit_delta2):
        raise ValueError(f"fit_delta2 must be finite, got {fit_delta2}")
    if fit_delta2 is not None and fit_delta2 < 0:
        raise ValueError(f"fit_delta2 must be nonnegative, got {fit_delta2}")
    fitted = scenario if fit_delta2 is None else replace(scenario, delta2=float(fit_delta2))
    _require_rounding_variance(fitted)  # before any draw: the draw is O(replications n p)
    rng = np.random.default_rng(seed)
    n, p = scenario.n, scenario.p
    sigma = float(np.sqrt(scenario.sigma2))
    delta = float(np.sqrt(scenario.delta2))

    tau = delta * rng.standard_normal((replications, p))
    if scenario.has_fixed_center:
        centers = np.broadcast_to(scenario.mu, (replications, p))
    else:
        psi_factor = cholesky_lower(scenario.psi, "psi")
        centers = scenario.theta + rng.standard_normal((replications, p)) @ psi_factor.T
    xi = centers + tau
    # Block by block, the normal stream and hence every sample mean is the
    # same as from one reps x n x p draw, so seeded results do not change.
    block = max(1, _NOISE_BLOCK_VALUES // (n * p))
    sizes = [min(block, replications - start) for start in range(0, replications, block)]
    xbar = xi + np.concatenate([(sigma * rng.standard_normal((size, n, p))).mean(axis=1) for size in sizes])

    posterior = (posterior_xi_fixed_mu if scenario.has_fixed_center else posterior_xi_random_mu)(xbar, fitted)

    mse_naive = float(np.mean(np.sum((xbar - xi) ** 2, axis=1)))
    mse_posterior = float(np.mean(np.sum((posterior.mean - xi) ** 2, axis=1)))
    return {
        "mse_naive": mse_naive,
        "mse_posterior": mse_posterior,
        "replications": int(replications),
        "seed": int(seed),
        "scenario": {
            "sigma2": scenario.sigma2,
            "delta2": scenario.delta2,
            "fit_delta2": fitted.delta2,
            "n": n,
            "p": p,
            "center": "fixed" if scenario.has_fixed_center else "random",
        },
    }
