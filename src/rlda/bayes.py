"""Closed-form Bayesian shrinkage estimators for multivariate normal means.

Estimators here shrink the sample mean toward a prior expectation. The
general posterior mean for a Gaussian likelihood with known covariance and
a Gaussian prior is

    mean = (n Sigma^-1 + Eta^-1)^-1 (n Sigma^-1 xbar + Eta^-1 theta),

evaluated without forming any explicit inverse: with A = Eta + Sigma/n,

    mean  = theta + Eta A^-1 (xbar - theta),
    Delta = (Sigma/n) A^-1,      mean = (I - Delta) xbar + Delta theta,

which needs a single SPD factorization of A. When the prior precision is a
scalar multiple ``c`` of the data precision the weight collapses to the
scalar ``delta = c / (n + c)`` and the covariance drops out entirely; that
case has its own function, :func:`posterior_mean_conjugate_scalar`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import (
    NotPositiveDefiniteError,
    cholesky_lower,
    ensure_symmetric,
    require_finite,
    require_lower_bound,
    solve_cholesky,
)

__all__ = [
    "NotPositiveDefiniteError",
    "GaussianPrior",
    "PosteriorSummary",
    "james_stein",
    "posterior_mean_conjugate_scalar",
    "posterior_mean_general",
    "posterior_mean_univariate",
    "two_sample_posterior_means",
]


@dataclass(frozen=True)
class GaussianPrior:
    """Gaussian prior ``N_p(theta, Eta)`` on a mean vector, with full SPD covariance ``Eta``.

    ``theta`` may be ``None`` only for the two-sample estimator, where it
    resolves to the pooled mean of both samples. A prior precision that is
    a scalar multiple ``c Sigma^-1`` of the data precision needs no prior
    object: :func:`posterior_mean_conjugate_scalar` takes ``c`` itself and
    never reads ``Sigma``. The same prior stated here as ``Eta = Sigma / c``
    gives the same posterior mean through :func:`posterior_mean_general`.
    """

    theta: np.ndarray | None
    covariance: np.ndarray

    def __post_init__(self):
        if self.theta is not None:
            theta = require_finite(self.theta, "theta").reshape(-1)
            theta.setflags(write=False)
            object.__setattr__(self, "theta", theta)
        cov = ensure_symmetric(self.covariance, "prior covariance")
        if self.theta is not None and cov.shape[0] != self.theta.shape[0]:
            raise ValueError(
                f"prior covariance dimension must match theta (got {cov.shape} for p={self.theta.shape[0]})"
            )
        cov.setflags(write=False)
        object.__setattr__(self, "covariance", cov)

    @classmethod
    def full(cls, theta, covariance) -> "GaussianPrior":
        return cls(theta=theta, covariance=covariance)


@dataclass(frozen=True)
class PosteriorSummary:
    """Posterior mean plus the weight pulling it toward the prior mean.

    ``shrinkage_weight`` is either the scalar ``delta`` in
    ``(1 - delta) xbar + delta theta`` or the matrix ``Delta`` in
    ``(I - Delta) xbar + Delta theta``. ``mean`` is a ``(p,)`` vector, or
    an ``(m, p)`` block with one row per sample mean sharing the weight.
    """

    mean: np.ndarray
    shrinkage_weight: float | np.ndarray

    def __post_init__(self):
        mean = _vector_or_block(self.mean)
        mean.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        if np.isscalar(self.shrinkage_weight) or np.ndim(self.shrinkage_weight) == 0:
            w = float(self.shrinkage_weight)
            if not 0.0 < w < 1.0:
                raise ValueError(f"scalar shrinkage weight must lie in (0, 1), got {w}")
            object.__setattr__(self, "shrinkage_weight", w)
        else:
            w = np.asarray(self.shrinkage_weight, dtype=float)
            if w.shape != (mean.shape[-1], mean.shape[-1]):
                raise ValueError("matrix shrinkage weight must be p x p")
            w.setflags(write=False)
            object.__setattr__(self, "shrinkage_weight", w)

    def to_dict(self) -> dict:
        w = self.shrinkage_weight
        return {
            "mean": self.mean.tolist(),
            "shrinkage_weight": w if isinstance(w, float) else np.asarray(w).tolist(),
            "weight_kind": "scalar" if isinstance(w, float) else "matrix",
        }


def _vector_or_block(values) -> np.ndarray:
    """``values`` as an ``(m, p)`` block if two-dimensional, else flattened to a ``(p,)`` vector."""
    arr = np.asarray(values, dtype=float)
    return arr if arr.ndim == 2 else arr.reshape(-1)


def _validate_sample(xbar, n: int, name: str = "xbar", count: str = "n") -> np.ndarray:
    """The sample mean ``xbar`` of ``n`` observations, as a ``(p,)`` vector or an ``(m, p)`` block of them."""
    require_lower_bound(n, f"sample count {count}", 1)
    xbar = _vector_or_block(xbar)
    require_finite(xbar, name)
    if not xbar.size:
        raise ValueError(f"{name} must hold at least one value")
    return xbar


def posterior_mean_conjugate_scalar(xbar, n: int, c: float, theta) -> PosteriorSummary:
    """Posterior mean when the prior precision is ``c`` times the data precision.

    The weight is ``delta = c / (n + c)`` and the estimate
    ``(1 - delta) xbar + delta theta`` does not involve the covariance.

    Parameters
    ----------
    xbar : array_like of shape (p,) or (m, p)
        Sample mean, or a block of ``m`` sample means; the mean has its shape.
    n : int
        Sample size, at least 1.
    c : float
        Positive prior precision multiplier.
    theta : array_like of shape (p,)
        Prior mean.
    """
    xbar = _validate_sample(xbar, n)
    require_lower_bound(c, "c", positive=True)
    theta = require_finite(theta, "theta").reshape(-1)
    if theta.shape != xbar.shape[-1:]:
        raise ValueError("theta must match xbar in length")
    delta = c / (n + c)
    mean = (1.0 - delta) * xbar + delta * theta
    return PosteriorSummary(mean=mean, shrinkage_weight=delta)


def posterior_mean_general(xbar, n: int, sigma, prior: GaussianPrior) -> PosteriorSummary:
    """Posterior mean of a multivariate normal mean under a Gaussian prior.

    Parameters
    ----------
    xbar : array_like of shape (p,) or (m, p)
        Sample mean of ``n`` observations with covariance ``sigma``, or a
        block of ``m`` such means sharing one factorization; the mean has
        its shape.
    n : int
        Sample size, at least 1.
    sigma : array_like of shape (p, p)
        Known observation covariance, symmetric positive definite.
    prior : GaussianPrior
        Prior on the mean; ``prior.theta`` must be set.

    Returns
    -------
    PosteriorSummary
        Mean plus the matrix shrinkage weight ``Delta``.

    Raises
    ------
    NotPositiveDefiniteError
        If a required factorization fails.
    """
    xbar = _validate_sample(xbar, n)
    if prior.theta is None:
        raise ValueError("prior.theta must be set for the one-sample posterior mean")
    theta = prior.theta
    if theta.shape != xbar.shape[-1:]:
        raise ValueError("prior mean must match xbar in length")
    sigma = ensure_symmetric(sigma, "sigma")
    p = xbar.shape[-1]
    if sigma.shape != (p, p):
        raise ValueError(f"sigma must be p x p (got {sigma.shape} for p={p})")
    eta = prior.covariance
    if eta.shape != (p, p):
        raise ValueError(f"prior covariance must be p x p (got {eta.shape} for p={p})")
    scaled = sigma / n
    a = eta + scaled
    l_factor = cholesky_lower(a, "posterior precision kernel")
    mean = theta + (eta @ solve_cholesky(l_factor, (xbar - theta).T)).T
    delta = solve_cholesky(l_factor, scaled).T  # Delta = (Sigma/n) A^-1, both factors symmetric
    return PosteriorSummary(mean=mean, shrinkage_weight=delta)


def posterior_mean_univariate(
    xbar: float, n: int, sigma2: float, theta: float, gamma2: float, form: str = "precision"
) -> float:
    """Univariate posterior mean, in either of its two textbook forms.

    ``form="precision"`` evaluates ``(n xbar / sigma2 + theta / gamma2) /
    (n / sigma2 + 1 / gamma2)``; ``form="variance"`` evaluates the
    algebraically identical ``(gamma2 n xbar + theta sigma2) /
    (n gamma2 + sigma2)``.
    """
    require_lower_bound(n, "n", 1)
    require_finite(xbar, "xbar")
    require_lower_bound(sigma2, "sigma2", positive=True)
    require_finite(theta, "theta")
    require_lower_bound(gamma2, "gamma2", positive=True)
    if form == "precision":
        return (n * xbar / sigma2 + theta / gamma2) / (n / sigma2 + 1.0 / gamma2)
    if form == "variance":
        return (gamma2 * n * xbar + theta * sigma2) / (n * gamma2 + sigma2)
    raise ValueError(f"unknown form {form!r}")


def james_stein(x, sigma2: float) -> np.ndarray:
    """The plain shrinkage-toward-zero estimator ``(1 - (p-2) sigma2 / ||x||^2) x``.

    Defined for ``p >= 3`` and nonzero ``x``; the multiplier may be
    negative (no positive-part clipping).
    """
    x = require_finite(x, "x").reshape(-1)
    p = x.shape[0]
    if p < 3:
        raise ValueError("james_stein requires dimension p >= 3")
    require_lower_bound(sigma2, "sigma2", positive=True)
    norm_sq = float(x @ x)
    if norm_sq == 0.0:
        raise ValueError("james_stein is undefined at the zero vector")
    return (1.0 - (p - 2) * sigma2 / norm_sq) * x


def two_sample_posterior_means(
    xbar, ybar, n: int, m: int, sigma, prior: GaussianPrior
) -> tuple[PosteriorSummary, PosteriorSummary]:
    """Posterior means of two group means sharing one prior ``N_p(theta, Upsilon)``.

    Each group is shrunk toward the common ``theta``; the summaries carry
    the weight matrices ``Delta_x = (n Sigma^-1 + Upsilon^-1)^-1 Upsilon^-1``
    and the analogous ``Delta_y``. When ``prior.theta`` is ``None`` the
    count-weighted pooled mean ``(n xbar + m ybar) / (n + m)`` is used.

    Returns
    -------
    (PosteriorSummary, PosteriorSummary)
        Summaries for the first and second group.
    """
    xbar = _validate_sample(xbar, n)
    ybar = _validate_sample(ybar, m, "ybar", "m")
    if xbar.shape != ybar.shape:
        raise ValueError("xbar and ybar must have equal length")
    if prior.theta is None:
        theta = (n * xbar + m * ybar) / (n + m)
        prior = GaussianPrior(theta=theta, covariance=prior.covariance)
    return (
        posterior_mean_general(xbar, n, sigma, prior),
        posterior_mean_general(ybar, m, sigma, prior),
    )
