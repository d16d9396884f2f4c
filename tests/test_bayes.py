import re
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rlda.bayes import (
    GaussianPrior,
    NotPositiveDefiniteError,
    PosteriorSummary,
    james_stein,
    posterior_mean_conjugate_scalar,
    posterior_mean_general,
    posterior_mean_univariate,
    two_sample_posterior_means,
)

from conftest import random_spd


def explicit_inverse_posterior(xbar, n, sigma, eta, theta):
    """Dense oracle: builds every inverse the formula names."""
    sigma_inv = np.linalg.inv(sigma)
    eta_inv = np.linalg.inv(eta)
    return np.linalg.inv(n * sigma_inv + eta_inv) @ (n * sigma_inv @ xbar + eta_inv @ theta)


class TestPosteriorMeanGeneral:
    def test_prior_mean_is_fixed_point(self, rng):
        theta = rng.standard_normal(4)
        prior = GaussianPrior.full(theta, random_spd(rng, 4))
        out = posterior_mean_general(theta, n=7, sigma=random_spd(rng, 4), prior=prior)
        assert_allclose(out.mean, theta, atol=1e-12)

    def test_equal_precision_average(self):
        x = np.array([2.0, -4.0, 6.0])
        prior = GaussianPrior.full(np.zeros(3), np.eye(3))
        out = posterior_mean_general(x, n=1, sigma=np.eye(3), prior=prior)
        assert_allclose(out.mean, x / 2, atol=1e-12)

    def test_matches_explicit_inverse_oracle(self, rng):
        for _ in range(20):
            sigma = random_spd(rng, 3)
            eta = random_spd(rng, 3)
            theta = rng.standard_normal(3)
            xbar = rng.standard_normal(3)
            n = int(rng.integers(1, 9))
            out = posterior_mean_general(xbar, n, sigma, GaussianPrior.full(theta, eta))
            assert_allclose(out.mean, explicit_inverse_posterior(xbar, n, sigma, eta, theta), atol=1e-10)

    def test_weight_matrix_reproduces_mean(self, rng):
        sigma, eta = random_spd(rng, 3), random_spd(rng, 3)
        theta, xbar = rng.standard_normal(3), rng.standard_normal(3)
        out = posterior_mean_general(xbar, 4, sigma, GaussianPrior.full(theta, eta))
        delta = out.shrinkage_weight
        assert_allclose((np.eye(3) - delta) @ xbar + delta @ theta, out.mean, atol=1e-10)
        eigs = np.linalg.eigvals(delta)
        assert np.all(eigs.real > 0) and np.all(eigs.real < 1)

    def test_non_pd_sigma_reported(self):
        prior = GaussianPrior.full(np.zeros(2), 0.5 * np.eye(2))
        with pytest.raises(NotPositiveDefiniteError):
            posterior_mean_general(np.ones(2), 1, np.array([[1.0, 3.0], [3.0, 1.0]]), prior)

    def test_requires_theta(self, rng):
        prior = GaussianPrior(theta=None, covariance=np.eye(2))
        with pytest.raises(ValueError, match="theta"):
            posterior_mean_general(np.ones(2), 1, np.eye(2), prior)

    def test_converges_to_sample_mean(self, rng):
        sigma, eta = random_spd(rng, 3), random_spd(rng, 3)
        theta, xbar = rng.standard_normal(3), rng.standard_normal(3) + 2.0
        gaps = []
        for n in (1, 10, 100, 10_000):
            out = posterior_mean_general(xbar, n, sigma, GaussianPrior.full(theta, eta))
            gaps.append(np.linalg.norm(out.mean - xbar))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3

    def test_block_matches_per_row_calls(self, rng):
        p, m = 50, 2000
        sigma, eta = random_spd(rng, p), random_spd(rng, p)
        theta, xbars = rng.standard_normal(p), 3.0 * rng.standard_normal((m, p))
        prior = GaussianPrior.full(theta, eta)
        block = posterior_mean_general(xbars, 4, sigma, prior)
        rows = [posterior_mean_general(xbar, 4, sigma, prior) for xbar in xbars]
        assert block.mean.shape == (m, p) and rows[0].mean.shape == (p,)
        assert np.array_equal(block.shrinkage_weight, rows[0].shrinkage_weight)
        # The block's matrix products sum in another order than the per-row vector products;
        # random_spd keeps cond(A) below 5, so each entry rounds by a few eps of the largest and p eps bounds it.
        row_means = np.array([row.mean for row in rows])
        assert np.abs(block.mean - row_means).max() <= p * np.finfo(float).eps * np.abs(row_means).max()


class TestConjugateScalar:
    def test_weight_arithmetic(self):
        out = posterior_mean_conjugate_scalar(np.zeros(2), n=4, c=1.0, theta=np.zeros(2))
        assert out.shrinkage_weight == pytest.approx(0.2)

    def test_mean_arithmetic(self):
        theta = np.array([1.0, 2.0])
        out = posterior_mean_conjugate_scalar(2 * theta, n=1, c=1.0, theta=theta)
        assert_allclose(out.mean, 1.5 * theta)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            posterior_mean_conjugate_scalar(np.zeros(2), n=0, c=1.0, theta=np.zeros(2))
        with pytest.raises(ValueError):
            posterior_mean_conjugate_scalar(np.zeros(2), n=1, c=0.0, theta=np.zeros(2))
        with pytest.raises(ValueError, match="xbar must hold at least one value"):
            posterior_mean_conjugate_scalar(np.zeros(0), n=1, c=1.0, theta=np.zeros(0))

    def test_general_path_agrees_for_scaled_prior(self, rng):
        # Prior covariance Sigma / c makes the covariance cancel.
        for _ in range(10):
            sigma = random_spd(rng, 3)
            c = float(rng.uniform(0.2, 4.0))
            theta, xbar = rng.standard_normal(3), rng.standard_normal(3)
            n = int(rng.integers(1, 9))
            via_matrix = posterior_mean_general(xbar, n, sigma, GaussianPrior.full(theta, sigma / c))
            via_scalar = posterior_mean_conjugate_scalar(xbar, n, c, theta)
            assert_allclose(via_matrix.mean, via_scalar.mean, atol=1e-10)

    def test_block_equals_per_row_calls(self, rng):
        theta, xbars = rng.standard_normal(7), rng.standard_normal((300, 7))
        block = posterior_mean_conjugate_scalar(xbars, 5, 1.3, theta)
        rows = [posterior_mean_conjugate_scalar(xbar, 5, 1.3, theta) for xbar in xbars]
        assert block.mean.shape == (300, 7) and rows[0].mean.shape == (7,)
        assert (block.mean == np.array([row.mean for row in rows])).all()
        assert block.shrinkage_weight == rows[0].shrinkage_weight


class TestUnivariate:
    def test_forms_agree_identically(self, rng):
        for _ in range(50):
            xbar = float(rng.standard_normal())
            theta = float(rng.standard_normal())
            sigma2 = float(rng.uniform(0.1, 3.0))
            gamma2 = float(rng.uniform(0.1, 3.0))
            n = int(rng.integers(1, 20))
            a = posterior_mean_univariate(xbar, n, sigma2, theta, gamma2, form="precision")
            b = posterior_mean_univariate(xbar, n, sigma2, theta, gamma2, form="variance")
            assert a == pytest.approx(b, rel=1e-12)

    def test_matches_general_at_p_1(self, rng):
        xbar, theta = 1.7, -0.3
        out = posterior_mean_general(
            np.array([xbar]), 6, np.array([[0.8]]), GaussianPrior.full(np.array([theta]), np.array([[2.5]]))
        )
        assert out.mean[0] == pytest.approx(posterior_mean_univariate(xbar, 6, 0.8, theta, 2.5))

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            posterior_mean_univariate(0.0, 1, 1.0, 0.0, 1.0, form="???")


class TestJamesStein:
    def test_multiplier_hits_zero(self):
        assert_allclose(james_stein(np.array([1.0, 0.0, 0.0]), 1.0), np.zeros(3))

    def test_multiplier_half(self):
        assert_allclose(james_stein(np.array([2.0, 0.0, 0.0, 0.0]), 1.0), [1.0, 0.0, 0.0, 0.0])

    def test_requires_p_at_least_3(self):
        with pytest.raises(ValueError, match="p >= 3"):
            james_stein(np.array([1.0, 2.0]), 1.0)

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="zero vector"):
            james_stein(np.zeros(3), 1.0)

    def test_norm_identity(self, rng):
        for _ in range(30):
            x = rng.standard_normal(5) * rng.uniform(0.1, 3.0)
            sigma2 = float(rng.uniform(0.2, 2.0))
            js = james_stein(x, sigma2)
            expected = abs(1.0 - 3 * sigma2 / float(x @ x)) * np.linalg.norm(x)
            assert np.linalg.norm(js) == pytest.approx(expected, rel=1e-12)

    def test_monte_carlo_risk_at_zero_mean(self):
        # Analytic risk at mu = 0: p - (p-2)^2 E[1/chi2_p] = p - (p-2) = 2.
        rng = np.random.default_rng(77)
        p, reps = 10, 100_000
        draws = rng.standard_normal((reps, p))
        norms = np.sum(draws * draws, axis=1)
        shrunk = (1.0 - (p - 2) / norms)[:, None] * draws
        risk = float(np.mean(np.sum(shrunk * shrunk, axis=1)))
        assert abs(risk - 2.0) < 0.1
        naive = float(np.mean(norms))
        assert risk < naive


class TestTwoSample:
    def test_univariate_reduction(self):
        xbar, ybar, theta = 2.0, -1.0, 0.5
        sx, _ = two_sample_posterior_means(
            np.array([xbar]),
            np.array([ybar]),
            n=1,
            m=1,
            sigma=np.array([[1.0]]),
            prior=GaussianPrior.full(np.array([theta]), np.array([[1.0]])),
        )
        assert sx.mean[0] == pytest.approx((xbar + theta) / 2)

    def test_common_weight_matrix_when_scaled_and_balanced(self, rng):
        sigma = random_spd(rng, 3)
        c, n = 2.0, 5
        prior = GaussianPrior.full(np.zeros(3), sigma / c)
        sx, sy = two_sample_posterior_means(
            rng.standard_normal(3), rng.standard_normal(3), n, n, sigma, prior
        )
        expected = (c / (n + c)) * np.eye(3)
        assert_allclose(sx.shrinkage_weight, expected, atol=1e-10)
        assert_allclose(sy.shrinkage_weight, expected, atol=1e-10)

    def test_elegant_form_equals_direct_formula(self, rng):
        for _ in range(10):
            sigma = random_spd(rng, 3)
            upsilon = random_spd(rng, 3)
            theta = rng.standard_normal(3)
            xbar, ybar = rng.standard_normal(3), rng.standard_normal(3)
            sx, sy = two_sample_posterior_means(xbar, ybar, 5, 7, sigma, GaussianPrior.full(theta, upsilon))
            assert_allclose(sx.mean, explicit_inverse_posterior(xbar, 5, sigma, upsilon, theta), atol=1e-10)
            assert_allclose(sy.mean, explicit_inverse_posterior(ybar, 7, sigma, upsilon, theta), atol=1e-10)
            dx, dy = sx.shrinkage_weight, sy.shrinkage_weight
            assert_allclose((np.eye(3) - dx) @ xbar + dx @ theta, sx.mean, atol=1e-10)
            assert_allclose((np.eye(3) - dy) @ ybar + dy @ theta, sy.mean, atol=1e-10)

    def test_default_theta_is_pooled_mean(self, rng):
        sigma = random_spd(rng, 2)
        xbar, ybar = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        n, m = 3, 1
        prior = GaussianPrior(theta=None, covariance=np.eye(2))
        sx, _ = two_sample_posterior_means(xbar, ybar, n, m, sigma, prior)
        pooled = (n * xbar + m * ybar) / (n + m)
        explicit = two_sample_posterior_means(xbar, ybar, n, m, sigma, GaussianPrior.full(pooled, np.eye(2)))[0]
        assert_allclose(sx.mean, explicit.mean)

    def test_errors_name_the_second_sample(self):
        prior = GaussianPrior.full(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match="ybar must be finite, got nan"):
            two_sample_posterior_means(np.zeros(2), np.array([np.nan, 0.0]), 3, 2, np.eye(2), prior)
        with pytest.raises(ValueError, match="sample count m must be at least 1"):
            two_sample_posterior_means(np.zeros(2), np.zeros(2), 3, 0, np.eye(2), prior)


class TestSummaryValidation:
    def test_scalar_weight_range(self):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            PosteriorSummary(mean=np.zeros(2), shrinkage_weight=1.0)

    def test_prior_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            GaussianPrior(theta=np.zeros(2), covariance=np.array([[1.0, 0.5], [0.0, 1.0]]))


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: PosteriorSummary(mean=np.zeros(3), shrinkage_weight=np.eye(2)),
            "matrix shrinkage weight must be p x p",
            id="summary-weight-shape",
        ),
        pytest.param(
            lambda: posterior_mean_general(np.zeros(3), 4, np.eye(3), GaussianPrior.full(np.zeros(2), np.eye(2))),
            "prior mean must match xbar in length",
            id="general-prior-mean-length",
        ),
        pytest.param(
            # A GaussianPrior checks its own shapes; this prior stands for one that skipped them.
            lambda: posterior_mean_general(
                np.zeros(3), 4, np.eye(3), SimpleNamespace(theta=np.zeros(3), covariance=np.eye(2))
            ),
            "prior covariance must be p x p (got (2, 2) for p=3)",
            id="general-prior-covariance-shape",
        ),
        pytest.param(
            lambda: posterior_mean_general(
                np.zeros(2), 4, [[1.0, 0.0], [0.0, np.nan]], GaussianPrior.full(np.zeros(2), np.eye(2))
            ),
            "sigma must be finite, got nan",
            id="general-sigma-non-finite",
        ),
        pytest.param(
            lambda: GaussianPrior.full(np.zeros(2), [[1.0, np.inf], [np.inf, 1.0]]),
            "prior covariance must be finite, got inf",
            id="prior-covariance-non-finite",
        ),
        pytest.param(lambda: posterior_mean_univariate(0.5, 0, 1.0, 0.0, 1.0), "n must be at least 1", id="n"),
        pytest.param(
            lambda: posterior_mean_univariate(np.nan, 3, 1.0, 0.0, 1.0),
            "xbar must be finite, got nan",
            id="univariate-xbar",
        ),
        pytest.param(
            lambda: posterior_mean_univariate(0.5, 3, np.nan, 0.0, 1.0),
            "sigma2 must be finite, got nan",
            id="univariate-sigma2",
        ),
        pytest.param(
            lambda: posterior_mean_univariate(0.5, 3, 1.0, np.inf, 1.0),
            "theta must be finite, got inf",
            id="univariate-theta",
        ),
        pytest.param(
            lambda: posterior_mean_univariate(0.5, 3, 1.0, 0.0, np.nan),
            "gamma2 must be finite, got nan",
            id="univariate-gamma2",
        ),
        pytest.param(
            lambda: posterior_mean_univariate(0.5, 3, 0.0, 0.0, 1.0), "sigma2 must be positive, got 0.0", id="sigma2"
        ),
        pytest.param(
            lambda: posterior_mean_univariate(0.5, 3, 1.0, 0.0, -1.0), "gamma2 must be positive, got -1.0", id="gamma2"
        ),
        pytest.param(lambda: james_stein(np.ones(3), 0.0), "sigma2 must be positive", id="james-stein-sigma2"),
        pytest.param(
            lambda: james_stein(np.ones(3), np.nan), "sigma2 must be finite, got nan", id="james-stein-sigma2-nan"
        ),
        pytest.param(lambda: james_stein([1.0, np.nan, 1.0], 1.0), "x must be finite, got nan", id="james-stein-x-nan"),
        pytest.param(
            lambda: two_sample_posterior_means(
                np.zeros(3), np.zeros(2), 4, 5, np.eye(3), GaussianPrior.full(np.zeros(3), np.eye(3))
            ),
            "xbar and ybar must have equal length",
            id="two-sample-lengths",
        ),
    ],
)
def test_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
