import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rlda.bayes import GaussianPrior, posterior_mean_general
from rlda.quantization import (
    QuantizationScenario,
    demo_quantization,
    posterior_xi_fixed_mu,
    posterior_xi_random_mu,
)

from conftest import random_spd


def fixed_scenario(sigma2=1.0, delta2=1.0, n=5, p=3, mu=None):
    return QuantizationScenario(sigma2=sigma2, delta2=delta2, n=n, p=p, mu=np.zeros(p) if mu is None else mu)


class TestFixedCenter:
    def test_tiny_rounding_variance_pins_to_center(self, rng):
        mu = rng.standard_normal(4)
        scen = QuantizationScenario(sigma2=1.0, delta2=1e-12, n=3, p=4, mu=mu)
        out = posterior_xi_fixed_mu(rng.standard_normal(4), scen)
        assert_allclose(out.mean, mu, atol=1e-5)

    def test_equal_precision_average(self, rng):
        mu = rng.standard_normal(3)
        x = rng.standard_normal(3)
        scen = QuantizationScenario(sigma2=0.7, delta2=0.7, n=1, p=3, mu=mu)
        out = posterior_xi_fixed_mu(x, scen)
        assert_allclose(out.mean, (x + mu) / 2, atol=1e-12)

    def test_closed_form_matches_general_machinery(self, rng):
        # The rounding construction (center + offset, then noise) induces the
        # prior N(mu, delta2 I); the scalar closed form must match the general
        # posterior computed from that assembled prior.
        for _ in range(25):
            p = int(rng.integers(2, 6))
            scen = QuantizationScenario(
                sigma2=float(rng.uniform(0.2, 2.0)),
                delta2=float(rng.uniform(0.2, 2.0)),
                n=int(rng.integers(1, 9)),
                p=p,
                mu=rng.standard_normal(p),
            )
            xbar = rng.standard_normal(p)
            via_scalar = posterior_xi_fixed_mu(xbar, scen)
            prior = GaussianPrior.full(scen.mu, scen.delta2 * np.eye(p))
            via_general = posterior_mean_general(xbar, scen.n, scen.sigma2 * np.eye(p), prior)
            assert_allclose(via_scalar.mean, via_general.mean, atol=1e-12)

    def test_requires_fixed_center_and_positive_delta2(self, rng):
        random_scen = QuantizationScenario(sigma2=1.0, delta2=1.0, n=2, p=2, theta=np.zeros(2), psi=np.eye(2))
        with pytest.raises(ValueError, match="fixed"):
            posterior_xi_fixed_mu(np.zeros(2), random_scen)
        zero_delta = QuantizationScenario(sigma2=1.0, delta2=0.0, n=2, p=2, mu=np.zeros(2))
        with pytest.raises(ValueError, match="delta2 > 0"):
            posterior_xi_fixed_mu(np.zeros(2), zero_delta)


class TestRandomCenter:
    def test_equal_precision_average_with_inflated_prior(self, rng):
        x = rng.standard_normal(3)
        scen = QuantizationScenario(sigma2=2.0, delta2=1.0, n=1, p=3, theta=np.zeros(3), psi=np.eye(3))
        out = posterior_xi_random_mu(x, scen)
        assert_allclose(out.mean, x / 2, atol=1e-12)

    def test_zero_rounding_reduces_to_plain_posterior(self, rng):
        psi = random_spd(rng, 3)
        theta = rng.standard_normal(3)
        xbar = rng.standard_normal(3)
        scen = QuantizationScenario(sigma2=0.8, delta2=0.0, n=4, p=3, theta=theta, psi=psi)
        out = posterior_xi_random_mu(xbar, scen)
        plain = posterior_mean_general(xbar, 4, 0.8 * np.eye(3), GaussianPrior.full(theta, psi))
        assert_allclose(out.mean, plain.mean, atol=0)

    def test_additive_covariance_oracle(self, rng):
        for _ in range(25):
            p = int(rng.integers(2, 6))
            psi = random_spd(rng, p)
            scen = QuantizationScenario(
                sigma2=float(rng.uniform(0.2, 2.0)),
                delta2=float(rng.uniform(0.0, 2.0)),
                n=int(rng.integers(1, 9)),
                p=p,
                theta=rng.standard_normal(p),
                psi=psi,
            )
            xbar = rng.standard_normal(p)
            out = posterior_xi_random_mu(xbar, scen)
            manual_prior = GaussianPrior.full(scen.theta, psi + scen.delta2 * np.eye(p))
            manual = posterior_mean_general(xbar, scen.n, scen.sigma2 * np.eye(p), manual_prior)
            assert_allclose(out.mean, manual.mean, atol=1e-12)

    def test_shrinkage_weakens_as_rounding_grows(self, rng):
        psi = random_spd(rng, 3)
        theta = rng.standard_normal(3)
        xbar = theta + rng.standard_normal(3) * 2.0
        gaps = []
        for delta2 in (0.0, 0.5, 1.0, 4.0, 16.0):
            scen = QuantizationScenario(sigma2=1.0, delta2=delta2, n=3, p=3, theta=theta, psi=psi)
            out = posterior_xi_random_mu(xbar, scen)
            gaps.append(np.linalg.norm(out.mean - xbar))
        assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))


class TestScenarioValidation:
    def test_exactly_one_center_spec(self):
        with pytest.raises(ValueError, match="either mu"):
            QuantizationScenario(sigma2=1.0, delta2=1.0, n=1, p=2)
        with pytest.raises(ValueError, match="either mu"):
            QuantizationScenario(sigma2=1.0, delta2=1.0, n=1, p=2, mu=np.zeros(2), theta=np.zeros(2), psi=np.eye(2))

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            QuantizationScenario(sigma2=0.0, delta2=1.0, n=1, p=2, mu=np.zeros(2))
        with pytest.raises(ValueError):
            QuantizationScenario(sigma2=1.0, delta2=-0.1, n=1, p=2, mu=np.zeros(2))


class TestDemo:
    def test_flat_prior_washes_out(self):
        scen = fixed_scenario(delta2=0.0, n=20, p=3)
        report = demo_quantization(scen, seed=4, replications=500, fit_delta2=1e6)
        # Posterior is essentially the sample mean: same error to within 0.1%.
        gap = abs(report["mse_posterior"] - report["mse_naive"]) / report["mse_naive"]
        assert gap < 1e-3

    def test_deterministic(self):
        scen = fixed_scenario()
        a = demo_quantization(scen, seed=12, replications=300)
        b = demo_quantization(scen, seed=12, replications=300)
        assert a == b

    def test_posterior_beats_naive(self):
        scen = fixed_scenario(sigma2=1.0, delta2=1.0, n=10, p=5)
        report = demo_quantization(scen, seed=1, replications=10_000)
        assert report["mse_posterior"] < report["mse_naive"]
        # Theory: per-coordinate Bayes risk 1/(n/sigma2 + 1/delta2) vs sigma2/n.
        assert report["mse_posterior"] == pytest.approx(5 / 11, rel=0.05)
        assert report["mse_naive"] == pytest.approx(5 / 10, rel=0.05)

    def test_random_center_demo(self):
        scen = QuantizationScenario(sigma2=1.0, delta2=0.5, n=8, p=3, theta=np.zeros(3), psi=0.5 * np.eye(3))
        report = demo_quantization(scen, seed=2, replications=4000)
        assert report["mse_posterior"] < report["mse_naive"]
        assert report["scenario"]["center"] == "random"

    @pytest.mark.parametrize("random_center", [False, True])
    def test_rejects_a_negative_fit_delta2(self, random_center):
        if random_center:
            scen = QuantizationScenario(sigma2=1.0, delta2=0.5, n=4, p=2, theta=np.zeros(2), psi=2.0 * np.eye(2))
        else:
            scen = fixed_scenario(p=2)
        with pytest.raises(ValueError, match="fit_delta2 must be nonnegative, got -0.5"):
            demo_quantization(scen, seed=1, replications=10, fit_delta2=-0.5)

    @pytest.mark.parametrize("fit_delta2", [None, 0.0])
    def test_refuses_a_zero_rounding_variance_before_drawing(self, fit_delta2):
        # One reps x p draw alone would take 16 MB here; the refusal must come first.
        scen = fixed_scenario(delta2=0.0 if fit_delta2 is None else 1.0, n=50, p=20)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^the fixed-center posterior requires delta2 > 0$"):
                demo_quantization(scen, seed=1, replications=100_000, fit_delta2=fit_delta2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_estimates_with_the_library_posterior(self, monkeypatch):
        import rlda.quantization as quantization

        calls = []
        for name in ("posterior_xi_fixed_mu", "posterior_xi_random_mu"):
            real = getattr(quantization, name)
            spy = lambda xbar, scen, name=name, real=real: calls.append((name, xbar.shape, scen.delta2)) or real(xbar, scen)
            monkeypatch.setattr(quantization, name, spy)
        random_scen = QuantizationScenario(sigma2=0.6, delta2=0.5, n=4, p=3, theta=np.ones(3), psi=2.0 * np.eye(3))
        demo_quantization(fixed_scenario(n=4, p=3), seed=5, replications=40, fit_delta2=0.8)
        demo_quantization(random_scen, seed=5, replications=40)
        assert calls == [("posterior_xi_fixed_mu", (40, 3), 0.8), ("posterior_xi_random_mu", (40, 3), 0.5)]

    def test_blocks_reproduce_one_draw(self, monkeypatch):
        # Drawing the observations block by block leaves every seeded result unchanged.
        import rlda.quantization as quantization

        scenarios = [
            fixed_scenario(sigma2=1.7, n=4, p=3),
            QuantizationScenario(sigma2=0.6, delta2=0.5, n=4, p=3, theta=np.ones(3), psi=2.0 * np.eye(3)),
        ]
        whole = [demo_quantization(scen, seed=9, replications=51) for scen in scenarios]  # one block
        monkeypatch.setattr(quantization, "_NOISE_BLOCK_VALUES", 25)  # two replications per block
        assert [demo_quantization(scen, seed=9, replications=51) for scen in scenarios] == whole

    @pytest.mark.parametrize("random_center", [False, True])
    def test_memory_does_not_grow_with_n(self, random_center):
        # 2000 replications of n=500 draws in p=50 take 400 MB as one
        # reps x n x p block of observations.
        p = 50
        if random_center:
            scen = QuantizationScenario(sigma2=1.0, delta2=0.5, n=500, p=p, theta=np.zeros(p), psi=np.eye(p))
        else:
            scen = fixed_scenario(n=500, p=p)
        tracemalloc.start()
        try:
            demo_quantization(scen, seed=3, replications=2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: QuantizationScenario(sigma2=1.0, delta2=0.1, n=5, p=3, mu=np.zeros(2)),
            "mu must be a length-p vector",
            id="mu-length",
        ),
        pytest.param(
            lambda: QuantizationScenario(sigma2=1.0, delta2=0.1, n=5, p=3, mu=[0.0, np.nan, 0.0]),
            "mu must be finite, got nan",
            id="mu-non-finite",
        ),
        pytest.param(
            lambda: QuantizationScenario(sigma2=1.0, delta2=0.1, n=5, p=2, theta=[0.0, np.nan], psi=np.eye(2)),
            "theta must be finite, got nan",
            id="theta-non-finite",
        ),
        pytest.param(
            lambda: QuantizationScenario(
                sigma2=1.0, delta2=0.1, n=5, p=2, theta=np.zeros(2), psi=[[1.0, np.nan], [np.nan, 1.0]]
            ),
            "psi must be finite, got nan",
            id="psi-non-finite",
        ),
        pytest.param(
            lambda: QuantizationScenario(sigma2=1.0, delta2=0.1, n=5, p=3, theta=np.zeros(3)),
            "the random-center form needs both theta and psi",
            id="random-no-psi",
        ),
        pytest.param(
            lambda: QuantizationScenario(sigma2=1.0, delta2=0.1, n=5, p=3, theta=np.zeros(2), psi=np.eye(3)),
            "theta must be length p and psi p x p",
            id="theta-length",
        ),
        pytest.param(
            lambda: QuantizationScenario(sigma2=1.0, delta2=0.1, n=5, p=3, theta=np.zeros(3), psi=np.eye(2)),
            "theta must be length p and psi p x p",
            id="psi-shape",
        ),
        pytest.param(
            lambda: posterior_xi_random_mu(np.zeros(3), QuantizationScenario(1.0, 0.1, 5, 3, mu=np.zeros(3))),
            "scenario must carry a random center (theta, psi)",
            id="random-posterior-on-fixed",
        ),
        pytest.param(
            lambda: demo_quantization(QuantizationScenario(1.0, 0.1, 5, 3, mu=np.zeros(3)), seed=0, replications=0),
            "replications must be at least 1, got 0",
            id="replications",
        ),
    ],
)
def test_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
