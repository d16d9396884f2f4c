import re

import numpy as np
import pytest

from rlda._linalg import require_count, require_lower_bound
from rlda.bayes import (
    GaussianPrior,
    james_stein,
    posterior_mean_conjugate_scalar,
    posterior_mean_general,
    posterior_mean_univariate,
    two_sample_posterior_means,
)
from rlda.covariance import SpectralCovariance
from rlda.datamodel import GroupedDataset, SimulationConfig, sparse_shift
from rlda.quantization import QuantizationScenario, demo_quantization
from rlda.regmeans import MeanRegularizer, hard_threshold_scalar, soft_threshold_scalar
from rlda.selection import CvConfig, CvResult, make_folds


class TestLowerBoundRule:
    @pytest.mark.parametrize(
        "value, kwargs, expected",
        [(1, {"least": 1}, 1.0), (7, {"least": 2}, 7.0), (0.0, {}, 0.0), (5e-324, {"positive": True}, 5e-324)],
    )
    def test_accepts_the_bound_and_returns_a_float(self, value, kwargs, expected):
        result = require_lower_bound(value, "x", **kwargs)
        assert result == expected and type(result) is float

    @pytest.mark.parametrize(
        "value, kwargs, message",
        [
            (0, {"least": 1}, "n must be at least 1, got 0"),
            (1.5, {"least": 2}, "n must be at least 2, got 1.5"),
            (-0.5, {}, "n must be nonnegative, got -0.5"),
            (0.0, {"positive": True}, "n must be positive, got 0.0"),
            (-3, {"positive": True}, "n must be positive, got -3"),
            (float("nan"), {"least": 1}, "n must be finite, got nan"),
            (float("inf"), {}, "n must be finite, got inf"),
            (-np.inf, {"positive": True}, "n must be finite, got -inf"),
        ],
    )
    def test_refusal_names_the_bound_and_the_value(self, value, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            require_lower_bound(value, "n", **kwargs)


class TestCountRule:
    @pytest.mark.parametrize("value", [3, 3.0, np.int64(3)])
    def test_accepts_a_whole_number_and_returns_an_int(self, value):
        result = require_count(value, "folds", 2)
        assert result == 3 and type(result) is int

    @pytest.mark.parametrize(
        "value, message",
        [
            (2.5, "folds must be an integer, got 2.5"),
            (1, "folds must be at least 2, got 1"),
            (float("nan"), "folds must be finite, got nan"),
        ],
    )
    def test_refusal_names_the_count_and_the_value(self, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            require_count(value, "folds", 2)

    @pytest.mark.parametrize(
        "call",
        [lambda v: CvConfig(folds=v), lambda v: make_folds(_TWO_GROUPS, v, seed=0)],
        ids=["cv-config", "make-folds"],
    )
    def test_a_non_integer_fold_count_is_refused_by_name(self, call):
        with pytest.raises(ValueError, match=f"^{re.escape('folds must be an integer, got 2.5')}$"):
            call(2.5)


def _prior():
    return GaussianPrior.full(np.zeros(2), np.eye(2))


def _scenario(**fields):
    valid = dict(sigma2=1.0, delta2=0.1, n=5, p=3, mu=np.zeros(3))
    return QuantizationScenario(**{**valid, **fields})


def _simulation(**fields):
    valid = dict(n=2, m=2, p=2, sigma=1.0, c=0.5, shift=np.zeros(2), seed=0)
    return SimulationConfig(**{**valid, **fields})


def _cv_result(**fields):
    valid = dict(best_lambda=0.5, best_delta=None, accuracy_mean=0.9, accuracy_sd=0.1, n_selected_variables=3, table=())
    return CvResult(**{**valid, **fields})


_TWO_GROUPS = GroupedDataset(np.arange(16.0).reshape(8, 2), np.repeat([0, 1], 4), ("a", "b"))

# Every scalar lower bound of the library: a call taking the checked value, its name, a value below the
# bound and the bound's wording.
LOWER_BOUND_SITES = [
    pytest.param(lambda v: posterior_mean_general(np.ones(2), v, np.eye(2), _prior()), "sample count n", 0,
                 "at least 1", id="bayes-general-n"),
    pytest.param(lambda v: two_sample_posterior_means(np.ones(2), np.ones(2), 3, v, np.eye(2), _prior()),
                 "sample count m", 0, "at least 1", id="bayes-two-sample-m"),
    pytest.param(lambda v: posterior_mean_conjugate_scalar(np.ones(2), 3, v, np.zeros(2)), "c", 0.0, "positive",
                 id="bayes-c"),
    pytest.param(lambda v: posterior_mean_univariate(1.0, v, 1.0, 0.0, 1.0), "n", 0, "at least 1",
                 id="bayes-univariate-n"),
    pytest.param(lambda v: posterior_mean_univariate(1.0, 3, v, 0.0, 1.0), "sigma2", 0.0, "positive",
                 id="bayes-univariate-sigma2"),
    pytest.param(lambda v: posterior_mean_univariate(1.0, 3, 1.0, 0.0, v), "gamma2", -1.0, "positive",
                 id="bayes-univariate-gamma2"),
    pytest.param(lambda v: james_stein(np.ones(3), v), "sigma2", 0.0, "positive", id="bayes-james-stein-sigma2"),
    pytest.param(lambda v: SpectralCovariance(np.eye(2), np.ones(2), v, 0.0, 0.5), "spread", 0.0, "positive",
                 id="covariance-spread"),
    pytest.param(lambda v: _simulation(n=v), "n", 0, "at least 1", id="simulation-n"),
    pytest.param(lambda v: _simulation(m=v), "m", 0, "at least 1", id="simulation-m"),
    pytest.param(lambda v: _simulation(p=v), "p", 0, "at least 1", id="simulation-p"),
    pytest.param(lambda v: _simulation(sigma=v), "sigma", 0.0, "positive", id="simulation-sigma"),
    pytest.param(lambda v: sparse_shift(v), "p", 0, "at least 1", id="sparse-shift-p"),
    pytest.param(lambda v: _scenario(sigma2=v), "sigma2", 0.0, "positive", id="scenario-sigma2"),
    pytest.param(lambda v: _scenario(delta2=v), "delta2", -0.1, "nonnegative", id="scenario-delta2"),
    pytest.param(lambda v: _scenario(n=v), "n", 0, "at least 1", id="scenario-n"),
    pytest.param(lambda v: _scenario(p=v), "p", 0, "at least 1", id="scenario-p"),
    pytest.param(lambda v: demo_quantization(_scenario(), seed=0, replications=v), "replications", 0, "at least 1",
                 id="demo-replications"),
    pytest.param(lambda v: demo_quantization(_scenario(), seed=0, replications=10, fit_delta2=v), "fit_delta2",
                 -0.5, "nonnegative", id="demo-fit-delta2"),
    pytest.param(lambda v: MeanRegularizer("hard", v), "threshold", -0.1, "nonnegative", id="mean-rule-threshold"),
    pytest.param(lambda v: soft_threshold_scalar(1.0, v), "delta", -0.1, "nonnegative", id="soft-threshold-delta"),
    pytest.param(lambda v: hard_threshold_scalar(1.0, v), "delta", -0.1, "nonnegative", id="hard-threshold-delta"),
    pytest.param(lambda v: CvConfig(folds=v), "folds", 1, "at least 2", id="cv-config-folds"),
    pytest.param(lambda v: make_folds(_TWO_GROUPS, v, seed=0), "folds", 1, "at least 2", id="make-folds-folds"),
    pytest.param(lambda v: _cv_result(accuracy_sd=v), "accuracy_sd", -0.1, "nonnegative", id="cv-result-sd"),
    pytest.param(lambda v: _cv_result(n_selected_variables=v), "n_selected_variables", -1, "nonnegative",
                 id="cv-result-selected"),
]


@pytest.mark.parametrize("call, name, low, bound", LOWER_BOUND_SITES)
def test_every_lower_bound_names_its_bound_and_value(call, name, low, bound):
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be {bound}, got {low}')}$"):
        call(low)


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("call, name, low, bound", LOWER_BOUND_SITES)
def test_every_lower_bound_refuses_a_non_finite_value(call, name, low, bound, value):
    # The mean rule refuses a non-finite delta under its own name before its threshold bound is reached.
    name = "hard mean-rule threshold delta" if name == "threshold" else name
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be finite, got {value}')}$"):
        call(value)
