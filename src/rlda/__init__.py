"""Bayesian shrinkage estimation and regularized linear discriminant analysis.

The package covers four connected pieces of machinery:

* closed-form Gaussian posterior means and the James-Stein estimator
  (:mod:`rlda.bayes`),
* the equivalence between estimation under parameter rounding and Bayesian
  estimation with an inflated prior (:mod:`rlda.quantization`),
* covariance shrinkage toward well-conditioned targets plus regularized
  group means (:mod:`rlda.covariance`, :mod:`rlda.regmeans`),
* regularized LDA classifiers on spectral kernels (every fixed target and
  the SVD ridge form) or a Cholesky factor (a custom target), with
  cross-validated hyperparameter selection (:mod:`rlda.discriminant`,
  :mod:`rlda.selection`).

Set ``RLDA_THREADS`` before launching Python (or the ``rlda`` CLI) to cap
the BLAS thread pool used by the linear algebra kernels. The cap holds for
SciPy's BLAS pool too: SciPy loads on the first dense Cholesky
factorization (:mod:`rlda._linalg`), after this package has set the
variables.
"""

import os as _os

# Must run before numpy loads its BLAS; keep this block first.
_threads = _os.environ.get("RLDA_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)
del _os, _threads

__version__ = "0.1.0"

from .datamodel import (
    GroupedDataset,
    GroupMeans,
    SimulationConfig,
    group_means,
    load_csv,
    simulate,
    sparse_shift,
)
from .bayes import (
    GaussianPrior,
    PosteriorSummary,
    james_stein,
    posterior_mean_conjugate_scalar,
    posterior_mean_general,
    posterior_mean_univariate,
    two_sample_posterior_means,
)
from .quantization import (
    QuantizationScenario,
    demo_quantization,
    posterior_xi_fixed_mu,
    posterior_xi_random_mu,
)
from .covariance import (
    NotPositiveDefiniteError,
    RegularizedCovariance,
    ShrinkageTarget,
    SpectralCovariance,
    lw_lambda,
    mahalanobis_sq,
    pooled_covariance,
    shrink_covariance,
)
from .regmeans import (
    MeanRegularizer,
    RegularizedMeans,
    hard_threshold_scalar,
    regularize_means,
    soft_threshold_scalar,
)
from .discriminant import (
    LinearDiscriminant,
    RldaModel,
    SvdRidgeModel,
    classify,
    classify_alg1,
    classify_alg2,
    discriminant_scores,
    fit,
    fit_svd_ridge,
    linear_discriminant,
)
from .selection import (
    CvConfig,
    CvResult,
    cross_validate,
    run_simulated_experiment,
)

__all__ = [
    "__version__",
    "GroupedDataset",
    "GroupMeans",
    "SimulationConfig",
    "group_means",
    "load_csv",
    "simulate",
    "sparse_shift",
    "GaussianPrior",
    "PosteriorSummary",
    "james_stein",
    "posterior_mean_conjugate_scalar",
    "posterior_mean_general",
    "posterior_mean_univariate",
    "two_sample_posterior_means",
    "QuantizationScenario",
    "demo_quantization",
    "posterior_xi_fixed_mu",
    "posterior_xi_random_mu",
    "NotPositiveDefiniteError",
    "RegularizedCovariance",
    "ShrinkageTarget",
    "SpectralCovariance",
    "lw_lambda",
    "mahalanobis_sq",
    "pooled_covariance",
    "shrink_covariance",
    "MeanRegularizer",
    "RegularizedMeans",
    "hard_threshold_scalar",
    "regularize_means",
    "soft_threshold_scalar",
    "LinearDiscriminant",
    "RldaModel",
    "SvdRidgeModel",
    "classify",
    "classify_alg1",
    "classify_alg2",
    "discriminant_scores",
    "fit",
    "fit_svd_ridge",
    "linear_discriminant",
    "CvConfig",
    "CvResult",
    "cross_validate",
    "run_simulated_experiment",
]
