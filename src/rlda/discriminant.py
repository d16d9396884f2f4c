"""Regularized linear discriminant analysis on a shrunken covariance kernel.

The discriminant score of group ``k`` at a query point ``z`` is

    score_k(z) = m_k^T M^-1 z - 0.5 m_k^T M^-1 m_k + log pi_k,

with ``m_k`` the (possibly regularized) group mean and ``M`` the
regularized kernel. Adding the class-independent ``-0.5 z^T M^-1 z``
shows that maximizing the score is the same as minimizing
``0.5 (m_k - z)^T M^-1 (m_k - z) - log pi_k``.

A label therefore depends on a fitted model only through its linear
discriminant (Guo, Hastie & Tibshirani 2007): the weights
``a = M^-1 m^T`` (``p x K``, the per-variable coefficients of each
group), ``quad_k = m_k^T a_k`` and ``log pi``. :func:`linear_discriminant`
computes that triple once for either route, given a solver that applies
``M^-1`` (the routes differ in the solver alone), and every classifier
here scores through the resulting :class:`LinearDiscriminant`. A saved
model is that object too, so ``rlda predict`` scores from the stored
discriminant without rebuilding a kernel. The score expression itself
lives in :func:`_score_blocks`, which the cross-validation grid also calls
with the two blocks it builds in a spectral kernel's eigenbasis.

Two fitting routes are provided. The target-shrinkage route (``fit``)
keeps whichever covariance form the kernel rule,
:func:`~rlda.covariance._shrinkage_kernel`, picks for a single intensity:
a :class:`~rlda.covariance.SpectralCovariance` or the Cholesky factor of
the dense blend. The SVD route for the ridge form decomposes the
pooled-mean-centered ``n x p`` data matrix ``Xc`` (the
``"gram-pooled-mean"`` rows of :func:`~rlda.covariance._centered_rows`)
instead of the ``p x p`` covariance, through the spectrum primitive the
fold kernel uses (:func:`~rlda.covariance._spectrum`), and holds the
result as the same spectral object: ``lam Xc^T Xc + (1 - lam) I`` is the
identity blend at ``1 - lam`` on the eigenpairs of ``Xc^T Xc``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import (
    GRAM_POOLED_MEAN,
    WITHIN_GROUP,
    RegularizedCovariance,
    ShrinkageTarget,
    SpectralCovariance,
    _centered_rows,
    _low_rank_solver,
    _shrinkage_kernel,
    _spectrum,
    pooled_covariance,
    shrink_covariance,
)
from .datamodel import GroupedDataset, GroupMeans, group_means
from .regmeans import MeanRegularizer, RegularizedMeans, regularize_means

__all__ = [
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
    "resolve_priors",
    "svd_ridge_sq_distances",
]


def resolve_priors(spec, counts: np.ndarray) -> np.ndarray:
    """Turn a priors argument into a validated probability vector.

    ``"empirical"`` gives the group proportions, ``"uniform"`` equal
    weights; anything array-like is validated (finite, strictly positive,
    summing to one within 1e-8) and exactly renormalized.
    """
    k = len(counts)
    if isinstance(spec, str):
        if spec == "empirical":
            pri = counts / counts.sum()
        elif spec == "uniform":
            pri = np.full(k, 1.0 / k)
        else:
            raise ValueError(f"unknown priors spec {spec!r}")
    else:
        pri = np.asarray(spec, dtype=float).reshape(-1)
        if pri.shape != (k,):
            raise ValueError(f"priors must have length {k}")
        bad = pri[~np.isfinite(pri)]
        if bad.size:
            raise ValueError(f"priors must be finite, got {bad[0]}")
        if np.any(pri <= 0):
            raise ValueError("priors must be strictly positive")
        if abs(pri.sum() - 1.0) > 1e-8:
            raise ValueError(f"priors must sum to 1, got {pri.sum()}")
    return pri / pri.sum()


@dataclass(frozen=True)
class RldaModel:
    """A fitted classifier: regularized means, shrunk covariance, priors."""

    reg_means: RegularizedMeans
    pooled_mean: np.ndarray
    cov: RegularizedCovariance | SpectralCovariance
    priors: np.ndarray
    group_names: tuple[str, ...]
    config: dict

    def __post_init__(self):
        priors = np.asarray(self.priors, dtype=float)
        if not (np.all(priors > 0) and abs(priors.sum() - 1.0) <= 1e-12):  # nan and inf fail it too
            raise ValueError("priors must be strictly positive and sum to 1")
        k, p = self.reg_means.per_group.shape
        if priors.shape != (k,) or self.pooled_mean.shape != (p,) or self.cov.p != p:
            raise ValueError("inconsistent dimensions between means, priors, and covariance")
        priors.setflags(write=False)
        object.__setattr__(self, "priors", priors)

    @property
    def p(self) -> int:
        return self.pooled_mean.shape[0]


def fit(
    data: GroupedDataset,
    target: ShrinkageTarget,
    lam: float,
    mean_reg: MeanRegularizer | None = None,
    priors_spec="empirical",
) -> RldaModel:
    """Fit the target-shrinkage classifier.

    Computes group and pooled means, applies the mean regularizer, and
    shrinks the within-group pooled covariance toward ``target`` with
    intensity ``lam``, in the form that
    :func:`~rlda.covariance._shrinkage_kernel` picks for one intensity.

    Raises
    ------
    NotPositiveDefiniteError
        If the blended covariance is not positive definite, for instance
        ``lam = 0`` with singular ``S`` (recoverable; try a larger ``lam``).
    ValueError
        On fewer than two groups or invalid priors.
    """
    if data.n_groups < 2:
        raise ValueError("classification needs at least 2 groups")
    mean_reg = mean_reg or MeanRegularizer.none()
    means = group_means(data)
    reg = regularize_means(means, mean_reg)
    (kernel,) = _shrinkage_kernel(data, means, (target,), 1)
    cov = kernel(lam)
    priors = resolve_priors(priors_spec, data.group_counts)
    config = {
        "target": target.describe(),
        "lambda": float(lam),
        "mean_reg": mean_reg.kind,
        "delta": float(mean_reg.delta),
        "priors": priors_spec if isinstance(priors_spec, str) else "custom",
    }
    return RldaModel(
        reg_means=reg,
        pooled_mean=means.pooled,
        cov=cov,
        priors=priors,
        group_names=data.group_names,
        config=config,
    )


def _as_query_matrix(z) -> tuple[np.ndarray, bool]:
    z = np.asarray(z, dtype=float)
    if z.ndim == 1:
        return z[None, :], True
    if z.ndim == 2:
        return z, False
    raise ValueError("query must be a p-vector or an (m, p) matrix")


def _linear_terms(solve, means_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(a, quad)`` with ``a = solve(m^T)`` and ``quad = sum(m^T * a)``, for the ``p x K`` block ``m^T``."""
    a = solve(means_t)
    return a, np.sum(means_t * a, axis=0)


def _scores(solve, means_t: np.ndarray, queries: np.ndarray, log_priors: np.ndarray) -> np.ndarray:
    """Scores of every column of ``m^T`` at the ``m x p`` queries ``Z``; see :func:`_score_blocks`.

    For column blocks that are no model's groups, such as the
    cross-validation grid's every (mean rule, group) cell at once.
    """
    a, quad = _linear_terms(solve, means_t)
    return _score_blocks(queries @ a, quad, log_priors)


def _score_blocks(cross: np.ndarray, quad: np.ndarray, log_priors: np.ndarray) -> np.ndarray:
    """``Z a - 0.5 sum(m^T * a) + log pi`` from the ``m x K`` block ``cross = Z a`` and ``quad = sum(m^T * a)``.

    ``a = M^-1 m^T``; a caller that has both blocks without ``a`` itself
    (the cross-validation grid, in a kernel's eigenbasis) scores here too.
    """
    return cross - 0.5 * quad + log_priors


def _best(scores: np.ndarray, single: bool):
    """Highest-scoring group per query; ties go to the smallest index."""
    labels = np.argmax(scores, axis=1)
    return int(labels[0]) if single else labels


@dataclass(frozen=True)
class LinearDiscriminant:
    """A fitted classifier reduced to what its labels depend on.

    ``score_k(z) = z^T a_k - 0.5 quad_k + log pi_k`` with ``weights = a``
    (``p x K``), ``quad`` (``K``) and ``log_priors`` (``K``). Built by
    :func:`linear_discriminant` from a fitted model, or read from a model
    document by :func:`~rlda.serialize.load_model`. Construction checks
    that the arrays agree on ``K``, are finite, and that the priors form a
    probability vector.
    """

    weights: np.ndarray
    quad: np.ndarray
    log_priors: np.ndarray
    group_names: tuple[str, ...]

    def __post_init__(self):
        fields = {name: np.array(getattr(self, name), dtype=float) for name in ("weights", "quad", "log_priors")}
        weights, quad, log_priors = fields.values()
        k = len(self.group_names)
        if weights.ndim != 2 or weights.shape[1] != k or quad.shape != (k,) or log_priors.shape != (k,):
            raise ValueError(
                f"weights {weights.shape}, quad {quad.shape}, log_priors {log_priors.shape} "
                f"and {k} group names disagree on K or p"
            )
        for name, values in fields.items():
            bad = values[~np.isfinite(values)]
            if bad.size:
                raise ValueError(f"{name} must be finite, got {bad[0]}")
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        total = np.exp(log_priors).sum()
        if abs(total - 1.0) > 1e-12 * k:
            raise ValueError(f"log_priors must exponentiate to a probability vector, got a sum of {total}")
        object.__setattr__(self, "group_names", tuple(self.group_names))

    @property
    def p(self) -> int:
        return self.weights.shape[0]

    @property
    def priors(self) -> np.ndarray:
        return np.exp(self.log_priors)

    def scores(self, z) -> np.ndarray:
        """Scores of every group at ``z``: ``(K,)`` for a p-vector, ``(m, K)`` for an ``(m, p)`` matrix."""
        queries, single = _as_query_matrix(z)
        scores = _score_blocks(queries @ self.weights, self.quad, self.log_priors)
        return scores[0] if single else scores

    def classify(self, z):
        """Group index (0-based) with the highest score; ties go to the smallest index."""
        queries, single = _as_query_matrix(z)
        return _best(self.scores(queries), single)


def _discriminant(solve, means: np.ndarray, priors: np.ndarray, group_names) -> LinearDiscriminant:
    """The discriminant of the ``K x p`` ``means`` under the kernel that ``solve`` inverts."""
    a, quad = _linear_terms(solve, means.T)
    return LinearDiscriminant(a, quad, np.log(priors), group_names)


def linear_discriminant(model, delta: float | None = None, priors_spec=None) -> LinearDiscriminant:
    """The linear discriminant ``(a, quad, log pi)`` of a fitted model.

    An :class:`RldaModel` fixes its mean rule and priors at fit time, so
    ``delta`` and ``priors_spec`` must be left out. An
    :class:`SvdRidgeModel` scores the l2 blend of its means at ``delta``
    (default 0) under the priors ``priors_spec`` (default
    ``"empirical"``; see :func:`resolve_priors`).
    """
    if isinstance(model, RldaModel):
        if delta is not None or priors_spec is not None:
            raise ValueError("a target-shrinkage model fixes its mean rule and priors at fit time")
        return _discriminant(model.cov.solve, model.reg_means.per_group, model.priors, model.group_names)
    priors = resolve_priors("empirical" if priors_spec is None else priors_spec, model.means.counts)
    blended = model.blended_means(0.0 if delta is None else delta)
    return _discriminant(_ridge_solver(model), blended.per_group, priors, model.group_names)


def discriminant_scores(model: RldaModel, z) -> np.ndarray:
    """Scores of every group at ``z`` (a p-vector, or a matrix of queries).

    Returns a ``(K,)`` vector for a single query, ``(m, K)`` for a batch.
    Evaluated through the model's :func:`linear_discriminant`.
    """
    return linear_discriminant(model).scores(z)


def classify(model: RldaModel, z):
    """Group index (0-based) with the highest score; ties go to the smallest index."""
    return linear_discriminant(model).classify(z)


def classify_alg1(
    data: GroupedDataset,
    target: ShrinkageTarget,
    lam: float,
    delta: float,
    priors_spec,
    z,
    s_convention: str = WITHIN_GROUP,
):
    """One-shot Cholesky classification with pooled-mean-blended group means.

    Builds ``Sred = (1 - lam) S + lam T``, factorizes it, and assigns ``z``
    to the highest score of the blended means
    ``(1 - delta) mean_k + delta pooled`` (the ``l2`` mean rule), which is
    the group minimizing ``0.5 (m_k - z)^T Sred^-1 (m_k - z) - log pi_k``.
    ``s_convention`` selects the scaling of ``S``.
    """
    means = group_means(data)
    blended = regularize_means(means, MeanRegularizer("l2", delta)).per_group
    s = pooled_covariance(data, means, s_convention)
    solve = shrink_covariance(s, target, lam).solve
    priors = resolve_priors(priors_spec, data.group_counts)
    return _discriminant(solve, blended, priors, data.group_names).classify(z)


@dataclass(frozen=True)
class SvdRidgeModel:
    """The ridge kernel of the pooled-mean-centered data, for ridge scoring.

    ``cov`` is the :class:`~rlda.covariance.SpectralCovariance` of
    ``lam * Xc^T Xc + (1 - lam) I``: the ``r`` eigenpairs ``(vt, eig)`` of
    ``Xc^T Xc`` that :func:`~rlda.covariance._spectrum` keeps, blended
    with the identity at ``1 - lam``. When ``n < p``, pooled centering
    leaves ``Xc`` rank ``n - 1``, so ``r = n - 1`` on generic data and the
    other ``p - r`` directions, where the kernel is ``(1 - lam) I``, are
    handled implicitly; otherwise ``r = p``. ``mode`` selects the scoring
    rule: ``"exact"`` applies ``cov.solve``, ``"paper-literal"`` whitens the
    projections on the ``r`` directions with the column variances instead
    of the eigenvalues and drops the rest (kept as a diagnostic; the j-th
    column variance is paired with the j-th eigenvector, so the two rules
    coincide only for standardized columns and small ``lam``).
    """

    cov: SpectralCovariance
    column_variances: np.ndarray
    lam: float
    mode: str
    means: GroupMeans
    group_names: tuple[str, ...]

    def __post_init__(self):
        if self.mode not in ("exact", "paper-literal"):
            raise ValueError(f"unknown mode {self.mode!r}")
        column_var = np.asarray(self.column_variances, dtype=float)
        column_var.setflags(write=False)
        object.__setattr__(self, "column_variances", column_var)

    @property
    def p(self) -> int:
        return self.cov.p

    def blended_means(self, delta: float) -> RegularizedMeans:
        """``(1 - delta) mean_k + delta pooled``: the l2 rule at ``delta``, the means this model scores."""
        return regularize_means(self.means, MeanRegularizer("l2", delta))


def _ridge_kernel(vt: np.ndarray, sv: np.ndarray, lam: float) -> SpectralCovariance:
    """``lam Xc^T Xc + (1 - lam) I`` from the singular values ``sv`` of ``Xc`` and its right singular vectors ``vt``.

    The kernel's eigenvalues are ``sv^2``; a model file stores ``sv``, and
    ``sqrt(sv^2) == sv``, so a saved kernel reloads bit for bit.
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError("lam must lie in [0, 1) for the ridge form")
    return SpectralCovariance(vt, sv**2, 1.0, 0.0, 1.0 - lam)


def fit_svd_ridge(data: GroupedDataset, lam: float, mode: str = "exact") -> SvdRidgeModel:
    """Factorize the pooled-mean-centered data matrix for ridge classification.

    The ridge kernel is ``lam * S + (1 - lam) I`` with ``S`` the
    unnormalized Gram matrix ``Xc^T Xc`` of the pooled-mean-centered rows
    of :func:`~rlda.covariance._centered_rows`. The
    eigenpairs of ``S`` from :func:`~rlda.covariance._spectrum` (``eigh``
    of the ``n x n`` ``Xc Xc^T`` when ``n < p``) provide everything needed
    to apply the kernel's inverse without forming a ``p x p`` matrix.
    ``"paper-literal"`` mode requires ``n < p``; ``"exact"`` mode accepts
    any shape.
    """
    if data.n_groups < 2:
        raise ValueError("classification needs at least 2 groups")
    if mode == "paper-literal" and data.n >= data.p:
        raise ValueError("paper-literal mode is defined for n < p")
    means = group_means(data)
    centered, dof = _centered_rows(data, means, GRAM_POOLED_MEAN)
    vt, eig = _spectrum(centered, dof)
    column_var = centered.var(axis=0, ddof=1) if data.n > 1 else np.zeros(data.p)
    return SvdRidgeModel(
        cov=_ridge_kernel(vt, np.sqrt(eig), lam),
        column_variances=column_var,
        lam=lam,
        mode=mode,
        means=means,
        group_names=data.group_names,
    )


def _ridge_solver(model: SvdRidgeModel):
    """Solver of the model's kernel, for ``p x k`` blocks.

    Exact mode is ``model.cov.solve``; ``"paper-literal"`` swaps the
    in-span weights for ``1 / (lam colvar_j + 1 - lam)`` and drops the
    residual term.
    """
    if model.mode == "exact":
        return model.cov.solve
    vt = model.cov.vt
    lam = model.lam
    return _low_rank_solver(vt, 1.0 / (lam * model.column_variances[: vt.shape[0]] + 1.0 - lam), 0.0)


def svd_ridge_sq_distances(model: SvdRidgeModel, delta: float, z) -> np.ndarray:
    """Squared kernel distances from ``z`` to every blended group mean.

    In exact mode this equals ``d^T (lam Xc^T Xc + (1-lam) I)^-1 d`` for
    ``d = (1 - delta) mean_k + delta pooled - z``. Returns ``(K,)`` for a
    single query, ``(m, K)`` for a batch.
    """
    blended = model.blended_means(delta).per_group
    queries, single = _as_query_matrix(z)
    solve = _ridge_solver(model)
    diffs = (row - queries for row in blended)  # d = m_k - z, one group at a time
    dist = np.column_stack([np.sum(d * solve(d.T).T, axis=1) for d in diffs])
    return dist[0] if single else dist


def classify_alg2(model: SvdRidgeModel, delta: float, priors_spec, z):
    """Assign ``z`` to the group minimizing ``0.5 dist_k - log pi_k`` (the highest score)."""
    return linear_discriminant(model, delta, priors_spec).classify(z)
