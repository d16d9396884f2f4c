"""Pooled covariance estimation, shrinkage toward a target, and factor handles.

Two scalings of the pooled covariance ``S = R^T R / dof``, each stated once
by :func:`_centered_rows` as its centered rows ``R`` and divisor ``dof``;
:func:`pooled_covariance`, :func:`_spectrum`'s callers and the analytic
intensity all read them there:

- ``"within-group"``: group-mean-centered scatter divided by ``n - K``;
  the default estimator blended with a shrinkage target.
- ``"gram-pooled-mean"``: the unnormalized Gram matrix of pooled-mean-
  centered rows; the kernel of the SVD ridge classifier.

A regularized covariance is one of two objects with the same ``lam``,
``p``, ``matrix`` and ``solve``. :class:`RegularizedCovariance` keeps the
lower Cholesky factor of a dense blend, so solves and quadratic forms never
invert anything. :class:`SpectralCovariance` is the one spectral kernel:
``V diag(eig) V^T`` blended with a fixed target and inverted through its
eigenpairs, which :func:`_spectrum` takes from a centered row block. It
also holds the SVD ridge classifier. The ridge form ``lam S + (1 - lam) I``
has no function of its own: it is the identity blend at ``1 - lam``, dense
through :func:`shrink_covariance` or spectral on the spectrum of the
pooled-mean-centered rows. Which of the two forms a target-shrunk
covariance takes, in ``fit`` and in the cross-validation grid alike, is
decided by :func:`_shrinkage_kernel` alone.
Both build their dense ``matrix`` only when it is read, and both judge
``lam = 0`` (``M = S``) by one rank rule, with no jitter.

``DEFAULT_THETA2`` is the equal-correlation target's off-diagonal level
wherever none is given: :meth:`ShrinkageTarget.equal_correlation`, the
simulated experiment and the command line all read it here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._linalg import NotPositiveDefiniteError, cholesky_lower, ensure_symmetric, solve_cholesky
from .datamodel import GroupedDataset, GroupMeans, group_means

__all__ = [
    "NotPositiveDefiniteError",
    "RegularizedCovariance",
    "ShrinkageTarget",
    "SpectralCovariance",
    "lw_lambda",
    "mahalanobis_sq",
    "pooled_covariance",
    "shrink_covariance",
    "spectral_covariance",
]

WITHIN_GROUP = "within-group"
GRAM_POOLED_MEAN = "gram-pooled-mean"
DEFAULT_THETA2 = 0.15


@dataclass(frozen=True)
class ShrinkageTarget:
    """A well-conditioned matrix blended with the empirical covariance.

    Kinds
    -----
    ``"identity"``
        The identity matrix.
    ``"equal-correlation"``
        ``sigma2 * I + theta2 * (11^T - I)``: common variance ``sigma2`` on
        the diagonal, common covariance ``theta2`` off it. When ``sigma2``
        is ``None`` it defaults, at materialization time, to the average
        sample variance of the data being shrunk.
    ``"custom"``
        Any symmetric positive definite matrix.
    """

    kind: str
    sigma2: float | None = None
    theta2: float | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("identity", "equal-correlation", "custom"):
            raise ValueError(f"unknown target kind {self.kind!r}")
        if self.kind == "custom":
            if self.matrix is None:
                raise ValueError("custom target needs a matrix")
            mat = ensure_symmetric(self.matrix, "custom target")
            cholesky_lower(mat, "custom target")  # must be PD up front
            mat.setflags(write=False)
            object.__setattr__(self, "matrix", mat)
        elif self.kind == "equal-correlation":
            if self.theta2 is None:
                raise ValueError("equal-correlation target needs theta2")
            for name in ("theta2", "sigma2"):
                value = getattr(self, name)
                if value is not None and not np.isfinite(value):
                    raise ValueError(f"equal-correlation target needs a finite {name}, got {value}")

    @classmethod
    def identity(cls) -> "ShrinkageTarget":
        return cls(kind="identity")

    @classmethod
    def equal_correlation(cls, theta2: float = DEFAULT_THETA2, sigma2: float | None = None) -> "ShrinkageTarget":
        return cls(kind="equal-correlation", sigma2=sigma2, theta2=theta2)

    @classmethod
    def custom(cls, matrix) -> "ShrinkageTarget":
        return cls(kind="custom", matrix=matrix)

    def materialize(self, p: int, default_sigma2: float | None = None) -> np.ndarray:
        """Build the p x p target matrix, resolving the default variance scale."""
        if self.kind == "custom":
            if self.matrix.shape != (p, p):
                raise ValueError(f"custom target is {self.matrix.shape}, expected ({p}, {p})")
            return np.array(self.matrix)
        sigma2, theta2 = self._fixed_params(p, default_sigma2)
        t = np.full((p, p), theta2)
        np.fill_diagonal(t, sigma2)
        return t

    def _fixed_params(self, p: int, default_sigma2: float | None) -> tuple[float, float]:
        """``(sigma2, theta2)`` of a fixed target: the diagonal and off-diagonal entries of ``T``.

        The identity is ``(1, 0)``; an equal-correlation target resolves its
        default ``sigma2`` and is checked positive definite.
        """
        if self.kind == "identity":
            return 1.0, 0.0
        sigma2 = self.sigma2 if self.sigma2 is not None else default_sigma2
        if sigma2 is None:
            raise ValueError("equal-correlation target needs sigma2 or a data-derived default")
        theta2 = self.theta2
        # PD exactly when both eigenvalues sigma2 - theta2 and sigma2 + (p-1) theta2 are positive.
        if sigma2 - theta2 <= 0 or sigma2 + (p - 1) * theta2 <= 0:
            raise ValueError(
                f"equal-correlation target not positive definite (sigma2={sigma2}, theta2={theta2}, p={p})"
            )
        return sigma2, theta2

    def describe(self) -> dict:
        doc = {"kind": self.kind}
        if self.kind == "equal-correlation":
            doc["sigma2"] = self.sigma2
            doc["theta2"] = self.theta2
        return doc


@dataclass(frozen=True)
class RegularizedCovariance:
    """A positive definite covariance ``(1 - lam) S + lam T`` held as its lower Cholesky factor."""

    factor: np.ndarray
    lam: float

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must lie in [0, 1]")
        factor = np.asarray(self.factor, dtype=float)
        factor.setflags(write=False)
        object.__setattr__(self, "factor", factor)

    @property
    def p(self) -> int:
        return self.factor.shape[0]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``M^-1 b`` for a p-vector or a ``p x k`` block, by forward and back substitution."""
        return solve_cholesky(self.factor, b)

    @property
    def matrix(self) -> np.ndarray:
        """The dense ``M = L L^T``, built on every read (``O(p^3)``)."""
        return self.factor @ self.factor.T


@dataclass(frozen=True)
class SpectralCovariance:
    """The target-shrunk ``M = (1 - lam) S + lam T`` from the eigenpairs of ``S``.

    ``S = V diag(eig) V^T`` with orthonormal rows ``vt = V^T``: the
    eigenpairs of a low-rank ``S`` above a cutoff (``r < p`` rows, from the
    ``n x n`` Gram matrix of :func:`_spectrum`; ``r = 0`` is allowed)
    or the full eigendecomposition (``r = p``). The fixed target is
    ``T = spread I + theta2 11^T`` (the identity has ``spread = 1``,
    ``theta2 = 0``). :meth:`solve` applies
    ``M^-1`` in ``O(p r k)`` for ``k`` columns, with Sherman-Morrison for
    the rank-one ``lam theta2 11^T``. Its weights, :attr:`base_weights` and
    :meth:`rank_one_weight`, are ``O(r)`` and also serve callers that work
    in the basis ``vt`` themselves; the solver is built on the first
    :meth:`solve`, and :attr:`matrix` forms the dense ``M`` only when read.
    The SVD ridge kernel ``lam Xc^T Xc + (1 - lam) I`` is the identity
    blend at ``1 - lam`` with ``S = Xc^T Xc``.

    Rank rule, shared with :func:`shrink_covariance`: ``lam = 0``
    (``M = S``) is feasible exactly when ``r = p`` and
    ``eig[-1] > p eps eig[0]``, the default tolerance of
    ``numpy.linalg.matrix_rank``. With ``r = p`` the inverse is
    ``V diag(1 / ((1 - lam) eig + lam spread)) V^T``, defined at
    ``lam = 0``; with ``r < p`` it adds the out-of-span term
    ``(I - V V^T) / (lam spread)`` (see :attr:`base_weights`).

    Raises
    ------
    ValueError
        If ``eig`` is negative or increasing somewhere, or does not match ``vt``.
    NotPositiveDefiniteError
        At ``lam = 0`` when ``S`` fails the rank rule.
    """

    vt: np.ndarray
    eig: np.ndarray
    spread: float
    theta2: float
    lam: float

    def __post_init__(self):
        vt = np.ascontiguousarray(self.vt, dtype=float)
        eig = np.asarray(self.eig, dtype=float)
        if vt.ndim != 2 or eig.shape != (vt.shape[0],):
            raise ValueError("eig must hold one value per row of vt")
        # Once the values are non-increasing, the last one is the smallest.
        if eig.size and ((eig[1:] > eig[:-1]).any() or eig[-1] < 0):
            raise ValueError("eigenvalues must be nonnegative and non-increasing")
        if self.spread <= 0.0:
            raise ValueError("spread must be positive")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must lie in [0, 1]")
        r, p = vt.shape
        if self.lam == 0.0:
            if r < p:
                raise NotPositiveDefiniteError(
                    f"shrunk covariance (lam=0.0) is not positive definite: S has rank at most n - K < p={p}"
                )
            _require_full_rank(eig, "shrunk covariance (lam=0.0)")
        vt.setflags(write=False)
        eig.setflags(write=False)
        object.__setattr__(self, "vt", vt)
        object.__setattr__(self, "eig", eig)

    @property
    def base_weights(self) -> tuple[np.ndarray, float]:
        """``(w, 1/c)`` with ``B^-1 = V diag(w) V^T + (1/c) I`` for the base kernel ``B = M - lam theta2 11^T``.

        ``B = V diag((1 - lam) eig) V^T + c I`` with ``c = lam spread``.
        With ``r < p``, ``B^-1 = V diag(1 / ((1 - lam) eig + c)) V^T + (I - V V^T) / c``,
        and ``w = 1 / ((1 - lam) eig + c) - 1 / c`` is written without
        cancellation. With ``r = p``, ``I - V V^T = 0``: ``w`` is the inverse
        eigenvalue, defined at ``lam = 0``, and ``1/c`` reads 0.
        """
        scaled, c = (1.0 - self.lam) * self.eig, self.lam * self.spread
        if self.eig.size == self.p:
            return 1.0 / (scaled + c), 0.0
        return -scaled / (c * (scaled + c)), 1.0 / c

    def rank_one_weight(self, one_b_one: float) -> float:
        """Sherman-Morrison: ``M^-1 = B^-1 - weight u u^T`` with ``u = B^-1 1`` and ``one_b_one = 1^T u``."""
        return self.lam * self.theta2 / (1.0 + self.lam * self.theta2 * one_b_one)

    @functools.cached_property
    def _solve(self) -> Callable[[np.ndarray], np.ndarray]:
        """``M^-1`` on ``p x k`` blocks, built on the first solve."""
        base_solve = _low_rank_solver(self.vt, *self.base_weights)
        if self.theta2 == 0.0:
            return base_solve
        u = base_solve(np.ones((self.p, 1)))[:, 0]  # B^-1 1
        weight = self.rank_one_weight(np.sum(u))
        return lambda b: base_solve(b) - np.outer(u, weight * (u @ b))

    @property
    def p(self) -> int:
        return self.vt.shape[1]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``M^-1 b`` for a p-vector or a ``p x k`` block; no ``p x p`` matrix is formed."""
        b = np.asarray(b, dtype=float)
        return self._solve(b[:, None])[:, 0] if b.ndim == 1 else self._solve(b)

    @property
    def matrix(self) -> np.ndarray:
        """The dense ``(1 - lam) S + lam T``, built on every read (``O(p^2 r)``)."""
        s = (self.vt.T * self.eig) @ self.vt
        return (1.0 - self.lam) * s + self.lam * (self.spread * np.eye(self.p) + self.theta2)


def pooled_covariance(data: GroupedDataset, means: GroupMeans, convention: str = WITHIN_GROUP) -> np.ndarray:
    """Pooled covariance of a grouped dataset under the named scaling.

    Parameters
    ----------
    data : GroupedDataset
    means : GroupMeans
        Means of ``data`` (pooled and per group).
    convention : str
        ``"within-group"``: sum of outer products of group-mean-centered
        rows divided by ``n - K``. ``"gram-pooled-mean"``: unnormalized
        ``Xc^T Xc`` with rows centered at the pooled mean.

    Raises
    ------
    ValueError
        If the within-group form has fewer than ``K + 1`` observations.
    """
    rows, dof = _centered_rows(data, means, convention)
    return rows.T @ rows / dof


def _centered_rows(data: GroupedDataset, means: GroupMeans, convention: str = WITHIN_GROUP) -> tuple[np.ndarray, int]:
    """The centered rows ``R`` and divisor ``dof`` of ``S = R^T R / dof`` under ``convention``.

    ``"within-group"``: rows minus their group means, ``dof = n - K``.
    ``"gram-pooled-mean"``: rows minus the pooled mean, ``dof = 1``.
    """
    if convention == WITHIN_GROUP:
        dof = data.n - data.n_groups
        if dof < 1:
            raise ValueError(f"within-group pooled covariance needs n >= K + 1 (n={data.n}, K={data.n_groups})")
        return data.values - means.per_group[data.labels], dof
    if convention == GRAM_POOLED_MEAN:
        return data.values - means.pooled, 1
    raise ValueError(f"unknown pooled-covariance convention {convention!r}")


def _require_full_rank(eig: np.ndarray, what: str) -> None:
    """Raise unless ``S`` (non-increasing eigenvalues ``eig``) passes the ``lam = 0`` rank rule."""
    p = eig.size
    if not eig[-1] > p * np.finfo(float).eps * eig[0]:
        raise NotPositiveDefiniteError(
            f"{what} is not positive definite: S is singular "
            f"(smallest eigenvalue {eig[-1]:.3g}, largest {eig[0]:.3g}, p={p})"
        )


def shrink_covariance(s: np.ndarray, target: ShrinkageTarget, lam: float) -> RegularizedCovariance:
    """Blend ``(1 - lam) S + lam T`` and factorize the result.

    ``lam = 0`` returns ``S`` itself, which must first pass the rank rule
    of :class:`SpectralCovariance`, and ``lam = 1`` the target. Nothing is
    jittered: a failure raises the recoverable :class:`NotPositiveDefiniteError`.
    The ridge form ``lam S + (1 - lam) I`` is the identity target at ``1 - lam``.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    s = ensure_symmetric(s, "S")
    p = s.shape[0]
    t = target.materialize(p, default_sigma2=float(np.mean(np.diag(s))) if p else None)
    what = f"shrunk covariance (lam={lam})"
    if lam == 0.0:
        _require_full_rank(np.linalg.eigvalsh(s)[::-1], what)
    return RegularizedCovariance(factor=cholesky_lower((1.0 - lam) * s + lam * t, what), lam=lam)


def _low_rank_solver(vt: np.ndarray, in_span: np.ndarray, inv_c: float) -> Callable[[np.ndarray], np.ndarray]:
    """The map ``b -> V diag(in_span) V^T b + inv_c b`` on ``p x k`` blocks.

    ``vt`` holds the orthonormal rows ``V^T``. Applying the map costs
    ``O(p r k)`` for ``r`` rows, and no ``p x p`` matrix is formed.
    """
    weights = in_span[:, None]
    return lambda b: vt.T @ (weights * (vt @ b)) + inv_c * b


def _spectrum(rows: np.ndarray, dof: int) -> tuple[np.ndarray, np.ndarray]:
    """The eigenpairs ``(vt, eig)`` of ``S = R^T R / dof`` for the centered rows ``R``, largest first.

    ``eigh`` of the smaller Gram matrix of ``R`` gives them. When ``n < p``
    it is the ``n x n`` ``G = R R^T / dof = U diag(eig) U^T``, which shares
    its nonzero eigenvalues with ``S``; the rows
    ``vt = diag(1 / sqrt(eig dof)) U^T R`` are the matching eigenvectors of
    ``S``. ``G`` squares the condition number of ``R``, so its null
    directions (one per mean the rows were centered at, at least) are
    dropped by the cutoff ``eig > n eps eig[0]``: ``r = 0`` rows when
    ``R = 0``. Otherwise (``n >= p``) it is ``eigh(S)``, all ``p`` pairs
    with round-off negatives clipped to zero.
    """
    n, p = rows.shape
    if n < p:
        eig, u = np.linalg.eigh(rows @ rows.T / dof)
        eig, u = eig[::-1], u[:, ::-1]
        r = np.count_nonzero(eig > n * np.finfo(float).eps * eig[0])
        eig = eig[:r]
        return (u[:, :r].T @ rows) / np.sqrt(eig * dof)[:, None], eig
    eig, v = np.linalg.eigh(rows.T @ rows / dof)
    return np.ascontiguousarray(v[:, ::-1].T), np.maximum(eig[::-1], 0.0)


def _spectral_kernel(
    spectrum: tuple[np.ndarray, np.ndarray], target: ShrinkageTarget
) -> Callable[[float], SpectralCovariance]:
    """Bind a fixed target to a spectrum ``(vt, eig)`` of ``S``: ``lam -> (1 - lam) S + lam T``.

    The spectrum depends on the data alone, so every fixed target of a fold
    binds to one. The binding costs ``O(r)``: ``spread = sigma2 - theta2``
    with ``(sigma2, theta2)`` from :meth:`ShrinkageTarget._fixed_params`
    (``1`` and ``0`` for the identity), where the default ``sigma2`` is the
    average variance ``mean(diag S) = sum(eig) / p``.
    """
    vt, eig = spectrum
    p = vt.shape[1]
    sigma2, theta2 = target._fixed_params(p, float(np.sum(eig) / p))
    return lambda lam: SpectralCovariance(vt, eig, sigma2 - theta2, theta2, lam)


def spectral_covariance(
    data: GroupedDataset, means: GroupMeans, target: ShrinkageTarget
) -> Callable[[float], SpectralCovariance]:
    """Every ``(1 - lam) S + lam T`` of ``data`` from one decomposition, as a function of ``lam``.

    ``S`` is the within-group pooled covariance of ``data``; its spectrum
    ``(vt, eig)`` is :func:`_spectrum` of the rows of :func:`_centered_rows`
    (``eigh`` of the ``n x n`` Gram matrix of the residuals when ``n < p``,
    keeping the pairs above ``n eps eig[0]``, so the ``K`` centering
    directions fall under the cutoff and ``r = n - K`` on generic data;
    ``eigh(S)`` otherwise) and the target is bound
    to it by :func:`_spectral_kernel`. ``M = V diag((1 - lam) eig) V^T + c I
    + lam theta2 11^T`` is inverted by :class:`SpectralCovariance`, so
    applying ``M^-1`` to a ``p x k`` block costs ``O(p r k)``. The identity
    target has ``c = lam``. The equal-correlation target
    ``(sigma2 - theta2) I + theta2 11^T`` has ``c = lam (sigma2 - theta2)``
    and adds the rank-one term ``lam theta2 11^T``, applied by
    Sherman-Morrison; its default ``sigma2`` is ``mean(diag S) = sum(eig) / p``,
    as in :func:`shrink_covariance`.

    Raises
    ------
    ValueError
        For a custom target, or for an equal-correlation target that is
        not positive definite.
    """
    if target.kind == "custom":
        raise ValueError("the spectral kernel supports the identity and equal-correlation targets")
    return _spectral_kernel(_spectrum(*_centered_rows(data, means)), target)


def _shrinkage_kernel(
    data: GroupedDataset, means: GroupMeans, targets: Sequence[ShrinkageTarget], intensities: int
) -> list[Callable[[float], RegularizedCovariance | SpectralCovariance]]:
    """The kernel rule: for each of ``targets``, ``(1 - lam) S + lam T`` of ``data`` as a function of ``lam``.

    This is the one place that picks the kernel's form, from the input
    alone. A fixed target (identity or equal-correlation) takes the
    spectral form of :func:`spectral_covariance` when ``S`` has low rank
    (``n - K < p``) or when more than one of ``intensities`` will be read
    per target, since one decomposition then serves them all; every fixed
    target binds to the same :func:`_spectrum` of the fold, so several targets
    cost one decomposition. Otherwise the dense blend of
    :func:`pooled_covariance` is factorized per intensity by
    :func:`shrink_covariance`: the only form for a custom target, and the
    cheaper one for a single intensity on a full-rank ``S``, where one
    ``O(p^3)`` ``eigh`` costs about twenty Cholesky factorizations. Both
    forms judge ``lam = 0`` by the same rank rule, so the choice changes
    cost, not verdicts.
    """
    decompose = data.n - data.n_groups < data.p or intensities > 1
    spectral = [decompose and t.kind != "custom" for t in targets]
    spectrum = _spectrum(*_centered_rows(data, means)) if any(spectral) else None
    s = None if all(spectral) else pooled_covariance(data, means, WITHIN_GROUP)
    return [
        _spectral_kernel(spectrum, t) if use_spectrum
        else functools.partial(shrink_covariance, s, t)
        for t, use_spectrum in zip(targets, spectral)
    ]


def lw_lambda(data: GroupedDataset, target: ShrinkageTarget) -> float:
    """Analytic shrinkage intensity toward a fixed target, clipped to [0, 1].

    Estimates the intensity that asymptotically minimizes the expected
    squared Frobenius loss of the blend: the summed sampling variance of
    the pooled covariance entries divided by the summed squared distance
    between the empirical matrix and the target,

        lambda = sum_ij Var(s_ij) / sum_ij (s_ij - t_ij)^2 ,

    with the entry variances estimated from the cross products of
    group-centered residuals. The estimate shrinks like 1/n, so it fades
    as evidence accumulates. Only the fixed targets (identity,
    equal-correlation) are supported. This is the one-target call of
    :func:`_lw_lambdas`, which shares the numerator and ``S`` between
    targets.
    """
    return _lw_lambdas(data, (target,))[0]


def _lw_lambdas(data: GroupedDataset, targets: Sequence[ShrinkageTarget]) -> list[float]:
    """:func:`lw_lambda` of ``data`` for each of ``targets``, from one pass over the data.

    ``S``, the entry variances and their sum do not depend on the target
    and are computed once; only the denominator ``sum_ij (s_ij - t_ij)^2``
    is per target. It is formed in one reused ``p x p`` buffer without
    materializing ``T``, whose entries are exactly ``sigma2`` on the
    diagonal and ``theta2`` off it (``1`` and ``0`` for the identity). Every
    floating-point operation keeps the order of the explicit formula, so
    each value is bit-identical to it; the pass peaks at four ``p x p``
    arrays whatever the number of targets.
    """
    if any(target.kind == "custom" for target in targets):
        raise ValueError("lw_lambda supports the identity and equal-correlation targets")
    resid, dof = _centered_rows(data, group_means(data))
    n, p = data.n, data.p
    scatter = resid.T @ resid
    s = scatter / dof
    default_sigma2 = float(np.mean(np.diag(s)))

    # Entrywise sampling variance of s from the cross-product summands
    # w_kij = r_ki r_kj: sum_k (w_kij - wbar_ij)^2 = (R*R)^T (R*R) - n wbar^2,
    # accumulated in place as (n wbar) wbar.
    sq = resid * resid
    sum_w_sq = sq.T @ sq
    wbar = np.divide(scatter, n, out=scatter)
    buf = np.multiply(n, wbar)
    buf *= wbar
    np.subtract(sum_w_sq, buf, out=buf)
    buf *= n / ((n - 1.0) * dof * dof)
    sum_var_s = np.sum(buf)

    lams = []
    for target in targets:
        sigma2, theta2 = target._fixed_params(p, default_sigma2)
        np.subtract(s, theta2, out=buf)
        np.fill_diagonal(buf, s.diagonal() - sigma2)
        denom = float(np.sum(np.square(buf, out=buf)))
        lams.append(0.0 if denom <= 0.0 else float(np.clip(sum_var_s / denom, 0.0, 1.0)))
    return lams


def mahalanobis_sq(cov: RegularizedCovariance | SpectralCovariance, d) -> float:
    """The quadratic form ``d^T M^-1 d``, through the kernel's own ``solve``.

    That is two triangular solves against a Cholesky factor, and the
    eigenbasis solver of a spectral kernel.
    """
    d = np.asarray(d, dtype=float).reshape(-1)
    return float(d @ cov.solve(d))
