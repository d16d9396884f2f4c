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
also holds the SVD ridge classifier. The cross-validation grid hands every
kernel of a training fold to one scorer, :func:`_fold_blocks`, which
applies a spectral ``M^-1`` in the eigenbasis (:func:`_eigenbasis_blocks`)
and a dense one through its Cholesky solve, so every ``M^-1`` is applied
in this module. The ridge form ``lam S + (1 - lam) I`` has no function of
its own: it is the identity blend at ``1 - lam``, dense through
:func:`shrink_covariance` or spectral on the spectrum of the
pooled-mean-centered rows. In ``fit`` and in the cross-validation grid
alike, :func:`_shrinkage_kernel` picks the form from the target alone:
spectral for a fixed target, the dense Cholesky factor for a custom one.
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

from ._linalg import (
    NotPositiveDefiniteError,
    cholesky_lower,
    ensure_symmetric,
    require_lower_bound,
    require_unit_interval,
    solve_cholesky,
)
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
        require_unit_interval(self.lam, "lam")
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
    ``theta2 = 0``). :meth:`solve` applies one formula for every target and
    rank, ``M^-1 = V diag(w) V^T + (1/c) I - beta u u^T``, in ``O(p r k)``
    for ``k`` columns: the last term is Sherman-Morrison for the rank-one
    ``lam theta2 11^T``, and ``beta = 0`` for the identity. Its ``O(r)``
    weights, :attr:`_base_weights` and :meth:`_rank_one_weight`, are read
    only by that solver and by :func:`_eigenbasis_blocks`, which applies the
    same formula in the basis ``vt``. The solver is built on the first
    :meth:`solve`, and :attr:`matrix` forms the dense ``M`` only when read.
    The SVD ridge kernel ``lam Xc^T Xc + (1 - lam) I`` is the identity
    blend at ``1 - lam`` with ``S = Xc^T Xc``.

    Rank rule, shared with :func:`shrink_covariance`: ``lam = 0``
    (``M = S``) is feasible exactly when ``r = p`` and
    ``eig[-1] > p eps eig[0]``, the default tolerance of
    ``numpy.linalg.matrix_rank``. With ``r = p``, ``1/c = 0`` and
    ``w = 1 / ((1 - lam) eig + lam spread)``, defined at ``lam = 0``; with
    ``r < p``, ``1/c = 1 / (lam spread)`` carries the directions out of the
    span of ``V`` (see :attr:`_base_weights`).

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
        require_lower_bound(self.spread, "spread", positive=True)
        require_unit_interval(self.lam, "lam")
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
    def _base_weights(self) -> tuple[np.ndarray, float]:
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

    def _rank_one_weight(self, one_b_one: float) -> float:
        """Sherman-Morrison: ``M^-1 = B^-1 - weight u u^T`` with ``u = B^-1 1`` and ``one_b_one = 1^T u``."""
        return self.lam * self.theta2 / (1.0 + self.lam * self.theta2 * one_b_one)

    @functools.cached_property
    def _solve(self) -> Callable[[np.ndarray], np.ndarray]:
        """``M^-1`` on ``p x k`` blocks, built on the first solve."""
        base_solve = _low_rank_solver(self.vt, *self._base_weights)
        u = base_solve(np.ones((self.p, 1)))[:, 0]  # B^-1 1
        weight = self._rank_one_weight(np.sum(u))
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


def _blended(block: np.ndarray, blend: np.ndarray | None) -> np.ndarray:
    """The cells of ``block``'s columns: its first ``b`` mixed by the ``b x e`` ``blend``, then the rest unchanged.

    Without a ``blend`` the columns are the cells. The mix is one matrix
    product on the last axis, so it acts alike on means, their
    projections, and any block linear in them.
    """
    if blend is None:
        return block
    b = blend.shape[0]
    return np.concatenate([block[..., :b] @ blend, block[..., b:]], axis=-1)


def _eigenbasis_blocks(vt: np.ndarray, means_t: np.ndarray, queries: np.ndarray, blend: np.ndarray | None = None):
    """``cov -> (Z a, sum(m^T * a))`` with ``a = M^-1 m^T``, for every :class:`SpectralCovariance` on ``vt``.

    The cells ``m^T`` are :func:`_blended` ``(means_t, blend)``. With a
    ``b x e`` ``blend`` (the l2 span of :func:`~rlda.regmeans._l2_blend`)
    the first ``b`` columns of ``means_t`` are a base that gives ``e``
    cells, and the others are cells as they are. ``M^-1`` meets the columns
    of ``means_t`` only: ``Z a`` is linear in ``m``, so it is blended into
    the cells after, at ``O(n_test b e)``, and the quadratic term comes from
    the projected cells, blended once per basis, at ``O(r cells)``.

    This is the formula of :meth:`SpectralCovariance.solve` applied in the
    basis ``vt``: ``[means_t | Z^T | 1]`` is projected onto its ``r`` rows
    once. With ``M^-1 = B^-1 - beta u u^T`` and
    ``B^-1 = V diag(w) V^T + (1/c) I``
    (:attr:`~SpectralCovariance._base_weights`,
    :meth:`~SpectralCovariance._rank_one_weight`), each block is a weighted
    product of projections, plus ``1/c`` times a raw product (``Z m^T``,
    ``sum(m^T * m^T)``, ``Z 1``, ``1^T m^T``), minus the rank-one terms.
    Only the terms whose weight can be nonzero are formed: at full rank
    (``r = p``) ``1/c = 0``, so no raw product is, and on the identity
    target (``theta2 = 0``) ``beta = 0``, so no rank-one term is. A kernel
    on ``vt`` then costs ``O(n_test r cols)`` for the ``cols`` columns of
    ``means_t``, with no ``p``-dimensional product.
    """
    r, p = vt.shape
    cols = means_t.shape[1]
    projected = vt @ np.hstack([means_t, queries.T, np.ones((p, 1))])
    pm, pz, p1 = projected[:, :cols], projected[:, cols:-1], projected[:, -1]
    p_cells = _blended(pm, blend)
    in_span = r == p  # 1/c = 0
    if not in_span:
        m_cells = _blended(means_t, blend)
        zm, mm = queries @ means_t, np.sum(m_cells * m_cells, axis=0)
        z1, m1 = queries.sum(axis=1), means_t.sum(axis=0)

    def blocks(cov: SpectralCovariance) -> tuple[np.ndarray, np.ndarray]:
        w, inv_c = cov._base_weights
        wm = w[:, None] * pm
        cross = pz.T @ wm
        quad = np.sum(p_cells * (wm if blend is None else w[:, None] * p_cells), axis=0)
        if not in_span:
            cross += inv_c * zm
            quad += inv_c * mm
        if cov.theta2 != 0.0:
            w1 = w * p1
            um, zu = w1 @ pm, pz.T @ w1  # u^T m^T and Z u with u = B^-1 1
            if not in_span:
                um += inv_c * m1
                zu += inv_c * z1
            beta = cov._rank_one_weight(w1 @ p1 + inv_c * p)
            cross -= np.outer(zu, beta * um)
            u_cells = _blended(um, blend)
            quad -= beta * u_cells * u_cells
        return _blended(cross, blend), quad

    return blocks


def _fold_blocks(means_t: np.ndarray, queries: np.ndarray, blend: np.ndarray | None = None):
    """``cov -> (Z a, sum(m^T * a))`` with ``a = M^-1 m^T``, for every kernel of one training fold.

    The cross-validation grid's one scorer. The cells are :func:`_blended`
    ``(means_t, blend)``, as in :func:`_eigenbasis_blocks`, and the pair is
    what :func:`~rlda.discriminant._score_blocks` scores. A
    :class:`SpectralCovariance` is scored in its eigenbasis:
    the kernels of a fold share one ``vt`` (every intensity of every fixed
    target), so its :func:`_eigenbasis_blocks` projection is built on the
    first one and reused. Any other kernel solves ``a`` on the columns of
    ``means_t`` outright through its ``solve`` and blends it into the cells
    with them.
    """
    basis = project = None

    def blocks(cov) -> tuple[np.ndarray, np.ndarray]:
        nonlocal basis, project
        if not isinstance(cov, SpectralCovariance):
            a = cov.solve(means_t)
            quad = np.sum(_blended(means_t, blend) * _blended(a, blend), axis=0)
            return _blended(queries @ a, blend), quad
        if cov.vt is not basis:
            basis, project = cov.vt, _eigenbasis_blocks(cov.vt, means_t, queries, blend)
        return project(cov)

    return blocks


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
    require_unit_interval(lam, "lam")
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


def _shrinkage_kernel(
    data: GroupedDataset, means: GroupMeans, targets: Sequence[ShrinkageTarget]
) -> list[Callable[[float], RegularizedCovariance | SpectralCovariance]]:
    """The kernel rule: for each of ``targets``, ``(1 - lam) S + lam T`` of ``data`` as a function of ``lam``.

    This is the one place that picks the kernel's form, from the target
    alone. Every fixed target (identity or equal-correlation) binds to one
    :func:`_spectrum` of ``data``, whatever ``n``, ``p`` or the number of
    ``lam`` values read, so all of them, for every fixed target, cost one
    decomposition. A custom target is a dense matrix: its blend with the
    :func:`pooled_covariance` is factorized per intensity by
    :func:`shrink_covariance`. Both forms judge ``lam = 0`` by the same
    rank rule.
    """
    spectral = [t.kind != "custom" for t in targets]
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
    :func:`_lw_lambdas`, which shares the numerator between targets and
    picks the form of the sums from the shape of the data.
    """
    return _lw_lambdas(data, (target,))[0]


def _lw_lambdas(data: GroupedDataset, targets: Sequence[ShrinkageTarget]) -> list[float]:
    """:func:`lw_lambda` of ``data`` for each of ``targets``, from one pass over the data.

    The entry variances and their sum do not depend on the target and are
    computed once; only the denominator ``sum_ij (s_ij - t_ij)^2`` is per
    target, formed without materializing ``T``, whose entries are exactly
    ``sigma2`` on the diagonal and ``theta2`` off it (``1`` and ``0`` for
    the identity). The centered rows ``R`` (``n x p``) give the sums in one
    of two forms, picked by the test :func:`_spectrum` makes:
    :func:`_lw_sums_gram` when ``n < p``, which forms no ``p x p`` array,
    and :func:`_lw_sums_entrywise` otherwise.
    """
    if any(target.kind == "custom" for target in targets):
        raise ValueError("lw_lambda supports the identity and equal-correlation targets")
    resid, dof = _centered_rows(data, group_means(data))
    n, p = resid.shape
    sums = _lw_sums_gram if n < p else _lw_sums_entrywise
    sum_var_s, denoms = sums(resid, dof, targets)
    return [0.0 if denom <= 0.0 else float(np.clip(sum_var_s / denom, 0.0, 1.0)) for denom in denoms]


def _lw_sums_entrywise(
    resid: np.ndarray, dof: int, targets: Sequence[ShrinkageTarget]
) -> tuple[float, list[float]]:
    """The numerator and the per-target denominators of :func:`_lw_lambdas`, entry by entry of ``S``.

    Every floating-point operation keeps the order of the explicit formula,
    so each sum is bit-identical to it; where ``S = T`` exactly (``p = 1``
    with the default ``sigma2``), the denominator is exactly ``0``. The pass
    peaks at two ``p x p`` arrays whatever the number of targets, the
    scatter ``R^T R`` and one scratch buffer, which at ``n >= p`` is at most
    twice the data. ``S`` is never kept; each denominator divides the
    scatter into the buffer afresh, and the numerator then overwrites the
    scatter in place once no target needs it.
    """
    n, p = resid.shape
    scatter = resid.T @ resid
    buf = np.empty_like(scatter)
    diag_s = np.diag(scatter) / dof
    default_sigma2 = float(np.mean(diag_s))

    denoms = []
    for target in targets:
        sigma2, theta2 = target._fixed_params(p, default_sigma2)
        np.divide(scatter, dof, out=buf)
        buf -= theta2
        np.fill_diagonal(buf, diag_s - sigma2)
        denoms.append(float(np.sum(np.square(buf, out=buf))))

    # Entrywise sampling variance of s from the cross-product summands
    # w_kij = r_ki r_kj: sum_k (w_kij - wbar_ij)^2 = (R*R)^T (R*R) - n wbar^2,
    # accumulated in place as (n wbar) wbar.
    sq = resid * resid
    wbar = np.divide(scatter, n, out=buf)
    prod = np.multiply(n, wbar, out=scatter)
    prod *= wbar
    np.matmul(sq.T, sq, out=buf)
    np.subtract(buf, prod, out=prod)
    prod *= n / ((n - 1.0) * dof * dof)
    return np.sum(prod), denoms


def _lw_sums_gram(
    resid: np.ndarray, dof: int, targets: Sequence[ShrinkageTarget]
) -> tuple[float, list[float]]:
    """The sums of :func:`_lw_sums_entrywise` from the ``n x n`` Gram matrix ``G = R R^T``.

    Each sum over the ``p^2`` entries of ``S = R^T R / dof`` reduces to
    quantities of ``R`` (Ledoit and Wolf 2004; Schäfer and Strimmer 2005):
    ``||R^T R||_F^2 = ||G||_F^2``, ``sum_k ||r_k||^4`` from ``diag G``,
    ``diag S`` from the column sums of ``R * R``, and ``1^T S 1 =
    ||R 1||^2 / dof``. The numerator is
    ``(sum_k ||r_k||^4 - ||G||_F^2 / n) n / ((n - 1) dof^2)``. The
    denominator sums the diagonal ``(s_ii - sigma2)^2`` entry by entry and
    expands the off-diagonal part as
    ``||S||_F^2 - ||diag S||^2 - 2 theta2 (1^T S 1 - tr S) + p (p - 1) theta2^2``.
    That expansion cannot cancel to zero: at ``n < p``, ``S`` has at least
    ``p - n + K`` zero eigenvalues, so by Hoffman-Wielandt the denominator
    is at least the summed squares of as many eigenvalues of the positive
    definite ``T``, about ``(p - n + K) (sigma2 - theta2)^2``. Time is
    ``O(n^2 p)`` and no array larger than ``R`` is formed. The sums agree with the entrywise
    form to rounding, not bit for bit.
    """
    n, p = resid.shape
    gram = resid @ resid.T
    norms2 = np.diag(gram)
    gram_f2 = float(np.sum(gram * gram))
    sum_var_s = (float(norms2 @ norms2) - gram_f2 / n) * (n / ((n - 1.0) * dof * dof))
    diag_s = np.einsum("ki,ki->i", resid, resid) / dof
    default_sigma2 = float(np.mean(diag_s))
    off_f2 = gram_f2 / (dof * dof) - float(diag_s @ diag_s)  # sum_{i != j} s_ij^2
    row_sums = resid.sum(axis=1)
    off_sum = (float(row_sums @ row_sums) - float(np.sum(norms2))) / dof  # 1^T S 1 - tr S

    denoms = []
    for target in targets:
        sigma2, theta2 = target._fixed_params(p, default_sigma2)
        diag_f2 = float(np.sum(np.square(diag_s - sigma2)))
        denoms.append(diag_f2 + off_f2 - 2.0 * theta2 * off_sum + p * (p - 1.0) * theta2 * theta2)
    return sum_var_s, denoms


def mahalanobis_sq(cov: RegularizedCovariance | SpectralCovariance, d) -> float:
    """The quadratic form ``d^T M^-1 d``, through the kernel's own ``solve``.

    That is two triangular solves against a Cholesky factor, and the
    eigenbasis solver of a spectral kernel.
    """
    d = np.asarray(d, dtype=float).reshape(-1)
    return float(d @ cov.solve(d))
