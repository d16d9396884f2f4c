"""Shared helpers: the finiteness, unit-interval and lower-bound rules, SPD factorization and solves.

:func:`require_finite` builds every "``<name>`` must be finite" refusal;
dense matrices meet it in :func:`ensure_symmetric`. :func:`require_unit_interval`
builds every "``<name>`` must lie in [0, 1]" refusal: shrinkage intensities,
the l2 blend weight and CV accuracies. :func:`require_lower_bound` builds
every scalar "must be positive / nonnegative / at least ``k``" refusal.

The three functions that factorize or substitute import ``scipy.linalg`` on
their first call, not at module scope: SciPy costs 0.2–0.3 s and 28 MB per
process, and the spectral routes (every fit or CV grid toward a fixed
target, the SVD ridge model and ``rlda predict`` on a schema-3 model file)
never need it. It loads on the first dense factorization: a custom
shrinkage target, ``classify_alg1``, the full-covariance Bayes posterior,
the random-centre rounding demo, or a schema-1/2 Cholesky model file.
SciPy's ``LinAlgError`` is numpy's class, so it is caught as that.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NotPositiveDefiniteError",
    "cholesky_lower",
    "ensure_symmetric",
    "require_finite",
    "require_lower_bound",
    "require_unit_interval",
    "solve_cholesky",
    "solve_lower",
    "solve_spd",
]


class NotPositiveDefiniteError(ValueError):
    """A matrix required to be symmetric positive definite failed to factorize.

    Recoverable: callers tuning a shrinkage intensity can catch this and move
    to a different grid point.
    """


def require_finite(values, name: str) -> np.ndarray:
    """``values`` as a float array; raises ``ValueError`` naming ``name`` and its first NaN or inf."""
    arr = np.asarray(values, dtype=float)
    finite = np.isfinite(arr)
    if not finite.all():
        raise ValueError(f"{name} must be finite, got {arr[~finite][0]}")
    return arr


def require_unit_interval(value, name: str) -> float:
    """``value`` as a float; raises ``ValueError`` naming ``name`` and the value unless it lies in [0, 1]."""
    if not 0.0 <= float(value) <= 1.0:  # also false for NaN
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return float(value)


def require_lower_bound(value, name: str, least: float = 0, *, positive: bool = False) -> float:
    """``value`` as a float; refused by name and value unless finite and ``>= least`` (``> 0`` if ``positive``)."""
    v = float(value)
    if not ((0 < v if positive else least <= v) and v < np.inf):  # NaN fails both comparisons
        require_finite(v, name)
        bound = "positive" if positive else "nonnegative" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return v


_SYMMETRY_TOL = 1e-8  # largest accepted max |a - a^T|, relative to max(1, max |a|)


def ensure_symmetric(a: np.ndarray, name: str) -> np.ndarray:
    """Validate a finite square matrix, symmetric within ``_SYMMETRY_TOL`` (relative); return it symmetrized."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    require_finite(a, name)
    scale = max(1.0, float(np.abs(a).max()))
    if np.abs(a - a.T).max() > _SYMMETRY_TOL * scale:
        raise ValueError(f"{name} is not symmetric")
    return 0.5 * (a + a.T)


def cholesky_lower(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Lower-triangular Cholesky factor; raises :class:`NotPositiveDefiniteError`."""
    import scipy.linalg

    try:
        return scipy.linalg.cholesky(a, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"{name} is not positive definite: {exc}") from None


def solve_lower(l_factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``L w = b`` for lower-triangular ``L``."""
    import scipy.linalg

    return scipy.linalg.solve_triangular(l_factor, b, lower=True, check_finite=False)


def solve_cholesky(l_factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``L L^T x = b`` by a forward and a back substitution (``cho_solve`` would copy a row-major ``L``)."""
    import scipy.linalg

    return scipy.linalg.solve_triangular(l_factor, solve_lower(l_factor, b), lower=True, trans="T", check_finite=False)


def solve_spd(a: np.ndarray, b: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Solve ``a x = b`` for SPD ``a`` through its Cholesky factorization."""
    return solve_cholesky(cholesky_lower(a, name), b)
