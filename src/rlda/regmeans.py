"""Regularized group means: pooled-mean blending, soft and hard thresholding.

The three rules act coordinate-wise on the per-group means. Blending pulls
every coordinate toward the pooled mean; soft thresholding shrinks small
coordinates continuously to zero; hard thresholding zeroes them outright.
The thresholding rules can zero a coordinate in every group, at which point
the variable drops out of the classifier: the ``active_mask`` records this
implicit feature selection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import require_finite, require_lower_bound, require_unit_interval
from .datamodel import GroupMeans

__all__ = [
    "MeanRegularizer",
    "RegularizedMeans",
    "hard_threshold_scalar",
    "regularize_means",
    "soft_threshold_scalar",
]

KINDS = ("none", "l2", "l1", "hard")


@dataclass(frozen=True)
class MeanRegularizer:
    """One of the mean rules: ``none``, ``l2`` (blend), ``l1`` (soft), ``hard``.

    ``delta`` is the blend weight for ``l2`` (in [0, 1]) and the threshold
    for ``l1``/``hard`` (any finite nonnegative value; means are unbounded,
    so no upper range is enforced there). A non-finite ``delta`` is
    rejected for every kind.
    """

    kind: str
    delta: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown mean regularizer {self.kind!r}; pick one of {KINDS}")
        if not np.isfinite(self.delta):
            what = "threshold" if self.kind in ("l1", "hard") else "parameter"
            raise ValueError(f"{self.kind} mean-rule {what} delta must be finite, got {self.delta}")
        if self.kind == "l2":
            require_unit_interval(self.delta, "l2 blend weight")
        if self.kind in ("l1", "hard"):
            require_lower_bound(self.delta, "threshold")

    @classmethod
    def none(cls) -> "MeanRegularizer":
        return cls(kind="none")


@dataclass(frozen=True)
class RegularizedMeans:
    """Per-group regularized means plus the induced active-variable mask.

    A variable is active iff its coordinate is nonzero in at least one
    group; for the non-sparsifying rules the mask is all-true.
    """

    per_group: np.ndarray
    active_mask: np.ndarray

    def __post_init__(self):
        per_group = np.asarray(self.per_group, dtype=float)
        mask = np.asarray(self.active_mask, dtype=bool)
        if mask.shape != (per_group.shape[1],):
            raise ValueError("active_mask must have one entry per variable")
        per_group.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "per_group", per_group)
        object.__setattr__(self, "active_mask", mask)

    @property
    def n_active(self) -> int:
        return int(self.active_mask.sum())


def soft_threshold_scalar(x: float, delta: float) -> float:
    """``sgn(x) * max(|x| - delta, 0)``: the magnitude-shrinking rule."""
    require_finite(x, "x")
    require_lower_bound(delta, "delta")
    return float(np.sign(x) * max(abs(x) - delta, 0.0))


def hard_threshold_scalar(x: float, delta: float) -> float:
    """``x`` if ``|x| > delta`` else 0; boundary values are zeroed."""
    require_finite(x, "x")
    require_lower_bound(delta, "delta")
    return float(x) if abs(x) > delta else 0.0


def regularize_means(means: GroupMeans, reg: MeanRegularizer) -> RegularizedMeans:
    """Apply a mean rule to every group mean and recompute the active mask.

    - ``none``: the raw group means.
    - ``l2``: ``(1 - delta) * mean_k + delta * pooled`` per group.
    - ``l1``: coordinate-wise soft thresholding at ``delta``.
    - ``hard``: coordinate-wise hard thresholding at ``delta`` (strict
      ``|x| > delta``, so boundary coordinates are zeroed).
    """
    raw = means.per_group
    if reg.kind == "none":
        out = raw.copy()
    elif reg.kind == "l2":
        out = (1.0 - reg.delta) * raw + reg.delta * means.pooled
    elif reg.kind == "l1":
        out = np.sign(raw) * np.maximum(np.abs(raw) - reg.delta, 0.0)
    else:
        out = np.where(np.abs(raw) > reg.delta, raw, 0.0)

    mask = np.any(out != 0.0, axis=0) if reg.kind in ("l1", "hard") else np.ones(raw.shape[1], dtype=bool)
    return RegularizedMeans(per_group=out, active_mask=mask)


def _l2_blend(deltas, k: int) -> np.ndarray:
    """The l2 rule at each of ``deltas`` as weights on the ``K + 1`` base columns ``[m_1 ... m_K | pooled]``.

    The rule is linear in ``delta``, so every l2 cell lies in the span of
    those columns. Column ``d K + k`` of the ``(K + 1) x (len(deltas) K)``
    result holds ``1 - deltas[d]`` in row ``k`` and ``deltas[d]`` in row
    ``K``: ``[per_group.T | pooled] @ _l2_blend(deltas, K)`` stacks the
    ``per_group.T`` of :func:`regularize_means` at each weight, up to
    rounding, and a weight of 0 copies the group means exactly.
    """
    d = np.asarray(deltas, dtype=float)
    return np.vstack([np.kron(1.0 - d, np.eye(k)), np.repeat(d, k)])
