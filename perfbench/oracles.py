"""Slow dense references the benchmark checks rlda's outputs against.

Every classifier oracle forms the regularized kernel explicitly and inverts
it with ``numpy.linalg.inv``; none of them calls into rlda's Cholesky or
SVD routes. Only the fold partition comes from ``rlda.selection.make_folds``
so that the reference scores the very folds the program scored.
"""

from __future__ import annotations

import numpy as np

# Identical predictions give fold statistics equal to rounding error; one
# flipped prediction moves the fold mean by 1 / n, far above this.
ACCURACY_TOL = 1e-9
# Monte Carlo estimates must sit within this many standard errors of the
# closed form; a 5-sigma miss has probability ~6e-7 per check.
MC_SIGMAS = 5.0


def group_stats(x: np.ndarray, labels: np.ndarray, k: int):
    """Per-group means (K x p), pooled mean and group counts."""
    per_group = np.stack([x[labels == g].mean(axis=0) for g in range(k)])
    counts = np.bincount(labels, minlength=k)
    return per_group, x.mean(axis=0), counts


def regularized_means(per_group, pooled, kind: str, delta: float) -> np.ndarray:
    if kind == "none":
        return per_group
    if kind == "l2":
        return (1.0 - delta) * per_group + delta * pooled
    if kind == "l1":
        return np.sign(per_group) * np.maximum(np.abs(per_group) - delta, 0.0)
    if kind == "hard":
        return np.where(np.abs(per_group) > delta, per_group, 0.0)
    raise ValueError(f"unknown mean rule {kind!r}")


def shrunk_inverse(x, labels, k: int, target: str, lam: float, theta2: float) -> np.ndarray:
    """Explicit inverse of ``(1 - lam) S + lam T`` with ``S`` the within-group scatter / (n - K)."""
    per_group, _, _ = group_stats(x, labels, k)
    resid = x - per_group[labels]
    s = resid.T @ resid / (x.shape[0] - k)
    p = x.shape[1]
    if target == "t1":
        t = np.eye(p)
    elif target == "t2":
        sigma2 = float(np.mean(np.diag(s)))
        t = sigma2 * np.eye(p) + theta2 * (np.ones((p, p)) - np.eye(p))
    else:
        raise ValueError(f"unknown target {target!r}")
    return np.linalg.inv((1.0 - lam) * s + lam * t)


class LdaOracle:
    """Dense LDA reference on one training set, caching kernel inverses."""

    def __init__(self, x, labels, k: int, theta2: float = 0.15):
        self.x, self.labels, self.k, self.theta2 = x, labels, k, theta2
        self._inverses: dict = {}

    def _inverse(self, rows_key, rows, target, lam):
        key = (rows_key, target, float(lam))
        if key not in self._inverses:
            self._inverses[key] = shrunk_inverse(self.x[rows], self.labels[rows], self.k, target, lam, self.theta2)
        return self._inverses[key]

    def predict(self, rows_key, rows, target, lam, kind, delta, queries) -> np.ndarray:
        """Group indices for ``queries`` from a fit on ``rows`` at (lam, delta)."""
        per_group, pooled, counts = group_stats(self.x[rows], self.labels[rows], self.k)
        means = regularized_means(per_group, pooled, kind, delta)
        a = self._inverse(rows_key, rows, target, lam) @ means.T
        scores = queries @ a - 0.5 * np.sum(means.T * a, axis=0) + np.log(counts / counts.sum())
        return np.argmax(scores, axis=1)

    def fold_accuracies(self, folds, target, lam, kind, delta) -> np.ndarray:
        """Held-out accuracy of every fold at one (lam, delta) cell."""
        all_rows = np.arange(self.x.shape[0])
        acc = []
        for f, test in enumerate(folds):
            train = np.setdiff1d(all_rows, test, assume_unique=True)
            pred = self.predict(("fold", f), train, target, lam, kind, delta, self.x[test])
            acc.append(float(np.mean(pred == self.labels[test])))
        return np.array(acc)

    def active_variables(self, kind, delta) -> int:
        per_group, pooled, _ = group_stats(self.x, self.labels, self.k)
        if kind not in ("l1", "hard"):
            return self.x.shape[1]
        return int(np.any(regularized_means(per_group, pooled, kind, delta) != 0.0, axis=0).sum())


def cv_cell_matches(oracle: LdaOracle, folds, target, lam, kind, delta, mean, sd) -> bool:
    """True when the reported fold mean and SD equal the dense reference."""
    acc = oracle.fold_accuracies(folds, target, lam, kind, delta)
    return abs(acc.mean() - mean) <= ACCURACY_TOL and abs(acc.std(ddof=1) - sd) <= ACCURACY_TOL


def ridge_predict(x, labels, k: int, lam: float, delta: float, queries) -> np.ndarray:
    """SVD-route reference: kernel ``(lam Xc^T Xc + (1 - lam) I)^-1``, empirical priors."""
    per_group, pooled, counts = group_stats(x, labels, k)
    xc = x - pooled
    kinv = np.linalg.inv(lam * xc.T @ xc + (1.0 - lam) * np.eye(x.shape[1]))
    blended = (1.0 - delta) * per_group + delta * pooled
    d = blended[None, :, :] - queries[:, None, :]  # m x K x p
    dist = np.sum((d @ kinv) * d, axis=2)
    return np.argmin(0.5 * dist - np.log(counts / counts.sum()), axis=1)


def fixed_center_risks(sigma2: float, delta2: float, n: int, p: int):
    """Closed-form (mean, per-replication SD) of the naive and posterior squared errors.

    The naive error is ``N(0, a I)`` with ``a = sigma2 / n``; the posterior
    error is ``N(0, v I)`` with ``v = a delta2 / (delta2 + a)``. A squared
    norm of ``N(0, c I_p)`` has mean ``p c`` and SD ``sqrt(2 p) c``.
    """
    a = sigma2 / n
    v = a * delta2 / (delta2 + a)
    return (p * a, np.sqrt(2.0 * p) * a), (p * v, np.sqrt(2.0 * p) * v)


def random_center_risks(sigma2: float, delta2: float, n: int, psi: np.ndarray):
    """As :func:`fixed_center_risks` for ``xi ~ N(theta, psi + delta2 I)``.

    The posterior error is ``N(0, C)`` with ``C = a P (P + a I)^-1``, whose
    eigenvalues are ``a e / (e + a)`` for the eigenvalues ``e`` of ``P``.
    """
    a = sigma2 / n
    p = psi.shape[0]
    e = np.linalg.eigvalsh(psi + delta2 * np.eye(p))
    c = a * e / (e + a)
    return (p * a, np.sqrt(2.0 * p) * a), (float(c.sum()), float(np.sqrt(2.0 * np.sum(c * c))))


def within_mc_error(estimate: float, risk: tuple[float, float], replications: int) -> bool:
    mean, sd = risk
    return abs(estimate - mean) <= MC_SIGMAS * sd / np.sqrt(replications)


def posterior_matches(summary, xbar, n: int, sigma, eta, theta) -> bool:
    """Posterior mean and matrix weight against an explicit inverse."""
    scaled = sigma / n
    inv = np.linalg.inv(eta + scaled)
    mean = theta + eta @ inv @ (xbar - theta)
    weight = scaled @ inv
    return bool(
        np.allclose(summary.mean, mean, rtol=1e-8, atol=1e-10)
        and np.allclose(summary.shrinkage_weight, weight, rtol=1e-8, atol=1e-10)
    )
