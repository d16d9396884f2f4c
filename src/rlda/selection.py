"""Cross-validated hyperparameter selection and the simulation benchmark.

The grid evaluator, :func:`_grid_accuracies`, scores every (fold, target,
intensity, mean rule, threshold) cell from one kernel per target and
training fold: a map from the intensity ``lam`` to the regularized
covariance, in the form that :func:`~rlda.covariance._shrinkage_kernel`
picks for the grid's length.
Both forms judge ``lam = 0`` (``M = S``) by one rank rule, so a singular
``S`` leaves it NaN. Either way the regularized mean rows of all rules and
thresholds are built once per fold as one block. The fixed targets of a
fold share one spectral decomposition, whose kernels project that block,
the fold's test rows and the ones vector onto the eigenbasis once, after
which each (target, intensity) scores every cell without a
``p``-dimensional product; a dense kernel solves the block once per
intensity. The 1000-dimensional benchmark runs both targets on one pass
and one shared analytic-intensity pass; ``perfbench/run.py --workload
paper-experiment`` times it per seed.
Fold assignment is computed once up front from the seed, so results do
not depend on evaluation order and repeated runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import NotPositiveDefiniteError
from .covariance import DEFAULT_THETA2, ShrinkageTarget, SpectralCovariance, _lw_lambdas, _shrinkage_kernel
from .datamodel import GroupedDataset, GroupMeans, SimulationConfig, group_means, simulate, sparse_shift
from .discriminant import _score_blocks, _scores
from .regmeans import KINDS, MeanRegularizer, regularize_means

__all__ = [
    "CvConfig",
    "CvResult",
    "cross_validate",
    "default_delta_grid",
    "default_lambda_grid",
    "make_folds",
    "render_experiment_text",
    "run_simulated_experiment",
]

LAMBDA_STEP_GRID = tuple(np.round(np.arange(0.0, 1.0 + 1e-9, 0.05), 2))
THRESHOLD_QUANTILES = (0.0, 0.5, 0.75, 0.9, 0.95, 0.99)
L2_DELTA_GRID = tuple(np.round(np.arange(0.0, 0.9 + 1e-9, 0.1), 1))


def default_lambda_grid() -> tuple[float, ...]:
    """Intensity grid: 0 to 1 in steps of 0.05."""
    return LAMBDA_STEP_GRID


def default_delta_grid(kind: str, data: GroupedDataset | None = None) -> tuple[float, ...]:
    """Mean-rule grid: fixed steps for the blend, data quantiles for thresholds.

    Threshold grids adapt to the scale of the group means: they are the
    empirical quantiles of ``|mean_kj|`` over all groups and variables.
    """
    if kind == "none":
        return (0.0,)
    if kind == "l2":
        return L2_DELTA_GRID
    if kind in ("l1", "hard"):
        if data is None:
            raise ValueError("threshold grids are data-adaptive; pass the dataset")
        magnitudes = np.abs(group_means(data).per_group).ravel()
        return tuple(float(q) for q in np.quantile(magnitudes, THRESHOLD_QUANTILES))
    raise ValueError(f"unknown mean regularizer kind {kind!r}")


@dataclass(frozen=True)
class CvConfig:
    """Protocol for k-fold tuning: folds, grids, seed, stratification."""

    folds: int = 5
    lambda_grid: tuple[float, ...] | None = None
    delta_grid: tuple[float, ...] | None = None
    seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError("folds must be at least 2")
        for name in ("lambda_grid", "delta_grid"):
            grid = getattr(self, name)
            if grid is not None:
                if len(grid) == 0:
                    raise ValueError(f"{name} must be non-empty")
                object.__setattr__(self, name, tuple(float(v) for v in grid))
        for lam in self.lambda_grid or ():
            if not 0.0 <= lam <= 1.0:  # also false for nan
                raise ValueError(f"lambda_grid values must lie in [0, 1], got {lam}")


@dataclass(frozen=True)
class CvResult:
    """Outcome of one grid search: the selected cell and its fold statistics."""

    best_lambda: float
    best_delta: float | None
    accuracy_mean: float
    accuracy_sd: float
    n_selected_variables: int
    table: tuple = field(repr=False)

    def __post_init__(self):
        if not 0.0 <= self.accuracy_mean <= 1.0:
            raise ValueError("accuracy_mean must lie in [0, 1]")
        if self.accuracy_sd < 0.0:
            raise ValueError("accuracy_sd must be nonnegative")
        if self.n_selected_variables < 0:
            raise ValueError("n_selected_variables must be nonnegative")

    def to_dict(self) -> dict:
        return {
            "best_lambda": self.best_lambda,
            "best_delta": self.best_delta,
            "accuracy_mean": self.accuracy_mean,
            "accuracy_sd": self.accuracy_sd,
            "n_selected_variables": self.n_selected_variables,
            "table": list(self.table),
        }


def make_folds(data: GroupedDataset, folds: int, seed: int, stratified: bool = True) -> list[np.ndarray]:
    """Deterministic fold assignment; returns the test-row indices per fold.

    Stratified assignment shuffles each group separately and deals rows
    round-robin, keeping group proportions within one observation per
    fold. It requires every group to have at least ``folds`` members.
    """
    if folds < 2:
        raise ValueError("folds must be at least 2")
    rng = np.random.default_rng(seed)
    assignment = np.empty(data.n, dtype=int)
    if stratified:
        if int(data.group_counts.min()) < folds:
            small = data.group_names[int(np.argmin(data.group_counts))]
            raise ValueError(
                f"stratified {folds}-fold split infeasible: group {small!r} has "
                f"{int(data.group_counts.min())} observations"
            )
        for g in range(data.n_groups):
            idx = np.flatnonzero(data.labels == g)
            idx = rng.permutation(idx)
            assignment[idx] = np.arange(idx.size) % folds
    else:
        order = rng.permutation(data.n)
        assignment[order] = np.arange(data.n) % folds
    return [np.flatnonzero(assignment == f) for f in range(folds)]


def _grid_accuracies(
    data: GroupedDataset,
    fold_sets: list[np.ndarray],
    targets: tuple[ShrinkageTarget, ...],
    lambda_grids: list[tuple[float, ...]],
    kind_grids: dict[str, tuple[float, ...]],
) -> list[dict[str, np.ndarray]]:
    """Fold accuracies for every (lambda, delta) cell of every mean rule, one table per target.

    Each table holds one array of shape ``(folds, len(lambda_grid),
    len(deltas))`` per mean rule; cells whose covariance is singular stay
    NaN. ``lambda_grids`` holds each target's own intensities. Each
    training fold's kernels, one map from ``lam`` to the covariance ``M``
    per target, come from :func:`~rlda.covariance._shrinkage_kernel`, told
    the most intensities any target reads; its two forms give the same
    table, ``lam = 0`` verdicts included, up to floating-point rounding of
    the scores. For each fold the mean rows of every (rule, delta) cell are
    stacked once into one ``p x (cells K)`` block ``m^T``, and every
    (target, intensity) scores all cells at once through
    :func:`~rlda.discriminant._score_blocks`. Spectral kernels on one basis
    ``vt`` (every fixed target of a fold) share one
    :func:`_eigenbasis_blocks` projection of the fold, so an intensity
    costs ``O(n_test r cells K)`` and no ``p``-dimensional product; a dense
    ``M`` solves ``a = M^-1 m^T``. An intensity whose ``M`` is not positive
    definite leaves its cells NaN: the covariance is still built per
    intensity, so its checks and the ``lam = 0`` rank rule decide that on
    either form. :func:`cross_validate` is the one-target call.
    """
    out = [
        {kind: np.full((len(fold_sets), len(lambda_grid), len(grid)), np.nan) for kind, grid in kind_grids.items()}
        for lambda_grid in lambda_grids
    ]
    cells = [(kind, di, delta) for kind, grid in kind_grids.items() for di, delta in enumerate(grid)]
    intensities = max(map(len, lambda_grids))
    all_rows = np.arange(data.n)
    for f, test_idx in enumerate(fold_sets):
        train = data.subset(np.setdiff1d(all_rows, test_idx, assume_unique=True))
        means = group_means(train)
        k = train.n_groups
        m_t = np.concatenate(
            [regularize_means(means, MeanRegularizer(kind, delta)).per_group for kind, _, delta in cells]
        ).T  # p x (cells K)
        log_priors = np.tile(np.log(train.group_counts / train.n), len(cells))
        test_values = data.values[test_idx]
        test_labels = data.labels[test_idx]
        basis = blocks = None
        kernels = _shrinkage_kernel(train, means, targets, intensities)
        for table, lambda_grid, covariance in zip(out, lambda_grids, kernels, strict=True):
            for li, lam in enumerate(lambda_grid):
                try:
                    cov = covariance(lam)
                except NotPositiveDefiniteError:
                    continue
                if isinstance(cov, SpectralCovariance):
                    if cov.vt is not basis:  # once per fold: every intensity and target shares vt
                        basis = cov.vt
                        blocks = _eigenbasis_blocks(basis, m_t, test_values)
                    scores = _score_blocks(*blocks(cov), log_priors)
                else:
                    scores = _scores(cov.solve, m_t, test_values, log_priors)
                scores = scores.reshape(len(test_idx), len(cells), k)
                acc = np.mean(np.argmax(scores, axis=2) == test_labels[:, None], axis=0)
                for (kind, di, _), value in zip(cells, acc):
                    table[kind][f, li, di] = value
    return out


def _eigenbasis_blocks(vt: np.ndarray, means_t: np.ndarray, queries: np.ndarray):
    """``cov -> (Z a, sum(m^T * a))`` with ``a = M^-1 m^T``, for every spectral ``cov`` on ``vt``.

    ``[m^T | Z^T | 1]`` is projected onto the ``r`` rows of ``vt`` once. With
    ``M^-1 = B^-1 - beta u u^T`` and ``B^-1 = V diag(w) V^T + (1/c) I``
    (:attr:`~rlda.covariance.SpectralCovariance.base_weights`,
    :meth:`~rlda.covariance.SpectralCovariance.rank_one_weight`), each
    block is a weighted product of projections plus ``1/c`` times a raw
    product (``Z m^T``, ``sum(m^T * m^T)``, ``Z 1``, ``1^T m^T``); those
    are kept only when ``r < p``, since ``1/c`` reads 0 otherwise.
    """
    r, p = vt.shape
    cols = means_t.shape[1]
    projected = vt @ np.hstack([means_t, queries.T, np.ones((p, 1))])
    pm, pz, p1 = projected[:, :cols], projected[:, cols:-1], projected[:, -1]
    if r < p:
        zm, mm = queries @ means_t, np.sum(means_t * means_t, axis=0)
        z1, m1 = queries.sum(axis=1), means_t.sum(axis=0)
    else:
        zm = mm = z1 = m1 = 0.0

    def blocks(cov: SpectralCovariance) -> tuple[np.ndarray, np.ndarray]:
        w, inv_c = cov.base_weights
        wm = w[:, None] * pm
        cross = pz.T @ wm + inv_c * zm
        quad = np.sum(pm * wm, axis=0) + inv_c * mm
        if cov.theta2 != 0.0:
            w1 = w * p1
            um = w1 @ pm + inv_c * m1  # u^T m^T with u = B^-1 1
            zu = pz.T @ w1 + inv_c * z1  # Z u
            beta = cov.rank_one_weight(w1 @ p1 + inv_c * p)
            cross = cross - np.outer(zu, beta * um)
            quad = quad - beta * um * um
        return cross, quad

    return blocks


def _selected(
    acc: np.ndarray, lambda_grid, delta_grid, kind: str, means: GroupMeans
) -> tuple[float, float | None, np.ndarray, int]:
    """The best mean-accuracy cell: lambda, delta, fold accuracies, active variables.

    Ties resolve toward larger lambda, then delta. The active-variable count
    is that of the mean rule at the selected delta applied to the full-data
    group ``means``; delta is ``None`` for plain means.
    """
    mean_acc = acc.mean(axis=0)  # NaN when any fold failed
    best = None
    for li in range(len(lambda_grid)):
        for di in range(len(delta_grid)):
            value = mean_acc[li, di]
            if np.isnan(value):
                continue
            if best is None or value >= best[0]:
                best = (value, li, di)
    if best is None:
        cause = "; lambda=0 leaves M = S, which is singular on some training fold" if 0.0 in lambda_grid else ""
        raise NotPositiveDefiniteError(f"no feasible grid cell: every intensity fails on some training fold{cause}")
    _, li, di = best
    n_active = regularize_means(means, MeanRegularizer(kind, delta_grid[di])).n_active
    delta = None if kind == "none" else float(delta_grid[di])
    return float(lambda_grid[li]), delta, acc[:, li, di], n_active


def _cell_table(acc: np.ndarray, lambda_grid, delta_grid, kind: str) -> tuple:
    rows = []
    mean_acc = acc.mean(axis=0)
    sd_acc = acc.std(axis=0, ddof=1)
    for li, lam in enumerate(lambda_grid):
        for di, delta in enumerate(delta_grid):
            feasible = not np.isnan(mean_acc[li, di])
            rows.append(
                {
                    "lambda": float(lam),
                    "delta": None if kind == "none" else float(delta),
                    "accuracy_mean": float(mean_acc[li, di]) if feasible else None,
                    "accuracy_sd": float(sd_acc[li, di]) if feasible else None,
                }
            )
    return tuple(rows)


def cross_validate(
    data: GroupedDataset,
    target: ShrinkageTarget,
    mean_reg_kind: str,
    cv: CvConfig,
) -> CvResult:
    """Grid-search (lambda, delta) by k-fold accuracy.

    For every grid cell the classifier is fitted on each training fold and
    scored on the held-out fold; the cell with the best mean accuracy wins
    (ties prefer the stronger regularization). The selected-variable count
    is that of the winning mean rule on the full dataset's group means.
    """
    fold_sets = make_folds(data, cv.folds, cv.seed, cv.stratified)
    lambda_grid = cv.lambda_grid or default_lambda_grid()
    delta_grid = cv.delta_grid or default_delta_grid(mean_reg_kind, data)
    acc = _grid_accuracies(data, fold_sets, (target,), (lambda_grid,), {mean_reg_kind: delta_grid})[0][mean_reg_kind]
    lam, delta, fold_acc, n_active = _selected(acc, lambda_grid, delta_grid, mean_reg_kind, group_means(data))
    return CvResult(
        best_lambda=lam,
        best_delta=delta,
        accuracy_mean=float(fold_acc.mean()),
        accuracy_sd=float(fold_acc.std(ddof=1)),
        n_selected_variables=n_active,
        table=_cell_table(acc, lambda_grid, delta_grid, mean_reg_kind),
    )


_EXPERIMENT_ROWS = (
    ("t1", "none", "cv"),
    ("t1", "none", "lw"),
    ("t2", "none", "cv"),
    ("t2", "none", "lw"),
    ("t1", "l2", "cv"),
    ("t1", "l1", "cv"),
    ("t1", "hard", "cv"),
    ("t2", "l2", "cv"),
    ("t2", "l1", "cv"),
    ("t2", "hard", "cv"),
)


def run_simulated_experiment(
    seed: int,
    *,
    n: int = 50,
    m: int = 50,
    p: int = 1000,
    sigma: float = 1.0,
    c: float = 0.4,
    shift_count: int = 5,
    shift_value: float = 3.0,
    theta2: float = DEFAULT_THETA2,
    folds: int = 5,
) -> dict:
    """Run the two-group simulation benchmark and report every method row.

    Generates the equicorrelated two-group design (first group centered at
    zero, second shifted in its first ``shift_count`` coordinates), then
    evaluates ten classifier variants on one shared stratified fold
    partition: both shrinkage targets with plain means (intensity chosen
    by cross-validation and by the analytic rule) and with each of the
    three mean rules (cross-validated). Rows sharing a seed share folds,
    so differences between rows are method effects, not partition noise.

    Returns
    -------
    dict
        ``{"seed", "config", "rows": [...]}`` with one entry per method
        row carrying accuracy mean/SD over folds, the chosen parameters,
        and the selected-variable count.
    """
    targets = {  # checked before any data is drawn
        "t1": ShrinkageTarget.identity(),
        "t2": ShrinkageTarget.equal_correlation(theta2=theta2),
    }
    config = SimulationConfig(
        n=n, m=m, p=p, sigma=sigma, c=c, shift=sparse_shift(p, shift_count, shift_value), seed=seed
    )
    data = simulate(config)
    fold_sets = make_folds(data, folds, seed, stratified=True)
    lambda_grid = default_lambda_grid()
    kind_grids = {kind: default_delta_grid(kind, data) for kind in KINDS}
    means = group_means(data)

    # One pass over the folds covers both targets: the CV rows of all mean
    # rules and, in each target's last column, its lw row. Each fold is
    # decomposed and projected once for both.
    fixed = tuple(targets.values())
    lam_hats = dict(zip(targets, _lw_lambdas(data, fixed)))
    tables = _grid_accuracies(data, fold_sets, fixed, [lambda_grid + (lam_hats[name],) for name in targets], kind_grids)
    acc = dict(zip(targets, tables))

    rows = []
    for target_name, kind, selection in _EXPERIMENT_ROWS:
        if selection == "lw":
            lam, fold_acc = lam_hats[target_name], acc[target_name]["none"][:, -1, 0]
            delta, n_vars = None, int(p)
        else:
            cv_acc = acc[target_name][kind][:, :-1]  # the analytic intensity never wins a CV row
            lam, delta, fold_acc, n_vars = _selected(cv_acc, lambda_grid, kind_grids[kind], kind, means)
        rows.append(
            {
                "target": target_name,
                "mean_reg": kind,
                "selection": selection,
                "lambda": float(lam),
                "delta": delta,
                "accuracy": float(fold_acc.mean()),
                "sd": float(fold_acc.std(ddof=1)),
                "n_variables": n_vars,
            }
        )

    return {
        "seed": int(seed),
        "config": {
            "n": n,
            "m": m,
            "p": p,
            "sigma": sigma,
            "c": c,
            "shift_count": shift_count,
            "shift_value": shift_value,
            "theta2": theta2,
            "folds": folds,
            "lambda_grid": [float(v) for v in lambda_grid],
        },
        "rows": rows,
    }


def render_experiment_text(report: dict) -> str:
    """Aligned text table of an experiment report, one line per method row."""
    header = f"{'target':<8}{'mean-reg':<10}{'selection':<11}{'lambda':>8}{'delta':>10}{'accuracy':>10}{'(SD)':>8}{'vars':>7}"
    lines = [header, "-" * len(header)]
    for row in report["rows"]:
        delta = "-" if row["delta"] is None else f"{row['delta']:.4g}"
        lines.append(
            f"{row['target']:<8}{row['mean_reg']:<10}{row['selection']:<11}"
            f"{row['lambda']:>8.3f}{delta:>10}{row['accuracy']:>10.3f}{row['sd']:>8.3f}{row['n_variables']:>7d}"
        )
    return "\n".join(lines)
