"""Cross-validated hyperparameter selection and the simulation benchmark.

This module owns the folds, the grid's cells and the selection among
them; every rule it applies is stated elsewhere. The grid evaluator,
:func:`_grid_accuracies`, scores every (fold, target, intensity, mean
rule, threshold) cell from one kernel per target and training fold: the
covariance module picks its form and applies ``M^-1`` (every kernel of a
fold goes to its one scorer, :func:`~rlda.covariance._fold_blocks`), the
priors are :func:`~rlda.discriminant.resolve_priors`'s empirical ones, and
:func:`~rlda.discriminant._score_blocks` scores. The l2 rule is linear in
its weight, so ``M^-1`` meets only the ``K + 1`` group and pooled means
for all its cells (:func:`~rlda.regmeans._l2_blend` states the blend),
and the other rules' means as they are. A singular ``lam = 0``
leaves its cells NaN. The 1000-dimensional benchmark runs both targets on
one pass and one shared analytic-intensity pass; ``perfbench/run.py
--workload paper-experiment`` times it per seed.
Fold assignment is computed once up front from the seed, so results do
not depend on evaluation order and repeated runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import NotPositiveDefiniteError, require_count, require_lower_bound, require_unit_interval
from .covariance import (
    DEFAULT_THETA2,
    ShrinkageTarget,
    _fold_blocks,
    _lw_lambdas,
    _shrinkage_kernel,
)
from .datamodel import GroupedDataset, GroupMeans, SimulationConfig, group_means, simulate, sparse_shift
from .discriminant import _require_groups, _score_blocks, resolve_priors
from .regmeans import KINDS, MeanRegularizer, _l2_blend, regularize_means

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
        object.__setattr__(self, "folds", require_count(self.folds, "folds", 2))
        for name in ("lambda_grid", "delta_grid"):
            grid = getattr(self, name)
            if grid is not None:
                if len(grid) == 0:
                    raise ValueError(f"{name} must be non-empty")
                object.__setattr__(self, name, tuple(float(v) for v in grid))
        for lam in self.lambda_grid or ():
            require_unit_interval(lam, "lambda_grid values")


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
        require_unit_interval(self.accuracy_mean, "accuracy_mean")
        require_lower_bound(self.accuracy_sd, "accuracy_sd")
        require_lower_bound(self.n_selected_variables, "n_selected_variables")

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
    Unstratified assignment deals one shuffle of all rows round-robin. It
    refuses an empty test fold (``folds > n``) and a test fold that holds a
    whole group, whose training fold would lack that group. Both modes
    refuse a split whose smallest training fold keeps at most ``K`` rows,
    too few for the within-group pooled covariance.
    """
    folds = require_count(folds, "folds", 2)
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
        if folds > data.n:
            raise ValueError(f"unstratified {folds}-fold split infeasible: n={data.n} rows leave a test fold empty")
        assignment[rng.permutation(data.n)] = np.arange(data.n) % folds
        for g, name in enumerate(data.group_names):
            held = np.unique(assignment[data.labels == g])
            if held.size == 1:
                raise ValueError(
                    f"unstratified {folds}-fold split infeasible: test fold {held[0] + 1} holds all "
                    f"{int(data.group_counts[g])} observations of group {name!r}"
                )
    train = data.n - np.bincount(assignment, minlength=folds)
    small = int(np.argmin(train))
    if train[small] <= data.n_groups:
        mode = "stratified" if stratified else "unstratified"
        raise ValueError(
            f"{mode} {folds}-fold split infeasible: training fold {small + 1} keeps {int(train[small])} rows, "
            f"and the pooled covariance of K={data.n_groups} groups needs at least {data.n_groups + 1}"
        )
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
    NaN. A target's arrays are views of one ``(folds, len(lambda_grid),
    cells)`` array in which each rule's cells are a contiguous span, so
    the accuracies of one (fold, intensity) fill one row of it.
    ``lambda_grids`` holds each target's own intensity grid. Each training
    fold's kernels, one map from ``lam`` to the covariance ``M`` per
    target, come from :func:`~rlda.covariance._shrinkage_kernel`: spectral
    for a fixed target, dense for a custom one. Its two forms give the same
    table, ``lam = 0`` verdicts included, up to floating-point rounding of
    the scores. For each fold the means are stacked once into one ``p x
    columns`` block: with an l2 grid, first the ``K + 1`` base columns
    ``[m_1 ... m_K | pooled]`` of its span, whose blend
    (:func:`~rlda.regmeans._l2_blend`) gives every l2 cell and, at weight
    0, every plain one; then the ``K`` mean rows of every other (rule,
    delta) cell. Each (target, intensity) reduces its kernel to the pair
    ``(Z a, sum(m^T * a))``, ``a = M^-1 m^T``, over the cells ``m^T``, and
    one :func:`~rlda.discriminant._score_blocks` call scores all cells from
    it, with the fold's empirical log-priors. ``M^-1`` is applied to the
    stacked columns only; ``Z a`` is blended into the cells after. Every
    kernel of a fold, whatever its form, reduces through one
    :func:`~rlda.covariance._fold_blocks` scorer, which projects once for
    all the fold's spectral kernels and solves a dense ``M``. An intensity
    whose ``M`` is not positive definite leaves its cells NaN: the
    covariance is still built per intensity, so its checks and the
    ``lam = 0`` rank rule decide that on either form.
    :func:`cross_validate` is the one-target call.
    """
    rules = {kind: [MeanRegularizer(kind, delta) for delta in grid] for kind, grid in kind_grids.items()}
    # The l2 span comes first: its K + 1 base columns give every l2 cell and, sharing the pass, the plain ones.
    spanned = [kind for kind in ("none", "l2") if kind in rules] if "l2" in rules else []
    order = spanned + [kind for kind in rules if kind not in spanned]
    bounds = np.cumsum([0, *(len(rules[kind]) for kind in order)])
    spans = {kind: slice(lo, hi) for kind, lo, hi in zip(order, bounds[:-1], bounds[1:])}
    cells = int(bounds[-1])
    weights = [0.0 if kind == "none" else rule.delta for kind in spanned for rule in rules[kind]]
    blend = _l2_blend(weights, data.n_groups) if spanned else None
    full = [np.full((len(fold_sets), len(lambda_grid), cells), np.nan) for lambda_grid in lambda_grids]
    all_rows = np.arange(data.n)
    for f, test_idx in enumerate(fold_sets):
        train = data.subset(np.setdiff1d(all_rows, test_idx, assume_unique=True))
        means = group_means(train)
        k = train.n_groups
        base = [means.per_group, means.pooled[None, :]] if spanned else []
        direct = [regularize_means(means, rule).per_group for kind in order[len(spanned):] for rule in rules[kind]]
        m_t = np.concatenate(base + direct).T  # p x columns: the l2 span's base, then every other cell
        log_priors = np.tile(np.log(resolve_priors("empirical", train.group_counts)), cells)
        test_values = data.values[test_idx]
        test_labels = data.labels[test_idx]
        blocks = _fold_blocks(m_t, test_values, blend)
        kernels = _shrinkage_kernel(train, means, targets)
        for acc, lambda_grid, covariance in zip(full, lambda_grids, kernels, strict=True):
            for li, lam in enumerate(lambda_grid):
                try:
                    cov = covariance(lam)
                except NotPositiveDefiniteError:
                    continue
                scores = _score_blocks(*blocks(cov), log_priors).reshape(len(test_idx), cells, k)
                acc[f, li] = np.mean(np.argmax(scores, axis=2) == test_labels[:, None], axis=0)
    return [{kind: acc[..., spans[kind]] for kind in kind_grids} for acc in full]


def _selected(
    acc: np.ndarray, lambda_grid, delta_grid, kind: str, means: GroupMeans
) -> tuple[float, float | None, np.ndarray, int]:
    """The best mean-accuracy cell: lambda, delta, fold accuracies, active variables.

    The winner is the last maximum of the fold-mean accuracies in (lambda,
    delta) order, so ties resolve toward larger lambda, then delta; a cell
    that failed on any fold is skipped. The active-variable count is that
    of the mean rule at the selected delta applied to the full-data group
    ``means``; delta is ``None`` for plain means.
    """
    mean_acc = acc.mean(axis=0)  # NaN when any fold failed
    if np.isnan(mean_acc).all():
        cause = "; lambda=0 leaves M = S, which is singular on some training fold" if 0.0 in lambda_grid else ""
        raise NotPositiveDefiniteError(f"no feasible grid cell: every intensity fails on some training fold{cause}")
    # nanargmax finds the first maximum; on the reversed cells that is the last one.
    li, di = np.unravel_index(mean_acc.size - 1 - np.nanargmax(mean_acc.ravel()[::-1]), mean_acc.shape)
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
    _require_groups(data)
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
