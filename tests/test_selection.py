import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from rlda import covariance, selection
from rlda._linalg import NotPositiveDefiniteError
from rlda.covariance import WITHIN_GROUP, ShrinkageTarget, lw_lambda, pooled_covariance, shrink_covariance
from rlda.datamodel import GroupedDataset, group_means
from rlda.discriminant import _linear_terms, _score_blocks, classify, fit
from rlda.regmeans import MeanRegularizer, _l2_blend, regularize_means
from rlda.selection import (
    CvConfig,
    CvResult,
    _grid_accuracies,
    cross_validate,
    default_delta_grid,
    default_lambda_grid,
    make_folds,
    render_experiment_text,
    run_simulated_experiment,
)

from rlda.datamodel import SimulationConfig, simulate, sparse_shift

from conftest import random_grouped, random_spd


def manual_fold_accuracies(data, target, kind, fold_sets, lam, delta):
    """Oracle: naive fit/classify loop over folds with the public API."""
    accs = []
    for test_idx in fold_sets:
        train_idx = np.setdiff1d(np.arange(data.n), test_idx)
        train = data.subset(train_idx)
        reg = None if kind == "none" else MeanRegularizer(kind, delta)
        model = fit(train, target, lam, reg)
        pred = classify(model, data.values[test_idx])
        accs.append(float(np.mean(pred == data.labels[test_idx])))
    return np.array(accs)


def separable(rng, n_per=15):
    a = rng.standard_normal((n_per, 2)) * 0.25
    b = rng.standard_normal((n_per, 2)) * 0.25 + 6.0
    return GroupedDataset(
        np.vstack([a, b]), np.array([0] * n_per + [1] * n_per), ("a", "b")
    )


class TestFolds:
    def test_stratified_proportions(self, rng):
        data = random_grouped(rng, (20, 30), p=2)
        folds = make_folds(data, 5, seed=3)
        for test_idx in folds:
            labels = data.labels[test_idx]
            assert abs(np.sum(labels == 0) - 4) <= 1
            assert abs(np.sum(labels == 1) - 6) <= 1

    def test_partition_is_exact(self, rng):
        data = random_grouped(rng, (11, 13), p=2)
        folds = make_folds(data, 4, seed=9)
        combined = np.sort(np.concatenate(folds))
        assert_array_equal(combined, np.arange(data.n))

    def test_deterministic(self, rng):
        data = random_grouped(rng, (10, 10), p=2)
        a = make_folds(data, 5, seed=4)
        b = make_folds(data, 5, seed=4)
        for fa, fb in zip(a, b):
            assert_array_equal(fa, fb)

    def test_infeasible_stratification(self, rng):
        data = random_grouped(rng, (3, 20), p=2)
        with pytest.raises(ValueError, match="infeasible"):
            make_folds(data, 5, seed=0)

    def test_unstratified(self, rng):
        data = random_grouped(rng, (10, 10), p=2)
        folds = make_folds(data, 5, seed=4, stratified=False)
        assert sum(len(f) for f in folds) == 20
        assert [len(f) for f in make_folds(data, 20, seed=4, stratified=False)] == [1] * 20

    @pytest.mark.parametrize(
        "counts,folds,seed,message",
        [((3, 3), 7, 0, "n=6 rows leave a test fold empty"),
         ((10, 2), 6, 14, "test fold 4 holds all 2 observations of group 'g2'")],
        ids=["empty-test-fold", "group-left-out"],
    )
    def test_infeasible_unstratified_split(self, rng, counts, folds, seed, message):
        data = random_grouped(rng, counts, p=2)
        with pytest.raises(ValueError, match=re.escape(f"unstratified {folds}-fold split infeasible: {message}")):
            make_folds(data, folds, seed, stratified=False)

    @pytest.mark.parametrize(
        "stratified,counts,message",
        [(True, (2, 2, 2), "stratified 2-fold split infeasible: training fold 1 keeps 3 rows, "
                           "and the pooled covariance of K=3 groups needs at least 4"),
         (False, (3, 2), "unstratified 2-fold split infeasible: training fold 1 keeps 2 rows, "
                         "and the pooled covariance of K=2 groups needs at least 3")],
        ids=["stratified", "unstratified"],
    )
    def test_training_fold_at_most_k_rows(self, rng, stratified, counts, message):
        # Every test fold is feasible on its own; the training fold is too small for the pooled S.
        data = random_grouped(rng, counts, p=2)
        with pytest.raises(ValueError, match=re.escape(message)):
            make_folds(data, 2, seed=0, stratified=stratified)


class TestCrossValidate:
    def test_separable_data_scores_perfectly(self, rng):
        data = separable(rng)
        result = cross_validate(data, ShrinkageTarget.identity(), "none", CvConfig(seed=1))
        assert result.accuracy_mean == 1.0
        assert result.accuracy_sd == 0.0
        assert result.n_selected_variables == 2

    def test_tie_break_prefers_stronger_regularization(self, rng):
        # Every feasible cell is perfect on separable data, so the winner
        # must be the largest intensity on the grid.
        data = separable(rng)
        result = cross_validate(data, ShrinkageTarget.identity(), "none", CvConfig(seed=1))
        assert result.best_lambda == 1.0

    def test_deterministic(self, rng):
        data = random_grouped(rng, (12, 12), p=4, spread=1.0)
        cfg = CvConfig(seed=7, lambda_grid=(0.1, 0.5), delta_grid=(0.0, 0.3))
        a = cross_validate(data, ShrinkageTarget.identity(), "l2", cfg)
        b = cross_validate(data, ShrinkageTarget.identity(), "l2", cfg)
        assert a.to_dict() == b.to_dict()

    def test_single_cell_matches_manual_fold_oracle(self, rng):
        data = random_grouped(rng, (12, 14), p=3, spread=1.0)
        cfg = CvConfig(folds=5, seed=11, lambda_grid=(0.4,), delta_grid=(0.2,))
        result = cross_validate(data, ShrinkageTarget.identity(), "l2", cfg)
        fold_sets = make_folds(data, 5, seed=11)
        oracle = manual_fold_accuracies(data, ShrinkageTarget.identity(), "l2", fold_sets, 0.4, 0.2)
        assert result.accuracy_mean == pytest.approx(oracle.mean())
        assert result.accuracy_sd == pytest.approx(oracle.std(ddof=1))
        assert result.best_lambda == 0.4
        assert result.best_delta == 0.2

    def test_grid_table_matches_manual_loops(self, rng):
        data = random_grouped(rng, (10, 10), p=3, spread=1.2)
        lams, deltas = (0.2, 0.6), (0.0, 0.5)
        cfg = CvConfig(folds=4, seed=2, lambda_grid=lams, delta_grid=deltas)
        result = cross_validate(data, ShrinkageTarget.identity(), "hard", cfg)
        fold_sets = make_folds(data, 4, seed=2)
        by_cell = {(row["lambda"], row["delta"]): row["accuracy_mean"] for row in result.table}
        for lam in lams:
            for delta in deltas:
                oracle = manual_fold_accuracies(data, ShrinkageTarget.identity(), "hard", fold_sets, lam, delta)
                assert by_cell[(lam, delta)] == pytest.approx(oracle.mean())

    def test_best_cell_dominates_table(self, rng):
        data = random_grouped(rng, (12, 12), p=4, spread=1.0)
        result = cross_validate(
            data, ShrinkageTarget.identity(), "l1", CvConfig(seed=5, lambda_grid=(0.1, 0.4, 0.8))
        )
        feasible = [row["accuracy_mean"] for row in result.table if row["accuracy_mean"] is not None]
        assert result.accuracy_mean == pytest.approx(max(feasible))

    def test_infeasible_cells_are_skipped(self, rng):
        # n < p makes lambda = 0 rank deficient; selection must still work.
        data = random_grouped(rng, (8, 8), p=30, spread=1.5)
        result = cross_validate(
            data, ShrinkageTarget.identity(), "none", CvConfig(seed=3, lambda_grid=(0.0, 0.5))
        )
        assert result.best_lambda == 0.5
        infeasible = [row for row in result.table if row["accuracy_mean"] is None]
        assert len(infeasible) == 1 and infeasible[0]["lambda"] == 0.0

    def test_three_group_grid_matches_manual_loops(self, rng):
        data = random_grouped(rng, (9, 12, 10), p=4, spread=1.2)
        lams, deltas = (0.3, 0.7), (0.1, 0.6)
        cfg = CvConfig(folds=3, seed=6, lambda_grid=lams, delta_grid=deltas)
        result = cross_validate(data, ShrinkageTarget.identity(), "l1", cfg)
        fold_sets = make_folds(data, 3, seed=6)
        by_cell = {(row["lambda"], row["delta"]): row["accuracy_mean"] for row in result.table}
        for lam in lams:
            for delta in deltas:
                oracle = manual_fold_accuracies(data, ShrinkageTarget.identity(), "l1", fold_sets, lam, delta)
                assert by_cell[(lam, delta)] == pytest.approx(oracle.mean())

    def test_refuses_one_group(self, rng):
        single = GroupedDataset(rng.standard_normal((20, 3)), np.zeros(20, dtype=int), ("only",))
        with pytest.raises(ValueError, match="classification needs at least 2 groups"):
            cross_validate(single, ShrinkageTarget.identity(), "none", CvConfig(seed=1))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="folds"):
            CvConfig(folds=1)
        with pytest.raises(ValueError, match="non-empty"):
            CvConfig(lambda_grid=())

    @pytest.mark.parametrize("bad", [1.5, -0.1, float("nan"), float("inf")])
    def test_lambda_grid_is_range_checked_up_front(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"lambda_grid values must lie in [0, 1], got {bad}")):
            CvConfig(lambda_grid=(0.5, bad))
        CvConfig(lambda_grid=(0.0, 1.0))


class TestOrigin:
    """Plain and blended means move with the data, so the none and l2 rules do not depend on the origin.

    The thresholding rules (l1, hard) cut the raw means at 0, so their
    results do depend on it; see README's mean-rule text.
    """

    @pytest.mark.parametrize("n, p, shift", [(20, 60, 3.0), (60, 30, 0.6)], ids=["n<p", "n>p"])
    @pytest.mark.parametrize("target", [ShrinkageTarget.identity(), ShrinkageTarget.equal_correlation()], ids=["t1", "t2"])
    def test_a_common_offset_changes_no_cell_and_no_label(self, n, p, shift, target):
        data = simulate(SimulationConfig(n=n, m=n, p=p, sigma=1.0, c=0.4, shift=sparse_shift(p, 5, shift), seed=3))
        moved = GroupedDataset(data.values + 5.0, data.labels, data.group_names)
        for kind in ("none", "l2"):
            tables = [cross_validate(d, target, kind, CvConfig(seed=2)).table for d in (data, moved)]
            assert tables[0] == tables[1]
        labels = [classify(fit(d, target, 0.3, MeanRegularizer("l2", 0.4)), d.values) for d in (data, moved)]
        assert_array_equal(labels[0], labels[1])


class TestDefaultGrids:
    def test_lambda_grid_spans_unit_interval(self):
        grid = default_lambda_grid()
        assert grid[0] == 0.0 and grid[-1] == 1.0 and len(grid) == 21

    def test_threshold_grid_uses_quantiles(self, rng):
        from rlda.datamodel import group_means

        data = random_grouped(rng, (10, 10), p=5)
        grid = default_delta_grid("hard", data)
        magnitudes = np.abs(group_means(data).per_group)
        assert grid[0] == pytest.approx(magnitudes.min())  # 0-quantile
        assert grid[-1] <= magnitudes.max()
        assert len(grid) == 6
        assert all(a <= b for a, b in zip(grid, grid[1:]))

    def test_l2_grid_fixed(self):
        grid = default_delta_grid("l2")
        assert grid[0] == 0.0 and grid[-1] == pytest.approx(0.9)


@pytest.fixture(scope="module")
def small_report():
    return run_simulated_experiment(seed=5, n=14, m=14, p=25, shift_count=3, folds=4)


class TestExperiment:
    def test_row_roster(self, small_report):
        rows = small_report["rows"]
        assert len(rows) == 10
        combos = {(r["target"], r["mean_reg"], r["selection"]) for r in rows}
        assert ("t1", "none", "lw") in combos
        assert ("t2", "hard", "cv") in combos
        assert sum(r["selection"] == "lw" for r in rows) == 2

    def test_accuracy_ranges(self, small_report):
        for row in small_report["rows"]:
            assert 0.0 <= row["accuracy"] <= 1.0
            assert row["sd"] >= 0.0
            assert 0 <= row["n_variables"] <= 25

    def test_sparse_rows_report_small_support(self, small_report):
        hard = [r for r in small_report["rows"] if r["mean_reg"] == "hard" and r["target"] == "t2"]
        assert hard[0]["n_variables"] <= 25

    def test_deterministic(self):
        a = run_simulated_experiment(seed=8, n=10, m=10, p=12, shift_count=2, folds=3)
        b = run_simulated_experiment(seed=8, n=10, m=10, p=12, shift_count=2, folds=3)
        assert a == b

    def test_text_rendering(self, small_report):
        text = render_experiment_text(small_report)
        lines = text.splitlines()
        assert len(lines) == 12  # header + rule + 10 rows
        assert "accuracy" in lines[0]

    @pytest.mark.parametrize("size,p", [(12, 60), (40, 8)], ids=["thin", "full-rank"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_rows_equal_the_one_target_calls(self, size, p, seed):
        # Both targets share each fold's spectrum, projection and lw pass; every row must equal its own call.
        folds = 5
        report = run_simulated_experiment(seed, n=size, m=size, p=p, folds=folds)
        data = simulate(SimulationConfig(n=size, m=size, p=p, sigma=1.0, c=0.4, shift=sparse_shift(p, 5, 3.0), seed=seed))
        targets = {"t1": ShrinkageTarget.identity(), "t2": ShrinkageTarget.equal_correlation(theta2=0.15)}
        for row in report["rows"]:
            target = targets[row["target"]]
            if row["selection"] == "lw":
                assert row["lambda"] == lw_lambda(data, target)
                continue
            result = cross_validate(data, target, row["mean_reg"], CvConfig(folds, seed=seed))
            expected = (result.best_lambda, result.best_delta, result.accuracy_mean, result.accuracy_sd,
                        result.n_selected_variables)
            assert (row["lambda"], row["delta"], row["accuracy"], row["sd"], row["n_variables"]) == expected, row

    def test_one_decomposition_and_projection_per_fold(self, monkeypatch):
        calls = {"eigh": 0, "svd": 0, "projections": 0}
        project = covariance._eigenbasis_blocks

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return call

        # np.linalg.eigh and np.linalg.svd as reached from rlda.covariance only.
        linalg = SimpleNamespace(
            **{**vars(np.linalg), **{name: counted(name, getattr(np.linalg, name)) for name in ("eigh", "svd")}}
        )
        monkeypatch.setattr(covariance, "np", SimpleNamespace(**{**vars(np), "linalg": linalg}))
        monkeypatch.setattr(covariance, "_eigenbasis_blocks", counted("projections", project))
        run_simulated_experiment(seed=1, folds=5)  # the paper's shape: n = m = 50, p = 1000
        assert calls == {"eigh": 5, "svd": 0, "projections": 5}

    def test_paper_shape_peaks_below_three_p_by_p_arrays(self):
        # The lw pass on the full data sets the peak: its scatter and one scratch buffer.
        p = 1000
        tracemalloc.start()
        try:
            run_simulated_experiment(seed=1, p=p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * p * p * 8

    def test_full_rank_grid_peaks_below_three_times_the_data(self):
        # The benchmark's tall shape: n = 2000 >= p = 200, K = 4 equicorrelated groups, each shifted in five coordinates.
        n, p, k, shift, c = 2000, 200, 4, 0.6, 0.4
        rng = np.random.default_rng(7)
        labels = np.arange(n) % k
        centers = np.zeros((k, p))
        for g in range(k):
            centers[g, 5 * g : 5 * g + 5] = shift
        z, z0 = rng.standard_normal((n, p)), rng.standard_normal(n)
        values = np.sqrt(1.0 - c) * z + np.sqrt(c) * z0[:, None] + centers[labels]
        data = GroupedDataset(values, labels, tuple(f"g{g}" for g in range(k)))
        tracemalloc.start()
        try:
            cross_validate(data, ShrinkageTarget.identity(), "l2", CvConfig(folds=5, seed=7))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * data.values.nbytes


def _dense_kernel(train: GroupedDataset, means, target: ShrinkageTarget):
    """Per-intensity Cholesky factor of the shrunk covariance, as a function of ``lam``."""
    s = pooled_covariance(train, means, WITHIN_GROUP)
    return lambda lam: shrink_covariance(s, target, lam)


def grid_cells(data, target, fold_sets, lambda_grid, kind_grids):
    """The grid's cell table for one target."""
    return _grid_accuracies(data, fold_sets, (target,), (lambda_grid,), kind_grids)[0]


def dense_cells(data, target, fold_sets, lambda_grid, kind_grids):
    """The cell table through one Cholesky factorization per (fold, intensity)."""

    def kernels(train, means, targets):
        return [_dense_kernel(train, means, t) for t in targets]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(selection, "_shrinkage_kernel", kernels)
        return grid_cells(data, target, fold_sets, lambda_grid, kind_grids)


def paper_design(seed: int, p: int):
    config = SimulationConfig(n=50, m=50, p=p, sigma=1.0, c=0.4, shift=sparse_shift(p, 5, 3.0), seed=seed)
    data = simulate(config)
    kind_grids = {kind: default_delta_grid(kind, data) for kind in ("none", "l2", "l1", "hard")}
    return data, make_folds(data, 5, seed), kind_grids


TARGETS = [ShrinkageTarget.identity(), ShrinkageTarget.equal_correlation(theta2=0.15)]


def refuse(name):
    def call(*args, **kwargs):
        raise AssertionError(f"{name} must not run here")

    return call


class TestSpectralRoute:
    """The spectral route must reproduce the dense Cholesky cell tables exactly, for n < p and n - K >= p."""

    def assert_tables_equal(self, data, fold_sets, kind_grids, lambda_zero_feasible=False):
        for target in TARGETS:
            spectral = grid_cells(data, target, fold_sets, default_lambda_grid(), kind_grids)
            dense = dense_cells(data, target, fold_sets, default_lambda_grid(), kind_grids)
            for kind in kind_grids:
                assert np.array_equal(spectral[kind], dense[kind], equal_nan=True), (target.kind, kind)
                # lambda = 0 is S itself: singular when n - K < p, feasible for a full-rank S.
                assert np.isnan(spectral[kind][:, 0]).all() != lambda_zero_feasible
                assert not np.isnan(spectral[kind][:, 1:]).any()

    def test_paper_configuration(self):
        self.assert_tables_equal(*paper_design(seed=1, p=1000))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_reduced_dimension(self, seed):
        self.assert_tables_equal(*paper_design(seed=seed, p=150))

    def test_three_groups(self, rng):
        data = random_grouped(rng, (9, 12, 10), p=40, spread=0.4)
        fold_sets = make_folds(data, 3, seed=6)
        self.assert_tables_equal(data, fold_sets, {"none": (0.0,), "l2": (0.0, 0.5), "l1": (0.1, 0.6)})

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_tall_design(self, seed):
        # n - K = 396 >= p = 40: the folds take eigh(S) and lambda = 0 is feasible.
        data = random_grouped(np.random.default_rng(seed), (100, 100, 100, 100), p=40, spread=0.3)
        kind_grids = {kind: default_delta_grid(kind, data) for kind in ("none", "l2", "l1", "hard")}
        self.assert_tables_equal(data, make_folds(data, 5, seed), kind_grids, lambda_zero_feasible=True)

    def test_tall_three_groups(self, rng):
        data = random_grouped(rng, (40, 50, 45), p=20, spread=0.4)
        fold_sets = make_folds(data, 3, seed=6)
        kind_grids = {"none": (0.0,), "l2": (0.0, 0.5), "l1": (0.1, 0.6)}
        self.assert_tables_equal(data, fold_sets, kind_grids, lambda_zero_feasible=True)

    @pytest.mark.parametrize("column", ["duplicated", "constant"])
    def test_tall_singular_s_fails_lambda_zero_by_the_rank_rule(self, column):
        # n - K >= p, yet S is singular: the last column copies the first, or is constant.
        data = random_grouped(np.random.default_rng(4), (60, 60), p=11, spread=0.3)
        extra = data.values[:, :1] if column == "duplicated" else np.full((data.n, 1), 2.0)
        data = GroupedDataset(np.hstack([data.values, extra]), data.labels, data.group_names)
        fold_sets = make_folds(data, 4, seed=4)
        lams, kind_grids = (0.0, 0.05, 0.5), {"none": (0.0,), "l2": (0.5,)}
        for target in TARGETS:
            spectral = grid_cells(data, target, fold_sets, lams, kind_grids)
            dense = dense_cells(data, target, fold_sets, lams, kind_grids)
            for kind in kind_grids:
                assert np.isnan(spectral[kind][:, 0]).all()
                assert np.array_equal(spectral[kind][:, 1:], dense[kind][:, 1:])
                assert not np.isnan(spectral[kind][:, 1:]).any()
                # The dense route applies the same rank rule at lambda = 0.
                assert np.isnan(dense[kind][:, 0]).all()

    def test_lambda_zero_skips_rank_check(self, rng, monkeypatch):
        def no_rank(*args, **kwargs):
            raise AssertionError("matrix_rank must not run on the spectral route")

        monkeypatch.setattr(np.linalg, "matrix_rank", no_rank)
        data = random_grouped(rng, (8, 8), p=30, spread=1.5)
        for target in TARGETS:
            acc = grid_cells(data, target, make_folds(data, 4, seed=3), (0.0, 0.5), {"none": (0.0,)})["none"]
            assert np.isnan(acc[:, 0]).all()
            assert not np.isnan(acc[:, 1]).any()

    def test_non_positive_definite_target_fails_alike(self, rng):
        data = random_grouped(rng, (8, 8), p=30, spread=1.5)
        fold_sets = make_folds(data, 4, seed=3)
        target = ShrinkageTarget.equal_correlation(theta2=50.0)
        pattern = r"equal-correlation target not positive definite \(sigma2=(\S+), theta2=50.0, p=30\)"
        errors = []
        for evaluate in (grid_cells, dense_cells):
            with pytest.raises(ValueError) as err:
                evaluate(data, target, fold_sets, (0.5,), {"none": (0.0,)})
            errors.append(err.value)
        assert type(errors[0]) is type(errors[1])
        # The default variance scale may differ in its last bits between the routes.
        sigmas = [float(re.fullmatch(pattern, str(e)).group(1)) for e in errors]
        assert sigmas[0] == pytest.approx(sigmas[1], rel=1e-12)

    def test_fixed_targets_take_spectral_route_at_any_n(self, rng, monkeypatch):
        data = random_grouped(rng, (30, 30), p=6, spread=1.0)  # n - K >= p
        fold_sets = make_folds(data, 3, seed=2)
        monkeypatch.setattr(covariance, "shrink_covariance", refuse("the dense kernel"))
        for target in TARGETS:
            acc = grid_cells(data, target, fold_sets, (0.0, 0.5), {"l2": (0.0, 0.5)})["l2"]
            assert not np.isnan(acc).any()
        monkeypatch.undo()
        monkeypatch.setattr(covariance, "_spectrum", refuse("the spectral kernel"))
        custom = ShrinkageTarget.custom(np.eye(6) + 0.1)
        acc = grid_cells(data, custom, fold_sets, (0.0, 0.5), {"l2": (0.0, 0.5)})["l2"]
        assert not np.isnan(acc).any()


class TestKernelRule:
    """On full-rank ``S`` fixed targets take the spectral kernel at any grid length, and it reports what the dense one does."""

    @pytest.fixture
    def tall(self, rng):
        data = random_grouped(rng, (40, 40, 40), p=10, spread=0.5)  # n - K >= p on every training fold
        return data, make_folds(data, 4, seed=5)

    @pytest.mark.parametrize("lambda_grid", [(0.0, 0.3), (0.1, 0.2, 0.3), (0.0,), (0.3,)])
    @pytest.mark.parametrize("target", TARGETS, ids=["identity", "equal-correlation"])
    def test_several_intensities_take_the_spectral_kernel(self, tall, monkeypatch, target, lambda_grid):
        data, fold_sets = tall
        monkeypatch.setattr(covariance, "shrink_covariance", refuse("the dense kernel"))
        acc = grid_cells(data, target, fold_sets, lambda_grid, {"none": (0.0,), "l2": (0.5,)})
        assert not np.isnan(acc["none"]).any() and not np.isnan(acc["l2"]).any()

    @pytest.mark.parametrize("kind", ["none", "l2", "l1", "hard"])
    @pytest.mark.parametrize("target", TARGETS, ids=["identity", "equal-correlation"])
    def test_one_point_report_equals_the_spectral_report(self, tall, monkeypatch, target, kind):
        data, _ = tall
        for lam in (0.0, 0.05, 0.5):
            cv = CvConfig(folds=4, seed=5, lambda_grid=(lam,))
            spectral = cross_validate(data, target, kind, cv).to_dict()
            with monkeypatch.context() as patch:
                patch.setattr(selection, "_shrinkage_kernel", lambda d, m, ts: [_dense_kernel(d, m, t) for t in ts])
                dense = cross_validate(data, target, kind, cv).to_dict()
            assert dense == spectral, (lam, kind)

    @pytest.mark.parametrize("counts,p", [((8, 9, 8), 40), ((40, 40, 40), 10)], ids=["thin", "square"])
    def test_one_pass_over_three_target_kinds_equals_the_one_target_passes(self, monkeypatch, counts, p):
        # Each fold scores both fixed targets from one projection and solves the custom one.
        data = random_grouped(np.random.default_rng(8), counts, p=p, spread=0.5)
        fold_sets = make_folds(data, 4, seed=5)
        targets = (*TARGETS, ShrinkageTarget.custom(random_spd(np.random.default_rng(9), p)))
        lambda_grid = default_lambda_grid()
        kind_grids = {"none": (0.0,), "l2": (0.0, 0.5, 0.9), "hard": default_delta_grid("hard", data)}
        alone = [grid_cells(data, target, fold_sets, lambda_grid, kind_grids) for target in targets]
        projections = []
        project = covariance._eigenbasis_blocks
        monkeypatch.setattr(covariance, "_eigenbasis_blocks", lambda *args: projections.append(args) or project(*args))
        together = _grid_accuracies(data, fold_sets, targets, (lambda_grid,) * len(targets), kind_grids)
        assert len(projections) == len(fold_sets)
        for target, table, expected in zip(targets, together, alone, strict=True):
            for kind in kind_grids:
                assert np.array_equal(table[kind], expected[kind], equal_nan=True), (target.kind, kind)
                # lambda = 0 is S itself: singular on the n < p folds only.
                assert np.isnan(table[kind][:, 0]).all() == (data.n < p)
                assert not np.isnan(table[kind][:, 1:]).any()


class TestEigenbasisScores:
    """A spectral kernel's grid scores, built in its eigenbasis, equal the scores through ``cov.solve``."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 4),
        per_group=st.integers(4, 12),
        thin=st.booleans(),
        gap=st.integers(1, 10),
        theta2=st.one_of(st.none(), st.floats(-0.02, 0.6)),
    )
    def test_projected_scores_match_the_solver(self, seed, k, per_group, thin, gap, theta2):
        rng = np.random.default_rng(seed)
        n = k * per_group
        is_test = np.arange(n) % 4 == 0
        dof = int(np.sum(~is_test)) - k
        p = dof + gap if thin else max(1, dof + 1 - gap)  # thin: n - K < p, square: n - K >= p
        data = random_grouped(rng, (per_group,) * k, p=p, spread=1.0)
        train, queries = data.subset(np.flatnonzero(~is_test)), data.values[is_test]
        target = ShrinkageTarget.identity() if theta2 is None else ShrinkageTarget.equal_correlation(theta2)
        means = group_means(train)
        try:
            kernel = covariance._shrinkage_kernel(train, means, (target,))[0]
        except ValueError:  # target not positive definite at this variance scale
            assume(False)
        rules = [MeanRegularizer("none", 0.0), MeanRegularizer("l2", 0.5), MeanRegularizer("hard", 0.3)]
        means_t = np.concatenate([regularize_means(means, rule).per_group for rule in rules]).T
        log_priors = np.tile(np.log(train.group_counts / train.n), len(rules))
        blocks = covariance._eigenbasis_blocks(kernel(1.0).vt, means_t, queries)
        # The l2 span: K + 1 base columns blended into every cell, then a cell that is not blended.
        deltas = (0.0, 0.3, 0.9, 1.0)
        hard = regularize_means(means, rules[2]).per_group
        base_t = np.concatenate([means.per_group, means.pooled[None, :], hard]).T
        blend = _l2_blend(deltas, k)
        span_t = np.concatenate([regularize_means(means, MeanRegularizer("l2", d)).per_group for d in deltas] + [hard]).T
        span_priors = np.tile(log_priors[:k], len(deltas) + 1)
        span_blocks = covariance._eigenbasis_blocks(kernel(1.0).vt, base_t, queries, blend)
        # The fold scorer's dense branch, reached by a kernel that offers only a solve.
        solved_blocks = covariance._fold_blocks(base_t, queries, blend)
        scale = max(np.linalg.norm(queries, axis=1).max(), np.linalg.norm(means_t, axis=0).max()) ** 2
        projected, solved = [], []
        for lam in default_lambda_grid():
            try:
                cov = kernel(lam)
            except NotPositiveDefiniteError:
                projected.append(np.nan)
                solved.append(np.nan)
                continue
            got = _score_blocks(*blocks(cov), log_priors)
            a, quad = _linear_terms(cov.solve, means_t)
            expected = _score_blocks(queries @ a, quad, log_priors)
            eig = np.linalg.eigvalsh(cov.matrix)
            # Either route rounds like eps * cond(M) * |z| |m| / eig_max(M); 64 p leaves a wide margin.
            tol = 64 * p * np.finfo(float).eps * (eig[-1] / eig[0]) * scale / eig[-1]
            assert np.abs(got - expected).max() <= tol, lam
            a, quad = _linear_terms(cov.solve, span_t)
            span_expected = _score_blocks(queries @ a, quad, span_priors)
            for route, form in ((span_blocks, cov), (solved_blocks, SimpleNamespace(solve=cov.solve))):
                assert np.abs(_score_blocks(*route(form), span_priors) - span_expected).max() <= tol, lam
            projected.append(got.sum())
            solved.append(expected.sum())
        assert np.isnan(projected).tolist() == np.isnan(solved).tolist()
        # lambda = 0 is S itself: singular on a thin fold, where every other intensity is feasible.
        assert np.isnan(projected[0]) == thin
        assert not np.isnan(projected[1:]).any()

    @pytest.mark.parametrize("target", [*TARGETS, None], ids=["identity", "equal-correlation", "custom"])
    def test_l2_grid_applies_m_inverse_to_k_plus_one_columns(self, monkeypatch, target):
        # Ten l2 cells of K = 3 groups come from the group means and the pooled mean alone.
        data = random_grouped(np.random.default_rng(4), (10, 12, 11), p=30, spread=0.5)
        if target is None:  # the dense kernel solves the block: cov.solve(b)
            target = ShrinkageTarget.custom(random_spd(np.random.default_rng(5), data.p))
            owner, name = covariance.RegularizedCovariance, "solve"
        else:  # the eigenbasis projects it: _eigenbasis_blocks(vt, means_t, ...)
            owner, name = covariance, "_eigenbasis_blocks"
        widths, original = [], getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: widths.append(args[1].shape[1]) or original(*args))
        cross_validate(data, target, "l2", CvConfig(folds=3, seed=2))
        assert widths and set(widths) == {data.n_groups + 1}

    @pytest.mark.parametrize("target", TARGETS, ids=["identity", "equal-correlation"])
    @pytest.mark.parametrize("counts,p", [((8, 8, 9), 40), ((40, 40, 40), 10)], ids=["thin", "square"])
    def test_grid_projects_once_per_fold_and_never_solves(self, monkeypatch, target, counts, p):
        data = random_grouped(np.random.default_rng(3), counts, p=p, spread=0.5)
        fold_sets = make_folds(data, 4, seed=5)
        kind_grids = {"none": (0.0,), "l2": (0.0, 0.5), "l1": (0.1,)}
        dense = dense_cells(data, target, fold_sets, default_lambda_grid(), kind_grids)
        projections = []
        project = covariance._eigenbasis_blocks
        monkeypatch.setattr(covariance, "_eigenbasis_blocks", lambda *args: projections.append(args) or project(*args))
        monkeypatch.setattr(covariance.SpectralCovariance, "solve", refuse("SpectralCovariance.solve"))
        monkeypatch.setattr(covariance, "shrink_covariance", refuse("the dense kernel"))
        acc = grid_cells(data, target, fold_sets, default_lambda_grid(), kind_grids)
        assert len(projections) == len(fold_sets)
        for kind in kind_grids:
            assert np.array_equal(acc[kind], dense[kind], equal_nan=True), kind


def _cv_result(**fields):
    valid = dict(best_lambda=0.5, best_delta=None, accuracy_mean=0.9, accuracy_sd=0.1, n_selected_variables=3, table=())
    return CvResult(**{**valid, **fields})


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: default_delta_grid("l1"), "threshold grids are data-adaptive; pass the dataset", id="data"),
        pytest.param(lambda: default_delta_grid("bogus"), "unknown mean regularizer kind 'bogus'", id="kind"),
        pytest.param(lambda: _cv_result(accuracy_mean=1.5), "accuracy_mean must lie in [0, 1]", id="accuracy-mean"),
        pytest.param(lambda: _cv_result(accuracy_sd=-0.1), "accuracy_sd must be nonnegative", id="accuracy-sd"),
        pytest.param(
            lambda: _cv_result(n_selected_variables=-1), "n_selected_variables must be nonnegative", id="selected"
        ),
    ],
)
def test_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
