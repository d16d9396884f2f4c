import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from rlda._linalg import ensure_symmetric, solve_spd

from rlda.covariance import (
    GRAM_POOLED_MEAN,
    WITHIN_GROUP,
    NotPositiveDefiniteError,
    RegularizedCovariance,
    ShrinkageTarget,
    _centered_rows,
    _lw_lambdas,
    _spectrum,
    lw_lambda,
    mahalanobis_sq,
    pooled_covariance,
    SpectralCovariance,
    _shrinkage_kernel,
    shrink_covariance,
)
from rlda.datamodel import GroupedDataset, SimulationConfig, group_means, simulate, sparse_shift
from rlda.regmeans import MeanRegularizer
from rlda.selection import default_lambda_grid

from conftest import duplicated_column_dataset, random_grouped, random_spd, rank_deficient_dataset


def double_loop_pooled(values, labels, k):
    """Oracle: accumulate outer products group by group, entry by entry."""
    n, p = values.shape
    means = [values[labels == g].mean(axis=0) for g in range(k)]
    acc = np.zeros((p, p))
    for row, lab in zip(values, labels):
        d = row - means[lab]
        for i in range(p):
            for j in range(p):
                acc[i, j] += d[i] * d[j]
    return acc / (n - k)


class TestPooledCovariance:
    def test_one_group_two_points(self):
        d = GroupedDataset(np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([0, 0]), ("a",))
        s = pooled_covariance(d, group_means(d), WITHIN_GROUP)
        assert_allclose(s, [[2.0, 0.0], [0.0, 0.0]])

    def test_identical_rows_give_zero(self):
        d = GroupedDataset(np.tile([1.0, 2.0], (5, 1)), np.array([0, 0, 0, 1, 1]), ("a", "b"))
        assert_allclose(pooled_covariance(d, group_means(d), WITHIN_GROUP), np.zeros((2, 2)))

    def test_matches_double_loop_oracle(self, rng):
        d = random_grouped(rng, (5, 3), p=3)
        s = pooled_covariance(d, group_means(d), WITHIN_GROUP)
        assert_allclose(s, double_loop_pooled(d.values, d.labels, 2), atol=1e-12)

    def test_gram_convention_is_unnormalized_pooled_centering(self, rng):
        d = random_grouped(rng, (4, 4), p=3)
        m = group_means(d)
        s = pooled_covariance(d, m, GRAM_POOLED_MEAN)
        centered = d.values - d.values.mean(axis=0)
        assert_allclose(s, centered.T @ centered, atol=1e-12)

    def test_insufficient_observations(self):
        d = GroupedDataset(np.eye(2), np.array([0, 1]), ("a", "b"))
        with pytest.raises(ValueError, match="n >= K \\+ 1"):
            pooled_covariance(d, group_means(d), WITHIN_GROUP)


class TestShrink:
    def test_lambda_zero_returns_s(self, rng):
        s = random_spd(rng, 3)
        out = shrink_covariance(s, ShrinkageTarget.identity(), 0.0)
        assert_allclose(out.matrix, s, atol=1e-12)

    def test_lambda_one_returns_target(self, rng):
        s = random_spd(rng, 3)
        out = shrink_covariance(s, ShrinkageTarget.identity(), 1.0)
        assert_allclose(out.matrix, np.eye(3), atol=1e-12)

    def test_halfway_arithmetic(self):
        out = shrink_covariance(2 * np.eye(2), ShrinkageTarget.identity(), 0.5)
        assert_allclose(out.matrix, 1.5 * np.eye(2))

    def test_singular_s_at_lambda_zero_is_recoverable(self):
        singular = np.ones((3, 3))
        with pytest.raises(NotPositiveDefiniteError):
            shrink_covariance(singular, ShrinkageTarget.identity(), 0.0)
        # same matrix, positive intensity: fine
        out = shrink_covariance(singular, ShrinkageTarget.identity(), 0.3)
        assert out.lam == 0.3

    def test_duplicated_column_fails_lambda_zero_by_the_rank_rule(self):
        # Cholesky of this exactly singular S ends on a round-off pivot that
        # can come out positive; the rank rule rejects S as the spectral kernel does.
        d = duplicated_column_dataset(seed=2)
        s = pooled_covariance(d, group_means(d), WITHIN_GROUP)
        message = r"shrunk covariance \(lam=0.0\) is not positive definite: S is singular \(smallest eigenvalue"
        with pytest.raises(NotPositiveDefiniteError, match=message):
            shrink_covariance(s, ShrinkageTarget.identity(), 0.0)
        with pytest.raises(NotPositiveDefiniteError, match=message):
            _shrinkage_kernel(d, group_means(d), (ShrinkageTarget.identity(),))[0](0.0)
        assert shrink_covariance(s, ShrinkageTarget.identity(), 0.05).lam == 0.05

    def test_rank_rule_edge_matches_spectral_kernel(self):
        # The dense route draws the line where SpectralCovariance does: eig[-1] > p * eps * eig[0].
        edge = 3 * np.finfo(float).eps
        out = shrink_covariance(np.diag([1.0, 0.5, edge * 1.5]), ShrinkageTarget.identity(), 0.0)
        assert_allclose(out.matrix, np.diag([1.0, 0.5, edge * 1.5]))
        with pytest.raises(NotPositiveDefiniteError, match="S is singular"):
            shrink_covariance(np.diag([1.0, 0.5, edge]), ShrinkageTarget.identity(), 0.0)

    def test_singular_s_fails_without_a_retry(self, monkeypatch):
        def no_rank(*args, **kwargs):
            raise AssertionError("no rank check may run after a failed factorization")

        monkeypatch.setattr(np.linalg, "matrix_rank", no_rank)
        with pytest.raises(NotPositiveDefiniteError, match="S is singular"):
            shrink_covariance(np.ones((3, 3)), ShrinkageTarget.identity(), 0.0)

    def test_factor_reconstructs_matrix(self, rng):
        s = random_spd(rng, 5)
        out = shrink_covariance(s, ShrinkageTarget.identity(), 0.2)
        assert_allclose(out.factor @ out.factor.T, 0.8 * s + 0.2 * np.eye(5), rtol=1e-8)
        assert np.allclose(out.factor, np.tril(out.factor))

    def test_pd_preserved_for_rank_deficient_s(self, rng):
        # n < p: the empirical matrix is singular, every positive intensity
        # with a PD target must still factorize.
        d = random_grouped(rng, (5, 5), p=50)
        s = pooled_covariance(d, group_means(d), WITHIN_GROUP)
        for lam in np.arange(0.05, 1.0001, 0.05):
            out = shrink_covariance(s, ShrinkageTarget.identity(), float(lam))
            assert out.matrix.shape == (50, 50)

    def test_eigenvalues_within_convex_bounds(self, rng):
        s = random_spd(rng, 6)
        t_mat = random_spd(rng, 6, scale=2.0)
        lam = 0.3
        out = shrink_covariance(s, ShrinkageTarget.custom(t_mat), lam)
        eig_s = np.linalg.eigvalsh(s)
        eig_t = np.linalg.eigvalsh(t_mat)
        lo = (1 - lam) * eig_s.min() + lam * eig_t.min()
        hi = (1 - lam) * eig_s.max() + lam * eig_t.max()
        eig_out = np.linalg.eigvalsh(out.matrix)
        assert eig_out.min() >= lo - 1e-10
        assert eig_out.max() <= hi + 1e-10

    def test_lambda_out_of_range(self, rng):
        with pytest.raises(ValueError):
            shrink_covariance(np.eye(2), ShrinkageTarget.identity(), 1.5)


class TestTargets:
    def test_equal_correlation_materialization(self):
        t = ShrinkageTarget.equal_correlation(theta2=0.15, sigma2=1.0).materialize(3)
        assert_allclose(np.diag(t), np.ones(3))
        assert t[0, 1] == pytest.approx(0.15)

    def test_equal_correlation_default_scale_from_data(self, rng):
        s = np.diag([1.0, 3.0])
        out = shrink_covariance(s, ShrinkageTarget.equal_correlation(theta2=0.5), 1.0)
        # default sigma2 = mean sample variance = 2.0
        assert_allclose(out.matrix, [[2.0, 0.5], [0.5, 2.0]])

    def test_equal_correlation_pd_guard(self):
        with pytest.raises(ValueError, match="not positive definite"):
            ShrinkageTarget.equal_correlation(theta2=2.0, sigma2=1.0).materialize(3)

    def test_custom_must_be_pd(self):
        with pytest.raises(NotPositiveDefiniteError):
            ShrinkageTarget.custom(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ShrinkageTarget(kind="t3")


LW_TARGETS = (
    ShrinkageTarget.identity(),
    ShrinkageTarget.equal_correlation(0.15),
    ShrinkageTarget.equal_correlation(0.1, sigma2=1.3),
)


LW_GRAM_RTOL = 1e-13  # the n < p form against the entrywise sums; observed within 1e-15


def paper_data(p, seed):
    return simulate(SimulationConfig(n=50, m=50, p=p, sigma=1.0, c=0.4, shift=sparse_shift(p, 5, 3.0), seed=seed))


def explicit_lw(d, target):
    """Oracle: the analytic intensity with the target materialized."""
    resid = d.values - group_means(d).per_group[d.labels]
    n, dof = d.n, d.n - d.n_groups
    scatter = resid.T @ resid
    s = scatter / dof
    sq = resid * resid
    wbar = scatter / n
    var_s = (n / ((n - 1.0) * dof * dof)) * (sq.T @ sq - n * wbar * wbar)
    t = target.materialize(d.p, default_sigma2=float(np.mean(np.diag(s))))
    return float(np.clip(np.sum(var_s) / float(np.sum((s - t) ** 2)), 0.0, 1.0))


class TestLwLambda:
    def test_always_in_unit_interval(self, rng):
        for _ in range(20):
            counts = tuple(int(c) for c in rng.integers(3, 12, size=int(rng.integers(2, 4))))
            d = random_grouped(rng, counts, p=int(rng.integers(1, 8)))
            lam = lw_lambda(d, ShrinkageTarget.identity())
            assert 0.0 <= lam <= 1.0

    def test_decreases_with_sample_size(self):
        lams = []
        for n in (20, 200, 2000):
            cfg = SimulationConfig(n=n, m=n, p=6, sigma=1.0, c=0.3, shift=np.zeros(6), seed=100 + n)
            d = simulate(cfg)
            lams.append(lw_lambda(d, ShrinkageTarget.identity()))
        assert lams[0] > lams[1] > lams[2]

    def test_univariate_is_finite(self, rng):
        d = random_grouped(rng, (6, 6), p=1)
        lam = lw_lambda(d, ShrinkageTarget.identity())
        assert np.isfinite(lam) and 0.0 <= lam <= 1.0

    def test_equal_correlation_target_supported(self, rng):
        d = random_grouped(rng, (8, 8), p=4)
        lam = lw_lambda(d, ShrinkageTarget.equal_correlation(theta2=0.1))
        assert 0.0 <= lam <= 1.0

    def test_custom_target_rejected(self, rng):
        d = random_grouped(rng, (4, 4), p=2)
        with pytest.raises(ValueError, match="identity and equal-correlation"):
            lw_lambda(d, ShrinkageTarget.custom(np.eye(2)))

    def test_needs_observations(self):
        d = GroupedDataset(np.zeros((2, 2)), np.array([0, 1]), ("a", "b"))
        with pytest.raises(ValueError):
            lw_lambda(d, ShrinkageTarget.identity())

    @pytest.mark.parametrize("target", [ShrinkageTarget.identity(), ShrinkageTarget.equal_correlation(0.1)])
    def test_bit_identical_to_explicit_group_loop(self, target):
        # Reference: the estimator with its group means accumulated group by group.
        d = simulate(SimulationConfig(n=30, m=25, p=40, sigma=1.0, c=0.3, shift=np.full(40, 0.5), seed=17))
        means = np.empty((d.n_groups, d.p))
        for g in range(d.n_groups):
            means[g] = d.values[d.labels == g].mean(axis=0)
        resid = d.values - means[d.labels]
        n, dof = d.n, d.n - d.n_groups
        scatter = resid.T @ resid
        s = scatter / dof
        sq = resid * resid
        wbar = scatter / n
        var_s = (n / ((n - 1.0) * dof * dof)) * (sq.T @ sq - n * wbar * wbar)
        t = target.materialize(d.p, default_sigma2=float(np.mean(np.diag(s))))
        expected = float(np.clip(np.sum(var_s) / float(np.sum((s - t) ** 2)), 0.0, 1.0))
        assert 0.0 < expected < 1.0
        assert lw_lambda(d, target) == expected

    @pytest.mark.parametrize("p", [40, 1000])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_shared_pass_equals_one_target_calls(self, p, seed):
        # The targets share the numerator; each one-target call is the shared pass exactly.
        d = paper_data(p, seed)  # n = 100
        lams = _lw_lambdas(d, LW_TARGETS)
        assert lams == [lw_lambda(d, target) for target in LW_TARGETS]
        expected = [explicit_lw(d, target) for target in LW_TARGETS]
        if d.n < p:  # the Gram form agrees with the entrywise sums to rounding
            assert_allclose(lams, expected, rtol=LW_GRAM_RTOL, atol=0)
        else:
            assert lams == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_gram_form_matches_explicit_sums_when_n_below_p(self, seed):
        rng = np.random.default_rng(seed)
        counts = tuple(int(c) for c in rng.integers(3, 10, size=int(rng.integers(2, 5))))
        d = random_grouped(rng, counts, p=sum(counts) + int(rng.integers(1, 80)))
        assert d.n < d.p
        expected = [explicit_lw(d, target) for target in LW_TARGETS]
        assert all(0.0 < lam < 1.0 for lam in expected)
        assert_allclose(_lw_lambdas(d, LW_TARGETS), expected, rtol=LW_GRAM_RTOL, atol=0)

    def test_gram_form_forms_no_p_by_p_array(self):
        p = 4000
        d = paper_data(p, seed=1)  # n = 100
        tracemalloc.start()
        try:
            _lw_lambdas(d, LW_TARGETS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A few n x p arrays (3.2 MB each); one p x p array is 128 MB.
        assert peak <= 4 * d.n * p * 8

    def test_target_equal_to_s_gives_exactly_zero(self):
        # At p = 1 the equal-correlation target with its default sigma2 is S itself.
        for seed in range(200):
            d = random_grouped(np.random.default_rng(seed), (5, 6), p=1)
            assert lw_lambda(d, ShrinkageTarget.equal_correlation()) == 0.0, seed

    @pytest.mark.parametrize(
        "estimate",
        [lambda d: _lw_lambdas(d, LW_TARGETS[:2]), lambda d: lw_lambda(d, LW_TARGETS[0])],
        ids=["two-target", "one-target"],
    )
    def test_pass_peaks_below_two_and_a_half_p_by_p_arrays(self, estimate):
        p = 1000
        d = paper_data(p, seed=1)  # n = 100
        tracemalloc.start()
        try:
            estimate(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # At n < p the Gram form holds no p x p array, far below this entrywise-form bound.
        assert peak <= 2.5 * p * p * 8


class TestSpectralShrinkage:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        counts=st.lists(st.integers(2, 6), min_size=2, max_size=4),
        extra=st.integers(1, 15),
        duplicated=st.integers(0, 4),
        lam=st.floats(1e-3, 1.0),
        theta2=st.one_of(st.none(), st.floats(-0.02, 0.6)),
    )
    def test_matches_dense_solve(self, seed, counts, extra, duplicated, lam, theta2):
        p = sum(counts) - len(counts) + extra + duplicated
        d = rank_deficient_dataset(seed, counts, p, duplicated)
        target = ShrinkageTarget.identity() if theta2 is None else ShrinkageTarget.equal_correlation(theta2)
        means = group_means(d)
        s = pooled_covariance(d, means, WITHIN_GROUP)
        try:
            matrix = shrink_covariance(s, target, lam).matrix
        except ValueError:  # target not positive definite at this variance scale
            assume(False)
        b = np.random.default_rng(seed).standard_normal((p, 3))
        expected = solve_spd(matrix, b)
        got = _shrinkage_kernel(d, means, (target,))[0](lam).solve(b)
        eig = np.linalg.eigvalsh(matrix)
        tol = 1e-11 * eig[-1] / eig[0] * np.abs(expected).max()
        assert np.abs(got - expected).max() <= tol

    @pytest.mark.parametrize("target", [ShrinkageTarget.identity(), ShrinkageTarget.equal_correlation(0.2)])
    def test_lambda_zero_is_singular(self, rng, target):
        d = random_grouped(rng, (4, 5), p=12)
        with pytest.raises(NotPositiveDefiniteError):
            _shrinkage_kernel(d, group_means(d), (target,))[0](0.0)

    def test_lambda_one_applies_target_inverse(self, rng):
        d = random_grouped(rng, (4, 5), p=12)
        target = ShrinkageTarget.equal_correlation(0.3, sigma2=2.0)
        b = rng.standard_normal((12, 2))
        got = _shrinkage_kernel(d, group_means(d), (target,))[0](1.0).solve(b)
        assert_allclose(got, np.linalg.solve(target.materialize(12), b), rtol=1e-12, atol=1e-12)

    def test_rejects_unsupported_inputs(self, rng):
        d = random_grouped(rng, (4, 5), p=12)
        means = group_means(d)
        with pytest.raises(ValueError, match="lam must lie"):
            _shrinkage_kernel(d, means, (ShrinkageTarget.identity(),))[0](1.5)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        counts=st.lists(st.integers(3, 30), min_size=2, max_size=4),
        p=st.integers(1, 25),
        lam=st.sampled_from(default_lambda_grid()),
        theta2=st.one_of(st.none(), st.floats(-0.02, 0.6)),
    )
    def test_tall_design_matches_dense_solve(self, seed, counts, p, lam, theta2):
        # n - K >= p: one eigh(S) serves every intensity, lambda = 0 included.
        assume(sum(counts) - len(counts) >= p)
        d = random_grouped(np.random.default_rng(seed), counts, p=p, spread=1.0)
        target = ShrinkageTarget.identity() if theta2 is None else ShrinkageTarget.equal_correlation(theta2)
        means = group_means(d)
        try:
            dense = shrink_covariance(pooled_covariance(d, means, WITHIN_GROUP), target, lam)
        except ValueError:  # target not positive definite at this variance scale
            assume(False)
        b = np.random.default_rng(seed).standard_normal((p, 3))
        cov = _shrinkage_kernel(d, means, (target,))[0](lam)
        assert cov.vt.shape == (p, p)
        expected = dense.solve(b)
        # Relative to the solution's scale: single entries may cancel to near zero.
        assert np.abs(cov.solve(b) - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_non_positive_definite_target_raises_like_materialize(self, rng):
        d = random_grouped(rng, (4, 5), p=12)
        target = ShrinkageTarget.equal_correlation(theta2=3.0, sigma2=2.0)
        with pytest.raises(ValueError) as from_target:
            target.materialize(12)
        with pytest.raises(ValueError) as from_kernel:
            _shrinkage_kernel(d, group_means(d), (target,))[0]
        assert str(from_kernel.value) == str(from_target.value)


class TestFoldSpectrum:
    """The n < p spectrum from ``eigh`` of the n x n Gram matrix, against the dense ``S`` and the residuals' SVD."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        counts=st.lists(st.integers(2, 8), min_size=2, max_size=4),
        extra=st.integers(1, 15),
        duplicated=st.integers(0, 4),
    )
    def test_gram_spectrum_matches_the_dense_oracles(self, seed, counts, extra, duplicated):
        n, k = sum(counts), len(counts)
        p = n + extra + duplicated
        d = rank_deficient_dataset(seed, counts, p, duplicated)
        means = group_means(d)
        vt, eig = _spectrum(*_centered_rows(d, means))
        assert vt.shape == (n - k, p) and eig.shape == (n - k,)  # the K centering directions are dropped
        # Round-off tolerances: the Gram form squares cond(R), so orthonormality is judged against eig[0] / eig[-1].
        eps = np.finfo(float).eps
        s = pooled_covariance(d, means, WITHIN_GROUP)
        assert np.abs((vt.T * eig) @ vt - s).max() <= 8 * n * eps * eig[0]
        assert np.abs(vt @ vt.T - np.eye(n - k)).max() <= 8 * n * eps * eig[0] / eig[-1]
        resid = d.values - means.per_group[d.labels]
        sv = np.linalg.svd(resid / np.sqrt(n - k), compute_uv=False)
        assert np.abs(eig - sv[: n - k] ** 2).max() <= 8 * n * eps * eig[0]

    @pytest.mark.parametrize(
        "target,spread",
        [(ShrinkageTarget.identity(), 1.0), (ShrinkageTarget.equal_correlation(0.0, sigma2=2.5), 2.5)],
        ids=["identity", "equal-correlation"],
    )
    def test_rows_at_their_group_means_leave_no_spectrum(self, target, spread):
        # Integer rows, so each group mean equals its rows exactly and R = 0.
        centers = np.random.default_rng(5).integers(-9, 10, (3, 12)).astype(float)
        d = GroupedDataset(np.repeat(centers, 3, axis=0), np.repeat(np.arange(3), 3), ("a", "b", "c"))
        means = group_means(d)
        vt, eig = _spectrum(*_centered_rows(d, means))
        assert vt.shape == (0, 12) and eig.shape == (0,)
        kernel = _shrinkage_kernel(d, means, (target,))[0]
        b = np.random.default_rng(6).standard_normal((12, 2))
        for lam in (0.05, 0.5, 1.0):
            assert_allclose(kernel(lam).solve(b), b / (lam * spread), rtol=1e-15)
        with pytest.raises(NotPositiveDefiniteError, match="rank at most n - K < p=12"):
            kernel(0.0)

    @pytest.mark.parametrize("target", [ShrinkageTarget.identity(), ShrinkageTarget.equal_correlation(0.2)])
    def test_p_at_most_n_below_p_plus_k_takes_eigh_of_s(self, rng, target):
        # n = 12 >= p = 11 > n - K = 10: all p pairs of eigh(S), two of them round-off zeros.
        d = random_grouped(rng, (6, 6), p=11)
        means = group_means(d)
        vt, eig = _spectrum(*_centered_rows(d, means))
        assert vt.shape == (11, 11) and eig.shape == (11,)
        with pytest.raises(NotPositiveDefiniteError, match="S is singular"):
            _shrinkage_kernel(d, means, (target,))[0](0.0)
        dense = shrink_covariance(pooled_covariance(d, means, WITHIN_GROUP), target, 0.3)
        b = rng.standard_normal((11, 3))
        expected = dense.solve(b)
        got = _shrinkage_kernel(d, means, (target,))[0](0.3).solve(b)
        assert np.abs(got - expected).max() <= 1e-10 * np.abs(expected).max()


class TestSpectralCovariance:
    @pytest.mark.parametrize("target", [ShrinkageTarget.identity(), ShrinkageTarget.equal_correlation(0.2)])
    def test_matrix_and_quadratic_form_match_dense(self, rng, target):
        for counts in ((4, 5), (20, 25)):  # n < p: Gram eigh; n >= p: eigh(S)
            d = random_grouped(rng, counts, p=12)
            means = group_means(d)
            cov = _shrinkage_kernel(d, means, (target,))[0](0.4)
            dense = shrink_covariance(pooled_covariance(d, means, WITHIN_GROUP), target, 0.4)
            assert (cov.p, cov.lam) == (12, 0.4)
            assert_allclose(cov.matrix, dense.matrix, rtol=0, atol=1e-12)
            for _ in range(3):
                z = rng.standard_normal(12)
                assert mahalanobis_sq(cov, z) == pytest.approx(mahalanobis_sq(dense, z), rel=1e-10)

    def test_solves_a_vector_like_a_column(self, rng):
        # n - K = 10 < p = 12 = n: eigh(S) keeps all p rows of V^T.
        d = random_grouped(rng, (6, 6), p=12)
        cov = _shrinkage_kernel(d, group_means(d), (ShrinkageTarget.equal_correlation(0.2),))[0](0.3)
        assert cov.vt.shape == (12, 12)
        z = rng.standard_normal(12)
        assert np.array_equal(cov.solve(z), cov.solve(z[:, None])[:, 0])

    def test_lambda_zero_raises(self, rng):
        d = random_grouped(rng, (4, 5), p=12)
        with pytest.raises(NotPositiveDefiniteError, match="rank at most n - K < p=12"):
            _shrinkage_kernel(d, group_means(d), (ShrinkageTarget.identity(),))[0](0.0)

    def test_rank_rule_at_lambda_zero(self):
        # Feasible exactly when r = p and eig[-1] > p * eps * eig[0] (numpy's matrix_rank tolerance).
        edge = 3 * np.finfo(float).eps
        feasible = SpectralCovariance(np.eye(3), [1.0, 0.5, edge * 1.5], 1.0, 0.0, 0.0)
        assert feasible.solve(np.ones(3))[2] == 1.0 / (edge * 1.5)
        for eig in ([1.0, 0.5, edge], [1.0, 0.5, 0.0], [0.0, 0.0, 0.0]):
            with pytest.raises(NotPositiveDefiniteError, match="S is singular"):
                SpectralCovariance(np.eye(3), eig, 1.0, 0.0, 0.0)
        assert np.linalg.matrix_rank(np.diag([1.0, 0.5, edge])) == 2
        assert np.linalg.matrix_rank(np.diag([1.0, 0.5, edge * 1.5])) == 3

    def test_validation(self):
        vt = np.eye(3)[:2]
        with pytest.raises(ValueError, match="one value per row"):
            SpectralCovariance(vt, np.ones(3), 1.0, 0.0, 0.5)
        with pytest.raises(ValueError, match="spread must be positive"):
            SpectralCovariance(vt, np.ones(2), 0.0, 0.0, 0.5)
        with pytest.raises(ValueError, match="lam must lie"):
            SpectralCovariance(vt, np.ones(2), 1.0, 0.0, 1.5)

    @pytest.mark.parametrize("eig", [[1.0, -1e-300], [1.0, 1.0 + 1e-15], [-1.0, -2.0]])
    def test_rejects_negative_or_increasing_eigenvalues(self, eig):
        with pytest.raises(ValueError, match="eigenvalues must be nonnegative and non-increasing"):
            SpectralCovariance(np.eye(3)[:2], eig, 1.0, 0.0, 0.5)


class TestMahalanobis:
    def identity_cov(self, p):
        return RegularizedCovariance(factor=np.eye(p), lam=0.0)

    def test_euclidean_case(self):
        assert mahalanobis_sq(self.identity_cov(2), [3.0, 4.0]) == pytest.approx(25.0)

    def test_zero_vector(self):
        assert mahalanobis_sq(self.identity_cov(3), np.zeros(3)) == 0.0

    def test_matches_explicit_inverse(self, rng):
        s = random_spd(rng, 6)
        cov = shrink_covariance(s, ShrinkageTarget.identity(), 0.1)
        for _ in range(10):
            d = rng.standard_normal(6)
            expected = float(d @ np.linalg.inv(cov.matrix) @ d)
            assert mahalanobis_sq(cov, d) == pytest.approx(expected, abs=1e-10, rel=1e-10)

    def test_positive_for_nonzero(self, rng):
        cov = shrink_covariance(random_spd(rng, 4), ShrinkageTarget.identity(), 0.5)
        for _ in range(10):
            d = rng.standard_normal(4)
            assert mahalanobis_sq(cov, d) > 0.0

    def test_triangular_solve_equals_quadratic_form(self, rng):
        # ||L^-1 d||^2 is exactly the quadratic form in the shrunk matrix.
        s = random_spd(rng, 5)
        cov = shrink_covariance(s, ShrinkageTarget.identity(), 0.3)
        d = rng.standard_normal(5)
        w = np.linalg.solve(cov.factor, d)
        assert float(w @ w) == pytest.approx(float(d @ np.linalg.solve(cov.matrix, d)), rel=1e-10)


def test_ensure_symmetric_refuses_a_non_square_input():
    with pytest.raises(ValueError, match=re.escape("S must be a square matrix, got shape (2, 3)")):
        ensure_symmetric(np.zeros((2, 3)), "S")


def _pooled_covariance(convention):
    data = random_grouped(np.random.default_rng(0), (3, 3), p=2)
    return pooled_covariance(data, group_means(data), convention)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: ShrinkageTarget("custom"), "custom target needs a matrix", id="custom-no-matrix"),
        pytest.param(
            lambda: ShrinkageTarget.custom([[1.0, np.nan], [np.nan, 1.0]]),
            "custom target must be finite, got nan",
            id="custom-non-finite",
        ),
        pytest.param(
            lambda: ShrinkageTarget("equal-correlation"), "equal-correlation target needs theta2", id="equal-no-theta2"
        ),
        pytest.param(
            lambda: ShrinkageTarget.custom(np.eye(2)).materialize(3),
            "custom target is (2, 2), expected (3, 3)",
            id="custom-materialize-p",
        ),
        pytest.param(
            lambda: ShrinkageTarget.equal_correlation().materialize(3),
            "equal-correlation target needs sigma2 or a data-derived default",
            id="equal-materialize-no-sigma2",
        ),
        pytest.param(lambda: RegularizedCovariance(np.eye(2), 1.5), "lam must lie in [0, 1]", id="factor-lam"),
        pytest.param(
            lambda: _pooled_covariance("bogus"), "unknown pooled-covariance convention 'bogus'", id="pooled-convention"
        ),
    ],
)
def test_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: RegularizedCovariance(np.eye(2), 1.5), "lam must lie in [0, 1], got 1.5", id="factor"),
        pytest.param(
            lambda: SpectralCovariance(np.eye(2), np.ones(2), 1.0, 0.0, float("nan")),
            "lam must lie in [0, 1], got nan",
            id="spectral-nan",
        ),
        pytest.param(
            lambda: shrink_covariance(np.eye(2), ShrinkageTarget.identity(), -0.1),
            "lam must lie in [0, 1], got -0.1",
            id="shrink",
        ),
        pytest.param(lambda: MeanRegularizer("l2", 1.2), "l2 blend weight must lie in [0, 1], got 1.2", id="l2-weight"),
    ],
)
def test_unit_interval_refusals_give_the_value(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
