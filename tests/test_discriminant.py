import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from rlda import __version__
from rlda._linalg import solve_spd
from rlda.covariance import (
    GRAM_POOLED_MEAN,
    WITHIN_GROUP,
    NotPositiveDefiniteError,
    RegularizedCovariance,
    ShrinkageTarget,
    SpectralCovariance,
    mahalanobis_sq,
    pooled_covariance,
    shrink_covariance,
)
from rlda.datamodel import GroupedDataset, group_means, load_csv
from rlda.discriminant import (
    LinearDiscriminant,
    RldaModel,
    classify,
    classify_alg1,
    classify_alg2,
    discriminant_scores,
    fit,
    fit_svd_ridge,
    linear_discriminant,
    resolve_priors,
    svd_ridge_sq_distances,
)
from rlda.regmeans import MeanRegularizer, RegularizedMeans
from rlda.serialize import decode_array, encode_array, load_model, model_to_dict, save_model

from conftest import random_grouped, rank_deficient_dataset

DATA = Path(__file__).parent / "data"
# Covariance kernel keys of a schema-2 document; a schema-3 document holds none of them.
KERNEL_KEYS = {"cov_kernel", "factor", "vt", "eigenvalues", "right_vectors", "singular_values"}


def toy_model(means_rows, priors, cov_matrix=None):
    """Assemble a model directly, bypassing fitting."""
    means_rows = np.asarray(means_rows, dtype=float)
    k, p = means_rows.shape
    cov_matrix = np.eye(p) if cov_matrix is None else np.asarray(cov_matrix)
    cov = RegularizedCovariance(factor=np.linalg.cholesky(cov_matrix), lam=0.0)
    return RldaModel(
        reg_means=RegularizedMeans(means_rows, np.ones(p, dtype=bool)),
        pooled_mean=means_rows.mean(axis=0),
        cov=cov,
        priors=np.asarray(priors, dtype=float),
        group_names=tuple(f"g{i + 1}" for i in range(k)),
        config={},
    )


def oracle_scores(means_rows, cov_matrix, priors, z):
    """Dense oracle for the discriminant scores, explicit inverse included."""
    inv = np.linalg.inv(cov_matrix)
    return np.array([m @ inv @ z - 0.5 * m @ inv @ m + np.log(pi) for m, pi in zip(means_rows, priors)])


def separable_dataset(rng, n_per=10, gap=8.0):
    a = rng.standard_normal((n_per, 2)) * 0.3
    b = rng.standard_normal((n_per, 2)) * 0.3 + gap
    values = np.vstack([a, b])
    labels = np.array([0] * n_per + [1] * n_per)
    return GroupedDataset(values, labels, ("a", "b"))


class TestFit:
    def test_separable_training_points_recovered(self, rng):
        data = separable_dataset(rng)
        model = fit(data, ShrinkageTarget.identity(), 0.1)
        assert_array_equal(classify(model, data.values), data.labels)

    def test_uniform_priors(self, rng):
        data = separable_dataset(rng, n_per=6)
        model = fit(data, ShrinkageTarget.identity(), 0.1, priors_spec="uniform")
        assert_allclose(model.priors, [0.5, 0.5])

    def test_shrinkage_rescues_wide_data(self, rng):
        data = random_grouped(rng, (10, 10), p=50)
        model = fit(data, ShrinkageTarget.identity(), 0.5)
        assert model.cov.matrix.shape == (50, 50)

    def test_requires_two_groups(self, rng):
        single = GroupedDataset(rng.standard_normal((5, 2)), np.zeros(5, dtype=int), ("only",))
        with pytest.raises(ValueError, match="at least 2 groups"):
            fit(single, ShrinkageTarget.identity(), 0.2)

    def test_invalid_priors(self, rng):
        data = separable_dataset(rng, n_per=4)
        with pytest.raises(ValueError, match="sum to 1"):
            fit(data, ShrinkageTarget.identity(), 0.1, priors_spec=[0.9, 0.9])
        with pytest.raises(ValueError, match="strictly positive"):
            resolve_priors([1.0, 0.0], np.array([2, 2]))

    def test_config_echo(self, rng):
        data = random_grouped(rng, (4, 4), p=3)
        model = fit(data, ShrinkageTarget.equal_correlation(0.15), 0.3, MeanRegularizer("l1", 0.1))
        assert model.config["lambda"] == 0.3
        assert model.config["mean_reg"] == "l1"
        assert model.config["target"]["kind"] == "equal-correlation"


class TestSpectralFit:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        counts=st.lists(st.integers(2, 6), min_size=2, max_size=4),
        extra=st.integers(1, 15),
        duplicated=st.integers(0, 4),
        lam=st.floats(1e-3, 1.0),
        theta2=st.one_of(st.none(), st.floats(-0.02, 0.6)),
        kind=st.sampled_from(["none", "l2", "hard"]),
    )
    def test_matches_dense_route_and_explicit_inverse(self, seed, counts, extra, duplicated, lam, theta2, kind):
        # K in {2, 3, 4}, n - K < p, duplicated columns: the spectral fit
        # against the dense shrink_covariance blend and explicit-inverse scores.
        p = sum(counts) - len(counts) + extra + duplicated
        data = rank_deficient_dataset(seed, counts, p, duplicated)
        target = ShrinkageTarget.identity() if theta2 is None else ShrinkageTarget.equal_correlation(theta2)
        try:
            dense = shrink_covariance(pooled_covariance(data, group_means(data), WITHIN_GROUP), target, lam).matrix
        except ValueError:  # target not positive definite at this variance scale
            assume(False)
        model = fit(data, target, lam, MeanRegularizer(kind, 0.3))
        assert isinstance(model.cov, SpectralCovariance)
        assert_allclose(model.cov.matrix, dense, rtol=0, atol=1e-12 * np.abs(dense).max())

        rng = np.random.default_rng(seed)
        b = rng.standard_normal((p, 3))
        expected_solve = solve_spd(dense, b)
        eig = np.linalg.eigvalsh(dense)
        cond = eig[-1] / eig[0]
        assert np.abs(model.cov.solve(b) - expected_solve).max() <= 1e-11 * cond * np.abs(expected_solve).max()

        queries = np.vstack([rng.standard_normal((4, p)), data.values[:3]])
        means = model.reg_means.per_group
        inv = np.linalg.inv(dense)
        a = inv @ means.T
        expected = queries @ a - 0.5 * np.sum(means.T * a, axis=0) + np.log(model.priors)
        scale = (np.abs(queries).max() + np.abs(means).max()) * np.abs(a).sum(axis=0).max() + 1.0
        tol = 1e-11 * cond * scale
        assert np.abs(discriminant_scores(model, queries) - expected).max() <= tol

    @pytest.mark.parametrize("target", [ShrinkageTarget.identity(), ShrinkageTarget.equal_correlation(0.2)])
    def test_lambda_zero_on_singular_s_raises(self, rng, target):
        data = random_grouped(rng, (4, 5), p=12)
        with pytest.raises(NotPositiveDefiniteError, match="lam=0.0"):
            fit(data, target, 0.0)

    def test_route_follows_degrees_of_freedom_and_target(self, rng):
        # n - K = 9 against p = 10 (spectral) and p = 9 (dense); custom
        # targets always take the dense route.
        wide = random_grouped(rng, (5, 6), p=10)
        square = random_grouped(rng, (5, 6), p=9)
        assert isinstance(fit(wide, ShrinkageTarget.identity(), 0.2).cov, SpectralCovariance)
        assert isinstance(fit(wide, ShrinkageTarget.equal_correlation(0.1), 0.2).cov, SpectralCovariance)
        assert isinstance(fit(square, ShrinkageTarget.identity(), 0.2).cov, RegularizedCovariance)
        custom = ShrinkageTarget.custom(2.0 * np.eye(10))
        assert isinstance(fit(wide, custom, 0.2).cov, RegularizedCovariance)


class TestScores:
    def test_hand_arithmetic(self):
        model = toy_model([[1.0, 0.0], [-1.0, 0.0]], [0.5, 0.5])
        scores = discriminant_scores(model, np.array([1.0, 0.0]))
        assert scores[0] - scores[1] == pytest.approx(2.0)

    def test_equidistant_point_ties_all_scores(self):
        model = toy_model([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [0.25] * 4)
        scores = discriminant_scores(model, np.zeros(2))
        assert_allclose(scores, scores[0])

    def test_matches_explicit_inverse_oracle(self, rng):
        for _ in range(10):
            data = random_grouped(rng, (7, 6, 8), p=5)
            model = fit(data, ShrinkageTarget.identity(), 0.25)
            z = rng.standard_normal(5)
            expected = oracle_scores(model.reg_means.per_group, model.cov.matrix, model.priors, z)
            assert_allclose(discriminant_scores(model, z), expected, atol=1e-10)

    def test_batch_matches_single(self, rng):
        data = random_grouped(rng, (6, 6), p=4)
        model = fit(data, ShrinkageTarget.identity(), 0.3)
        queries = rng.standard_normal((5, 4))
        batch = discriminant_scores(model, queries)
        for i, z in enumerate(queries):
            assert_allclose(batch[i], discriminant_scores(model, z), atol=1e-12)

    def test_score_distance_identity(self, rng):
        # score_k - 0.5 z' Sinv z == -0.5 (z - m_k)' Sinv (z - m_k) + log pi_k,
        # hence argmax of scores == argmin of 0.5 ||B_k||^2 - log pi_k.
        data = random_grouped(rng, (8, 9), p=6)
        model = fit(data, ShrinkageTarget.identity(), 0.4)
        for _ in range(10):
            z = rng.standard_normal(6)
            scores = discriminant_scores(model, z)
            zq = mahalanobis_sq(model.cov, z)
            for k in range(2):
                dist = mahalanobis_sq(model.cov, z - model.reg_means.per_group[k])
                lhs = scores[k] - 0.5 * zq
                rhs = -0.5 * dist + np.log(model.priors[k])
                assert lhs == pytest.approx(rhs, abs=1e-9)


class TestClassify:
    def test_exact_tie_goes_to_first_group(self):
        model = toy_model([[1.0, 0.0], [-1.0, 0.0]], [0.5, 0.5])
        assert classify(model, np.zeros(2)) == 0

    def test_query_at_mean(self):
        model = toy_model([[2.0, 0.0], [-2.0, 0.0]], [0.5, 0.5])
        assert classify(model, np.array([2.0, 0.0])) == 0
        assert classify(model, np.array([-2.0, 0.0])) == 1

    def test_prior_monotonicity(self, rng):
        # Raising a group's prior never flips a decision away from it.
        data = random_grouped(rng, (6, 6, 6), p=4, spread=1.0)
        z = rng.standard_normal(4)
        for k in range(3):
            base = fit(data, ShrinkageTarget.identity(), 0.3, priors_spec="uniform")
            if classify(base, z) != k:
                continue
            boosted_priors = np.full(3, 0.05)
            boosted_priors[k] = 0.9
            boosted = fit(data, ShrinkageTarget.identity(), 0.3, priors_spec=boosted_priors)
            assert classify(boosted, z) == k

    def test_translation_equivariance(self, rng):
        data = random_grouped(rng, (7, 7), p=3)
        shift = rng.standard_normal(3) * 5
        shifted = GroupedDataset(data.values + shift, data.labels, data.group_names)
        queries = rng.standard_normal((20, 3))
        before = classify(fit(data, ShrinkageTarget.identity(), 0.2), queries)
        after = classify(fit(shifted, ShrinkageTarget.identity(), 0.2), queries + shift)
        assert_array_equal(before, after)

    def test_boundary_points_tie_for_two_groups(self, rng):
        # With equal priors the K=2 boundary is the hyperplane where both
        # scores agree; construct points on it and check the tie.
        data = random_grouped(rng, (8, 8), p=3)
        model = fit(data, ShrinkageTarget.identity(), 0.3, priors_spec="uniform")
        m1, m2 = model.reg_means.per_group
        inv = np.linalg.inv(model.cov.matrix)
        w = inv @ (m1 - m2)
        b = 0.5 * (m1 @ inv @ m1 - m2 @ inv @ m2)
        for _ in range(5):
            z0 = rng.standard_normal(3)
            z = z0 + w * (b - w @ z0) / (w @ w)  # project onto the boundary
            scores = discriminant_scores(model, z)
            assert scores[0] == pytest.approx(scores[1], abs=1e-9)


class TestAlg1:
    def test_query_at_group_mean(self, rng):
        data = separable_dataset(rng)
        m = group_means(data).per_group
        label = classify_alg1(data, ShrinkageTarget.identity(), 0.2, 0.0, "uniform", m[0])
        assert label == 0

    def test_full_blend_collapses_to_tie(self, rng):
        data = separable_dataset(rng)
        z = rng.standard_normal(2)
        assert classify_alg1(data, ShrinkageTarget.identity(), 0.2, 1.0, "uniform", z) == 0

    def test_agrees_with_fitted_classifier(self, rng):
        for _ in range(25):
            k = int(rng.integers(2, 5))
            counts = tuple(int(c) for c in rng.integers(5, 9, size=k))
            p = int(rng.integers(2, 8))
            data = random_grouped(rng, counts, p=p, spread=1.5)
            lam = float(rng.uniform(0.05, 0.9))
            delta = float(rng.uniform(0.0, 1.0))
            z = rng.standard_normal(p)
            via_alg1 = classify_alg1(data, ShrinkageTarget.identity(), lam, delta, "empirical", z)
            model = fit(data, ShrinkageTarget.identity(), lam, MeanRegularizer("l2", delta))
            assert via_alg1 == classify(model, z)

    def test_delta_zero_equals_plain(self, rng):
        data = random_grouped(rng, (6, 7, 6), p=4)
        queries = rng.standard_normal((15, 4))
        labels1 = classify_alg1(data, ShrinkageTarget.identity(), 0.3, 0.0, "empirical", queries)
        labels2 = classify(fit(data, ShrinkageTarget.identity(), 0.3), queries)
        assert_array_equal(labels1, labels2)

    def test_custom_priors_flow_through(self, rng):
        data = random_grouped(rng, (6, 6), p=3, spread=0.4)
        priors = [0.85, 0.15]
        queries = rng.standard_normal((25, 3))
        one_shot = classify_alg1(data, ShrinkageTarget.identity(), 0.3, 0.2, priors, queries)
        fitted = fit(data, ShrinkageTarget.identity(), 0.3, MeanRegularizer("l2", 0.2), priors_spec=priors)
        assert_array_equal(one_shot, classify(fitted, queries))


class TestAlg2:
    def test_lambda_zero_is_euclidean_nearest_mean(self, rng):
        data = separable_dataset(rng)
        model = fit_svd_ridge(data, 0.0)
        m = group_means(data).per_group
        queries = rng.standard_normal((10, 2)) * 4 + 4
        expected = np.argmin(
            [[np.sum((z - mk) ** 2) for mk in m] for z in queries], axis=1
        )
        labels = classify_alg2(model, 0.0, "uniform", queries)
        assert_array_equal(labels, expected)

    def test_exact_mode_matches_cholesky_on_gram_kernel(self, rng):
        # Ridge lam equals target-I shrinkage at 1 - lam on the Gram-scaled
        # pooled matrix; distances and labels must coincide.
        for _ in range(10):
            data = random_grouped(rng, (5, 5), p=20, spread=1.0)
            lam = float(rng.uniform(0.1, 0.9))
            delta = float(rng.uniform(0.0, 1.0))
            model = fit_svd_ridge(data, lam)
            means = group_means(data)
            s = pooled_covariance(data, means, GRAM_POOLED_MEAN)
            cov = shrink_covariance(s, ShrinkageTarget.identity(), 1.0 - lam)
            blended = (1 - delta) * means.per_group + delta * means.pooled
            for _ in range(5):
                z = rng.standard_normal(20)
                svd_dist = svd_ridge_sq_distances(model, delta, z)
                chol_dist = np.array([mahalanobis_sq(cov, row - z) for row in blended])
                assert_allclose(svd_dist, chol_dist, rtol=1e-8)
                lab_svd = classify_alg2(model, delta, "empirical", z)
                lab_chol = classify_alg1(
                    data, ShrinkageTarget.identity(), 1.0 - lam, delta, "empirical", z,
                    s_convention=GRAM_POOLED_MEAN,
                )
                assert lab_svd == lab_chol

    def test_exact_mode_accepts_tall_data(self, rng):
        data = random_grouped(rng, (20, 20), p=3)
        model = fit_svd_ridge(data, 0.4, mode="exact")
        labels = classify_alg2(model, 0.0, "empirical", data.values)
        assert labels.shape == (40,)

    def test_paper_literal_requires_wide_data(self, rng):
        data = random_grouped(rng, (20, 20), p=3)
        with pytest.raises(ValueError, match="n < p"):
            fit_svd_ridge(data, 0.4, mode="paper-literal")

    def test_paper_literal_close_to_exact_on_standardized_columns(self, rng):
        # Diagnostic comparison: unit column variances and a small intensity
        # keep the two weightings within 10% on in-span queries.
        base = random_grouped(rng, (5, 5), p=20, spread=1.0)
        centered = base.values - base.values.mean(axis=0)
        standardized = centered / centered.std(axis=0, ddof=1)
        data = GroupedDataset(standardized, base.labels, base.group_names)
        lam = 0.001
        exact = fit_svd_ridge(data, lam, mode="exact")
        literal = fit_svd_ridge(data, lam, mode="paper-literal")
        means = group_means(data)
        for z in data.values[:6]:
            d_exact = svd_ridge_sq_distances(exact, 0.3, z)
            d_literal = svd_ridge_sq_distances(literal, 0.3, z)
            assert np.all(d_exact > 0)
            assert_allclose(d_literal, d_exact, rtol=0.10)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        counts=st.lists(st.integers(2, 8), min_size=2, max_size=4),
        p_base=st.integers(1, 40),
        duplicated=st.integers(0, 4),
        lam=st.floats(0.0, 0.999),
        delta=st.floats(0.0, 1.0),
    )
    def test_exact_mode_property_against_cholesky(self, seed, counts, p_base, duplicated, lam, delta):
        # Random K in {2, 3, 4}, n < p and n > p, and duplicated columns that
        # leave the Gram matrix singular even when n > p.
        rng = np.random.default_rng(seed)
        base = random_grouped(rng, counts, p=p_base, spread=1.0)
        values = np.hstack([base.values, base.values[:, : min(duplicated, p_base)]])
        data = GroupedDataset(values, base.labels, base.group_names)
        p = data.p
        queries = np.vstack([rng.standard_normal((4, p)), data.values[:3]])

        means = group_means(data)
        gram = pooled_covariance(data, means, GRAM_POOLED_MEAN)
        cov = shrink_covariance(gram, ShrinkageTarget.identity(), 1.0 - lam)
        blended = (1 - delta) * means.per_group + delta * means.pooled
        expected = np.array([[mahalanobis_sq(cov, row - z) for row in blended] for z in queries])
        model = fit_svd_ridge(data, lam)
        got = svd_ridge_sq_distances(model, delta, queries)
        eig = np.linalg.eigvalsh(cov.matrix)
        scale = np.abs(expected).max() + max(mahalanobis_sq(cov, z) for z in queries)
        tol = 1e-11 * eig[-1] / eig[0] * scale
        assert np.abs(got - expected).max() <= tol

        # Labels must agree wherever the best group wins by more than the tolerance.
        objective = 0.5 * expected - np.log(data.group_counts / data.n)
        ranked = np.sort(objective, axis=1)
        clear = ranked[:, 1] - ranked[:, 0] > tol
        lab_svd = classify_alg2(model, delta, "empirical", queries)
        lab_chol = classify_alg1(
            data, ShrinkageTarget.identity(), 1.0 - lam, delta, "empirical", queries, s_convention=GRAM_POOLED_MEAN
        )
        assert_array_equal(lab_svd[clear], np.argmin(objective, axis=1)[clear])
        assert_array_equal(lab_svd[clear], lab_chol[clear])

    def test_paper_literal_weights_the_real_directions_only(self, rng):
        # Slow oracle: sum_j (v_j . d)^2 / (lam colvar_j + 1 - lam) over the eigenpairs of the dense
        # Xc^T Xc above the cutoff. Pooled centering leaves n - 1 of them; the null ones are round-off.
        data = random_grouped(rng, (20, 20), p=100, spread=1.0)
        lam, delta = 0.4, 0.3
        model = fit_svd_ridge(data, lam, mode="paper-literal")
        means = group_means(data)
        centered = data.values - means.pooled
        eig, v = np.linalg.eigh(centered.T @ centered)
        eig, v = eig[::-1], v[:, ::-1]
        real = eig > 1e-8 * eig[0]
        assert np.count_nonzero(real) == data.n - 1
        weights = 1.0 / (lam * centered.var(axis=0, ddof=1)[: data.n - 1] + 1.0 - lam)
        queries = rng.standard_normal((10, 100))
        blended = (1 - delta) * means.per_group + delta * means.pooled
        expected = np.array(
            [[np.sum(weights * (v[:, real].T @ (row - z)) ** 2) for row in blended] for z in queries]
        )
        assert_allclose(svd_ridge_sq_distances(model, delta, queries), expected, rtol=1e-9)

    def test_model_holds_the_ridge_kernel_as_a_spectral_covariance(self, rng):
        data = random_grouped(rng, (6, 7), p=15)
        model = fit_svd_ridge(data, 0.35)
        cov = model.cov
        assert isinstance(cov, SpectralCovariance)
        assert (cov.lam, cov.spread, cov.theta2) == (1.0 - 0.35, 1.0, 0.0)
        # Pooled centering leaves Xc with rank n - 1: one row per nonzero eigenvalue of Xc^T Xc.
        assert cov.vt.shape == (data.n - 1, 15)
        centered = data.values - model.means.pooled
        # Round-off of the Gram eigh, relative to the largest eigenvalue as in TestFoldSpectrum.
        gram = (cov.vt.T * cov.eig) @ cov.vt
        assert np.abs(gram - centered.T @ centered).max() <= 8 * data.n * np.finfo(float).eps * cov.eig[0]

    def test_model_validation(self, rng):
        data = random_grouped(rng, (5, 5), p=12)
        with pytest.raises(ValueError, match="unknown mode"):
            fit_svd_ridge(data, 0.2, mode="qr")
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            fit_svd_ridge(data, 1.0)


def _v2_document(model, extra_config: dict | None = None) -> dict:
    """``model`` as the schema-2 writer stored it: its kernel, not its discriminant.

    Builds the legacy documents the reader must still accept;
    ``test_legacy_writer_matches_the_frozen_v2_fixtures`` checks it against
    files that writer wrote.
    """
    def enc(arr):
        return encode_array(np.ascontiguousarray(arr))  # that writer stored every array in C order

    doc = {"format": "rlda-model", "version": 2, "tool_version": __version__}
    if isinstance(model, RldaModel):
        cov = model.cov
        if isinstance(cov, SpectralCovariance):
            kernel = {"cov_kernel": "spectral", "vt": enc(cov.vt), "eigenvalues": enc(cov.eig),
                      "spread": cov.spread, "theta2": cov.theta2}
        else:
            kernel = {"cov_kernel": "cholesky", "factor": enc(cov.factor)}
        doc.update(
            algorithm="chol", group_names=list(model.group_names), pooled_mean=enc(model.pooled_mean),
            reg_means=enc(model.reg_means.per_group), active_mask=enc(model.reg_means.active_mask.astype(np.uint8)),
            priors=enc(model.priors), cov_lambda=cov.lam, config=dict(model.config, **(extra_config or {})), **kernel,
        )
    else:
        doc.update(
            algorithm="svd", group_names=list(model.group_names), pooled_mean=enc(model.means.pooled),
            per_group_means=enc(model.means.per_group), group_counts=enc(model.means.counts.astype(np.int64)),
            right_vectors=enc(model.cov.vt.T), singular_values=enc(np.sqrt(model.cov.eig)),
            column_variances=enc(model.column_variances), cov_lambda=model.lam, mode=model.mode,
            config=dict(extra_config or {}),
        )
    return doc


def _write(doc: dict, path: Path) -> Path:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# The frozen schema-2 fixtures were written by the schema-2 release with
#   rlda simulate --seed 11 --n 6 --m 6 --p 30 --shift-value 1.5 --data-out wide-train.csv
#   rlda fit --data wide-train.csv --label group <FIT_ARGS[name]> --model model-v2-<name>.json
# and model-v2-expected.json holds 8 query rows (rlda simulate --seed 12 --n 4 --m 4 --p 30
# --shift-value 1.5) with that release's labels and scores for each model.
FIT_ARGS = {
    "spectral": ["--target", "t2", "--lambda", "0.3", "--mean-reg", "hard", "--delta", "0.5"],
    "svd-paper": ["--algorithm", "svd", "--mode", "paper", "--lambda", "0.4", "--delta", "0.2",
                  "--priors", "0.3,0.7"],
    "cholesky": ["--target", "target.csv", "--lambda", "0.25"],
}


def _fixture_target(p: int = 30) -> np.ndarray:
    """The custom target of the ``cholesky`` fixture (written to target.csv with ``repr`` floats)."""
    return np.diag(np.linspace(0.5, 2.0, p)) + 0.05


def _fixture_target_csv(tmp_path: Path) -> Path:
    target = _fixture_target()
    path = tmp_path / "target.csv"
    rows = [",".join(f"t{j + 1}" for j in range(target.shape[0]))]
    rows += [",".join(repr(float(v)) for v in row) for row in target]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


class TestSerialization:
    def test_cholesky_round_trip(self, rng, tmp_path):
        data = random_grouped(rng, (8, 8), p=5)
        model = fit(data, ShrinkageTarget.equal_correlation(0.1), 0.3, MeanRegularizer("hard", 0.2))
        path = tmp_path / "model.json"
        save_model(model, path)
        back, config = load_model(path)
        queries = rng.standard_normal((10, 5))
        assert_array_equal(classify(model, queries), back.classify(queries))
        assert_array_equal(discriminant_scores(model, queries), back.scores(queries))
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert decode_array(doc["active_mask"]).sum() == model.reg_means.n_active
        assert config["mean_reg"] == "hard"

    def test_spectral_round_trip_is_bit_identical(self, rng, tmp_path):
        data = random_grouped(rng, (5, 6, 4), p=40)
        model = fit(data, ShrinkageTarget.equal_correlation(0.1), 0.3, MeanRegularizer("hard", 0.5))
        assert isinstance(model.cov, SpectralCovariance)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["version"] == 3 and not KERNEL_KEYS & doc.keys()
        back, _ = load_model(path)
        assert isinstance(back, LinearDiscriminant)
        queries = np.vstack([rng.standard_normal((20, 40)), data.values])
        assert_array_equal(back.scores(queries), discriminant_scores(model, queries))
        assert_array_equal(back.classify(queries), classify(model, queries))

    @pytest.mark.parametrize(
        "counts,p,target",
        [((8, 8), 5, ShrinkageTarget.identity()), ((4, 5), 12, ShrinkageTarget.custom(2.0 * np.eye(12)))],
        ids=["full-rank", "custom-target"],
    )
    def test_dense_models_store_the_discriminant(self, rng, tmp_path, counts, p, target):
        model = fit(random_grouped(rng, counts, p=p), target, 0.3)
        assert isinstance(model.cov, RegularizedCovariance)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["version"] == 3 and not KERNEL_KEYS & doc.keys()
        assert decode_array(doc["weights"]).shape == (p, 2)
        back, _ = load_model(path)
        assert_array_equal(back.weights, linear_discriminant(model).weights)
        queries = rng.standard_normal((10, p))
        assert_array_equal(back.scores(queries), discriminant_scores(model, queries))

    def test_reads_schema_v1_cholesky_model(self):
        # Written by the schema-v1 release from a 9-row, 12-column fit with
        # an equal-correlation target and hard thresholding.
        path = DATA / "model-v1-chol.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["version"] == 1 and "factor" in doc
        expected = json.loads((DATA / "model-v1-chol-expected.json").read_text(encoding="utf-8"))
        model, config = load_model(path)
        assert isinstance(model, LinearDiscriminant)
        assert config["mean_reg"] == "hard" and decode_array(doc["active_mask"]).sum() == 11
        queries = np.array(expected["queries"])
        assert_array_equal(model.classify(queries), expected["labels"])
        assert_allclose(model.scores(queries), expected["scores"], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("name", list(FIT_ARGS))
    def test_v2_fixtures_load_to_the_release_scores(self, name):
        expected = json.loads((DATA / "model-v2-expected.json").read_text(encoding="utf-8"))
        model, _ = load_model(DATA / f"model-v2-{name}.json")
        queries = np.array(expected["queries"])
        assert_array_equal(model.scores(queries), expected[name]["scores"])
        assert_array_equal(model.classify(queries), expected[name]["labels"])

    def test_v2_svd_fixture_renormalizes_its_stored_priors(self):
        # log pi comes from the stored 0.3/0.7 list (not the 6/6 group counts),
        # through resolve_priors as every schema-2 predict applied it.
        doc = json.loads((DATA / "model-v2-svd-paper.json").read_text(encoding="utf-8"))
        model, config = load_model(DATA / "model-v2-svd-paper.json")
        counts = decode_array(doc["group_counts"])
        assert_array_equal(model.log_priors, np.log(resolve_priors(config["priors"], counts)))

    @pytest.mark.parametrize("name", list(FIT_ARGS))
    def test_v3_document_of_the_same_fit_scores_the_release_bits(self, name, tmp_path, monkeypatch):
        from rlda.cli import main

        monkeypatch.chdir(tmp_path)
        _fixture_target_csv(tmp_path)
        path = tmp_path / "model.json"
        argv = ["fit", "--data", str(DATA / "wide-train.csv"), "--label", "group", *FIT_ARGS[name],
                "--model", str(path), "--out", str(tmp_path / "fit.json")]
        assert main(argv) == 0
        assert json.loads(path.read_text(encoding="utf-8"))["version"] == 3
        expected = json.loads((DATA / "model-v2-expected.json").read_text(encoding="utf-8"))
        model, _ = load_model(path)
        assert_array_equal(model.scores(np.array(expected["queries"])), expected[name]["scores"])

    @pytest.mark.parametrize("name", list(FIT_ARGS))
    def test_legacy_writer_matches_the_frozen_v2_fixtures(self, name):
        data = load_csv(DATA / "wide-train.csv", "group")
        extra = {"label_column": "group"}
        if name == "spectral":
            model = fit(data, ShrinkageTarget.equal_correlation(theta2=0.15), 0.3, MeanRegularizer("hard", 0.5))
        elif name == "cholesky":
            model = fit(data, ShrinkageTarget.custom(_fixture_target()), 0.25)
        else:
            model = fit_svd_ridge(data, 0.4, mode="paper-literal")
            extra.update(delta=0.2, priors=resolve_priors([0.3, 0.7], data.group_counts).tolist())
        text = json.dumps(_v2_document(model, extra), sort_keys=True, indent=2) + "\n"
        assert text == (DATA / f"model-v2-{name}.json").read_text(encoding="utf-8")

    def test_rejects_unknown_schema_version(self, rng, tmp_path):
        path = tmp_path / "model.json"
        save_model(fit(random_grouped(rng, (5, 5), p=4), ShrinkageTarget.identity(), 0.2), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["version"] = 7
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError, match="unsupported model version 7"):
            load_model(path)

    @pytest.mark.parametrize(
        "edit,cause",
        [
            (lambda doc: doc.update(quad=encode_array(np.zeros(3))),
             "weights (6, 2), quad (3,), log_priors (2,) and 2 group names disagree on K or p"),
            (lambda doc: doc.update(group_names=["a", "b", "c"]),
             "weights (6, 2), quad (2,), log_priors (2,) and 3 group names disagree on K or p"),
            (lambda doc: doc.update(reg_means=encode_array(np.zeros((2, 5)))),
             "reg_means and active_mask disagree with the 6 x 2 weights on K or p"),
        ],
        ids=["quad-K", "names-K", "means-p"],
    )
    def test_rejects_a_v3_document_whose_arrays_disagree(self, rng, tmp_path, edit, cause):
        doc = model_to_dict(fit(random_grouped(rng, (5, 5), p=6), ShrinkageTarget.identity(), 0.2))
        edit(doc)
        path = _write(doc, tmp_path / "model.json")
        with pytest.raises(ValueError) as raised:
            load_model(path)
        assert str(raised.value) == f"{path}: malformed model document: {cause}"

    @pytest.mark.parametrize("key", ["weights", "quad", "log_priors"])
    def test_rejects_a_v3_document_with_a_non_finite_value(self, rng, tmp_path, key):
        doc = model_to_dict(fit(random_grouped(rng, (5, 5), p=6), ShrinkageTarget.identity(), 0.2))
        values = decode_array(doc[key])
        values.flat[-1] = np.inf if key == "quad" else np.nan
        doc[key] = encode_array(values)
        path = _write(doc, tmp_path / "model.json")
        with pytest.raises(ValueError) as raised:
            load_model(path)
        bad = "inf" if key == "quad" else "nan"
        assert str(raised.value) == f"{path}: malformed model document: {key} must be finite, got {bad}"

    def test_rejects_v3_log_priors_that_are_not_a_probability_vector(self, rng, tmp_path):
        doc = model_to_dict(fit(random_grouped(rng, (5, 5), p=6), ShrinkageTarget.identity(), 0.2))
        doc["log_priors"] = encode_array(np.log([0.5, 0.6]))
        path = _write(doc, tmp_path / "model.json")
        with pytest.raises(ValueError) as raised:
            load_model(path)
        assert str(raised.value) == (
            f"{path}: malformed model document: log_priors must exponentiate to a probability vector, "
            f"got a sum of {np.exp(np.log([0.5, 0.6])).sum()}"
        )

    def test_svd_round_trip(self, rng, tmp_path):
        data = random_grouped(rng, (6, 6), p=15)
        model = fit_svd_ridge(data, 0.35)
        path = tmp_path / "model.json"
        save_model(model, path, extra_config={"delta": 0.2, "priors": [0.5, 0.5]})
        back, config = load_model(path)
        assert (config["delta"], config["priors"]) == (0.2, [0.5, 0.5])
        queries = rng.standard_normal((8, 15))
        assert_array_equal(classify_alg2(model, 0.2, [0.5, 0.5], queries), back.classify(queries))
        assert_array_equal(linear_discriminant(model, 0.2, [0.5, 0.5]).scores(queries), back.scores(queries))

    def test_svd_document_keeps_the_discriminant_of_its_mode(self, rng, tmp_path):
        data = random_grouped(rng, (6, 6), p=15)
        model = fit_svd_ridge(data, 0.35, mode="paper-literal")
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["version"] == 3 and not KERNEL_KEYS & doc.keys()
        assert (doc["algorithm"], doc["mode"], doc["cov_lambda"]) == ("svd", "paper-literal", 0.35)
        assert_array_equal(decode_array(doc["reg_means"]), model.blended_means(0.0).per_group)
        back, _ = load_model(path)
        assert_array_equal(back.weights, linear_discriminant(model).weights)
        exact = linear_discriminant(fit_svd_ridge(data, 0.35))
        assert not np.array_equal(back.weights, exact.weights)  # the mode is in the weights

    def test_reads_an_svd_document_with_n_rows(self, rng, tmp_path):
        # Earlier writers stored the thin SVD of Xc: n rows, the last an arbitrary
        # unit vector outside the rank-(n - 1) row space, where fit now keeps n - 1.
        data = random_grouped(rng, (6, 7), p=30)
        model = fit_svd_ridge(data, 0.4)
        assert model.cov.vt.shape == (data.n - 1, 30)
        _, sv, vt = np.linalg.svd(data.values - model.means.pooled, full_matrices=False)
        doc = _v2_document(model, {"delta": 0.3, "priors": "empirical"})
        doc["right_vectors"], doc["singular_values"] = encode_array(vt.T), encode_array(sv)
        old, _ = load_model(_write(doc, tmp_path / "model.json"))
        queries = np.vstack([rng.standard_normal((20, 30)), data.values])
        assert_array_equal(old.classify(queries), classify_alg2(model, 0.3, "empirical", queries))

    @pytest.mark.parametrize("key", ["priors", "eigenvalues"])
    def test_load_names_the_file_of_a_document_that_fails_the_model_checks(self, rng, tmp_path, key):
        model = fit(random_grouped(rng, (5, 6, 4), p=40), ShrinkageTarget.identity(), 0.3)
        doc = _v2_document(model)
        if key == "priors":
            doc["priors"], cause = encode_array(np.array([0.5])), "priors must be strictly positive and sum to 1"
        else:
            eig = decode_array(doc["eigenvalues"])[::-1]
            doc["eigenvalues"], cause = encode_array(eig), "eigenvalues must be nonnegative and non-increasing"
        path = _write(doc, tmp_path / "model.json")
        with pytest.raises(ValueError) as raised:
            load_model(path)
        assert str(raised.value) == f"{path}: malformed model document: {cause}"

    def test_reads_a_spectral_document_with_n_rows_of_vt(self, rng, tmp_path):
        # Earlier writers stored the thin SVD of the residuals: n rows of vt,
        # the last K with round-off eigenvalues, where fit now keeps n - K.
        data = random_grouped(rng, (5, 6, 4), p=40)
        model = fit(data, ShrinkageTarget.equal_correlation(0.1), 0.3, MeanRegularizer("hard", 0.5))
        dof = data.n - 3
        assert model.cov.vt.shape == (dof, 40)
        resid = data.values - group_means(data).per_group[data.labels]
        _, sv, vt = np.linalg.svd(resid / np.sqrt(dof), full_matrices=False)
        doc = _v2_document(model)
        doc["vt"], doc["eigenvalues"] = encode_array(vt), encode_array(sv * sv)
        old, _ = load_model(_write(doc, tmp_path / "model.json"))
        queries = np.vstack([rng.standard_normal((20, 40)), data.values])
        assert_array_equal(old.classify(queries), classify(model, queries))
        expected = discriminant_scores(model, queries)
        assert np.abs(old.scores(queries) - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_rejects_spectral_document_with_negative_eigenvalue(self, rng, tmp_path):
        model = fit(random_grouped(rng, (5, 6, 4), p=40), ShrinkageTarget.identity(), 0.3)
        doc = _v2_document(model)
        eig = decode_array(doc["eigenvalues"])
        eig[-1] = -1e-3
        doc["eigenvalues"] = encode_array(eig)
        with pytest.raises(ValueError, match="eigenvalues must be nonnegative and non-increasing"):
            load_model(_write(doc, tmp_path / "model.json"))

    def test_byte_identical_documents(self, rng, tmp_path):
        import json

        data = random_grouped(rng, (5, 5), p=4)
        model = fit(data, ShrinkageTarget.identity(), 0.2)
        doc_a = json.dumps(model_to_dict(model), sort_keys=True)
        doc_b = json.dumps(model_to_dict(model), sort_keys=True)
        assert doc_a == doc_b

    def test_rejects_foreign_documents(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(ValueError, match="not a model document"):
            load_model(path)

    def test_array_codec_is_bit_exact(self, rng):
        from rlda.serialize import decode_array, encode_array

        arr = rng.standard_normal((7, 3)) * 1e-13
        arr[0, 0] = np.pi * 1e15
        back = decode_array(encode_array(arr))
        assert back.dtype == arr.dtype
        assert_array_equal(back, arr)

    def test_array_codec_keeps_fortran_order(self, rng):
        arr = np.asfortranarray(rng.standard_normal((7, 3)))
        doc = encode_array(arr)
        assert doc["order"] == "F" and "order" not in encode_array(np.ascontiguousarray(arr))
        back = decode_array(doc)
        assert back.flags.f_contiguous and not back.flags.c_contiguous
        assert_array_equal(back, arr)
