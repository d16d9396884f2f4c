import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from rlda.datamodel import GroupedDataset, group_means
from rlda.regmeans import (
    MeanRegularizer,
    RegularizedMeans,
    _l2_blend,
    hard_threshold_scalar,
    regularize_means,
    soft_threshold_scalar,
)

from conftest import random_grouped

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)
thresholds = st.floats(min_value=0, max_value=10, allow_nan=False)


def grid_prox_l1(x: float, delta: float, step: float = 1e-4) -> float:
    """Brute-force minimizer of 0.5 (z - x)^2 + delta |z| on a fine grid."""
    lo, hi = -abs(x) - 1.0, abs(x) + 1.0
    zs = np.arange(lo, hi + step, step)
    objective = 0.5 * (zs - x) ** 2 + delta * np.abs(zs)
    return float(zs[np.argmin(objective)])


class TestScalarOps:
    @given(thresholds)
    def test_soft_at_zero(self, delta):
        assert soft_threshold_scalar(0.0, delta) == 0.0

    @given(finite)
    def test_zero_threshold_is_noop(self, x):
        assert soft_threshold_scalar(x, 0.0) == x
        if x != 0.0:
            assert hard_threshold_scalar(x, 0.0) == x

    def test_soft_matches_grid_prox_oracle(self, rng):
        for _ in range(100):
            x = float(rng.uniform(-3, 3))
            delta = float(rng.uniform(0, 2))
            assert soft_threshold_scalar(x, delta) == pytest.approx(grid_prox_l1(x, delta), abs=1e-4)

    @given(finite, finite, thresholds)
    def test_soft_is_a_contraction(self, x, y, delta):
        assert abs(soft_threshold_scalar(x, delta) - soft_threshold_scalar(y, delta)) <= abs(x - y) + 1e-12

    @given(finite, thresholds)
    def test_hard_is_idempotent(self, x, delta):
        once = hard_threshold_scalar(x, delta)
        assert hard_threshold_scalar(once, delta) == once

    def test_soft_not_idempotent_witness(self):
        # 0 < |x| - delta < delta: a second pass keeps shrinking.
        x, delta = 0.25, 0.2
        once = soft_threshold_scalar(x, delta)
        assert 0 < once < delta
        assert soft_threshold_scalar(once, delta) != once

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold_scalar(1.0, -0.1)
        with pytest.raises(ValueError):
            hard_threshold_scalar(1.0, -0.1)

    @pytest.mark.parametrize("rule", [soft_threshold_scalar, hard_threshold_scalar], ids=["soft", "hard"])
    @pytest.mark.parametrize(
        "x, delta, message",
        [(np.nan, 1.0, "x must be finite, got nan"), (np.inf, 1.0, "x must be finite, got inf"),
         (1.0, np.nan, "delta must be finite, got nan")],
        ids=["x-nan", "x-inf", "delta-nan"],
    )
    def test_non_finite_argument_rejected(self, rule, x, delta, message):
        # Unrefused, the hard rule maps a NaN to 0.0 and the soft rule returns NaN.
        with pytest.raises(ValueError, match=re.escape(message)):
            rule(x, delta)


def toy_means():
    values = np.array([[0.5, -0.5, 0.1], [0.5, -0.5, 0.1], [0.5, 0.15, 0.2], [0.5, 0.15, 0.2]])
    data = GroupedDataset(values, np.array([0, 0, 1, 1]), ("a", "b"))
    return group_means(data)


class TestRegularizeMeans:
    def test_l2_endpoints(self, rng):
        means = group_means(random_grouped(rng, (4, 3), p=3))
        at_zero = regularize_means(means, MeanRegularizer("l2", 0.0))
        assert_allclose(at_zero.per_group, means.per_group)
        at_one = regularize_means(means, MeanRegularizer("l2", 1.0))
        for row in at_one.per_group:
            assert_allclose(row, means.pooled)

    def test_l2_rows_between_group_and_pooled(self, rng):
        means = group_means(random_grouped(rng, (4, 3), p=2))
        out = regularize_means(means, MeanRegularizer("l2", 0.3))
        expected = 0.7 * means.per_group + 0.3 * means.pooled
        assert_allclose(out.per_group, expected)

    def test_soft_rule_coordinates(self):
        means = toy_means()
        out = regularize_means(means, MeanRegularizer("l1", 0.2))
        assert_allclose(out.per_group[0], [0.3, -0.3, 0.0], atol=1e-12)

    def test_hard_rule_zeroes_boundary(self):
        means = toy_means()
        out = regularize_means(means, MeanRegularizer("hard", 0.2))
        # group b row is (0.5, 0.15, 0.2): |0.2| == delta is zeroed
        assert_allclose(out.per_group[1], [0.5, 0.0, 0.0], atol=1e-12)

    def test_mask_tracks_joint_support(self):
        means = toy_means()
        out = regularize_means(means, MeanRegularizer("hard", 0.2))
        # column 2: zero in both groups after thresholding -> variable drops
        assert list(out.active_mask) == [True, True, False]
        assert out.n_active == 2

    def test_mask_all_true_for_blend(self, rng):
        means = group_means(random_grouped(rng, (3, 3), p=4))
        for reg in (MeanRegularizer.none(), MeanRegularizer("l2", 0.5)):
            assert regularize_means(means, reg).active_mask.all()

    def test_sparsity_monotone_in_threshold(self, rng):
        means = group_means(random_grouped(rng, (5, 5), p=20, spread=0.5))
        for kind in ("l1", "hard"):
            counts = [
                regularize_means(means, MeanRegularizer(kind, d)).n_active
                for d in np.linspace(0, 2, 15)
            ]
            assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_variable_drops_iff_zero_everywhere(self, rng):
        means = group_means(random_grouped(rng, (5, 5, 5), p=10, spread=1.0))
        out = regularize_means(means, MeanRegularizer("hard", 0.8))
        for j in range(10):
            all_zero = np.all(out.per_group[:, j] == 0.0)
            assert out.active_mask[j] == (not all_zero)

    def test_l2_blend_weights_stack_the_rule_on_its_base(self, rng):
        means = group_means(random_grouped(rng, (4, 3, 5), p=6))
        deltas = (0.0, 0.1, 0.45, 0.9, 1.0)
        base = np.vstack([means.per_group, means.pooled]).T
        cells = base @ _l2_blend(deltas, 3)
        rules = [regularize_means(means, MeanRegularizer("l2", d)).per_group for d in deltas]
        assert_allclose(cells, np.concatenate(rules).T, rtol=1e-15, atol=1e-15 * np.abs(base).max())
        assert np.array_equal(cells[:, :3], means.per_group.T)  # a zero weight copies the group means

    def test_l2_preserves_pooled_mean(self, rng):
        data = random_grouped(rng, (4, 8), p=3)
        means = group_means(data)
        out = regularize_means(means, MeanRegularizer("l2", 0.4))
        weighted = means.counts @ out.per_group / means.counts.sum()
        assert_allclose(weighted, means.pooled, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown mean regularizer"):
            MeanRegularizer("ridge", 0.1)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            MeanRegularizer("l2", 1.5)
        with pytest.raises(ValueError, match="nonnegative"):
            MeanRegularizer("hard", -0.2)
        with pytest.raises(ValueError, match="one entry per variable"):
            RegularizedMeans(np.zeros((2, 3)), np.array([True, False]))

    @pytest.mark.parametrize("kind", ["none", "l2", "l1", "hard"])
    @pytest.mark.parametrize("delta", [float("inf"), float("-inf"), float("nan")])
    def test_rejects_non_finite_delta(self, kind, delta):
        what = "threshold" if kind in ("l1", "hard") else "parameter"
        with pytest.raises(ValueError, match=f"{kind} mean-rule {what} delta must be finite, got {delta}"):
            MeanRegularizer(kind, delta)
