"""Acceptance suite: one test per criterion, one printed pass/fail line each.

The simulation benchmark (criteria 1-3) runs once over five fixed seeds and
is shared by its three criteria; everything else is self-contained.
"""

import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rlda.bayes import GaussianPrior, posterior_mean_general
from rlda.cli import main as cli_main
from rlda.covariance import (
    GRAM_POOLED_MEAN,
    ShrinkageTarget,
    lw_lambda,
    mahalanobis_sq,
    pooled_covariance,
    shrink_covariance,
)
from rlda.datamodel import group_means, load_csv
from rlda.discriminant import classify_alg1, classify_alg2, fit_svd_ridge, svd_ridge_sq_distances
from rlda.quantization import QuantizationScenario, posterior_xi_fixed_mu, posterior_xi_random_mu
from rlda.regmeans import soft_threshold_scalar
from rlda.selection import run_simulated_experiment

from conftest import random_grouped
from test_cli import FIXTURE

EXPERIMENT_SEEDS = (1, 2, 3, 4, 5)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def benchmark_runs():
    t0 = time.perf_counter()
    reports = {seed: run_simulated_experiment(seed=seed) for seed in EXPERIMENT_SEEDS}
    elapsed = time.perf_counter() - t0
    return reports, elapsed


def row_lookup(rep):
    return {(r["target"], r["mean_reg"], r["selection"]): r for r in rep["rows"]}


def test_criterion_01_benchmark_sparse_variant(benchmark_runs):
    reports, elapsed = benchmark_runs
    accs, variables = [], []
    for rep in reports.values():
        row = row_lookup(rep)[("t2", "hard", "cv")]
        accs.append(row["accuracy"])
        variables.append(row["n_variables"])
    mean_acc = float(np.mean(accs))
    mean_vars = float(np.mean(variables))
    ok = mean_acc >= 0.86 and 3 <= mean_vars <= 30 and elapsed <= 600.0
    report(
        1,
        ok,
        f"equal-correlation target + hard thresholding: accuracy {mean_acc:.3f} (>= 0.86), "
        f"{mean_vars:.1f} variables (in [3, 30]), {elapsed:.0f}s for {len(reports)} seeds (<= 600s)",
    )


def test_criterion_02_benchmark_plain_identity_band(benchmark_runs):
    reports, _ = benchmark_runs
    accs = [row_lookup(rep)[("t1", "none", "cv")]["accuracy"] for rep in reports.values()]
    mean_acc = float(np.mean(accs))
    ok = 0.78 <= mean_acc <= 0.90
    report(
        2,
        ok,
        f"plain identity-target accuracy {mean_acc:.3f}, required band [0.78, 0.90]. "
        "The generator as specified (sigma=1, five coordinates shifted by 3) is separable at "
        "Bayes accuracy 0.99999, so every correct classifier exceeds the band's upper edge; "
        "see the decisions ledger for the full analysis.",
    )


def test_criterion_03_benchmark_ordering_trends(benchmark_runs):
    reports, _ = benchmark_runs
    violations = []
    for seed, rep in reports.items():
        acc = {k: r["accuracy"] for k, r in row_lookup(rep).items()}
        for kind in ("none", "l2", "l1", "hard"):
            if acc[("t2", kind, "cv")] < acc[("t1", kind, "cv")] - 0.02:
                violations.append(f"seed {seed}: t2 {kind} below t1")
        if acc[("t2", "none", "lw")] < acc[("t1", "none", "lw")] - 0.02:
            violations.append(f"seed {seed}: t2 lw below t1 lw")
        for target in ("t1", "t2"):
            for kind in ("l2", "l1", "hard"):
                if acc[(target, kind, "cv")] < acc[(target, "none", "cv")] - 0.02:
                    violations.append(f"seed {seed}: {target} {kind} below plain")
    report(3, not violations, f"ordering comparisons across seeds: {violations or 'all hold (tolerance 0.02)'}")


def test_criterion_04_cholesky_route_oracle_equivalence():
    rng = np.random.default_rng(404)
    mismatches = 0
    worst_identity_gap = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 5))
        counts = tuple(int(c) for c in rng.integers(k + 2, 9, size=k))
        p = int(rng.integers(2, 21))
        data = random_grouped(rng, counts, p=p, spread=1.5)
        lam = float(rng.uniform(0.05, 0.95))
        delta = float(rng.uniform(0.0, 1.0))
        z = rng.standard_normal(p)

        label = classify_alg1(data, ShrinkageTarget.identity(), lam, delta, "empirical", z)

        means = group_means(data)
        cov = shrink_covariance(pooled_covariance(data, means, "within-group"), ShrinkageTarget.identity(), lam)
        blended = (1 - delta) * means.per_group + delta * means.pooled
        priors = data.group_counts / data.n
        inv = np.linalg.inv(cov.matrix)
        scores = np.array([m @ inv @ z - 0.5 * m @ inv @ m + np.log(pi) for m, pi in zip(blended, priors)])
        if label != int(np.argmax(scores)):
            mismatches += 1
        zq = mahalanobis_sq(cov, z)
        for j, (m, pi) in enumerate(zip(blended, priors)):
            dist = mahalanobis_sq(cov, z - m)
            gap = abs((scores[j] - 0.5 * zq) - (-0.5 * dist + np.log(pi)))
            worst_identity_gap = max(worst_identity_gap, gap)
    ok = mismatches == 0 and worst_identity_gap < 1e-9
    report(
        4,
        ok,
        f"100 instances: {100 - mismatches}/100 label agreement with the explicit-inverse scores, "
        f"worst score-distance identity gap {worst_identity_gap:.2e} (< 1e-9)",
    )


def test_criterion_05_svd_route_matches_cholesky_route():
    rng = np.random.default_rng(505)
    label_mismatches = 0
    worst_rel = 0.0
    for _ in range(40):
        data = random_grouped(rng, (5, 5), p=20, spread=1.2)
        lam = float(rng.uniform(0.05, 0.9))
        delta = float(rng.uniform(0.0, 1.0))
        svd_model = fit_svd_ridge(data, lam, mode="exact")
        means = group_means(data)
        gram = pooled_covariance(data, means, GRAM_POOLED_MEAN)
        cov = shrink_covariance(gram, ShrinkageTarget.identity(), 1.0 - lam)
        blended = (1 - delta) * means.per_group + delta * means.pooled
        for _ in range(5):
            z = rng.standard_normal(20)
            svd_dist = svd_ridge_sq_distances(svd_model, delta, z)
            chol_dist = np.array([mahalanobis_sq(cov, m - z) for m in blended])
            worst_rel = max(worst_rel, float(np.max(np.abs(svd_dist - chol_dist) / chol_dist)))
            lab_svd = classify_alg2(svd_model, delta, "empirical", z)
            lab_chol = classify_alg1(
                data, ShrinkageTarget.identity(), 1.0 - lam, delta, "empirical", z,
                s_convention=GRAM_POOLED_MEAN,
            )
            if lab_svd != lab_chol:
                label_mismatches += 1
    ok = label_mismatches == 0 and worst_rel < 1e-8
    report(
        5,
        ok,
        f"SVD-vs-Cholesky on 200 queries: {200 - label_mismatches}/200 labels agree, "
        f"worst relative distance gap {worst_rel:.2e} (< 1e-8)",
    )


def test_criterion_06_rounding_prior_equivalence():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(50):
        p = int(rng.integers(2, 7))
        n = int(rng.integers(1, 12))
        sigma2 = float(rng.uniform(0.2, 3.0))
        delta2 = float(rng.uniform(0.05, 3.0))
        xbar = rng.standard_normal(p) * 2

        # fixed center: the rounded-parameter construction equals the
        # posterior with prior N(mu, delta2 I)
        mu = rng.standard_normal(p)
        scen = QuantizationScenario(sigma2=sigma2, delta2=delta2, n=n, p=p, mu=mu)
        direct = posterior_xi_fixed_mu(xbar, scen).mean
        constructed = posterior_mean_general(
            xbar, n, sigma2 * np.eye(p), GaussianPrior.full(mu, delta2 * np.eye(p))
        ).mean
        worst = max(worst, float(np.max(np.abs(direct - constructed))))

        # random center: uncertainties add into N(theta, psi + delta2 I)
        a = rng.standard_normal((p, p))
        psi = a @ a.T / p + np.eye(p)
        theta = rng.standard_normal(p)
        scen2 = QuantizationScenario(sigma2=sigma2, delta2=delta2, n=n, p=p, theta=theta, psi=psi)
        direct2 = posterior_xi_random_mu(xbar, scen2).mean
        constructed2 = posterior_mean_general(
            xbar, n, sigma2 * np.eye(p), GaussianPrior.full(theta, psi + delta2 * np.eye(p))
        ).mean
        worst = max(worst, float(np.max(np.abs(direct2 - constructed2))))
    ok = worst < 1e-12
    report(6, ok, f"100 scenarios (50 fixed-center + 50 random-center): worst gap {worst:.2e} (< 1e-12)")


def test_criterion_07_shrinkage_risk_monte_carlo():
    from rlda.bayes import james_stein

    rng = np.random.default_rng(707)
    p, reps = 10, 100_000
    draws = rng.standard_normal((reps, p))
    norms = np.sum(draws * draws, axis=1)
    shrunk = (1.0 - (p - 2) / norms)[:, None] * draws
    # the vectorized rule is the library estimator applied row-wise
    for row, fast in zip(draws[:50], shrunk[:50]):
        assert_allclose(james_stein(row, 1.0), fast, rtol=1e-12)
    risk = float(np.mean(np.sum(shrunk * shrunk, axis=1)))
    naive_risk = float(np.mean(norms))
    ok = abs(risk - 2.0) <= 0.1 and risk < naive_risk
    report(
        7,
        ok,
        f"zero-mean risk over {reps} replications: {risk:.3f} (target 2.0 +- 0.1), "
        f"naive estimator {naive_risk:.2f}",
    )


def test_criterion_08_soft_threshold_proximal_oracle():
    rng = np.random.default_rng(808)
    step = 1e-4
    worst = 0.0
    for _ in range(1000):
        x = float(rng.uniform(-3, 3))
        delta = float(rng.uniform(0, 2))
        zs = np.arange(-abs(x) - 1.0, abs(x) + 1.0 + step, step)
        objective = 0.5 * (zs - x) ** 2 + delta * np.abs(zs)
        brute = float(zs[np.argmin(objective)])
        worst = max(worst, abs(soft_threshold_scalar(x, delta) - brute))
    ok = worst <= 1e-4
    report(8, ok, f"1000 random (x, delta) pairs vs 1e-4 grid minimizer: worst gap {worst:.2e} (<= 1e-4)")


def test_criterion_09_positive_definiteness_and_intensity_range():
    rng = np.random.default_rng(909)
    data = random_grouped(rng, (5, 5), p=50, spread=1.0)
    s = pooled_covariance(data, group_means(data), "within-group")
    lams = np.arange(0.05, 1.0 + 1e-9, 0.05)
    factorized = 0
    for lam in lams:
        cov = shrink_covariance(s, ShrinkageTarget.identity(), float(lam))
        assert_allclose(cov.factor @ cov.factor.T, (1 - lam) * s + lam * np.eye(50), rtol=1e-8, atol=1e-10)
        factorized += 1
    intensities = []
    for _ in range(25):
        counts = tuple(int(c) for c in rng.integers(3, 10, size=2))
        d = random_grouped(rng, counts, p=int(rng.integers(1, 12)))
        intensities.append(lw_lambda(d, ShrinkageTarget.identity()))
    intensities.append(lw_lambda(data, ShrinkageTarget.identity()))
    in_range = all(0.0 <= lam <= 1.0 for lam in intensities)
    ok = factorized == len(lams) and in_range
    report(
        9,
        ok,
        f"rank-deficient blend factorized at {factorized}/{len(lams)} intensities; "
        f"analytic intensities all in [0, 1]: {in_range}",
    )


def test_criterion_10_csv_pipeline_on_committed_fixture(tmp_path, capsys):
    data = load_csv(FIXTURE, "cohort")
    assert data.n == 24 and data.n_groups == 2

    out = tmp_path / "cv.json"
    code = cli_main(
        ["cv", "--data", str(FIXTURE), "--label", "cohort", "--folds", "4", "--seed", "1",
         "--out", str(out)]
    )
    import json

    doc = json.loads(out.read_text(encoding="utf-8"))
    ok = code == 0 and doc["accuracy_mean"] == 1.0 and doc["accuracy_sd"] == 0.0
    with capsys.disabled():
        report(
            10,
            ok,
            f"CSV ingestion + cross-validated pipeline on the committed fixture: exit {code}, "
            f"accuracy {doc['accuracy_mean']} (exact 1.0)",
        )
