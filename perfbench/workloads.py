"""The benchmark's four workloads.

Each workload builds its inputs from the benchmark seed in ``setup``, runs
one repetition of public rlda calls in ``body`` and checks every output
against a dense oracle in ``check``, outside the timed region. Calls go
through module attributes (``selection.cross_validate``, ``cli.main``) at
call time so that the span tracer sees them, set-up calls included.

Why these four, and which layers each one stresses or bypasses:

``paper-experiment``
    The paper's simulated benchmark table at its own configuration (n=m=50,
    p=1000, 5 folds, 21-point lambda grid, both targets, four mean rules).
    n < p, so the lambda=0 cells are singular: 224 ``shrink_covariance``
    calls of which 10 fail, each failure paying a full ``matrix_rank`` SVD.
    Stresses covariance/linalg factorization and triangular solves; no I/O.
``cli-fit-predict``
    The user-facing path through in-process ``rlda.cli.main``: a CV fit on a
    p=1000, n=100 CSV, an SVD-route fit, then repeated ``predict`` calls on
    each persisted model, against labeled and unlabeled query files. The only workload that touches the ``datamodel``
    CSV readers, ``serialize`` and ``classify``/``classify_alg2``.
``tall-cv``
    n >= p (n=2000, p=200) with K=4 groups: ``cross_validate`` for both
    targets and all four mean rules. S has full rank, so no cell fails and
    factorizations are cheap; the time goes to solves on 400-row test
    blocks and to scoring. A low-rank (n < p) kernel does not apply here.
    n=2000 rather than 4000 gives four or five repetitions per run, whose
    median is steadier on a noisy host than that of two.
``rounding-mc``
    ``demo_quantization`` in both the fixed- and random-centre forms plus
    ``posterior_mean_general`` at p=400. The only workload that touches
    ``quantization`` and ``bayes``; its time and peak memory follow the
    reps x n x p noise array the demo allocates.
"""

from __future__ import annotations

import csv
import json
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from rlda import bayes, cli, datamodel, quantization, selection
from rlda.bayes import GaussianPrior
from rlda.covariance import ShrinkageTarget
from rlda.datamodel import GroupedDataset, SimulationConfig
from rlda.quantization import QuantizationScenario
from rlda.selection import CvConfig

import oracles

THETA2 = 0.15
MEAN_RULES = ("none", "l2", "l1", "hard")
TARGETS = {"t1": ShrinkageTarget.identity(), "t2": ShrinkageTarget.equal_correlation(theta2=THETA2)}
# End-to-end figures of the user-facing CLI path; only cli-fit-predict has them.
FIGURE_UNITS = {
    "cli.fit_s": "s",
    "cli.svd_fit_s": "s",
    "cli.predict_p50_ms": "ms",
    "cli.predict_p90_ms": "ms",
    "cli.svd_predict_p50_ms": "ms",
    "cli.model_bytes": "B",
}


@dataclass
class Record:
    """One timed public call: its label, wall time and output (or the exception raised)."""

    label: str
    seconds: float
    result: object
    raised: bool
    meta: dict = field(default_factory=dict)


def timed_call(label: str, fn, *args, meta: dict | None = None, **kwargs) -> Record:
    start = perf_counter()
    try:
        result, raised = fn(*args, **kwargs), False
    except Exception as exc:  # counted as a failed operation, never fatal to the run
        traceback.print_exc()
        result, raised = exc, True
    return Record(label, perf_counter() - start, result, raised, meta or {})


class Workload:
    """Inputs from a seed, one repetition of calls, and their oracle checks."""

    name = ""
    full: dict = {}
    smoke: dict = {}

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        self.seed = seed
        self.workdir = workdir
        self.size = dict(self.smoke if smoke else self.full)

    def setup(self) -> None:
        self.prepare()
        self.warm_up()

    def prepare(self) -> None:
        """Build the inputs and their oracles from the seed."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Run a toy-size call so that lazy imports and first-call costs are paid."""
        raise NotImplementedError

    def body(self) -> list[Record]:
        raise NotImplementedError

    def check(self, record: Record) -> tuple[int, int]:
        """Return ``(attempted, failed)`` operations for one record."""
        raise NotImplementedError

    def figures(self, records: list[Record]) -> dict[str, tuple[float, str, int]]:
        """Workload-specific figures: name -> (value, unit, sample count)."""
        return {}


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def paper_dataset(seed: int, n: int, m: int, p: int) -> GroupedDataset:
    # The generator run_simulated_experiment uses at its defaults.
    shift = datamodel.sparse_shift(p, 5, 3.0)
    return datamodel.simulate(SimulationConfig(n=n, m=m, p=p, sigma=1.0, c=0.4, shift=shift, seed=seed))


class PaperExperiment(Workload):
    name = "paper-experiment"
    full = {"n": 50, "m": 50, "p": 1000}
    smoke = {"n": 10, "m": 10, "p": 40}
    folds = 5

    def prepare(self):
        data = paper_dataset(self.seed, **self.size)
        self.folds_idx = selection.make_folds(data, self.folds, self.seed, stratified=True)
        self.oracle = oracles.LdaOracle(data.values, data.labels, 2, THETA2)

    def warm_up(self):
        selection.run_simulated_experiment(self.seed, n=10, m=10, p=20)

    def body(self):
        return [timed_call("experiment", selection.run_simulated_experiment, self.seed, folds=self.folds, **self.size)]

    def check(self, record):
        if record.raised:
            return 1, 1
        rows = record.result["rows"]
        failed = int(len(rows) != 10)
        for row in rows:
            delta = row["delta"] or 0.0
            ok = oracles.cv_cell_matches(
                self.oracle, self.folds_idx, row["target"], row["lambda"], row["mean_reg"], delta, row["accuracy"], row["sd"]
            )
            failed += not (ok and row["n_variables"] == self.oracle.active_variables(row["mean_reg"], delta))
        return max(len(rows), 1), failed


class CliFitPredict(Workload):
    name = "cli-fit-predict"
    full = {"p": 1000, "n": 50, "queries": 4, "query_rows": 10, "chol_predicts": 100, "svd_predicts": 20}
    smoke = {"p": 30, "n": 15, "queries": 2, "query_rows": 5, "chol_predicts": 4, "svd_predicts": 2}
    svd_lambda = 0.5
    rep = 0

    def _csv(self, data: GroupedDataset, stem: str, labeled: bool = True) -> str:
        path = self.workdir / f"{stem}.csv"
        if labeled:
            datamodel.save_csv(data, path, label_column="group")
        else:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow([f"v{j + 1}" for j in range(data.p)])
                writer.writerows([repr(float(v)) for v in row] for row in data.values)
        return str(path)

    def prepare(self):
        size = self.size
        seeds = _seeds(self.seed, 1 + size["queries"])
        self.train = paper_dataset(seeds[0], size["n"], size["n"], size["p"])
        self.train_csv = self._csv(self.train, "train")
        self.queries = [paper_dataset(s, size["query_rows"], size["query_rows"], size["p"]) for s in seeds[1:]]
        # Odd-numbered query files carry no label column: predict then falls back to load_matrix_csv.
        self.query_csvs = [self._csv(q, f"query{i}", labeled=i % 2 == 0) for i, q in enumerate(self.queries)]
        self.chol_model = str(self.workdir / "chol-model.json")
        self.svd_model = str(self.workdir / "svd-model.json")
        self.oracle = oracles.LdaOracle(self.train.values, self.train.labels, 2, THETA2)
        self.folds_idx = selection.make_folds(self.train, 5, self.seed, stratified=True)
        self.svd_expected = {}

    def warm_up(self):
        tiny = self._csv(paper_dataset(self.seed, 10, 10, 8), "warm")
        model, out = str(self.workdir / "warm-model.json"), str(self.workdir / "warm-out.json")
        cli.main(["fit", "--data", tiny, "--label", "group", "--lambda", "0.5", "--model", model, "--out", out])
        cli.main(["predict", "--model", model, "--data", tiny, "--out", out])

    def body(self):
        size, out = self.size, self.workdir
        # Reports are checked after the timed loop, so each repetition keeps its own.
        self.rep += 1
        common = ["--data", self.train_csv, "--label", "group", "--seed", str(self.seed)]
        fit_chol, fit_svd = str(out / f"fit-chol-{self.rep}.json"), str(out / f"fit-svd-{self.rep}.json")
        records = [
            timed_call(
                "fit_chol",
                cli.main,
                ["fit", *common, "--target", "t2", "--lambda", "cv", "--mean-reg", "hard", "--delta", "cv",
                 "--model", self.chol_model, "--out", fit_chol],
                meta={"report": fit_chol},
            ),
            timed_call(
                "fit_svd",
                cli.main,
                ["fit", *common, "--algorithm", "svd", "--lambda", str(self.svd_lambda), "--delta", "0",
                 "--model", self.svd_model, "--out", fit_svd],
                meta={"report": fit_svd},
            ),
        ]
        records[0].meta["model_bytes"] = Path(self.chol_model).stat().st_size if records[0].result == 0 else 0
        for label, model, count in (
            ("predict_chol", self.chol_model, size["chol_predicts"]),
            ("predict_svd", self.svd_model, size["svd_predicts"]),
        ):
            for i in range(count):
                q = i % len(self.query_csvs)
                report = str(out / f"{label}-{self.rep}-{i}.json")
                argv = ["predict", "--model", model, "--data", self.query_csvs[q], "--out", report]
                records.append(timed_call(label, cli.main, argv, meta={"query": q, "report": report}))
        return records

    def _report(self, record):
        if record.raised or record.result != 0:
            return None
        with open(record.meta["report"], encoding="utf-8") as fh:
            return json.load(fh)

    def check(self, record):
        doc = self._report(record)
        if record.label == "fit_chol":
            self.chol_params = None if doc is None else (doc["lambda"], doc["delta"])
        if doc is None:
            return 1, 1
        if record.label == "fit_chol":
            ok = oracles.cv_cell_matches(
                self.oracle, self.folds_idx, "t2", doc["lambda"], "hard", doc["delta"],
                doc["cv_accuracy_mean"], doc["cv_accuracy_sd"],
            )
        elif record.label == "fit_svd":
            ok = doc["lambda"] == self.svd_lambda and doc["algorithm"] == "svd"
        else:
            query = self.queries[record.meta["query"]]
            if record.label == "predict_chol":
                if self.chol_params is None:
                    return 1, 1
                lam, delta = self.chol_params
                rows = np.arange(self.train.n)
                expected = self.oracle.predict("full", rows, "t2", lam, "hard", delta, query.values)
            else:
                q = record.meta["query"]
                if q not in self.svd_expected:
                    self.svd_expected[q] = oracles.ridge_predict(
                        self.train.values, self.train.labels, 2, self.svd_lambda, 0.0, query.values
                    )
                expected = self.svd_expected[q]
            ok = doc["predictions"] == [self.train.group_names[int(g)] for g in expected]
        return 1, int(not ok)

    def figures(self, records):
        def seconds(label):
            return [r.seconds for r in records if r.label == label]

        chol, svd = seconds("predict_chol"), seconds("predict_svd")
        fits = [r for r in records if r.label == "fit_chol"]
        values = {
            "cli.fit_s": (percentile(seconds("fit_chol"), 50), len(fits)),
            "cli.svd_fit_s": (percentile(seconds("fit_svd"), 50), len(seconds("fit_svd"))),
            "cli.predict_p50_ms": (1e3 * percentile(chol, 50), len(chol)),
            "cli.predict_p90_ms": (1e3 * percentile(chol, 90), len(chol)),
            "cli.svd_predict_p50_ms": (1e3 * percentile(svd, 50), len(svd)),
            "cli.model_bytes": (float(fits[-1].meta["model_bytes"]), len(fits)),
        }
        return {name: (value, FIGURE_UNITS[name], n) for name, (value, n) in values.items()}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: at q=90 over 100 samples, 10 samples lie beyond it."""
    ordered = sorted(values)
    rank = max(int(np.ceil(q / 100.0 * len(ordered))), 1)
    return float(ordered[rank - 1])


def tall_dataset(seed: int, n: int, p: int, k: int, shift: float, c: float = 0.4) -> GroupedDataset:
    """K equicorrelated Gaussian groups; group g is shifted in coordinates 5g..5g+4."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % k
    z = rng.standard_normal((n, p))
    z0 = rng.standard_normal(n)
    centers = np.zeros((k, p))
    for g in range(k):
        centers[g, 5 * g : 5 * g + 5] = shift
    values = np.sqrt(1.0 - c) * z + np.sqrt(c) * z0[:, None] + centers[labels]
    return GroupedDataset(values, labels, tuple(f"g{g}" for g in range(k)))


class TallCv(Workload):
    name = "tall-cv"
    # shift=0.6 puts CV accuracy near 0.77: clear of both chance (0.25) and 1.
    full = {"n": 2000, "p": 200, "k": 4, "shift": 0.6}
    smoke = {"n": 200, "p": 20, "k": 4, "shift": 1.0}

    def prepare(self):
        self.data = tall_dataset(self.seed, **self.size)
        self.cv = CvConfig(folds=5, seed=self.seed)
        self.folds_idx = selection.make_folds(self.data, 5, self.seed, stratified=True)
        self.oracle = oracles.LdaOracle(self.data.values, self.data.labels, self.size["k"], THETA2)

    def warm_up(self):
        selection.cross_validate(self.data, TARGETS["t1"], "none", CvConfig(folds=5, seed=self.seed, lambda_grid=(0.5,)))

    def body(self):
        return [
            timed_call(f"cross_validate_{t}_{kind}", selection.cross_validate, self.data, target, kind, self.cv,
                       meta={"target": t, "kind": kind})
            for t, target in TARGETS.items()
            for kind in MEAN_RULES
        ]

    def check(self, record):
        if record.raised:
            return 1, 1
        res, kind = record.result, record.meta["kind"]
        delta = res.best_delta or 0.0
        ok = oracles.cv_cell_matches(
            self.oracle, self.folds_idx, record.meta["target"], res.best_lambda, kind, delta, res.accuracy_mean, res.accuracy_sd
        )
        return 1, int(not (ok and res.n_selected_variables == self.oracle.active_variables(kind, delta)))


def _spd(rng: np.random.Generator, p: int, ridge: float) -> np.ndarray:
    a = rng.standard_normal((p, p))
    return a @ a.T / p + ridge * np.eye(p)


class RoundingMc(Workload):
    name = "rounding-mc"
    full = {"p": 50, "n": 10, "reps": 30_000, "post_p": 400, "post_calls": 10}
    smoke = {"p": 5, "n": 10, "reps": 2_000, "post_p": 20, "post_calls": 2}
    sigma2, delta2, post_n = 1.0, 0.5, 5

    def prepare(self):
        size = self.size
        rng = np.random.default_rng(self.seed)
        p = size["p"]
        self.fixed = QuantizationScenario(self.sigma2, self.delta2, size["n"], p, mu=rng.standard_normal(p))
        self.random = QuantizationScenario(
            self.sigma2, self.delta2, size["n"], p, theta=rng.standard_normal(p), psi=_spd(rng, p, 0.1)
        )
        q = size["post_p"]
        self.post_sigma = _spd(rng, q, 1.0)
        self.post_eta = _spd(rng, q, 0.5)
        self.post_theta = rng.standard_normal(q)
        self.post_prior = GaussianPrior.full(self.post_theta, self.post_eta)
        self.post_xbars = rng.standard_normal((size["post_calls"], q))
        self.mc_seeds = _seeds(self.seed, 2)

    def warm_up(self):
        quantization.demo_quantization(self.fixed, seed=self.seed, replications=100)

    def body(self):
        reps = self.size["reps"]
        records = [
            timed_call("demo_fixed", quantization.demo_quantization, self.fixed, seed=self.mc_seeds[0], replications=reps),
            timed_call("demo_random", quantization.demo_quantization, self.random, seed=self.mc_seeds[1], replications=reps),
        ]
        for i, xbar in enumerate(self.post_xbars):
            records.append(
                timed_call("posterior_general", bayes.posterior_mean_general, xbar, self.post_n, self.post_sigma,
                           self.post_prior, meta={"i": i})
            )
        return records

    def check(self, record):
        if record.raised:
            return 1, 1
        size, out = self.size, record.result
        if record.label == "posterior_general":
            xbar = self.post_xbars[record.meta["i"]]
            ok = oracles.posterior_matches(out, xbar, self.post_n, self.post_sigma, self.post_eta, self.post_theta)
            return 1, int(not ok)
        if record.label == "demo_fixed":
            naive, post = oracles.fixed_center_risks(self.sigma2, self.delta2, size["n"], size["p"])
        else:
            naive, post = oracles.random_center_risks(self.sigma2, self.delta2, size["n"], self.random.psi)
        reps = size["reps"]
        ok = (
            out["replications"] == reps
            and oracles.within_mc_error(out["mse_naive"], naive, reps)
            and oracles.within_mc_error(out["mse_posterior"], post, reps)
        )
        return 1, int(not ok)


WORKLOADS = {w.name: w for w in (PaperExperiment, CliFitPredict, TallCv, RoundingMc)}
