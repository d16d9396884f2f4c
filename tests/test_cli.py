import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from rlda.cli import main
from rlda.datamodel import save_csv
from rlda.serialize import decode_array, load_model

from conftest import duplicated_column_dataset

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "separable.csv"


def run(args):
    return main([str(a) for a in args])


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_spd_target(tmp_path):
    """A symmetric positive definite 3 x 3 custom target for the 3-variable fixture."""
    path = tmp_path / "target.csv"
    path.write_text("a,b,c\n2,0.5,0.1\n0.5,1.5,0.2\n0.1,0.2,1\n", encoding="utf-8")
    return path


class TestPipeline:
    def test_simulate_then_cv_round_trip(self, tmp_path):
        csv = tmp_path / "d.csv"
        out = tmp_path / "cv.json"
        assert run(["simulate", "--seed", 7, "--n", 12, "--m", 12, "--p", 6,
                    "--shift-count", 2, "--data-out", csv]) == 0
        assert csv.exists()
        assert run(["cv", "--data", csv, "--label", "group", "--folds", 3,
                    "--seed", 1, "--lambda-grid", "0.2,0.6", "--out", out]) == 0
        doc = read_json(out)
        assert 0.0 <= doc["accuracy_mean"] <= 1.0
        assert doc["config"]["folds"] == 3
        assert doc["tool_version"]

    def test_fit_predict_chol(self, tmp_path):
        model = tmp_path / "model.json"
        pred = tmp_path / "pred.json"
        assert run(["fit", "--data", FIXTURE, "--label", "cohort", "--target", "t1",
                    "--lambda", "0.3", "--mean-reg", "hard", "--delta", "0.4",
                    "--model", model, "--out", tmp_path / "fit.json"]) == 0
        assert run(["predict", "--model", model, "--data", FIXTURE, "--out", pred]) == 0
        doc = read_json(pred)
        assert doc["accuracy"] == 1.0
        assert set(doc["predictions"]) == {"low", "high"}

    def test_wide_fit_persists_spectral_model(self, tmp_path):
        data = tmp_path / "wide.csv"
        assert run(["simulate", "--seed", 3, "--n", 6, "--m", 6, "--p", 40, "--data-out", data]) == 0
        model = tmp_path / "model.json"
        assert run(["fit", "--data", data, "--label", "group", "--target", "t2", "--lambda", "0.4",
                    "--model", model, "--out", tmp_path / "fit.json"]) == 0
        doc = read_json(model)
        kernel_keys = {"cov_kernel", "factor", "vt", "eigenvalues"}
        assert doc["version"] == 3 and not kernel_keys & doc.keys()
        assert decode_array(doc["weights"]).shape == (40, 2)
        pred = tmp_path / "pred.json"
        assert run(["predict", "--model", model, "--data", data, "--out", pred]) == 0
        assert read_json(pred)["n"] == 12

    @pytest.mark.parametrize("algorithm", ["chol", "svd"])
    def test_identical_fits_write_byte_identical_models(self, tmp_path, algorithm):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert run(["fit", "--data", FIXTURE, "--label", "cohort", "--algorithm", algorithm,
                        "--lambda", "0.5", "--delta", "0.2", "--priors", "0.3,0.7",
                        *(["--mean-reg", "l2"] if algorithm == "chol" else []),
                        "--model", path, "--out", tmp_path / "fit.json"]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_fit_predict_svd(self, tmp_path):
        model = tmp_path / "model.json"
        pred = tmp_path / "pred.json"
        assert run(["fit", "--data", FIXTURE, "--label", "cohort", "--algorithm", "svd",
                    "--lambda", "0.5", "--delta", "0.0", "--model", model,
                    "--out", tmp_path / "fit.json"]) == 0
        assert read_json(tmp_path / "fit.json")["algorithm"] == "svd"
        assert run(["predict", "--model", model, "--data", FIXTURE, "--out", pred]) == 0
        assert read_json(pred)["accuracy"] == 1.0

    def test_fit_with_cv_selection(self, tmp_path):
        model = tmp_path / "model.json"
        out = tmp_path / "fit.json"
        assert run(["fit", "--data", FIXTURE, "--label", "cohort", "--lambda", "cv",
                    "--folds", 3, "--seed", 2, "--model", model, "--out", out]) == 0
        doc = read_json(out)
        assert doc["lambda_rule"] == "cv"
        assert doc["cv_accuracy_mean"] == 1.0

    def test_fit_with_lw_selection(self, tmp_path):
        model = tmp_path / "model.json"
        out = tmp_path / "fit.json"
        assert run(["fit", "--data", FIXTURE, "--label", "cohort", "--lambda", "lw",
                    "--model", model, "--out", out]) == 0
        assert read_json(out)["lambda_rule"] == "lw"
        assert 0.0 <= read_json(out)["lambda"] <= 1.0

    def test_fit_lw_lambda_with_cv_delta(self, tmp_path):
        model = tmp_path / "model.json"
        out = tmp_path / "fit.json"
        assert run(["fit", "--data", FIXTURE, "--label", "cohort", "--lambda", "lw",
                    "--mean-reg", "l2", "--delta", "cv", "--folds", 3, "--seed", 1,
                    "--model", model, "--out", out]) == 0
        doc = read_json(out)
        assert doc["lambda_rule"] == "lw"
        assert 0.0 <= doc["delta"] <= 1.0

    def test_predict_on_foreign_labels_skips_accuracy(self, tmp_path):
        model = tmp_path / "model.json"
        assert run(["fit", "--data", FIXTURE, "--label", "cohort", "--lambda", "0.3",
                    "--model", model, "--out", tmp_path / "fit.json"]) == 0
        other = tmp_path / "other.csv"
        other.write_text("m1,m2,m3,cohort\n0,0,0,red\n8,-8,8,blue\n", encoding="utf-8")
        pred = tmp_path / "pred.json"
        assert run(["predict", "--model", model, "--data", other, "--out", pred]) == 0
        doc = read_json(pred)
        assert "accuracy" not in doc
        assert doc["predictions"] == ["low", "high"]

    def test_predict_on_single_group_batch(self, tmp_path):
        model = tmp_path / "model.json"
        assert run(["fit", "--data", FIXTURE, "--label", "cohort", "--lambda", "0.3",
                    "--model", model, "--out", tmp_path / "fit.json"]) == 0
        lines = FIXTURE.read_text(encoding="utf-8").splitlines()
        low = tmp_path / "low.csv"
        low.write_text("\n".join([lines[0]] + [ln for ln in lines[1:] if ln.endswith(",low")]) + "\n",
                       encoding="utf-8")
        pred = tmp_path / "pred.json"
        assert run(["predict", "--model", model, "--data", low, "--out", pred]) == 0
        doc = read_json(pred)
        assert doc["n"] == len(lines[1:]) // 2
        assert set(doc["predictions"]) == {"low"}
        assert doc["accuracy"] == 1.0

    def test_predict_maps_query_groups_by_name(self, tmp_path):
        model = tmp_path / "model.json"
        assert run(["fit", "--data", FIXTURE, "--label", "cohort", "--lambda", "0.3",
                    "--model", model, "--out", tmp_path / "fit.json"]) == 0
        lines = FIXTURE.read_text(encoding="utf-8").splitlines()
        flipped = tmp_path / "flipped.csv"
        flipped.write_text("\n".join([lines[0]] + lines[:0:-1]) + "\n", encoding="utf-8")
        pred = tmp_path / "pred.json"
        assert run(["predict", "--model", model, "--data", flipped, "--out", pred]) == 0
        assert read_json(pred)["accuracy"] == 1.0

    def test_custom_target_cv_fit_predict(self, tmp_path):
        target = write_spd_target(tmp_path)
        cv = tmp_path / "cv.json"
        assert run(["cv", "--data", FIXTURE, "--label", "cohort", "--target", target, "--folds", 3,
                    "--seed", 1, "--out", cv]) == 0
        assert read_json(cv)["accuracy_mean"] == 1.0
        model, fit_out = tmp_path / "model.json", tmp_path / "fit.json"
        assert run(["fit", "--data", FIXTURE, "--label", "cohort", "--target", target, "--lambda", "cv",
                    "--folds", 3, "--seed", 1, "--model", model, "--out", fit_out]) == 0
        assert read_json(fit_out)["lambda"] == read_json(cv)["best_lambda"]
        assert read_json(model)["config"]["target"] == {"kind": "custom"}
        pred = tmp_path / "pred.json"
        assert run(["predict", "--model", model, "--data", FIXTURE, "--out", pred]) == 0
        assert read_json(pred)["accuracy"] == 1.0

    @pytest.mark.parametrize("algorithm", ["chol", "svd"])
    def test_fit_stores_numeric_priors(self, tmp_path, algorithm):
        model = tmp_path / "model.json"
        assert run(["fit", "--data", FIXTURE, "--label", "cohort", "--algorithm", algorithm, "--lambda", "0.5",
                    "--priors", "0.3,0.7", "--model", model, "--out", tmp_path / "fit.json"]) == 0
        loaded, config = load_model(model)
        stored = loaded.priors if algorithm == "chol" else config["priors"]
        assert list(stored) == pytest.approx([0.3, 0.7], abs=1e-15)


class TestExperimentCommand:
    def test_small_experiment_report(self, tmp_path):
        out = tmp_path / "report.json"
        args = ["experiment", "--seed", 3, "--n", 10, "--m", 10, "--p", 12,
                "--shift-count", 2, "--folds", 3, "--out", out]
        assert run(args) == 0
        doc = read_json(out)
        assert len(doc["rows"]) == 10

    def test_byte_identical_reports(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["experiment", "--seed", 3, "--n", 10, "--m", 10, "--p", 12,
                "--shift-count", 2, "--folds", 3]
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSmallCommands:
    def test_quantize_demo(self, tmp_path):
        out = tmp_path / "q.json"
        assert run(["quantize-demo", "--sigma2", 1.0, "--delta2", 1.0, "--n", 10,
                    "--p", 5, "--reps", 2000, "--seed", 4, "--out", out]) == 0
        doc = read_json(out)
        assert doc["mse_posterior"] < doc["mse_naive"]
        assert doc["replications"] == 2000
        assert doc["seed"] == 4

    def test_bayes_scalar_form(self, capsys):
        assert run(["bayes", "--xbar", "1,2,3", "--n", 4, "--theta", "0,0,0", "--c", 1.0]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["shrinkage_weight"] == pytest.approx(0.2)
        assert doc["mean"] == pytest.approx([0.8, 1.6, 2.4])

    def test_bayes_full_matrix_form(self, tmp_path, capsys):
        sigma = tmp_path / "sigma.csv"
        sigma.write_text("a,b\n1,0\n0,1\n", encoding="utf-8")
        prior = tmp_path / "prior.csv"
        prior.write_text("a,b\n1,0\n0,1\n", encoding="utf-8")
        assert run(["bayes", "--xbar", "2,0", "--n", 1, "--theta", "0,0",
                    "--sigma-csv", sigma, "--prior-cov-csv", prior]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mean"] == pytest.approx([1.0, 0.0])
        assert doc["weight_kind"] == "matrix"

    def test_bayes_scalar_form_allocates_no_p_by_p_matrix(self, tmp_path):
        p = 4000
        out = tmp_path / "bayes.json"
        tracemalloc.start()
        try:
            code = run(["bayes", "--xbar", ",".join(["1"] * p), "--n", 4, "--theta", ",".join(["0"] * p),
                        "--c", 1.0, "--out", out])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 20 * 2**20  # one p x p float matrix would take 128 MB
        assert read_json(out)["mean"] == pytest.approx([0.8] * p)


# Runs one ``rlda`` command in a fresh interpreter (this one has SciPy loaded
# already), prints whether ``scipy.linalg`` was imported and exits with its code.
_FOOTPRINT_PROBE = """
import sys
from rlda.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print("scipy.linalg" in sys.modules)
sys.exit(code)
"""


def scipy_loaded_by(args) -> bool:
    import rlda

    env = dict(os.environ, PYTHONPATH=str(Path(rlda.__file__).resolve().parent.parent))
    result = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_PROBE, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip() == "True"


class TestImportFootprint:
    """SciPy loads on the first dense Cholesky factorization, not with ``rlda``."""

    def test_import_leaves_scipy_unloaded(self):
        assert not scipy_loaded_by([])

    def test_spectral_fit_and_its_predict_leave_scipy_unloaded(self, tmp_path):
        model = tmp_path / "m.json"
        assert not scipy_loaded_by(["fit", "--data", DATA / "wide-train.csv", "--label", "group",
                                    "--model", model, "--out", tmp_path / "fit.json"])
        assert not scipy_loaded_by(["predict", "--model", model, "--data", DATA / "wide-train.csv",
                                    "--out", tmp_path / "predict.json"])

    def test_experiment_leaves_scipy_unloaded(self, tmp_path):
        assert not scipy_loaded_by(["experiment", "--seed", 1, "--p", 40, "--n", 10, "--m", 10,
                                    "--out", tmp_path / "experiment.json"])

    @pytest.mark.parametrize("route", ["fit-full-rank", "predict-v2-cholesky"])
    def test_dense_route_loads_scipy(self, tmp_path, route):
        args = {
            "fit-full-rank": ["fit", "--data", FIXTURE, "--label", "cohort", "--lambda", "0.5",
                              "--model", tmp_path / "m.json"],
            "predict-v2-cholesky": ["predict", "--model", DATA / "model-v2-cholesky.json",
                                    "--data", DATA / "wide-train.csv"],
        }[route]
        assert scipy_loaded_by([*args, "--out", tmp_path / "report.json"])


class TestErrors:
    def test_predict_without_model_is_usage_error(self):
        assert run(["predict"]) == 2

    def test_unknown_flag(self):
        assert run(["simulate", "--seed", 1, "--data-out", "x.csv", "--bogus"]) == 2

    def test_missing_data_file(self, tmp_path):
        assert run(["cv", "--data", tmp_path / "nope.csv", "--label", "g"]) == 1

    def test_svd_needs_numeric_lambda(self, tmp_path):
        code = run(["fit", "--data", FIXTURE, "--label", "cohort", "--algorithm", "svd",
                    "--lambda", "cv", "--model", tmp_path / "m.json"])
        assert code == 1

    def test_svd_needs_numeric_delta(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        capsys.readouterr()
        assert run(["fit", "--data", FIXTURE, "--label", "cohort", "--algorithm", "svd",
                    "--lambda", "0.5", "--delta", "cv", "--model", model]) == 1
        assert "--algorithm svd needs a numeric --delta" in capsys.readouterr().err
        assert not model.exists()

    def test_lw_rejects_a_custom_target(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        capsys.readouterr()
        assert run(["fit", "--data", FIXTURE, "--label", "cohort", "--target", write_spd_target(tmp_path),
                    "--lambda", "lw", "--model", model]) == 1
        assert "lw_lambda supports the identity and equal-correlation targets" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("algorithm", ["chol", "svd"])
    @pytest.mark.parametrize("priors,bad", [("nan,0.5", "nan"), ("0.5,inf", "inf")])
    def test_fit_rejects_non_finite_priors(self, tmp_path, capsys, algorithm, priors, bad):
        model, out = tmp_path / "m.json", tmp_path / "fit.json"
        capsys.readouterr()
        assert run(["fit", "--data", FIXTURE, "--label", "cohort", "--algorithm", algorithm, "--lambda", "0.5",
                    "--priors", priors, "--model", model, "--out", out]) == 1
        assert f"priors must be finite, got {bad}" in capsys.readouterr().err
        assert not model.exists() and not out.exists()

    @pytest.mark.parametrize(
        "command",
        [
            ["fit", "--lambda", "0.5"],
            ["fit", "--algorithm", "svd", "--lambda", "0.5"],
            ["cv"],
        ],
        ids=["fit-chol", "fit-svd", "cv"],
    )
    def test_target_sigma2_needs_the_t2_target(self, tmp_path, capsys, command):
        written = tmp_path / "written.json"
        destination = ["--model", written] if command[0] == "fit" else ["--out", written]
        capsys.readouterr()
        assert run([*command, "--data", tmp_path / "never-read.csv", "--label", "cohort", "--target", "t1",
                    "--target-sigma2", "2.0", *destination]) == 1
        assert "--target-sigma2 2.0 applies to --target t2 only" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command",
        [
            ["fit", "--lambda", "0.5"],
            ["fit", "--lambda", "0.5", "--target", "t1"],
            ["fit", "--algorithm", "svd", "--lambda", "0.5"],
            ["cv"],
            ["cv", "--target", "custom.csv"],
        ],
        ids=["fit-default-target", "fit-t1", "fit-svd", "cv-default-target", "cv-custom"],
    )
    def test_theta2_needs_the_t2_target(self, tmp_path, capsys, command):
        written = tmp_path / "written.json"
        destination = ["--model", written] if command[0] == "fit" else ["--out", written]
        capsys.readouterr()
        assert run([*command, "--data", tmp_path / "never-read.csv", "--label", "cohort",
                    "--theta2", "0.3", *destination]) == 1
        assert "--theta2 0.3 applies to --target t2 only" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["simulate", "experiment"])
    @pytest.mark.parametrize(
        "option,value,message",
        [
            ("--sigma", "nan", "sigma must be positive and finite, got nan"),
            ("--sigma", "inf", "sigma must be positive and finite, got inf"),
            ("--shift-value", "nan", "shift must be finite, got nan"),
            ("--shift-value", "inf", "shift must be finite, got inf"),
        ],
        ids=["sigma-nan", "sigma-inf", "shift-nan", "shift-inf"],
    )
    def test_non_finite_design_is_named(self, tmp_path, capsys, command, option, value, message):
        extra = ["--data-out", tmp_path / "d.csv"] if command == "simulate" else []
        capsys.readouterr()
        assert run([command, "--seed", 1, "--n", 10, "--m", 10, "--p", 12, *extra, option, value,
                    "--out", tmp_path / "out.json"]) == 1
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.parametrize("command", ["simulate", "experiment"])
    @pytest.mark.parametrize(
        "p,shift_count,message",
        [(0, 5, "p must be positive, got 0"), (4, 6, "shift_count must lie in [0, p] with p=4, got 6")],
        ids=["p-zero", "shift-count-above-p"],
    )
    def test_bad_dimension_or_shift_count_is_named(self, tmp_path, capsys, command, p, shift_count, message):
        extra = ["--data-out", tmp_path / "d.csv"] if command == "simulate" else []
        capsys.readouterr()
        assert run([command, "--seed", 1, "--n", 10, "--m", 10, "--p", p, "--shift-count", shift_count, *extra,
                    "--out", tmp_path / "out.json"]) == 1
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
    def test_svd_checks_delta_at_fit_time(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        capsys.readouterr()
        assert run(["fit", "--data", FIXTURE, "--label", "cohort", "--algorithm", "svd",
                    "--lambda", "0.5", "--delta", "1.5", "--model", model]) == 1
        assert "l2 blend weight must lie in [0, 1]" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_cv_rejects_non_finite_threshold(self, tmp_path, capsys, value):
        out = tmp_path / "cv.json"
        capsys.readouterr()
        assert run(["cv", "--data", FIXTURE, "--label", "cohort", "--mean-reg", "hard",
                    "--delta-grid", value, "--out", out]) == 1
        assert f"hard mean-rule threshold delta must be finite, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_fit_rejects_non_finite_threshold(self, tmp_path, capsys, value):
        model = tmp_path / "m.json"
        capsys.readouterr()
        assert run(["fit", "--data", FIXTURE, "--label", "cohort", "--mean-reg", "l1",
                    "--lambda", "0.5", "--delta", value, "--model", model]) == 1
        assert f"l1 mean-rule threshold delta must be finite, got {value}" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("mean_reg", ["l1", "hard"])
    def test_svd_rejects_threshold_mean_rules(self, tmp_path, capsys, mean_reg):
        model = tmp_path / "m.json"
        capsys.readouterr()
        assert run(["fit", "--data", FIXTURE, "--label", "cohort", "--algorithm", "svd", "--lambda", "0.5",
                    "--mean-reg", mean_reg, "--delta", "0.4", "--model", model]) == 1
        assert f"--mean-reg {mean_reg} does not apply to --algorithm svd" in capsys.readouterr().err
        assert not model.exists()

    def test_svd_rejects_a_shrinkage_target(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        capsys.readouterr()
        assert run(["fit", "--data", FIXTURE, "--label", "cohort", "--algorithm", "svd", "--lambda", "0.5",
                    "--target", "t2", "--model", model]) == 1
        assert "--target t2 does not apply to --algorithm svd" in capsys.readouterr().err
        assert not model.exists()

    def test_chol_rejects_paper_mode(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        capsys.readouterr()
        assert run(["fit", "--data", FIXTURE, "--label", "cohort", "--lambda", "0.5",
                    "--mode", "paper", "--model", model]) == 1
        assert "--mode paper applies to --algorithm svd only" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("algorithm", ["chol", "svd"])
    def test_predict_checks_query_width(self, tmp_path, capsys, algorithm):
        model = tmp_path / "model.json"
        assert run(["fit", "--data", FIXTURE, "--label", "cohort", "--algorithm", algorithm,
                    "--lambda", "0.5", "--model", model, "--out", tmp_path / "fit.json"]) == 0
        narrow = tmp_path / "narrow.csv"
        narrow.write_text("m1,m2\n0,0\n8,-8\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["predict", "--model", model, "--data", narrow]) == 1
        assert "query has 2 variables, model expects 3" in capsys.readouterr().err

    def test_predict_reports_bad_cell_of_labeled_query(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert run(["fit", "--data", FIXTURE, "--label", "cohort", "--lambda", "0.3",
                    "--model", model, "--out", tmp_path / "fit.json"]) == 0
        bad = tmp_path / "bad.csv"
        bad.write_text("m1,m2,m3,cohort\n0,0,0,low\n8,x,8,high\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["predict", "--model", model, "--data", bad]) == 1
        assert "row 3, column 'm2': non-numeric cell 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "label, text",
        [("group", "m1,m2,m3\n0,0,0\n8,-8,8\n"), ("nosuch", "m1,m2,m3,cohort\n0,0,0,low\n8,-8,8,x\n")],
        ids=["unlabeled-query", "text-label-column"],
    )
    def test_predict_names_an_explicit_label_missing_from_the_query(self, tmp_path, capsys, label, text):
        model = tmp_path / "model.json"
        assert run(["fit", "--data", FIXTURE, "--label", "cohort", "--lambda", "0.3",
                    "--model", model, "--out", tmp_path / "fit.json"]) == 0
        query = tmp_path / "query.csv"
        query.write_text(text, encoding="utf-8")
        out = tmp_path / "pred.json"
        capsys.readouterr()
        assert run(["predict", "--model", model, "--data", query, "--label", label, "--out", out]) == 1
        assert f"label column {label!r} not found in header" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_predict_rejects_non_finite_unlabeled_query(self, tmp_path, capsys, cell):
        model = tmp_path / "model.json"
        assert run(["fit", "--data", FIXTURE, "--label", "cohort", "--lambda", "0.3",
                    "--model", model, "--out", tmp_path / "fit.json"]) == 0
        bad = tmp_path / "bad.csv"
        bad.write_text(f"m1,m2,m3\n0,0,0\n8,8,{cell}\n", encoding="utf-8")
        out = tmp_path / "pred.json"
        capsys.readouterr()
        assert run(["predict", "--model", model, "--data", bad, "--out", out]) == 1
        assert f"row 3, column 'm3': non-finite value '{cell}'" in capsys.readouterr().err
        assert not out.exists()

    def test_fit_rejects_non_finite_custom_target(self, tmp_path, capsys):
        target = tmp_path / "target.csv"
        target.write_text("a,b,c\n1,0,0\n0,inf,0\n0,0,1\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["fit", "--data", FIXTURE, "--label", "cohort", "--target", target,
                    "--lambda", "0.3", "--model", tmp_path / "m.json"]) == 1
        assert "row 3, column 'b': non-finite value 'inf'" in capsys.readouterr().err

    def test_fit_lambda_zero_rejects_singular_tall_s(self, tmp_path, capsys):
        # n - K >= p takes the dense kernel; the last column copies the first, so S is singular.
        data = tmp_path / "tall.csv"
        save_csv(duplicated_column_dataset(seed=2), data, label_column="group")
        model = tmp_path / "m.json"
        capsys.readouterr()
        assert run(["fit", "--data", data, "--label", "group", "--lambda", "0", "--model", model]) == 1
        assert "shrunk covariance (lam=0.0) is not positive definite: S is singular" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("command", [["cv", "--lambda-grid", "0"], ["fit", "--lambda", "0", "--delta", "cv"]])
    def test_all_infeasible_grid_names_its_cause(self, tmp_path, capsys, command):
        data = tmp_path / "wide.csv"
        assert run(["simulate", "--seed", 3, "--n", 6, "--m", 6, "--p", 40, "--data-out", data,
                    "--out", tmp_path / "sim.json"]) == 0
        written = tmp_path / "written.json"
        destination = ["--out", written] if command[0] == "cv" else ["--model", written]
        capsys.readouterr()
        assert run([*command, "--data", data, "--label", "group", *destination]) == 1
        err = capsys.readouterr().err
        assert "no feasible grid cell" in err
        assert "lambda=0 leaves M = S, which is singular on some training fold" in err
        assert not written.exists()

    @pytest.mark.parametrize(
        "document,cause",
        [
            ('{"format": "rlda-model", "version": 2}', "malformed model document: missing key 'algorithm'"),
            ("[1, 2]", "malformed model document: not a JSON object"),
            ('{"format": "rlda-model", "version": 2, "algorithm": "chol", "reg_means": 5}',
             "malformed model document: a value has the wrong type"),
            ("not json", "malformed model document: not UTF-8 JSON (Expecting value: line 1 column 1 (char 0))"),
            (b"\xff{}", "malformed model document: not UTF-8 JSON ('utf-8' codec can't decode byte 0xff"),
        ],
        ids=["missing-key", "not-an-object", "wrong-type", "not-json", "not-utf-8"],
    )
    def test_predict_names_a_malformed_model(self, tmp_path, capsys, document, cause):
        model = tmp_path / "model.json"
        model.write_bytes(document if isinstance(document, bytes) else document.encode("utf-8"))
        out = tmp_path / "pred.json"
        capsys.readouterr()
        assert run(["predict", "--model", model, "--data", FIXTURE, "--out", out]) == 1
        err = capsys.readouterr().err
        assert f"{model}: {cause}" in err and "Traceback" not in err
        assert not out.exists()

    def test_fit_rejects_a_delta_without_a_mean_rule(self, tmp_path, capsys):
        model, out = tmp_path / "m.json", tmp_path / "fit.json"
        capsys.readouterr()
        assert run(["fit", "--data", tmp_path / "never-read.csv", "--label", "cohort", "--lambda", "0.5",
                    "--delta", "0.7", "--model", model, "--out", out]) == 1
        assert "--delta 0.7 does not apply to --mean-reg none" in capsys.readouterr().err
        assert not model.exists() and not out.exists()

    def test_cv_rejects_a_delta_grid_without_a_mean_rule(self, tmp_path, capsys):
        out = tmp_path / "cv.json"
        capsys.readouterr()
        assert run(["cv", "--data", tmp_path / "never-read.csv", "--label", "cohort", "--delta-grid", "0.3",
                    "--out", out]) == 1
        assert "--delta-grid 0.3 does not apply to --mean-reg none" in capsys.readouterr().err
        assert not out.exists()

    def test_conflicting_label_column(self, tmp_path):
        assert run(["cv", "--data", FIXTURE, "--label", "wrong"]) == 1

    def test_bayes_rejects_conflicting_prior_flags(self, tmp_path):
        sigma = tmp_path / "sigma.csv"
        sigma.write_text("a\n1\n", encoding="utf-8")
        code = run(["bayes", "--xbar", "1", "--n", 2, "--theta", "0",
                    "--c", 1.0, "--sigma-csv", sigma])
        assert code == 2

    @pytest.mark.parametrize("command", ["cv", "fit", "experiment"])
    def test_non_finite_theta2_is_rejected(self, tmp_path, capsys, command):
        written = tmp_path / "written.json"
        args = {
            "cv": ["cv", "--data", FIXTURE, "--label", "cohort", "--target", "t2", "--out", written],
            "fit": ["fit", "--data", FIXTURE, "--label", "cohort", "--target", "t2", "--lambda", "cv",
                    "--model", written, "--out", tmp_path / "fit.json"],
            "experiment": ["experiment", "--seed", 1, "--n", 10, "--m", 10, "--p", 12, "--out", written],
        }[command]
        capsys.readouterr()
        assert run([*args, "--theta2", "nan"]) == 1
        assert "equal-correlation target needs a finite theta2, got nan" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("grid,bad", [("1.5", "1.5"), ("-0.1,0.5", "-0.1"), ("nan", "nan"), ("0.5,inf", "inf")])
    def test_cv_range_checks_the_lambda_grid(self, tmp_path, capsys, grid, bad):
        out = tmp_path / "cv.json"
        capsys.readouterr()
        assert run(["cv", "--data", FIXTURE, "--label", "cohort", f"--lambda-grid={grid}", "--out", out]) == 1
        assert f"lambda_grid values must lie in [0, 1], got {bad}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "option,message",
        [
            (["--xbar", "1,nan", "--theta", "0,0"], "xbar must be finite, got nan"),
            (["--xbar", "1,2", "--theta", "inf,0"], "theta must be finite, got inf"),
            (["--xbar", "1,2", "--theta", "0,0", "--c", "nan"], "c must be positive and finite, got nan"),
        ],
        ids=["xbar", "theta", "c"],
    )
    def test_bayes_rejects_non_finite_input(self, tmp_path, capsys, option, message):
        out = tmp_path / "bayes.json"
        capsys.readouterr()
        assert run(["bayes", "--c", 1.0, *option, "--n", 3, "--out", out]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bayes_rejects_an_empty_sample_mean(self, tmp_path, capsys):
        out = tmp_path / "bayes.json"
        capsys.readouterr()
        assert run(["bayes", "--xbar", "", "--theta", "", "--c", 1, "--n", 3, "--out", out]) == 1
        assert "xbar must hold at least one value" in capsys.readouterr().err
        assert not out.exists()

    def test_bayes_general_form_rejects_non_finite_theta(self, tmp_path, capsys):
        eye = tmp_path / "eye.csv"
        eye.write_text("a,b\n1,0\n0,1\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["bayes", "--xbar", "1,2", "--n", 3, "--theta", "0,nan",
                    "--sigma-csv", eye, "--prior-cov-csv", eye]) == 1
        assert "theta must be finite, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option,message",
        [
            ("--sigma2", "sigma2 must be positive and finite, got nan"),
            ("--delta2", "delta2 must be nonnegative and finite, got nan"),
            ("--fit-delta2", "fit_delta2 must be finite, got nan"),
            ("--mu-value", "mu must be finite"),
        ],
    )
    def test_quantize_demo_rejects_non_finite_variances(self, tmp_path, capsys, option, message):
        out = tmp_path / "q.json"
        capsys.readouterr()
        assert run(["quantize-demo", "--seed", 1, "--n", 5, "--p", 3, "--reps", 10, option, "nan", "--out", out]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "fit", "cv", "experiment", "quantize-demo"])
    def test_negative_seed_is_named_before_any_input_is_read(self, tmp_path, capsys, command):
        missing = tmp_path / "missing.csv"  # read before the seed check, it would fail with another cause
        args = {
            "simulate": ["simulate", "--data-out", tmp_path / "d.csv"],
            "fit": ["fit", "--data", missing, "--label", "cohort", "--model", tmp_path / "m.json"],
            "cv": ["cv", "--data", missing, "--label", "cohort"],
            "experiment": ["experiment", "--n", 10, "--m", 10, "--p", 12],
            "quantize-demo": ["quantize-demo", "--reps", 10],
        }[command]
        capsys.readouterr()
        assert run([*args, "--seed", -3, "--out", tmp_path / "out.json"]) == 1
        assert "--seed must be a nonnegative integer, got -3" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "args,message",
        [
            (["fit", "--lambda", "abc"], "--lambda: expected a number, cv or lw, got 'abc'"),
            (["fit", "--lambda", "0.5", "--mean-reg", "l2", "--delta", "abc"],
             "--delta: expected a number or cv, got 'abc'"),
            (["cv", "--lambda-grid", "0.5,abc"], "--lambda-grid: expected comma-separated numbers, got 'abc'"),
            (["fit", "--lambda", "0.5", "--priors", "0.5,abc"], "--priors: expected comma-separated numbers, got 'abc'"),
            (["bayes", "--xbar", "1,abc", "--theta", "0,0", "--c", 1, "--n", 3],
             "--xbar: expected comma-separated numbers, got 'abc'"),
        ],
        ids=["lambda", "delta", "lambda-grid", "priors", "xbar"],
    )
    def test_malformed_number_names_its_option(self, tmp_path, capsys, args, message):
        dataset = [] if args[0] == "bayes" else ["--data", FIXTURE, "--label", "cohort"]
        model = ["--model", tmp_path / "m.json"] if args[0] == "fit" else []
        capsys.readouterr()
        assert run([*args, *dataset, *model, "--out", tmp_path / "out.json"]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("csvs", [[], ["--sigma-csv"], ["--prior-cov-csv"]], ids=["none", "sigma-only", "prior-only"])
    def test_bayes_needs_c_or_both_covariances(self, tmp_path, capsys, csvs):
        eye = tmp_path / "eye.csv"
        eye.write_text("a,b\n1,0\n0,1\n", encoding="utf-8")
        out = tmp_path / "bayes.json"
        capsys.readouterr()
        assert run(["bayes", "--xbar", "1,2", "--theta", "0,0", "--n", 3,
                    *[arg for option in csvs for arg in (option, eye)], "--out", out]) == 1
        assert "provide either --c or both --sigma-csv and --prior-cov-csv" in capsys.readouterr().err
        assert not out.exists()

    def test_bayes_theta_must_match_xbar(self, tmp_path, capsys):
        out = tmp_path / "bayes.json"
        capsys.readouterr()
        assert run(["bayes", "--xbar", "1,2", "--theta", "0", "--c", 1, "--n", 3, "--out", out]) == 1
        assert "theta must match xbar in length" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "sigma_p,prior_p,message",
        [(3, 2, "prior covariance dimension must match theta"), (2, 3, "sigma must be p x p")],
        ids=["prior-cov", "sigma"],
    )
    def test_bayes_covariance_size_must_match_xbar(self, tmp_path, capsys, sigma_p, prior_p, message):
        def eye(p):
            path = tmp_path / f"eye{p}.csv"
            rows = [",".join("1" if i == j else "0" for j in range(p)) for i in range(p)]
            path.write_text("\n".join([",".join(f"v{j}" for j in range(p)), *rows]) + "\n", encoding="utf-8")
            return path

        out = tmp_path / "bayes.json"
        capsys.readouterr()
        assert run(["bayes", "--xbar", "1,2,3", "--theta", "0,0,0", "--n", 3,
                    "--sigma-csv", eye(sigma_p), "--prior-cov-csv", eye(prior_p), "--out", out]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_fit_priors_must_match_the_group_count(self, tmp_path, capsys):
        model, out = tmp_path / "m.json", tmp_path / "fit.json"
        capsys.readouterr()
        assert run(["fit", "--data", FIXTURE, "--label", "cohort", "--lambda", "0.5", "--priors", "0.2,0.3,0.5",
                    "--model", model, "--out", out]) == 1
        assert "priors must have length 2" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "args,message",
        [
            (["experiment", "--seed", 1, "--n", 10, "--m", 10, "--p", 12, "--folds", 1], "folds must be at least 2"),
            (["quantize-demo", "--seed", 1, "--n", 0], "n and p must be positive"),
            (["simulate", "--seed", 1, "--n", 0, "--p", 10, "--data-out", "{tmp}/d.csv"], "n, m, p must be positive"),
        ],
        ids=["experiment-folds", "quantize-demo-n", "simulate-n"],
    )
    def test_bad_sizes_are_refused(self, tmp_path, capsys, args, message):
        capsys.readouterr()
        assert run([str(a).format(tmp=tmp_path) for a in args] + ["--out", tmp_path / "out.json"]) == 1
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_predict_names_an_unknown_v1_algorithm(self, tmp_path, capsys):
        doc = read_json(DATA / "model-v1-chol.json")
        doc["algorithm"] = "qr"
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "pred.json"
        capsys.readouterr()
        assert run(["predict", "--model", model, "--data", DATA / "wide-train.csv", "--out", out]) == 1
        assert f"{model}: malformed model document: unknown algorithm 'qr'" in capsys.readouterr().err
        assert not out.exists()

    def test_summary_follows_only_a_written_report(self, tmp_path, capsys):
        capsys.readouterr()
        assert run(["cv", "--data", FIXTURE, "--label", "cohort", "--lambda-grid", "0.5",
                    "--out", tmp_path / "missing" / "cv.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "best lambda" not in err
