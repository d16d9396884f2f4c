"""Tests of the benchmark harness itself, at toy size.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import run  # noqa: E402

run.load_program()
import workloads  # noqa: E402


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_metric_with_its_unit(trace, kind):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "all", "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= len(WORKLOAD_NAMES)
    expected = {f"{w}.{m['name']}": m["unit"] for w in WORKLOAD_NAMES for m in SPEC[kind]}
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == expected
    assert all(isinstance(metric["value"], (int, float)) for metric in result["metrics"].values())
    failed_fracs = [line.split()[1] for line in lines if line.startswith("ops_failed_frac")]
    assert failed_fracs == ["0"] * len(WORKLOAD_NAMES)


def test_each_workload_run_prints_exactly_the_spec_metrics():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "tall-cv", "--seed", "4", "--seconds", "0.5", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"])


def _run_smoke(name, tmp_path):
    workload = workloads.WORKLOADS[name](5, tmp_path, smoke=True)
    workload.setup()
    records = workload.body()
    attempted, failed = run.check_all(workload, records)
    assert attempted >= 1 and failed == 0
    return workload, records


def _failures(workload, records):
    return run.check_all(workload, records)[1]


def test_corrupted_experiment_row_counts_as_failed(tmp_path):
    workload, records = _run_smoke("paper-experiment", tmp_path)
    records[0].result["rows"][3]["accuracy"] += 0.05
    assert _failures(workload, records) == 1


def test_corrupted_predictions_count_as_failed(tmp_path):
    workload, records = _run_smoke("cli-fit-predict", tmp_path)
    for label in ("predict_chol", "predict_svd"):
        record = next(r for r in records if r.label == label)
        doc = json.loads(Path(record.meta["report"]).read_text(encoding="utf-8"))
        doc["predictions"][0] = "y" if doc["predictions"][0] == "x" else "x"
        Path(record.meta["report"]).write_text(json.dumps(doc), encoding="utf-8")
    assert _failures(workload, records) == 2


def test_corrupted_cv_result_counts_as_failed(tmp_path):
    workload, records = _run_smoke("tall-cv", tmp_path)
    records[0].result = dataclasses.replace(records[0].result, accuracy_mean=records[0].result.accuracy_mean * 0.9)
    assert _failures(workload, records) == 1


def test_corrupted_monte_carlo_risk_and_posterior_count_as_failed(tmp_path):
    workload, records = _run_smoke("rounding-mc", tmp_path)
    fixed = next(r for r in records if r.label == "demo_fixed")
    fixed.result["mse_posterior"] *= 1.5
    post = next(r for r in records if r.label == "posterior_general")
    post.result = dataclasses.replace(post.result, mean=post.result.mean + 1e-3)
    assert _failures(workload, records) == 2


def test_an_exception_counts_as_failed(tmp_path):
    workload, _ = _run_smoke("rounding-mc", tmp_path)
    record = workloads.timed_call("demo_fixed", workloads.quantization.demo_quantization, workload.fixed, seed=1,
                                  replications=0)
    assert record.raised
    assert run.check_all(workload, [record]) == (1, 1)


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    (bare / "BENCHMARK.json").write_text((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    for path in HERE.glob("*.py"):
        (bare / "perfbench" / path.name).write_text(path.read_text(encoding="utf-8"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tall-cv", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=bare,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
