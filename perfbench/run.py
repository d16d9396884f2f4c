#!/usr/bin/env python3
"""Run one rlda benchmark workload, check its outputs, and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload paper-experiment --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload tall-cv --seed 1 --seconds 1 --trace 1 --smoke

Workloads are defined in ``workloads.py``; ``all`` runs each in its own
process and prints every metric. Each run imports rlda from this
checkout's ``src/``, builds its inputs from ``--seed`` several times to time
set-up, then repeats the workload body until ``--seconds`` is used up (at
least once). Every output is checked against a dense oracle after the
timed loop; a wrong output or an exception counts as a failed operation.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs the same repetitions untraced, then again with every
public rlda function wrapped in a span (``spans.py``), and reports the
per-layer metrics, including the tracing overhead. ``--smoke`` shrinks
every input to toy size.

Human-readable lines come first; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record
(host facts, sample counts, every layer) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT = HERE / "out"

# The BLAS pool is pinned through rlda's own RLDA_THREADS. Two threads were no
# faster than one on a 2-core host, and one leaves a core to absorb noise.
BLAS_THREADS = 1
SETUP_REPEATS = 3


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workload_names, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy-size inputs, for the harness's own test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_program() -> float:
    """Import rlda from ``src/`` with the BLAS pool pinned; return the seconds it took."""
    start = time.perf_counter()
    os.environ["RLDA_THREADS"] = str(BLAS_THREADS)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.pop(var, None)  # so that RLDA_THREADS decides
    sys.path[:0] = [str(SRC), str(HERE)]
    import rlda

    if Path(rlda.__file__).resolve().parent != (SRC / "rlda").resolve():
        raise ImportError(f"rlda was imported from {rlda.__file__}, not from {SRC}")
    import workloads  # noqa: F401  (numpy, scipy and every rlda module)

    return time.perf_counter() - start


def blas_threads():
    """Threads of the OpenBLAS numpy links, asked of the library itself."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def source_digest() -> str:
    """SHA-256 over src/rlda, which identifies the code where no git commit is at hand."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "rlda").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def host_facts(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "rlda_threads": os.environ["RLDA_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def timed_loop(workload, seconds=None, reps=None):
    """Repeat the body until another repetition would overrun ``seconds`` (or ``reps`` times)."""
    rep_times, records = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        records.extend(workload.body())
        rep_times.append(time.perf_counter() - t0)
        done = len(rep_times)
        if reps is not None:
            if done >= reps:
                break
        elif (time.perf_counter() - start) * (done + 1) / done > seconds:
            break
    return rep_times, records


def check_all(workload, records) -> tuple[int, int]:
    attempted = failed = 0
    for record in records:
        a, f = workload.check(record)
        attempted += a
        failed += f
    return attempted, failed


LAYER_FIELD_UNITS = {
    "calls": "count", "failed": "count", "self_s": "s", "total_s": "s", "useful_ratio": "ratio",
    "gflop": "GFLOP-computed", "bytes": "B", "mb_per_s": "MB/s",
}


def layer_values(layers: dict) -> dict:
    """Per-layer metrics ``<module>.<function>.<field>`` from the aggregated spans."""
    out = {}
    for name, agg in layers.items():
        calls = agg["calls"]
        values = {
            "calls": calls,
            "failed": agg["failed"],
            "self_s": agg["self_s"],
            "total_s": agg["total_s"],
            "useful_ratio": (calls - agg["failed"]) / calls,
            "gflop": agg["work"] / 1e9,
            "bytes": agg["work"],
            "mb_per_s": agg["work"] / 1e6 / agg["self_s"] if agg["self_s"] > 0 else 0.0,
        }
        out.update({f"{name}.{field}": (value, LAYER_FIELD_UNITS[field]) for field, value in values.items()})
    return out


def untouched(name: str):
    """Zero for a layer or figure this workload never reaches (a ratio of 1: nothing wasted)."""
    from workloads import FIGURE_UNITS

    if name in FIGURE_UNITS:
        return (0, FIGURE_UNITS[name])
    field = name.rpartition(".")[2]
    if field not in LAYER_FIELD_UNITS:
        return None
    return (1.0 if field == "useful_ratio" else 0, LAYER_FIELD_UNITS[field])


def select(spec_metrics: list, computed: dict, fallback=None) -> dict:
    """The spec's metrics, in its order, with units checked against what was measured."""
    out = {}
    for metric in spec_metrics:
        name = metric["name"]
        value = computed.get(name) or (fallback(name) if fallback else None)
        if value is None:
            raise KeyError(f"metric {name!r} was not measured")
        if value[1] != metric["unit"]:
            raise ValueError(f"metric {name!r} measured in {value[1]!r}, BENCHMARK.json says {metric['unit']!r}")
        out[name] = {"value": value[0], "unit": metric["unit"]}
    return out


def run_workload(args, spec) -> dict:
    import_s = load_program()
    import spans
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, args.smoke)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
        rep_times, records = timed_loop(workload, seconds=args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed = check_all(workload, records)

        end_to_end = {
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "run_s": (statistics.median(rep_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        figures = workload.figures(records)
        samples = {"setup_s": SETUP_REPEATS, "run_s": len(rep_times), "peak_rss_mb": 1}
        samples.update({name: fig[2] for name, fig in figures.items()})
        per_layer = {name: fig[:2] for name, fig in figures.items()}
        layers = {}
        if args.trace:
            # Per-layer figures cover one set-up (without its warm-up) plus one repetition.
            setup_tracer, body_tracer = spans.Tracer(), spans.Tracer()
            with spans.instrument(setup_tracer):
                workload.prepare()
            with spans.instrument(body_tracer):
                traced_times, traced_records = timed_loop(workload, reps=len(rep_times))
            a, f = check_all(workload, traced_records)
            attempted, failed = attempted + a, failed + f
            layers = spans.merge(setup_tracer.layers(), body_tracer.layers(), 1.0 / len(traced_times))
            spans.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", setup=setup_tracer, body=body_tracer)
            per_layer.update(layer_values(layers))
            per_layer["trace.overhead_s"] = (statistics.median(traced_times) - statistics.median(rep_times), "s")
            per_layer["trace.spans"] = (len(setup_tracer.spans) + len(body_tracer.spans), "count")
            samples["trace.overhead_s"] = len(traced_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = select(spec["per_layer"], per_layer, untouched)
    else:
        metrics = select(spec["end_to_end"], end_to_end)
    ops = {}
    for record in records:
        ops.setdefault(record.label, []).append(record.seconds)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "host": host_facts(args.seed),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "ops_failed_frac": failed / attempted if attempted else 1.0,
        "metrics": metrics,
        "samples": samples,
        "end_to_end": {k: {"value": v[0], "unit": v[1]} for k, v in end_to_end.items()},
        "figures": {k: {"value": v[0], "unit": v[1]} for k, v in figures.items()},
        "import_s": import_s,
        "setup_times_s": setup_times,
        "rep_times_s": rep_times,
        "ops": {label: {"median_s": statistics.median(t), "n": len(t)} for label, t in ops.items()},
        "layers": layers,
    }


def print_report(result: dict) -> None:
    print(f"# workload {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    print(f"# host {json.dumps(result['host'], sort_keys=True)}")
    shown = {**result["end_to_end"], **result["figures"], **result["metrics"]}
    for name, metric in shown.items():
        n = result["samples"].get(name)
        suffix = f"  (n={n})" if n else ""
        print(f"{name:<46} {metric['value']:.6g} {metric['unit']}{suffix}")
    print(f"{'ops_failed_frac':<46} {result['ops_failed_frac']:.6g}  ({result['failed']} of {result['attempted']} operations)")
    for label, op in result["ops"].items():
        print(f"op {label:<43} {op['median_s']:.6g} s  (median of {op['n']})")
    for name, agg in sorted(result["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
        print(
            f"layer {name:<40} calls {agg['calls']:>8.6g}  failed {agg['failed']:>4.6g}  "
            f"self {agg['self_s']:.4f} s  total {agg['total_s']:.4f} s"
        )


def run_all(args, spec) -> int:
    """Each workload in its own process; every metric printed, prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in spec["workloads"]:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload["name"], "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv + (["--smoke"] if args.smoke else []), capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload['name']} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            combined["metrics"][f"{workload['name']}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    try:
        spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {SPEC_PATH}: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if args.workload == "all":
        return run_all(args, spec)
    try:
        result = run_workload(args, spec)
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    suffix = "-smoke" if args.smoke else ""
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True, default=str) + "\n", encoding="utf-8")
    print_report(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
