"""Span tracing of rlda's layers from outside the package.

:func:`instrument` replaces every public rlda function at each of its
import sites (``rlda.cli.load_model``, ``rlda.selection.shrink_covariance``,
...) with a wrapper that records one span per call: name, start, end and
parent span. ``numpy.linalg.matrix_rank`` is wrapped only as reached from
``rlda.covariance``, where the jittered-factorization fallback calls it.
Nothing under ``src/rlda`` changes; leaving the ``with`` block restores
every original binding.

Spans stay in memory until :func:`write` saves them. A layer's self
time is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import types
from time import perf_counter

RLDA_MODULES = (
    "rlda",
    "rlda._linalg",
    "rlda.datamodel",
    "rlda.bayes",
    "rlda.quantization",
    "rlda.covariance",
    "rlda.regmeans",
    "rlda.discriminant",
    "rlda.selection",
    "rlda.serialize",
    "rlda.cli",
)


def _cholesky_flops(args, kwargs, result) -> float:
    # Dense Cholesky of a p x p matrix: p^3 / 3 flops.
    return args[0].shape[0] ** 3 / 3.0


def _triangular_solve_flops(args, kwargs, result) -> float:
    # Forward substitution costs p^2 flops per right-hand side.
    b = args[1]
    return float(args[0].shape[0] ** 2 * (1 if b.ndim == 1 else b.shape[1]))


def _input_file_bytes(args, kwargs, result) -> float:
    return float(os.path.getsize(args[0]))


def _written_file_bytes(args, kwargs, result) -> float:
    return float(os.path.getsize(args[1]))


# Work recorded per call, in the unit the per-layer metric reports.
WORK = {
    "linalg.cholesky_lower": _cholesky_flops,
    "linalg.solve_lower": _triangular_solve_flops,
    "datamodel.load_csv": _input_file_bytes,
    "datamodel.load_matrix_csv": _input_file_bytes,
    "serialize.save_model": _written_file_bytes,
}


class Tracer:
    """In-memory span recorder; one per traced phase."""

    def __init__(self):
        # Each span: [name, start, end, parent index (-1 for a root), failed, work]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, work=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if work is not None:
                span[5] = work(args, kwargs, result)
            return result

        return traced

    def layers(self) -> dict[str, dict]:
        """Per span name: calls, failed, total_s, self_s and summed work."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, failed, work in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, parent, failed, work) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0, "work": 0.0})
            agg["calls"] += 1
            agg["failed"] += int(failed)
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_time[i]
            agg["work"] += work
        return out


def merge(setup: dict, body: dict, body_scale: float) -> dict:
    """Layer totals of one set-up plus ``body_scale`` times those of the traced repetitions."""
    out = {name: dict(agg) for name, agg in setup.items()}
    for name, agg in body.items():
        into = out.setdefault(name, {key: 0 for key in agg})
        for key, value in agg.items():
            into[key] += value * body_scale
    return out


def write(path, **phases: Tracer) -> None:
    """Save every span of every phase as one JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for phase, tracer in phases.items():
            origin = tracer.spans[0][1] if tracer.spans else 0.0
            for i, (name, start, end, parent, failed, work) in enumerate(tracer.spans):
                doc = {"phase": phase, "id": i, "name": name, "start_s": start - origin, "end_s": end - origin,
                       "parent": parent, "failed": failed}
                fh.write(json.dumps(doc) + "\n")


class _Namespace:
    """Attribute proxy: the overrides first, then the wrapped object."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


def layer_name(fn) -> str:
    """``rlda._linalg.solve_lower`` -> ``linalg.solve_lower``."""
    module = fn.__module__.split(".")[-1].lstrip("_")
    return f"{module}.{fn.__qualname__}"


def _is_public_rlda_function(attr: str, value) -> bool:
    return (
        isinstance(value, types.FunctionType)
        and not attr.startswith("_")
        and not value.__name__.startswith("_")
        and value.__module__.startswith("rlda")
    )


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every public rlda function through ``tracer`` inside the block."""
    modules = [importlib.import_module(name) for name in RLDA_MODULES]
    wrappers: dict = {}
    patched: list[tuple] = []
    try:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if not _is_public_rlda_function(attr, value):
                    continue
                if value not in wrappers:
                    name = layer_name(value)
                    wrappers[value] = tracer.wrap(name, value, WORK.get(name))
                patched.append((module, attr, value))
                setattr(module, attr, wrappers[value])
        covariance = importlib.import_module("rlda.covariance")
        np_module = covariance.np
        rank = tracer.wrap("covariance.matrix_rank", np_module.linalg.matrix_rank)
        patched.append((covariance, "np", np_module))
        covariance.np = _Namespace(np_module, linalg=_Namespace(np_module.linalg, matrix_rank=rank))
        yield tracer
    finally:
        for module, attr, value in reversed(patched):
            setattr(module, attr, value)
