"""Versioned JSON persistence for fitted models.

Arrays travel as base64-encoded little-endian buffers with explicit dtype
and shape, so documents are plain text yet byte-exact on round trip.

Documents are written as schema version 2. A ``"chol"`` (target-shrinkage)
model names its covariance kernel in ``"cov_kernel"``, the form that
:func:`~rlda.covariance._shrinkage_kernel` picked for ``fit``:

- ``"spectral"``: the nonzero eigenpairs of ``S`` (``vt``, ``eigenvalues``)
  and the target's ``spread`` and ``theta2``, about ``(n - K) p`` numbers.
  A document may hold any number of rows of ``vt`` (older writers kept
  ``n``, with near-zero eigenvalues on the last ``K``); every one loads.
- ``"cholesky"``: the lower Cholesky ``factor`` of the dense ``p x p``
  blend. Loading keeps the factor alone; the dense matrix is formed only
  if read.

``"svd"`` (ridge) documents are the same in both versions: the model's
spectral kernel is written as ``right_vectors = vt^T`` and
``singular_values = sqrt(eig)`` and read back as ``eig = sv^2``, which
round-trips every singular value exactly (barring under- or overflow of
``sv^2``). A fit keeps the ``r`` eigenpairs of ``Xc^T Xc`` above the
cutoff (``n - 1`` rows when ``n < p``); older writers kept the ``n`` rows
of a thin SVD, the last one an arbitrary null direction, and every such
document loads. Version 1 documents, whose ``"chol"`` models always hold a
``factor``, still load, as do documents that carry the ``cov_rule`` and
``s_convention`` labels older writers added; nothing reads them.
"""

from __future__ import annotations

import base64
import json

import numpy as np

from . import __version__
from .covariance import RegularizedCovariance, SpectralCovariance
from .datamodel import GroupMeans
from .discriminant import RldaModel, SvdRidgeModel, _ridge_kernel
from .regmeans import RegularizedMeans

__all__ = ["decode_array", "encode_array", "load_model", "model_to_dict", "save_model"]

FORMAT = "rlda-model"
SCHEMA_VERSION = 2
READABLE_VERSIONS = (1, 2)


def encode_array(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr)
    canonical = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
    return {
        "dtype": canonical.dtype.str,
        "shape": list(arr.shape),
        "data": base64.b64encode(canonical.tobytes()).decode("ascii"),
    }


def decode_array(doc: dict) -> np.ndarray:
    raw = base64.b64decode(doc["data"])
    return np.frombuffer(raw, dtype=np.dtype(doc["dtype"])).reshape(doc["shape"]).copy()


def _covariance_to_dict(cov: RegularizedCovariance | SpectralCovariance) -> dict:
    if isinstance(cov, SpectralCovariance):
        return {
            "cov_kernel": "spectral",
            "vt": encode_array(cov.vt),
            "eigenvalues": encode_array(cov.eig),
            "spread": cov.spread,
            "theta2": cov.theta2,
        }
    return {"cov_kernel": "cholesky", "factor": encode_array(cov.factor)}


def _covariance_from_dict(doc: dict) -> RegularizedCovariance | SpectralCovariance:
    if doc.get("cov_kernel", "cholesky") == "spectral":
        return SpectralCovariance(
            vt=decode_array(doc["vt"]),
            eig=decode_array(doc["eigenvalues"]),
            spread=doc["spread"],
            theta2=doc["theta2"],
            lam=doc["cov_lambda"],
        )
    return RegularizedCovariance(factor=decode_array(doc["factor"]), lam=doc["cov_lambda"])


def model_to_dict(model: RldaModel | SvdRidgeModel, extra_config: dict | None = None) -> dict:
    """Serialize a fitted model (either kernel) to a JSON-ready document."""
    doc = {
        "format": FORMAT,
        "version": SCHEMA_VERSION,
        "tool_version": __version__,
    }
    if isinstance(model, RldaModel):
        doc.update(
            {
                "algorithm": "chol",
                "group_names": list(model.group_names),
                "pooled_mean": encode_array(model.pooled_mean),
                "reg_means": encode_array(model.reg_means.per_group),
                "active_mask": encode_array(model.reg_means.active_mask.astype(np.uint8)),
                "priors": encode_array(model.priors),
                "cov_lambda": model.cov.lam,
                "config": dict(model.config, **(extra_config or {})),
                **_covariance_to_dict(model.cov),
            }
        )
    elif isinstance(model, SvdRidgeModel):
        doc.update(
            {
                "algorithm": "svd",
                "group_names": list(model.group_names),
                "pooled_mean": encode_array(model.means.pooled),
                "per_group_means": encode_array(model.means.per_group),
                "group_counts": encode_array(model.means.counts.astype(np.int64)),
                "right_vectors": encode_array(model.cov.vt.T),
                "singular_values": encode_array(np.sqrt(model.cov.eig)),
                "column_variances": encode_array(model.column_variances),
                "cov_lambda": model.lam,
                "mode": model.mode,
                "config": dict(extra_config or {}),
            }
        )
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    return doc


def save_model(model, path, extra_config: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model, extra_config), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_model(path):
    """Load a persisted model (schema version 1 or 2); returns ``(model, config)``.

    Any other file, or a document whose values fail the model's own checks,
    raises ``ValueError`` naming ``path`` and the cause.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: malformed model document: not UTF-8 JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: malformed model document: not a JSON object")
    if doc.get("format") != FORMAT:
        raise ValueError(f"{path}: not a model document")
    if doc.get("version") not in READABLE_VERSIONS:
        raise ValueError(f"{path}: unsupported model version {doc.get('version')}")
    try:
        return _model_from_dict(doc), doc["config"]
    except KeyError as exc:
        raise ValueError(f"{path}: malformed model document: missing key {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ValueError(f"{path}: malformed model document: a value has the wrong type ({exc})") from None
    except ValueError as exc:
        raise ValueError(f"{path}: malformed model document: {exc}") from None


def _model_from_dict(doc: dict) -> RldaModel | SvdRidgeModel:
    if doc["algorithm"] == "chol":
        per_group = decode_array(doc["reg_means"])
        mask = decode_array(doc["active_mask"]).astype(bool)
        return RldaModel(
            reg_means=RegularizedMeans(per_group=per_group, active_mask=mask),
            pooled_mean=decode_array(doc["pooled_mean"]),
            cov=_covariance_from_dict(doc),
            priors=decode_array(doc["priors"]),
            group_names=tuple(doc["group_names"]),
            config=doc["config"],
        )
    if doc["algorithm"] == "svd":
        means = GroupMeans(
            pooled=decode_array(doc["pooled_mean"]),
            per_group=decode_array(doc["per_group_means"]),
            counts=decode_array(doc["group_counts"]),
        )
        return SvdRidgeModel(
            cov=_ridge_kernel(
                decode_array(doc["right_vectors"]).T, decode_array(doc["singular_values"]), doc["cov_lambda"]
            ),
            column_variances=decode_array(doc["column_variances"]),
            lam=doc["cov_lambda"],
            mode=doc["mode"],
            means=means,
            group_names=tuple(doc["group_names"]),
        )
    raise ValueError(f"unknown algorithm {doc['algorithm']!r}")
