"""Versioned JSON persistence for fitted models.

Arrays travel as base64-encoded little-endian buffers with explicit dtype,
shape and (for Fortran-ordered arrays) order, so documents are plain text
yet byte- and layout-exact on round trip.

Documents are written as schema version 3: the model's linear
discriminant (:func:`~rlda.discriminant.linear_discriminant`), which is
everything its labels depend on.

- ``weights``: ``a = M^-1 m^T`` (``p x K``), the per-variable
  discriminant coefficients of each group; ``quad`` (``K``), with
  ``quad_k = m_k^T a_k``; and ``log_priors`` (``K``). ``predict`` scores
  ``(Z a - 0.5 quad) + log pi`` from these alone.
- For inspection only: ``group_names``, ``reg_means`` (the ``K x p``
  means the model scores: a ``"chol"`` model's regularized means, an
  ``"svd"`` model's l2 blend at its ``delta``), ``active_mask``,
  ``algorithm``, ``cov_lambda``, an ``"svd"`` model's ``mode``, and
  ``config``.

No covariance kernel is stored, so a document is ``O(K p)`` whatever the
kernel's form. An ``"svd"`` model's ``delta`` and priors are read from
``config`` at save time, as ``predict`` has always read them.

Versions 1 and 2 stored the kernel instead, and still load: their model
is decoded as before and converted at load by the schema-3 writer,
:func:`model_to_dict`, whose document is then read like any version 3
file, so their labels and scores do not change. A version 2 ``"chol"``
document names its kernel in ``"cov_kernel"``: ``"spectral"`` (the nonzero eigenpairs
``vt``, ``eigenvalues`` of ``S`` with the target's ``spread`` and
``theta2``; any number of rows of ``vt`` loads) or ``"cholesky"`` (the
lower ``factor`` of the dense blend, which version 1 ``"chol"`` documents
always hold). ``"svd"`` documents hold ``right_vectors = vt^T`` and
``singular_values = sqrt(eig)``, read back as ``eig = sv^2`` (older
writers kept ``n`` rows, the last an arbitrary null direction; every such
document loads). The ``cov_rule`` and ``s_convention`` labels some older
writers added are ignored.
"""

from __future__ import annotations

import base64
import json

import numpy as np

from . import __version__
from .covariance import RegularizedCovariance, SpectralCovariance
from .datamodel import GroupMeans
from .discriminant import LinearDiscriminant, RldaModel, SvdRidgeModel, _ridge_kernel, linear_discriminant
from .regmeans import RegularizedMeans

__all__ = ["decode_array", "encode_array", "load_model", "model_to_dict", "save_model"]

FORMAT = "rlda-model"
SCHEMA_VERSION = 3
READABLE_VERSIONS = (1, 2, 3)


def encode_array(arr: np.ndarray) -> dict:
    """Base64 of the little-endian bytes; a Fortran-ordered array keeps its order (``"order": "F"``).

    The order matters to a stored discriminant: a product's BLAS path, and
    so its last bits, follow the memory layout of its operands.
    """
    arr = np.asarray(arr)
    order = "F" if arr.flags.f_contiguous and not arr.flags.c_contiguous else "C"
    canonical = np.asarray(arr, dtype=arr.dtype.newbyteorder("<"), order=order)
    doc = {
        "dtype": canonical.dtype.str,
        "shape": list(arr.shape),
        "data": base64.b64encode(canonical.tobytes(order=order)).decode("ascii"),
    }
    if order == "F":
        doc["order"] = "F"
    return doc


def decode_array(doc: dict) -> np.ndarray:
    raw = base64.b64decode(doc["data"])
    flat = np.frombuffer(raw, dtype=np.dtype(doc["dtype"]))
    return flat.reshape(doc["shape"], order=doc.get("order", "C")).copy(order="K")


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
    """Serialize a fitted model (either route) to a JSON-ready schema-3 document.

    ``extra_config`` joins the document's ``config``; for an
    :class:`SvdRidgeModel` its ``"delta"`` and ``"priors"`` set the
    discriminant that is written.
    """
    if isinstance(model, RldaModel):
        config = dict(model.config, **(extra_config or {}))
        lda, means = linear_discriminant(model), model.reg_means
        route = {"algorithm": "chol", "cov_lambda": model.cov.lam}
    elif isinstance(model, SvdRidgeModel):
        config = dict(extra_config or {})
        delta = float(config.get("delta", 0.0))
        lda = linear_discriminant(model, delta, config.get("priors", "empirical"))
        means = model.blended_means(delta)
        route = {"algorithm": "svd", "cov_lambda": model.lam, "mode": model.mode}
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    return {
        "format": FORMAT,
        "version": SCHEMA_VERSION,
        "tool_version": __version__,
        **route,
        "group_names": list(lda.group_names),
        "weights": encode_array(lda.weights),
        "quad": encode_array(lda.quad),
        "log_priors": encode_array(lda.log_priors),
        "reg_means": encode_array(means.per_group),
        "active_mask": encode_array(means.active_mask.astype(np.uint8)),
        "config": config,
    }


def save_model(model, path, extra_config: dict | None = None) -> None:
    """Write :func:`model_to_dict` of ``model`` to ``path``.

    The document is built before ``path`` is opened, so a model that
    cannot be written (an ``"svd"`` model's ``delta`` outside ``[0, 1]``,
    say) raises and leaves ``path`` as it was.
    """
    text = json.dumps(model_to_dict(model, extra_config), sort_keys=True, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_model(path) -> tuple[LinearDiscriminant, dict]:
    """Load a persisted model (schema version 1, 2 or 3); returns ``(discriminant, config)``.

    Any other file, a document whose ``config`` is not a JSON object, or
    one whose values fail the discriminant's or the model's own checks,
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
        if not isinstance(doc.get("config", {}), dict):
            raise ValueError("config is not a JSON object")
        return _discriminant_from_dict(doc), doc["config"]
    except KeyError as exc:
        raise ValueError(f"{path}: malformed model document: missing key {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ValueError(f"{path}: malformed model document: a value has the wrong type ({exc})") from None
    except ValueError as exc:
        raise ValueError(f"{path}: malformed model document: {exc}") from None


def _discriminant_from_dict(doc: dict) -> LinearDiscriminant:
    if doc["version"] < 3:
        doc = model_to_dict(_model_from_dict(doc), doc["config"])
    lda = LinearDiscriminant(
        weights=decode_array(doc["weights"]),
        quad=decode_array(doc["quad"]),
        log_priors=decode_array(doc["log_priors"]),
        group_names=tuple(doc["group_names"]),
    )
    k, p = len(lda.group_names), lda.p
    if decode_array(doc["reg_means"]).shape != (k, p) or decode_array(doc["active_mask"]).shape != (p,):
        raise ValueError(f"reg_means and active_mask disagree with the {p} x {k} weights on K or p")
    return lda


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
                decode_array(doc["right_vectors"]).T, decode_array(doc["singular_values"]) ** 2, doc["cov_lambda"]
            ),
            column_variances=decode_array(doc["column_variances"]),
            lam=doc["cov_lambda"],
            mode=doc["mode"],
            means=means,
            group_names=tuple(doc["group_names"]),
        )
    raise ValueError(f"unknown algorithm {doc['algorithm']!r}")
