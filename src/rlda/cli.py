"""Command-line surface: simulate, fit, predict, cv, experiment, quantize-demo, bayes.

Every subcommand emits a JSON document (stdout, or ``--out FILE``) that
echoes the tool version, the seed, and the fully resolved configuration;
human-oriented summaries go to stderr. Identical invocations with the same
seed produce byte-identical JSON. Each subcommand's handler returns its
report and an optional summary; :func:`main` alone writes the document and,
once it is written, the summary.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from ._linalg import NotPositiveDefiniteError, require_lower_bound
from .bayes import GaussianPrior, posterior_mean_conjugate_scalar, posterior_mean_general
from .covariance import DEFAULT_THETA2, ShrinkageTarget, lw_lambda
from .datamodel import (
    GroupedDataset,
    SimulationConfig,
    _csv_header,
    load_csv,
    load_matrix_csv,
    save_csv,
    simulate,
    sparse_shift,
)
from .discriminant import RldaModel, fit, fit_svd_ridge, resolve_priors
from .quantization import QuantizationScenario, demo_quantization
from .regmeans import KINDS, MeanRegularizer
from .selection import CvConfig, cross_validate, render_experiment_text, run_simulated_experiment
from .serialize import load_model, save_model

__all__ = ["main"]


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolved_config(args: argparse.Namespace) -> dict:
    skip = {"func", "out"}
    return {k: v for k, v in vars(args).items() if k not in skip and not k.startswith("_")}


def _base_doc(args: argparse.Namespace) -> dict:
    doc = {"tool_version": __version__, "config": _resolved_config(args)}
    if hasattr(args, "seed"):
        doc["seed"] = args.seed
    return doc


def _number(option: str, text: str, expected: str = "a number") -> float:
    """``float(text)``; text that is no number is refused naming ``option`` and the text."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{option}: expected {expected}, got {text.strip()!r}") from None


def _parse_floats(option: str, text: str) -> list[float]:
    return [_number(option, tok, "comma-separated numbers") for tok in text.split(",") if tok.strip()]


def _numbers_option(option: str, text: str | None) -> tuple[float, ...] | None:
    """An option's comma-separated numbers, ``None`` when it was not given; text that holds no number is refused."""
    numbers = None if text is None else tuple(_parse_floats(option, text))
    if numbers == ():
        raise ValueError(f"{option}: expected comma-separated numbers, got {text!r}")
    return numbers


def _target_from_args(args: argparse.Namespace) -> ShrinkageTarget:
    spec = args.target
    if spec == "t1":
        return ShrinkageTarget.identity()
    if spec == "t2":
        return ShrinkageTarget.equal_correlation(theta2=args.theta2, sigma2=args.target_sigma2)
    matrix, _ = load_matrix_csv(spec)
    return ShrinkageTarget.custom(matrix)


def _priors_from_args(value: str):
    """``empirical``, ``uniform`` or the listed numbers; text that holds no number is refused by the option's name."""
    if value in ("empirical", "uniform"):
        return value
    return _numbers_option("--priors", value)


# ----------------------------------------------------------------- simulate


def _cmd_simulate(args) -> tuple[dict, str]:
    config = SimulationConfig(
        n=args.n,
        m=args.m,
        p=args.p,
        sigma=args.sigma,
        c=args.c,
        shift=sparse_shift(args.p, args.shift_count, args.shift_value),
        seed=args.seed,
    )
    data = simulate(config)
    save_csv(data, args.data_out, label_column=args.label)
    report = {"rows": data.n, "columns": data.p, "groups": list(data.group_names), "csv": args.data_out}
    return report, f"wrote {data.n} x {data.p} dataset to {args.data_out}"


# ---------------------------------------------------------------------- fit


def _fit_chol(args, data: GroupedDataset, target: ShrinkageTarget, priors, lam, delta) -> tuple[RldaModel, dict]:
    """Fix ``--lambda`` (``lam``, or ``lw``) and ``--delta`` (``delta``); one CV run picks whichever is ``cv``.

    A kernel that is not positive definite at the ``lw`` estimate is reported with that estimate.
    """
    chosen = {}
    if args.lam == "lw":
        lam = lw_lambda(data, target)
        chosen["lambda_rule"] = "lw"
    if "cv" in (args.lam, args.delta):
        cv = CvConfig(
            folds=args.folds,
            seed=args.seed,
            lambda_grid=None if lam is None else (lam,),
            delta_grid=None if delta is None else (delta,),
        )
        result = cross_validate(data, target, args.mean_reg, cv)
        lam, delta = result.best_lambda, result.best_delta
        chosen.update(cv_accuracy_mean=result.accuracy_mean, cv_accuracy_sd=result.accuracy_sd)
        chosen.setdefault("lambda_rule", "cv")
    reg = MeanRegularizer(args.mean_reg, 0.0 if delta is None else delta)
    try:
        model = fit(data, target, lam, reg, priors_spec=priors)
    except NotPositiveDefiniteError as exc:
        if args.lam != "lw":
            raise
        raise NotPositiveDefiniteError(f"--lambda lw estimated lambda={lam}: {exc}") from None
    return model, chosen


def _resolve_target_options(args) -> None:
    """Reject the equal-correlation options where no ``t2`` target would read them; default ``--theta2`` for ``t2``."""
    for option, value in (("--theta2", args.theta2), ("--target-sigma2", args.target_sigma2)):
        if value is not None and args.target != "t2":
            raise ValueError(f"{option} {value} applies to --target t2 only")
    if args.target == "t2" and args.theta2 is None:
        args.theta2 = DEFAULT_THETA2


def _check_route_options(args) -> None:
    """Reject the ``fit`` options that the chosen ``--algorithm`` would silently ignore or cannot take."""
    if args.algorithm == "svd":
        if args.lam in ("cv", "lw"):
            raise ValueError("--algorithm svd needs a numeric --lambda (cv/lw apply to chol)")
        if args.delta == "cv":
            raise ValueError("--algorithm svd needs a numeric --delta")
        if args.mean_reg in ("l1", "hard"):
            raise ValueError(
                f"--mean-reg {args.mean_reg} does not apply to --algorithm svd, whose --delta is an l2 blend weight"
            )
        if args.target != "t1":
            raise ValueError(
                f"--target {args.target} does not apply to --algorithm svd, "
                "whose ridge kernel shrinks toward the identity"
            )
    elif args.mode != "exact":
        raise ValueError(f"--mode {args.mode} applies to --algorithm svd only")
    elif args.mean_reg == "none" and args.delta not in (None, "cv"):
        raise ValueError(f"--delta {args.delta} does not apply to --mean-reg none, which leaves the means as they are")


def _cmd_fit(args) -> tuple[dict, str]:
    _check_route_options(args)
    _resolve_target_options(args)
    priors = _priors_from_args(args.priors)
    # Parsed before any file is read; svd has refused cv and lw already.
    expected = ("a number, cv or lw", "a number or cv") if args.algorithm == "chol" else ("a number", "a number")
    lam = None if args.lam in ("cv", "lw") else _number("--lambda", args.lam, expected[0])
    delta = None if args.delta in (None, "cv") else _number("--delta", args.delta, expected[1])
    data = load_csv(args.data, args.label)
    if args.algorithm == "chol":
        target = _target_from_args(args)
        model, chosen = _fit_chol(args, data, target, priors, lam, delta)
        save_model(model, args.model, extra_config={"label_column": args.label})
        report = {
            "algorithm": "chol",
            "model": args.model,
            "lambda": model.cov.lam,
            "mean_reg": model.config["mean_reg"],
            "delta": model.config["delta"],
            "n_selected_variables": model.reg_means.n_active,
            **chosen,
        }
    else:
        delta = 0.0 if delta is None else delta
        mode = "paper-literal" if args.mode == "paper" else "exact"
        model = fit_svd_ridge(data, lam, mode=mode)
        resolved = resolve_priors(priors, data.group_counts)
        save_model(
            model,
            args.model,
            extra_config={"label_column": args.label, "delta": delta, "priors": resolved.tolist()},
        )
        report = {"algorithm": "svd", "model": args.model, "lambda": lam, "mode": mode, "delta": delta}
    return report, f"model written to {args.model}"


# ------------------------------------------------------------------ predict


def _cmd_predict(args) -> tuple[dict, None]:
    model, config = load_model(args.model)
    stored = config.get("label_column")
    if stored is not None and not isinstance(stored, str):
        raise ValueError(f"{args.model}: malformed model document: label_column is not a string ({stored!r})")
    label_column = args.label or stored
    truth = None
    # An explicit --label must name a column; the model's stored one is used only where present.
    if label_column and (args.label or label_column in _csv_header(args.data)):
        data = load_csv(args.data, label_column, min_groups=1)
        values = data.values
        # Accuracy is reported only when every query label names a model group.
        if set(data.group_names) <= set(model.group_names):
            truth = np.array([model.group_names.index(name) for name in data.group_names])[data.labels]
    else:
        values, _ = load_matrix_csv(args.data)
    labels = model.classify(values)
    names = [model.group_names[int(lab)] for lab in np.atleast_1d(labels)]
    report = {"predictions": names, "n": len(names)}
    if truth is not None:
        report["accuracy"] = float(np.mean(np.atleast_1d(labels) == truth))
    return report, None


# ----------------------------------------------------------------------- cv


def _cmd_cv(args) -> tuple[dict, str]:
    if args.mean_reg == "none" and args.delta_grid is not None:
        raise ValueError(
            f"--delta-grid {args.delta_grid} does not apply to --mean-reg none, which leaves the means as they are"
        )
    _resolve_target_options(args)
    lambda_grid = _numbers_option("--lambda-grid", args.lambda_grid)
    delta_grid = _numbers_option("--delta-grid", args.delta_grid)
    data = load_csv(args.data, args.label)
    target = _target_from_args(args)
    cv = CvConfig(
        folds=args.folds,
        seed=args.seed,
        lambda_grid=lambda_grid,
        delta_grid=delta_grid,
        stratified=not args.no_stratify,
    )
    result = cross_validate(data, target, args.mean_reg, cv)
    return result.to_dict(), (
        f"best lambda={result.best_lambda} delta={result.best_delta} "
        f"accuracy={result.accuracy_mean:.3f} (sd {result.accuracy_sd:.3f}), "
        f"{result.n_selected_variables} variables"
    )


# --------------------------------------------------------------- experiment


def _cmd_experiment(args) -> tuple[dict, str]:
    report = run_simulated_experiment(
        args.seed,
        n=args.n,
        m=args.m,
        p=args.p,
        sigma=args.sigma,
        c=args.c,
        shift_count=args.shift_count,
        shift_value=args.shift_value,
        theta2=args.theta2,
        folds=args.folds,
    )
    return report, render_experiment_text(report)


# ------------------------------------------------------------ quantize-demo


def _cmd_quantize_demo(args) -> tuple[dict, str]:
    require_lower_bound(args.reps, "--reps", 1)  # the library would name its replications
    scenario = QuantizationScenario(
        sigma2=args.sigma2,
        delta2=args.delta2,
        n=args.n,
        p=args.p,
        mu=np.full(args.p, args.mu_value),
    )
    report = demo_quantization(scenario, seed=args.seed, replications=args.reps, fit_delta2=args.fit_delta2)
    return report, f"mse naive={report['mse_naive']:.6g} posterior={report['mse_posterior']:.6g}"


# -------------------------------------------------------------------- bayes


def _cmd_bayes(args) -> tuple[dict, None]:
    xbar = np.array(_parse_floats("--xbar", args.xbar))
    theta = np.array(_parse_floats("--theta", args.theta))
    if args.c is not None:
        summary = posterior_mean_conjugate_scalar(xbar, args.n, args.c, theta)  # needs no covariance
    else:
        if not (args.sigma_csv and args.prior_cov_csv):
            raise ValueError("provide either --c or both --sigma-csv and --prior-cov-csv")
        sigma, _ = load_matrix_csv(args.sigma_csv)
        prior_cov, _ = load_matrix_csv(args.prior_cov_csv)
        summary = posterior_mean_general(xbar, args.n, sigma, GaussianPrior.full(theta, prior_cov))
    return summary.to_dict(), None


# ------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    about = "Fit, tune and apply regularized linear discriminant classifiers; every command writes a JSON report."
    parser = argparse.ArgumentParser(prog="rlda", description=about)
    parser.add_argument("--version", action="version", version=f"rlda {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write the JSON report here instead of stdout")

    design = argparse.ArgumentParser(add_help=False)  # the simulated two-group design
    design.add_argument("--seed", type=int, required=True)
    design.add_argument("--n", type=int, default=50)
    design.add_argument("--m", type=int, default=50)
    design.add_argument("--p", type=int, default=1000)
    design.add_argument("--sigma", type=float, default=1.0)
    design.add_argument("--c", type=float, default=0.4)
    design.add_argument("--shift-count", type=int, default=5)
    design.add_argument("--shift-value", type=float, default=3.0)

    p = sub.add_parser("simulate", parents=[design, out], help="generate the two-group equicorrelated dataset as CSV")
    p.add_argument("--label", default="group")
    p.add_argument("--data-out", required=True, help="CSV destination")
    p.set_defaults(func=_cmd_simulate)

    dataset = argparse.ArgumentParser(add_help=False)  # a labeled CSV and its cross-validation
    dataset.add_argument("--data", required=True)
    dataset.add_argument("--label", required=True)
    dataset.add_argument("--theta2", type=float, default=None, help=f"t2 only; default {DEFAULT_THETA2}")
    dataset.add_argument("--target-sigma2", type=float, default=None)
    dataset.add_argument("--folds", type=int, default=5)
    dataset.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("fit", parents=[dataset, out], help="fit a classifier and persist it as JSON")
    p.add_argument("--target", default="t1", help="t1 | t2 | path to a CSV matrix")
    p.add_argument("--lambda", dest="lam", default="cv", help="intensity value, or cv, or lw")
    p.add_argument("--mean-reg", choices=KINDS, default="none")
    p.add_argument("--delta", default=None, help="mean-rule parameter value, or cv")
    p.add_argument("--priors", default="empirical", help="empirical | uniform | comma-separated values")
    p.add_argument("--algorithm", choices=("chol", "svd"), default="chol")
    p.add_argument("--mode", choices=("exact", "paper"), default="exact")
    p.add_argument("--model", required=True, help="model JSON destination")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", parents=[out], help="classify the rows of a CSV with a persisted model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--label", default=None, help="label column (enables accuracy reporting)")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("cv", parents=[dataset, out], help="cross-validate (lambda, delta) on a CSV dataset")
    p.add_argument("--target", default="t1")
    p.add_argument("--mean-reg", choices=KINDS, default="none")
    p.add_argument("--lambda-grid", default=None, help="comma-separated lambda values in [0, 1]")
    p.add_argument("--delta-grid", default=None, help="comma-separated mean-rule parameters")
    p.add_argument("--no-stratify", action="store_true")
    p.set_defaults(func=_cmd_cv)

    p = sub.add_parser(
        "experiment", parents=[design, out], help="run the simulated benchmark and print the method table"
    )
    p.add_argument("--theta2", type=float, default=DEFAULT_THETA2)
    p.add_argument("--folds", type=int, default=5)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("quantize-demo", parents=[out], help="Monte Carlo payoff of the rounding-aware posterior")
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--delta2", type=float, default=1.0)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--p", type=int, default=5)
    p.add_argument("--reps", type=int, default=10_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mu-value", type=float, default=0.0)
    p.add_argument("--fit-delta2", type=float, default=None)
    p.set_defaults(func=_cmd_quantize_demo)

    p = sub.add_parser("bayes", parents=[out], help="posterior mean of a Gaussian mean under a Gaussian prior")
    p.add_argument("--xbar", required=True, help="comma-separated sample mean")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta", required=True, help="comma-separated prior mean")
    prior_spec = p.add_mutually_exclusive_group()
    prior_spec.add_argument("--c", type=float, default=None, help="prior precision as a multiple of the data precision")
    prior_spec.add_argument("--sigma-csv", default=None, help="CSV of the observation covariance")
    p.add_argument("--prior-cov-csv", default=None, help="CSV of the prior covariance")
    p.set_defaults(func=_cmd_bayes)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # Refused before any data is read or drawn; numpy's own refusal would not name the option.
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be a nonnegative integer, got {args.seed}")
        report, note = args.func(args)
        _emit({**_base_doc(args), **report}, args.out)
    except (ValueError, OSError, MemoryError) as exc:  # NotPositiveDefiniteError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if note:
        print(note, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
