"""Command-line interface.

Subcommands: fit, sample, moments, evaluate, sweep.  Exit codes: 0 on
success, 1 for configuration problems (bad flags, unreadable files, invalid
config), 2 for runtime failures (including a sweep in which every cell
failed).  Seeds come from flags or the config file only.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .density import OfeDensity
from .exceptions import ConfigError
from .harness import (
    ExperimentConfig,
    _divergences,
    _reference_set,
    fit_cells,
    run,
    write_outputs,
)
from .targets import make_target
from .utils import as_integer, to_json


def _parse_params(text: str) -> dict:
    try:
        params = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"target params are not valid JSON: {exc}") from None
    if not isinstance(params, dict):
        raise ConfigError("target params must be a JSON object")
    return params


def _load_density(path: str) -> OfeDensity:
    try:
        return OfeDensity.load(path)
    except (OSError, ValueError, TypeError, KeyError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"cannot load density from {path}: {exc}") from None


def _cmd_fit(args) -> int:
    config = ExperimentConfig(
        target=args.target,
        target_params=_parse_params(args.target_params),
        orders=(args.orders.split(","),),
        seed=args.seed,
        family=args.family,
        samples=(args.samples,),
        proposal=args.proposal,
        proposal_scale=args.scale,
        standardize=args.standardize,
        standardize_samples=args.standardize_samples,
    )
    [(_, _, record, q)] = fit_cells(config, config.build_target())
    if record.error is not None:
        print(f"error: {record.error}", file=sys.stderr)
        return 2
    if args.out:
        q.save(args.out)
    summary = {
        "lambda_min": record.lambda_min,
        "lambda_2": record.lambda_2,
        "residual": record.residual,
        "K": record.K,
        "B": record.B,
        "rejected": record.rejected,
        "blas_threads": record.blas_threads,
        "timings_ms": {
            "score_eval": record.score_ms,
            "assemble": record.assemble_ms,
            "eigensolve": record.eigensolve_ms,
        },
        "largest_array_bytes": record.largest_array_bytes,
        "standardized": args.standardize,
        "density_path": args.out,
    }
    print(to_json(summary))
    return 0


# Rows of the sample CSV formatted and written at a time, so the text in
# memory does not grow with the number of draws.
_CSV_ROWS = 4096


def _write_csv(handle, samples: np.ndarray) -> None:
    """A header z1,...,zD, then one line per draw of each coordinate's repr."""
    handle.write(",".join(f"z{d + 1}" for d in range(samples.shape[1])) + "\n")
    for start in range(0, samples.shape[0], _CSV_ROWS):
        rows = samples[start:start + _CSV_ROWS].tolist()
        handle.write("".join(",".join(map(repr, row)) + "\n" for row in rows))


def _cmd_sample(args) -> int:
    as_integer(args.n, "--n", least=1)
    as_integer(args.seed, "--seed", least=0)
    q = _load_density(args.density)
    rng = np.random.default_rng(args.seed)
    samples, info = q.sample_with_info(rng, args.n)
    if args.out:
        with open(args.out, "w") as handle:
            _write_csv(handle, samples)
    else:
        _write_csv(sys.stdout, samples)
    clamps = info["boundary_clamps"].tolist()
    print(f"boundary clamps per dimension: {clamps}", file=sys.stderr)
    return 0


def _cmd_moments(args) -> int:
    q = _load_density(args.density)
    mean, cov = q.mean_and_cov()
    print(to_json({"mean": mean.tolist(), "cov": cov.tolist()}))
    return 0


def _cmd_evaluate(args) -> int:
    q = _load_density(args.density)
    target = make_target(args.target, **_parse_params(args.target_params))
    if target.dim != q.dim:
        raise ConfigError(f"density has dimension {q.dim}, target has {target.dim}")
    as_integer(args.n, "--n", least=1)
    as_integer(args.seed, "--seed", least=0)
    # A sweep's own evaluation, so this repeats its cell for this seed and n.
    fields, notes = _divergences(q, _reference_set(target, args.seed, args.n))
    if notes:
        print(f"error: {'; '.join(notes)}", file=sys.stderr)
        return 2
    payload = {key: fields[key] for key in ("kl", "kl_se", "fisher_div", "fisher_se")}
    print(to_json(payload | {"n": args.n}))
    print(f"wall time: kl_ms {fields['kl_ms']:.3f}, fisher_ms {fields['fisher_ms']:.3f}",
          file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from None
    config = ExperimentConfig.from_json(text)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.out_prefix is not None:
        config = replace(config, out_prefix=args.out_prefix)
    records, densities = run(config)
    for record in records:
        label = f"K={record.K} B={record.B}"
        if record.error is not None:
            print(f"{label}: FAILED ({record.error})")
        else:
            kl = f"n/a ({record.note})" if record.kl is None else f"{record.kl:.6f}"
            print(f"{label}: lambda_min={record.lambda_min:.6e} kl={kl}")
    if config.out_prefix is not None:
        for path in write_outputs(config, records, densities):
            print(f"wrote {path}")
    if all(record.error is not None for record in records):
        print("every sweep cell failed", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ofevi",
        description="Fit, sample, and evaluate squared orthogonal-expansion densities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a density to a named target")
    p_fit.add_argument("--target", required=True)
    p_fit.add_argument("--target-params", default="{}", help="JSON object of constructor args")
    p_fit.add_argument("--orders", required=True, help="comma-separated per-dimension orders")
    p_fit.add_argument("--family", default=ExperimentConfig.family)
    p_fit.add_argument("--proposal", default=ExperimentConfig.proposal, choices=("uniform", "gaussian"))
    p_fit.add_argument("--scale", type=float, default=ExperimentConfig.proposal_scale,
                       help="box half-width (unbounded sides) or Gaussian sd")
    p_fit.add_argument("--samples", type=int, default=None,
                       help="batch size (default: ten draws per basis function)")
    p_fit.add_argument("--standardize", action="store_true")
    p_fit.add_argument("--standardize-samples", type=int, default=ExperimentConfig.standardize_samples)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--out", default=None, help="path for the fitted density JSON")
    p_fit.set_defaults(func=_cmd_fit)

    p_sample = sub.add_parser("sample", help="draw exact samples from a saved density")
    p_sample.add_argument("--density", required=True)
    p_sample.add_argument("--n", type=int, default=1000)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_sample.set_defaults(func=_cmd_sample)

    p_moments = sub.add_parser("moments", help="mean and covariance of a saved density")
    p_moments.add_argument("--density", required=True)
    p_moments.set_defaults(func=_cmd_moments)

    p_eval = sub.add_parser("evaluate", help="forward KL and score mismatch against a target")
    p_eval.add_argument("--density", required=True)
    p_eval.add_argument("--target", required=True)
    p_eval.add_argument("--target-params", default="{}")
    p_eval.add_argument("--n", type=int, default=100_000)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.set_defaults(func=_cmd_evaluate)

    p_sweep = sub.add_parser("sweep", help="run a configured sweep and write outputs")
    p_sweep.add_argument("--config", required=True, help="experiment config JSON")
    p_sweep.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sweep.add_argument("--out-prefix", default=None, help="override the config output prefix")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure contract
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
