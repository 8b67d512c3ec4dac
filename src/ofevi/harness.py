"""Experiment harness: configured fit pipelines and their evaluation.

A run is a grid of cells (sample-count sweep x basis-order sweep) against one
target.  `fit_cells` fits each cell; `run` then evaluates each fitted cell
(forward KL against exact target samples, the mean squared score mismatch,
an optional sampling probe) and appends a RunRecord.  Cells share one batch
of reference samples, and within a fixed sample-count cell all basis sizes
share one proposal batch, one set of cached target scores and the moment
matrix of the largest basis fitted on it, from which nested bases take
their blocks bit for bit.  `ofevi fit` is `fit_cells` on a one-cell config,
so it writes the density `ofevi sweep` writes for the same config and seed;
`ofevi evaluate` scores a saved density on the sweep's reference set with
the sweep's divergence code, so it prints the numbers the sweep wrote.

Outputs: a long-format CSV (one row per metric) whose bytes depend only on
the config and seed, plus a JSON document carrying complete records
(including wall-clock timings, which are excluded from the CSV so reruns
stay byte-identical) and one JSON per fitted density.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import numbers
import warnings
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import _blas
from .basis1d import HERMITE, BasisFamily
from .density import OfeDensity
from .estimator import (
    MAX_ARRAY_BYTES,
    ScoreCache,
    default_sample_count,
    fit_from_batch,
    largest_array_bytes,
)
from .exceptions import ConfigError, PoleError, SupportError, TableBuildError
from .product_basis import ProductBasis
from .proposals import IsotropicGaussian, UniformBox
from .standardize import StandardizedTarget, estimate_transform, pull_density
from .targets import TARGET_REGISTRY, make_target

SCHEMA_VERSION = 1

CSV_METRICS = ("lambda_min", "residual", "kl", "kl_se", "fisher_div", "fisher_se")
CSV_HEADER = ("config", "target", "family", "orders", "K", "B", "seed", "metric", "value")


def _integer(value, name: str, least: int) -> int:
    """value as an int of at least `least`; a bool or a value that is not whole is refused."""
    try:
        whole = int(value)  # strings too: `ofevi fit --orders 6,6` passes "6"
    except (TypeError, ValueError, OverflowError):
        whole = None
    exact = whole is not None and (isinstance(value, str) or whole == value)
    if not exact or isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"{name}: {value!r} is not an integer")
    if whole < least:
        raise ConfigError(f"{name} must be at least {least}")
    return whole


@dataclass(frozen=True)
class ExperimentConfig:
    target: str
    orders: tuple[tuple[int, ...], ...]
    seed: int
    family: str = "hermite"
    target_params: dict = field(default_factory=dict)
    samples: tuple[int | None, ...] = (None,)
    proposal: str = "uniform"
    proposal_scale: float = 6.0
    standardize: bool = False
    standardize_samples: int = 10_000
    eval_samples: int = 100_000
    sample_probe: int = 0
    out_prefix: str | None = None

    def __post_init__(self):
        try:
            orders = tuple(tuple(_integer(k, "orders", 1) for k in o) for o in self.orders)
            samples = tuple(None if b is None else _integer(b, "samples", 1) for b in self.samples)
        except TypeError:
            raise ConfigError("orders must be a list of lists and samples a list") from None
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "samples", samples)
        for name, least in (("seed", 0), ("standardize_samples", 1),
                            ("eval_samples", 1), ("sample_probe", 0)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, least))
        if not self.orders or not all(self.orders):
            raise ConfigError("orders must be a nonempty list of nonempty lists")
        if len({len(o) for o in self.orders}) != 1:
            raise ConfigError("every orders entry must have the same dimension")
        for o in self.orders:
            need = largest_array_bytes(math.prod(o), len(o))
            if need > MAX_ARRAY_BYTES:
                raise ConfigError(
                    f"orders {list(o)} need {need:,} bytes for M or one chunk of "
                    f"features; the limit is {MAX_ARRAY_BYTES:,}"
                )
        if not self.samples:
            raise ConfigError("samples must be a nonempty list of counts or nulls")
        # A cell's CSV rows and density file are keyed by its orders and B.
        cells = [(o, default_sample_count(math.prod(o)) if b is None else b)
                 for b in self.samples for o in self.orders]
        if len(set(cells)) != len(cells):
            raise ConfigError("two cells have the same orders and sample count B")
        if not isinstance(self.target_params, dict):
            raise ConfigError("target_params must be an object")
        if self.target not in TARGET_REGISTRY:
            raise ConfigError(f"unknown target {self.target!r}")
        try:
            BasisFamily(self.family)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.proposal not in ("uniform", "gaussian"):
            raise ConfigError("proposal must be 'uniform' or 'gaussian'")
        if self.proposal == "gaussian" and self.family != HERMITE:
            raise ConfigError(
                f"the gaussian proposal draws outside the {self.family} support; use 'uniform'"
            )
        scale = self.proposal_scale
        if (isinstance(scale, bool) or not isinstance(scale, numbers.Real)
                or not (math.isfinite(scale) and scale > 0)):
            raise ConfigError("proposal_scale must be a positive and finite number")
        if not isinstance(self.standardize, bool):
            raise ConfigError("standardize must be true or false")
        if self.out_prefix is not None and not isinstance(self.out_prefix, str):
            raise ConfigError("out_prefix must be a string or null")

    @property
    def dim(self) -> int:
        return len(self.orders[0])

    def build_target(self):
        """The configured target, checked against the dimension of the orders."""
        target = make_target(self.target, **self.target_params)
        if target.dim != self.dim:
            raise ConfigError(
                f"target {self.target!r} has dimension {target.dim}, orders imply {self.dim}"
            )
        return target

    def to_dict(self) -> dict:
        out = asdict(self)
        out["schema_version"] = SCHEMA_VERSION
        out["orders"] = [list(o) for o in self.orders]
        out["samples"] = list(self.samples)
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        payload = dict(payload)
        version = payload.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported config schema version {version}")
        if "seed" not in payload:
            raise ConfigError("seed is mandatory and must be an integer")
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ConfigError("config must be a JSON object")
        return cls.from_dict(payload)

    def hash(self) -> str:
        payload = self.to_dict()
        payload.pop("out_prefix")
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class RunRecord:
    config: str
    target: str
    family: str
    orders: tuple[int, ...]
    K: int
    B: int
    seed: int
    standardize: bool
    lambda_min: float | None = None
    residual: float | None = None
    kl: float | None = None
    kl_se: float | None = None
    kl_excluded: int | None = None
    fisher_div: float | None = None
    fisher_se: float | None = None
    fisher_excluded: int | None = None
    rejected: int | None = None
    tail_clips: int | None = None
    score_ms: float | None = None
    assemble_ms: float | None = None
    eigensolve_ms: float | None = None
    blas_threads: int | None = None
    error: str | None = None
    note: str = ""

    def to_dict(self) -> dict:
        out = asdict(self)
        out["orders"] = list(self.orders)
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "RunRecord":
        payload = dict(payload)
        payload["orders"] = tuple(payload["orders"])
        return cls(**payload)


# ---------------------------------------------------------------------------
# Metrics.

def kl_from_samples(z: np.ndarray, log_p: np.ndarray, q) -> tuple[float, float, int]:
    """KL(p || q) from precomputed target samples and log densities.

    Points where q vanishes contribute +inf to the true KL; they are
    excluded from the average, counted, and reported with a warning.
    """
    diff = log_p - q.log_density(z)
    keep = np.isfinite(diff)
    excluded = int(diff.size - np.count_nonzero(keep))
    if excluded:
        warnings.warn(
            f"{excluded} of {diff.size} reference points hit zeros of q; excluded from KL",
            stacklevel=2,
        )
    if not np.any(keep):
        return float("nan"), float("nan"), excluded
    diff = diff[keep]
    se = float(np.std(diff, ddof=1) / np.sqrt(diff.size)) if diff.size > 1 else float("nan")
    return float(np.mean(diff)), se, excluded


def _fisher_from_scores(p_scores: np.ndarray, q, z: np.ndarray) -> tuple[float, float, int]:
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or z.shape[0] == 0:
        raise ValueError("reference samples must be a nonempty (n, dim) array")
    f = q.expansion(z)
    keep = f != 0.0
    excluded = int(z.shape[0] - np.count_nonzero(keep))
    if excluded:
        warnings.warn(
            f"{excluded} of {z.shape[0]} reference points are poles of q; excluded",
            stacklevel=2,
        )
        z, p_scores = z[keep], p_scores[keep]
    gap = p_scores - q.score(z)
    sq = np.sum(gap * gap, axis=1)
    se = float(np.std(sq, ddof=1) / np.sqrt(sq.size)) if sq.size > 1 else float("nan")
    return float(np.mean(sq)), se, excluded


# ---------------------------------------------------------------------------
# Running experiments.

def fit_cells(config: ExperimentConfig, target):
    """Fit every sweep cell in order; yields (bi, ki, record, result, density).

    bi and ki index the cell's sample count and basis order; `record` has no
    metric filled in; `density` is the fit pulled back to the target's
    coordinates.  A cell whose fit raised yields its record with `error`
    set and None for the result and the density.
    """
    family = BasisFamily(config.family)
    if config.proposal == "uniform":
        # Every draw must lie in the family's support: a finite support edge
        # is a side of the box, and -/+ proposal_scale stands in for an infinite one.
        lo, hi = family.support
        s = config.proposal_scale
        proposal = UniformBox(
            np.full(target.dim, lo if math.isfinite(lo) else -s),
            np.full(target.dim, hi if math.isfinite(hi) else s),
        )
    else:
        proposal = IsotropicGaussian(np.zeros(target.dim), config.proposal_scale**2)
    config_hash = config.hash()

    if config.standardize:
        transform = estimate_transform(
            target, proposal, config.standardize_samples, np.random.default_rng((config.seed, 2))
        )
        fit_target = StandardizedTarget(target, transform)
    else:
        transform = None
        fit_target = target

    for bi, b_spec in enumerate(config.samples):
        cache = ScoreCache(fit_target)
        shared = None
        if b_spec is not None:
            z = proposal.sample(np.random.default_rng((config.seed, 1, bi)), b_spec)
            shared = (z, 1.0 / proposal.density(z))
        for ki, orders in enumerate(config.orders):
            size = int(np.prod(orders))
            record = RunRecord(
                config=config_hash,
                target=config.target,
                family=config.family,
                orders=orders,
                K=size,
                B=b_spec if b_spec is not None else default_sample_count(size),
                seed=config.seed,
                standardize=config.standardize,
            )
            try:
                basis = ProductBasis([family] * len(orders), orders)
                if shared is None:
                    z = proposal.sample(np.random.default_rng((config.seed, 1, bi, ki)), record.B)
                    weights = 1.0 / proposal.density(z)
                else:
                    z, weights = shared
                result = fit_from_batch(cache, basis, z, weights)
                q = result.density if transform is None else pull_density(result.density, transform)
            except Exception as exc:  # per-cell isolation: record and move on
                yield bi, ki, replace(record, error=f"{type(exc).__name__}: {exc}"), None, None
                continue
            yield bi, ki, record, result, q


@_blas.pinned()
def run(config: ExperimentConfig):
    """Fit and evaluate every sweep cell; returns (records, densities) in cell order.

    A cell failure, in its fit or its evaluation, is recorded with its
    reason and the run continues.  A diagnostic (KL, Fisher divergence or
    the sampling probe) that meets a point outside the density's support, a
    pole or a CDF table that cannot be built is reported in the cell's
    `note` instead: its own fields stay None, and the fit, its density and
    the other diagnostics stand.  Randomness is drawn from per-purpose
    streams keyed by the seed, and fits and evaluation run with BLAS pinned
    to one thread, so a rerun with the same config reproduces every number
    except wall-clock timings, whatever `OPENBLAS_NUM_THREADS` is.  Where no
    bundled OpenBLAS is found to pin (records report `blas_threads` None),
    that holds only at the same BLAS thread count.
    """
    target = config.build_target()
    reference = _reference_set(target, config.seed, config.eval_samples)
    records: list[RunRecord] = []
    densities: list[OfeDensity | None] = []
    for bi, ki, record, result, q in fit_cells(config, target):
        if result is not None:
            try:
                record = _run_cell(config, record, result, q, reference, bi, ki)
            except Exception as exc:  # per-cell isolation: record and move on
                record, q = replace(record, error=f"{type(exc).__name__}: {exc}"), None
        records.append(record)
        densities.append(q)
    return records, densities


def _reference_set(target, seed: int, n: int):
    """n exact target draws from the sweep's evaluation stream, with log p and the score there."""
    z = target.sample(np.random.default_rng((seed, 3)), n)
    return z, target.log_density(z), target.score(z)


def _divergences(q, reference) -> tuple[dict, list[str]]:
    """q's KL and Fisher record fields on a reference set, and a note for each that
    met a point outside q's support or a pole of q (its fields stay None)."""
    z, log_p, p_scores = reference
    fields, notes = {}, []
    for name, keys, compute in (
        ("kl", ("kl", "kl_se", "kl_excluded"), lambda: kl_from_samples(z, log_p, q)),
        ("fisher", ("fisher_div", "fisher_se", "fisher_excluded"),
         lambda: _fisher_from_scores(p_scores, q, z)),
    ):
        try:
            values = compute()
        except (SupportError, PoleError) as exc:
            notes.append(f"{name} failed: {type(exc).__name__}: {exc}")
            values = (None, None, None)
        fields.update(zip(keys, values))
    return fields, notes


def _run_cell(config, record, result, q, reference, bi, ki):
    fields, notes = _divergences(q, reference)
    tail_clips = None
    if config.sample_probe > 0:
        rng_probe = np.random.default_rng((config.seed, 4, bi, ki))
        try:
            _, info = q.sample_with_info(rng_probe, config.sample_probe)
            tail_clips = int(np.sum(info["boundary_clamps"]))
        except (SupportError, PoleError, TableBuildError) as exc:
            notes.append(f"sample probe failed: {type(exc).__name__}: {exc}")
    else:
        notes.append("tail_clips null: no sampling probe requested")
    return replace(
        record,
        **fields,
        lambda_min=result.eigenvalue,
        residual=result.residual,
        rejected=result.rejected,
        tail_clips=tail_clips,
        score_ms=result.timings_ms["score_eval"],
        assemble_ms=result.timings_ms["assemble"],
        eigensolve_ms=result.timings_ms["eigensolve"],
        blas_threads=result.blas_threads,
        note="; ".join(notes),
    )


# ---------------------------------------------------------------------------
# Serialization.

def _orders_label(orders) -> str:
    """A cell's orders as its CSV rows and density file name write them, e.g. 2x8."""
    return "x".join(str(k) for k in orders)


def records_to_csv(records: list[RunRecord]) -> str:
    """Long-format metric rows; deterministic bytes for a given config+seed.

    Wall-clock timings are deliberately not CSV metrics: they vary across
    reruns and would break byte-for-byte reproducibility.  They live in the
    JSON records instead.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in records:
        prefix = (r.config, r.target, r.family, _orders_label(r.orders), r.K, r.B, r.seed)
        for metric in CSV_METRICS:
            value = getattr(r, metric)
            writer.writerow(prefix + (metric, "" if value is None else repr(value)))
    return buf.getvalue()


def records_to_json(records: list[RunRecord]) -> str:
    return json.dumps([r.to_dict() for r in records], indent=2) + "\n"


def records_from_json(text: str) -> list[RunRecord]:
    return [RunRecord.from_dict(p) for p in json.loads(text)]


def write_outputs(config: ExperimentConfig, records, densities) -> list[Path]:
    if config.out_prefix is None:
        raise ConfigError("config has no out_prefix")
    prefix = Path(config.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    written = []
    csv_path = prefix.with_name(prefix.name + "_metrics.csv")
    csv_path.write_text(records_to_csv(records))
    written.append(csv_path)
    json_path = prefix.with_name(prefix.name + "_records.json")
    json_path.write_text(records_to_json(records))
    written.append(json_path)
    for record, density in zip(records, densities):
        if density is None:
            continue
        name = f"{prefix.name}_density_{_orders_label(record.orders)}_B{record.B}.json"
        path = prefix.with_name(name)
        density.save(path)
        written.append(path)
    return written
