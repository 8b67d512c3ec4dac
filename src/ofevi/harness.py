"""Experiment harness: configured fit pipelines and their evaluation.

A run is a grid of cells (sample-count sweep x basis-order sweep) against one
target, and `run` takes it in three steps:

1. Fit every cell (`fit_cells`), filling the fields of the cell's
   RunRecord that `FIT_FIELDS` names.  Of each fit only the record and
   the density are yielded; its M, batch and scores are dropped before
   the yield.  Within a fixed sample-count cell all basis sizes share one
   proposal batch: each fit is handed the largest fit made so far on it,
   whose target scores it reuses and from whose moment matrix nested bases
   take their blocks bit for bit, so that one fit lives until the batch's
   last cell is fitted.
2. Draw the reference set: exact target samples with log p and the
   target's score there, 16 D + 8 bytes a point, shared by every cell.
3. Evaluate each cell on it in config order: forward KL, the mean squared
   score mismatch (Fisher divergence) and an optional sampling probe, each
   run and timed into the record by one loop (`_divergences`).
   The target and each density are evaluated on chunks of the density's
   own `_CHUNK_POINTS` reference points, and each divergence keeps one
   value a point, so a cell adds about 9 bytes a point while it is
   evaluated.

The fits pin BLAS themselves (`_blas`); the reference draw and the
evaluation run at the process's own thread count, and tests check that
their bits do not depend on it.

`ofevi fit` is `fit_cells` on a one-cell config, so it writes the density
`ofevi sweep` writes for the same config and seed; `ofevi evaluate` scores a
saved density on the sweep's reference set with the sweep's divergence
code, so it prints the numbers the sweep wrote.

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
import time
import warnings
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .basis1d import HERMITE, BasisFamily
from .density import _CHUNK_POINTS, OfeDensity
from .estimator import (
    MAX_ARRAY_BYTES,
    default_sample_count,
    fit_from_batch,
    largest_array_bytes,
)
from .exceptions import ConfigError, PoleError, SupportError, TableBuildError
from .product_basis import ProductBasis
from .proposals import IsotropicGaussian, UniformBox
from .standardize import StandardizedTarget, estimate_transform
from .targets import TARGET_REGISTRY, make_target
from .utils import as_floats, as_integer, as_list, row_sums, to_json

SCHEMA_VERSION = 1

CSV_METRICS = ("lambda_min", "residual", "kl", "kl_se", "fisher_div", "fisher_se")
CSV_HEADER = ("config", "target", "family", "orders", "K", "B", "seed", "metric", "value")
# The RunRecord fields a fit fills, each copied from the FitResult field of
# the same name, but lambda_min, which FitResult calls eigenvalue.
FIT_FIELDS = ("lambda_min", "lambda_2", "residual", "rejected", "score_ms", "assemble_ms",
              "eigensolve_ms", "blas_threads", "largest_array_bytes")


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
            # Each cell's basis checks its orders: whole, at least 1, at most MAX_ORDER.
            family = BasisFamily(self.family)
            entries = [as_list(o, "each orders entry") for o in as_list(self.orders, "orders")]
            orders = tuple(ProductBasis([family] * len(o), o).orders for o in entries)
            samples = tuple(None if b is None else as_integer(b, "samples", 1)
                            for b in as_list(self.samples, "samples"))
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "samples", samples)
        for name, least in (("seed", 0), ("standardize_samples", 1),
                            ("eval_samples", 1), ("sample_probe", 0)):
            object.__setattr__(self, name, as_integer(getattr(self, name), name, least))
        if len({len(o) for o in self.orders}) != 1:
            raise ConfigError("orders must be a nonempty list of entries of one dimension")
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
        try:
            json.dumps(self.target_params, sort_keys=True)  # as the config hash writes them
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"target_params cannot be written as JSON: {exc}") from None
        if self.target not in TARGET_REGISTRY:
            raise ConfigError(f"unknown target {self.target!r}")
        if self.proposal not in ("uniform", "gaussian"):
            raise ConfigError("proposal must be 'uniform' or 'gaussian'")
        if self.proposal == "gaussian" and self.family != HERMITE:
            raise ConfigError(
                f"the gaussian proposal draws outside the {self.family} support; use 'uniform'"
            )
        # A finite scale can still under- or overflow the proposal's density,
        # which its constructor refuses.
        try:
            if as_floats(self.proposal_scale, "proposal_scale", 0) <= 0:
                raise ValueError("proposal_scale must be positive")
            self.build_proposal()
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"proposal_scale {self.proposal_scale!r} builds no proposal: {exc}") from None
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

    def build_proposal(self):
        """The configured proposal in `dim` dimensions, drawing only inside the family's support.

        A finite support edge is a side of the uniform box, and -/+ proposal_scale
        stands in for an infinite one; the Gaussian's sd is proposal_scale.
        """
        if self.proposal == "gaussian":
            return IsotropicGaussian(np.zeros(self.dim), self.proposal_scale**2)
        lo, hi = BasisFamily(self.family).support
        s = self.proposal_scale
        return UniformBox(
            np.full(self.dim, lo if math.isfinite(lo) else -s),
            np.full(self.dim, hi if math.isfinite(hi) else s),
        )

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
    lambda_2: float | None = None
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
    kl_ms: float | None = None
    fisher_ms: float | None = None
    probe_ms: float | None = None
    blas_threads: int | None = None
    largest_array_bytes: int | None = None
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

def _fill(out: np.ndarray, value, rows=None) -> np.ndarray:
    """out with value(r) written at each chunk of `_CHUNK_POINTS` reference points.

    r is a slice of range(len(out)) or, with `rows` given, that slice of the
    point indices `rows`.  A density evaluates in chunks of the same size,
    so each call on a chunk builds the 1-D tables once, as one call on every
    point would, and gives its values bit for bit.
    """
    for start in range(0, out.shape[0], _CHUNK_POINTS):
        chunk = slice(start, start + _CHUNK_POINTS)
        out[chunk] = value(chunk if rows is None else rows[chunk])
    return out


def _reference_arrays(z, values, name: str, per_dimension: bool = False):
    """z as a nonempty (n, D) float array, and `values`, which must be (n,) or, per_dimension, (n, D)."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or z.shape[0] == 0:
        raise ValueError("reference samples must be a nonempty (n, dim) array")
    values = np.asarray(values, dtype=float)
    shape = z.shape if per_dimension else z.shape[:1]
    if values.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {values.shape}")
    return z, values


def _kept_mean(keep: np.ndarray, reason: str, values) -> tuple[float, float, int]:
    """Mean and standard error of `values` over the reference points `keep` marks.

    `values` maps the indices of the kept points (None when every point is
    kept) to one value per kept point.  Points not kept are counted and
    reported with a warning; when none is kept, `values` is not called and
    the mean and SE are NaN.
    """
    excluded = int(keep.size - np.count_nonzero(keep))
    if excluded:
        warnings.warn(f"{excluded} of {keep.size} reference points {reason}", stacklevel=3)
        if excluded == keep.size:
            return float("nan"), float("nan"), excluded
    x = values(np.flatnonzero(keep) if excluded else None)
    se = float(np.std(x, ddof=1) / np.sqrt(x.size)) if x.size > 1 else float("nan")
    return float(np.mean(x)), se, excluded


def kl_from_samples(z: np.ndarray, log_p: np.ndarray, q) -> tuple[float, float, int]:
    """KL(p || q) from target samples z (n, D) and their log densities log_p (n,).

    Points where q vanishes contribute +inf to the true KL; they are
    excluded from the average, counted, and reported with a warning.
    """
    z, log_p = _reference_arrays(z, log_p, "log_p")
    diff = _fill(np.empty(z.shape[0]), lambda r: log_p[r] - q.log_density(z[r]))
    return _kept_mean(np.isfinite(diff), "hit zeros of q; excluded from KL",
                      lambda rows: diff if rows is None else diff[rows])


def _fisher_from_scores(p_scores: np.ndarray, q, z: np.ndarray) -> tuple[float, float, int]:
    """Mean squared gap between the target's scores p_scores (n, D) and q's at z (n, D)."""
    z, p_scores = _reference_arrays(z, p_scores, "p_scores", per_dimension=True)

    def squared_gap(r):
        gap = p_scores[r] - q.score(z[r])
        return row_sums(gap * gap)

    keep = _fill(np.empty(z.shape[0], dtype=bool), lambda r: q.expansion(z[r]) != 0.0)
    return _kept_mean(keep, "are poles of q; excluded", lambda rows: _fill(
        np.empty(z.shape[0] if rows is None else rows.size), squared_gap, rows))


# ---------------------------------------------------------------------------
# Running experiments.

def fit_cells(config: ExperimentConfig, target):
    """Fit every sweep cell in order; yields (bi, ki, record, density).

    bi and ki index the cell's sample count and basis order; `record` has
    the fit's fields filled in and no divergence; `density` is the fit
    pulled back to the target's coordinates.  A cell whose fit raised
    yields its record with `error` set and None for the density.  Each fit
    is dropped before its yield; only a shared batch's `earlier` outlives it.
    """
    family = BasisFamily(config.family)
    proposal = config.build_proposal()
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
        shared = earlier = None
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
                result = fit_from_batch(fit_target, basis, z, weights, earlier=earlier)
                if shared is not None and (earlier is None or size > earlier.density.basis.size):
                    earlier = result
                q = result.density
                if transform is not None:
                    q = OfeDensity(q.basis, q.coeffs, transform)
                record = replace(record, lambda_min=result.eigenvalue,
                                 **{name: getattr(result, name) for name in FIT_FIELDS[1:]})
            except Exception as exc:  # per-cell isolation: record and move on
                record, q = replace(record, error=f"{type(exc).__name__}: {exc}"), None
            result = None  # only a shared batch's `earlier` fit outlives its cell
            yield bi, ki, record, q


def run(config: ExperimentConfig):
    """Fit and evaluate every sweep cell; returns (records, densities) in cell order.

    Three steps, and what each holds:
    1. every cell is fitted; of each fit only its record and its density
       are yielded, and its M, batch and scores are dropped before the
       yield (`fit_cells`);
    2. the reference set is drawn: z, log p and the target's score,
       16 D + 8 bytes a point, held until the last cell is evaluated;
    3. the cells are evaluated on it in order, in chunks of the density's
       own `_CHUNK_POINTS` points; a divergence holds one value a point
       (and Fisher one flag a point) while it runs.
    A cell failure, in its fit or its evaluation, is recorded with its
    reason and the run continues; a cell whose evaluation failed keeps its
    fit's fields but not its density.  A diagnostic (KL, Fisher divergence
    or the sampling probe) that meets a point outside the density's
    support, a pole or a CDF table that cannot be built is reported in the
    cell's `note` instead: its own fields stay None, and the fit, its
    density and the other diagnostics stand.  Randomness is drawn from
    per-purpose streams keyed by the seed, so the order of fits and
    evaluation moves no number.  The fits and the standardizing moments
    pin BLAS themselves (`_blas.pinned`); the reference draw and the
    evaluation run at the process's own thread count, and their bits do
    not depend on it (tests check this).  So a rerun with the same config
    reproduces every number except wall-clock timings, whatever
    `OPENBLAS_NUM_THREADS` is.  Where no bundled OpenBLAS is found to pin
    (records report `blas_threads` None), that holds only at the same BLAS
    thread count.
    """
    target = config.build_target()
    cells = list(fit_cells(config, target))
    reference = _reference_set(target, config.seed, config.eval_samples)
    records: list[RunRecord] = []
    densities: list[OfeDensity | None] = []
    for bi, ki, record, q in cells:
        if q is not None:
            try:
                record = _run_cell(config, record, q, reference, bi, ki)
            except Exception as exc:  # per-cell isolation: record and move on
                record, q = replace(record, error=f"{type(exc).__name__}: {exc}"), None
        records.append(record)
        densities.append(q)
    return records, densities


def _reference_set(target, seed: int, n: int):
    """n exact target draws from the sweep's evaluation stream, with log p and the score there.

    The target is evaluated in chunks of `_CHUNK_POINTS` draws, so beyond the
    three arrays returned only the draw itself holds more than one chunk.
    """
    z = target.sample(np.random.default_rng((seed, 3)), n)
    log_p = _fill(np.empty(n), lambda r: target.log_density(z[r]))
    return z, log_p, _fill(np.empty_like(z), lambda r: target.score(z[r]))


def _divergences(q, reference, probe=None) -> tuple[dict, list[str]]:
    """q's diagnostic record fields on a reference set, and a note for each diagnostic that failed.

    KL, the Fisher divergence and, given probe = (rng, n), n draws of q
    (`tail_clips`) each fill their fields and their `*_ms` time.  One that
    meets a point outside q's support, a pole or a CDF table that cannot
    be built gets a note instead, and its fields stay None.
    """
    z, log_p, p_scores = reference
    diagnostics = [
        ("kl", ("kl", "kl_se", "kl_excluded", "kl_ms"), lambda: kl_from_samples(z, log_p, q)),
        ("fisher", ("fisher_div", "fisher_se", "fisher_excluded", "fisher_ms"),
         lambda: _fisher_from_scores(p_scores, q, z)),
    ]
    if probe is not None:
        def tail_clips():
            _, info = q.sample_with_info(*probe)
            return (int(np.sum(info["boundary_clamps"])),)

        diagnostics.append(("sample probe", ("tail_clips", "probe_ms"), tail_clips))
    fields, notes = {}, []
    for name, keys, compute in diagnostics:
        start = time.perf_counter()
        try:
            values = (*compute(), 1e3 * (time.perf_counter() - start))
        except (SupportError, PoleError, TableBuildError) as exc:
            notes.append(f"{name} failed: {type(exc).__name__}: {exc}")
            values = (None,) * len(keys)
        fields.update(zip(keys, values))
    return fields, notes


def _run_cell(config, record, q, reference, bi, ki):
    """The cell's record with its diagnostics, the probe drawn from stream (seed, 4, bi, ki)."""
    probe = None
    if config.sample_probe > 0:
        probe = (np.random.default_rng((config.seed, 4, bi, ki)), config.sample_probe)
    fields, notes = _divergences(q, reference, probe)
    if probe is None:
        notes.append("tail_clips null: no sampling probe requested")
    return replace(record, **fields, note="; ".join(notes))


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
    """The records as strict JSON; a NaN metric is null, which records_from_json reads as None."""
    return to_json([r.to_dict() for r in records]) + "\n"


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
