"""Spans around the calls into each ofevi module, recorded from outside.

A traced pass replaces each public function or method at the attribute its
caller looks up (a module global such as `ofevi.harness.fit_from_batch`, or
a class attribute such as `OfeDensity.score`) with a wrapper that records a
span: name, start, end and parent.  The originals are put back when the pass
ends.  Spans stay in memory; the worker writes them out at the end of a run.

A span's self time is its duration minus the durations of its direct
children.  Counts are computed from the shapes of arguments and results, so
they repeat exactly from pass to pass.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

# Per-layer metrics, in the order they are reported.  Times are self times
# except `estimator.fit_s`, which is the total time of the fits.
TIME_METRICS = (
    "estimator.fit_s",
    "estimator.feature_vectors_s",
    "estimator.assemble_s",
    "estimator.eigensolve_s",
    "product_basis.features_s",
    "basis1d.tables_s",
    "density.expansion_s",
    "density.log_density_s",
    "density.score_s",
    "density.cdf_table_s",
    "density.sample_s",
    "density.moments_s",
    "density.load_s",
    "targets.score_s",
    "targets.log_density_s",
    "targets.sample_s",
    "proposals.sample_s",
    "standardize.estimate_s",
    "harness.run_self_s",
    "harness.kl_s",
    "harness.fisher_s",
    "harness.write_s",
)
COUNT_METRICS = {
    "estimator.assemble_dots": "count",
    "estimator.u_bytes": "bytes",
    "product_basis.feature_bytes": "bytes",
    "basis1d.table_points": "count",
    "density.eval_points": "count",
    "density.cdf_table_bytes": "bytes",
    "targets.score_points": "count",
    "harness.bytes_written": "bytes",
}
# Largest single array; every other count is a sum over the pass.
_MAX_COUNTS = {"estimator.u_bytes", "product_basis.feature_bytes"}

# Span name -> per-layer time metric.  "estimator.fit" is reported as a total.
_SELF_TIME = {
    "estimator.feature_vectors": "estimator.feature_vectors_s",
    "estimator.assemble": "estimator.assemble_s",
    "estimator.eigensolve": "estimator.eigensolve_s",
    "product_basis.features": "product_basis.features_s",
    "basis1d.tables": "basis1d.tables_s",
    "density.expansion": "density.expansion_s",
    "density.log_density": "density.log_density_s",
    "density.score": "density.score_s",
    "density.cdf_table": "density.cdf_table_s",
    "density.sample": "density.sample_s",
    "density.moments": "density.moments_s",
    "density.load": "density.load_s",
    "targets.score": "targets.score_s",
    "targets.log_density": "targets.log_density_s",
    "targets.sample": "targets.sample_s",
    "proposals.sample": "proposals.sample_s",
    "standardize.estimate": "standardize.estimate_s",
    "harness.run": "harness.run_self_s",
    "harness.kl": "harness.kl_s",
    "harness.fisher": "harness.fisher_s",
    "harness.write": "harness.write_s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int = -1
    counts: dict = field(default_factory=dict)


# -- counts, from (args, kwargs, result) of one call --------------------------

def _points(args):
    z = args[1]
    return len(z) if getattr(z, "ndim", 1) == 2 else 1


def _assemble_dots(args, kwargs, result):
    k, b = args[0].shape[:2]
    chunk = kwargs.get("chunk_size", args[2] if len(args) > 2 else None)
    chunks = math.ceil(b / (b if chunk is None else int(chunk)))
    return {"estimator.assemble_dots": k * (k + 1) // 2 * chunks}


def _bytes_written(args, kwargs, result):
    # The records JSON carries wall-clock timings, so its length changes
    # from pass to pass; the CSV and density files are byte-stable.
    return {
        "harness.bytes_written": sum(
            p.stat().st_size for p in result if not p.name.endswith("_records.json")
        )
    }


def _cdf_table_bytes(args, kwargs, result):
    arrays = (result.grid, result.vals, result.mid_vals, result.pair_prefix)
    return {"density.cdf_table_bytes": sum(a.nbytes for a in arrays)}


def _wrap_points():
    """Everything the traced pass wraps: (owner, attribute, span name, count)."""
    from ofevi import density, estimator, harness, product_basis, proposals, targets

    sites = [
        (harness, "run", "harness.run", None),
        (harness, "_run_cell", "harness.run", None),
        (harness, "kl_from_samples", "harness.kl", None),
        (harness, "_fisher_from_scores", "harness.fisher", None),
        (harness, "write_outputs", "harness.write", _bytes_written),
        (harness, "fit_from_batch", "estimator.fit", None),
        (harness, "estimate_transform", "standardize.estimate", None),
        (estimator, "feature_vectors", "estimator.feature_vectors",
         lambda a, k, r: {"estimator.u_bytes": r.nbytes}),
        (estimator, "assemble_moment_matrix", "estimator.assemble", _assemble_dots),
        (estimator, "min_eigenpair", "estimator.eigensolve", None),
        (product_basis.ProductBasis, "feature_matrix", "product_basis.features", None),
        (product_basis.ProductBasis, "feature_gradients", "product_basis.features",
         lambda a, k, r: {"product_basis.feature_bytes": r[1].nbytes}),
        (density, "build_cdf_table", "density.cdf_table", _cdf_table_bytes),
        (density.OfeDensity, "expansion", "density.expansion",
         lambda a, k, r: {"density.eval_points": _points(a)}),
        (density.OfeDensity, "log_density", "density.log_density", None),
        (density.OfeDensity, "score", "density.score",
         lambda a, k, r: {"density.eval_points": _points(a)}),
        (density.OfeDensity, "sample_with_info", "density.sample", None),
        (density.OfeDensity, "mean_and_cov", "density.moments", None),
        (density.OfeDensity, "load", "density.load", None),
    ]
    for module in (product_basis, density):
        sites.append((module, "basis_tables", "basis1d.tables",
                      lambda a, k, r: {"basis1d.table_points": r[0].size}))
    for cls in (targets.Gaussian, targets.GaussianMixture, targets.Funnel, targets.SinhArcsinh):
        sites += [
            (cls, "score", "targets.score",
             lambda a, k, r: {"targets.score_points": _points(a)}),
            (cls, "log_density", "targets.log_density", None),
            (cls, "sample", "targets.sample", None),
        ]
    for cls in (proposals.UniformBox, proposals.IsotropicGaussian):
        sites.append((cls, "sample", "proposals.sample", None))
    return sites


class Tracer:
    """Records spans while installed; use as a context manager around a pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for owner, attr, name, count in _wrap_points():
            self.wrap(owner, attr, name, count)
        return self

    def __exit__(self, *exc):
        self.unwrap()
        return False

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        wrapper = self._wrapper(func, name, count)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def unwrap(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrapper(self, func, name, count):
        spans, open_, clock = self.spans, self._open, self.clock

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = open_[-1] if open_ else -1
            span = Span(name, clock(), parent=parent)
            spans.append(span)
            open_.append(len(spans) - 1)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = clock()
                open_.pop()
            # A call from a span of the same name (a mixture's components,
            # say) is part of its caller's work and is not counted again.
            if count is not None and (parent < 0 or spans[parent].name != name):
                span.counts = count(args, kwargs, result)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; layers it did not call read 0."""
    out = dict.fromkeys(TIME_METRICS, 0.0)
    for span, own in zip(spans, self_times(spans)):
        if span.name in _SELF_TIME:
            out[_SELF_TIME[span.name]] += own
        if span.name == "estimator.fit":
            out["estimator.fit_s"] += span.end - span.start
    out.update(counts(spans))
    return out


def counts(spans: list[Span]) -> dict[str, int]:
    out = dict.fromkeys(COUNT_METRICS, 0)
    for span in spans:
        for key, value in span.counts.items():
            out[key] = max(out[key], value) if key in _MAX_COUNTS else out[key] + value
    return out
