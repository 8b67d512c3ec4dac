"""The benchmark's workloads: set-up, one timed pass, and the checks on its outputs.

Each workload is built from a seed and does its set-up in the constructor.
`run_pass` is the timed work; `check` runs after the clock stops and lists
every operation of the pass with whether it succeeded.  Calls go through
module attributes (`harness.run`, not a local name) so that a traced pass
sees them.

- sweep_mixture2d: the paper's experiment loop, the work of `ofevi sweep`.
  Most of a pass evaluates log q and its score on the 100k reference set.
- fit_sinh5d: dominated by the fit (assembly of M).  Both orders share one
  batch and one set of cached scores; the only 5-D and only standardized
  workload.
- sample_mixture2d: the work of `ofevi sample` plus `ofevi moments` on a
  saved 20x20 density.  No fit and no reference-set evaluation.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ofevi import density, estimator, harness, targets
from ofevi.basis1d import BasisFamily
from ofevi.product_basis import ProductBasis
from ofevi.proposals import UniformBox

# KL estimates at the largest orders sit at the Monte Carlo noise floor, so
# "does not increase with K" allows this many standard errors of slack.
KL_SLACK_SE = 3.0
# The sample mean must lie within this many standard errors of the
# closed-form mean of the same density.
MEAN_SLACK_SE = 5.0
# lambda_min may fall below zero only by rounding: this share of ||M||_F.
LAMBDA_FLOOR = 1e-10
# The estimator's own residual bound, as a share of ||M||_F.
RESIDUAL_TOL = inspect.signature(estimator.fit_from_batch).parameters["residual_tol"].default


@dataclass
class PassResult:
    """Every operation of one pass, as (name, succeeded), and the final-cell quality."""

    ops: list[tuple[str, bool]] = field(default_factory=list)
    kl_final: float | None = None
    fisher_final: float | None = None


def _cell_ops(records) -> list[tuple[str, bool]]:
    return [(f"cell K={r.K}", r.error is None) for r in records]


def kl_not_increasing(records) -> bool:
    for small, large in zip(records, records[1:]):
        slack = KL_SLACK_SE * max(small.kl_se, large.kl_se)
        if not large.kl <= small.kl + slack:
            return False
    return True


class SweepMixture2d:
    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.config = harness.ExperimentConfig(
            target="mixture2d",
            orders=[[2, 2], [3, 3]] if tiny else [[5, 5], [10, 10], [15, 15], [20, 20]],
            samples=[None],
            proposal_scale=9.0,
            eval_samples=2_000 if tiny else 100_000,
            sample_probe=100 if tiny else 1_000,
            seed=seed,
            out_prefix=str(Path(workdir) / "sweep"),
        )
        targets.make_target(self.config.target)
        self._first_csv = None

    def run_pass(self):
        records, densities = harness.run(self.config)
        return records, harness.write_outputs(self.config, records, densities)

    def check(self, out) -> PassResult:
        records, paths = out
        csv = next(p for p in paths if p.name.endswith("_metrics.csv")).read_bytes()
        if self._first_csv is None:
            self._first_csv = csv
        done = [r for r in records if r.error is None]
        ops = _cell_ops(records) + [
            ("kl finite", all(math.isfinite(r.kl) for r in done)),
            ("kl not increasing in K", kl_not_increasing(done)),
            ("csv identical across passes", csv == self._first_csv),
        ]
        last = records[-1]
        return PassResult(ops, last.kl, last.fisher_div)


class FitSinh5d:
    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.config = harness.ExperimentConfig(
            target="sinh5d_1",
            orders=[[2] * 5, [3, 2, 2, 2, 2]] if tiny else [[3] * 5, [4, 4, 4, 3, 3]],
            samples=[400] if tiny else [5760],
            standardize=True,
            standardize_samples=2_000 if tiny else 10_000,
            proposal_scale=6.0,
            eval_samples=500 if tiny else 5_000,
            sample_probe=0,
            seed=seed,
        )
        targets.make_target(self.config.target)

    def run_pass(self):
        # The records do not carry ||M||, which the checks need; keep it as
        # each fit returns.
        fits = []
        inner = harness.fit_from_batch

        def keep_norm(*args, **kwargs):
            result = inner(*args, **kwargs)
            fits.append((result.eigenvalue, result.residual, np.linalg.norm(result.moment_matrix)))
            return result

        harness.fit_from_batch = keep_norm
        try:
            records, _ = harness.run(self.config)
        finally:
            harness.fit_from_batch = inner
        return records, fits

    def check(self, out) -> PassResult:
        records, fits = out
        ops = _cell_ops(records)
        for lam, residual, norm in fits:
            ops.append(("residual within the estimator's bound", bool(residual <= RESIDUAL_TOL * norm)))
            ops.append(("lambda_min not below -1e-10 ||M||", bool(lam >= -LAMBDA_FLOOR * norm)))
        last = records[-1]
        return PassResult(ops, last.kl, last.fisher_div)


class SampleMixture2d:
    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        order = 6 if tiny else 20
        self.draws = 2_000 if tiny else 200_000
        self.seed = seed
        result = estimator.fit(
            targets.make_target("mixture2d"),
            ProductBasis.uniform(BasisFamily("hermite"), order, 2),
            UniformBox.centered(9.0, 2),
            np.random.default_rng((seed, 1)),
        )
        self.path = Path(workdir) / "mixture2d_density.json"
        result.density.save(self.path)

    def run_pass(self):
        q = density.OfeDensity.load(self.path)
        draws, info = q.sample_with_info(np.random.default_rng((self.seed, 4)), self.draws)
        mean, cov = q.mean_and_cov()
        return draws, info, mean, cov

    def check(self, out) -> PassResult:
        draws, info, mean, cov = out
        se = np.sqrt(np.diag(cov) / draws.shape[0])
        return PassResult([
            ("sample mean within 5 SE of the closed-form mean",
             bool(np.all(np.abs(draws.mean(axis=0) - mean) <= MEAN_SLACK_SE * se))),
            ("no boundary clamps", int(np.sum(info["boundary_clamps"])) == 0),
        ])


WORKLOADS = {
    "sweep_mixture2d": SweepMixture2d,
    "fit_sinh5d": FitSinh5d,
    "sample_mixture2d": SampleMixture2d,
}
