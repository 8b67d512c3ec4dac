"""Print one `name sha256` line for every output that must keep its bytes.

A change that claims to keep ofevi's results bit for bit runs this on both
trees at the same seed and diffs the two listings:

    python3 scripts/output_digest.py --seed 1 --out-dir digest > digest_seed1.txt

The listing must not depend on the BLAS thread count either, so a change
diffs its listings at four settings against one of its parent's:
`OPENBLAS_NUM_THREADS=1`, `OPENBLAS_NUM_THREADS=4`, the variable unset,
and unset under `taskset -c 0` (one CPU).

The outputs are the CSV and density files of six sweep configs (the
benchmark's `sweep_mixture2d` and `fit_sinh5d` configs, written out here,
and 1-D Hermite, 1-D Laguerre, 2-D Legendre and 2-D Fourier sweeps), then
10k draws and the moments of a fitted 20x20 mixture2d density, 50k draws
of the standardized 5-D density, 10k draws each from an order-40 1-D
Legendre and an order-40 1-D Laguerre density (their CDF tables differ
from the Hermite ones in grid and in closed form), log q and the score of
a seeded Hermite 4 x Laguerre 3 x Hermite 6 density at 20k in-support
points (its axes mix families and orders, so evaluation builds a table
per (family, order) and shares none across them), and, per family, the
features and their gradients of the 1-D bases of every order
1 ... MAX_ORDER on a fixed grid (the value tables, the derivative tables
and the order MAX_ORDER + 1 row that the cap's derivatives read).  The
records JSON carries wall-clock timings, so it is left out.
"""

import argparse
import hashlib
import math
from pathlib import Path

import numpy as np

from ofevi import (
    BasisFamily,
    ExperimentConfig,
    OfeDensity,
    ProductBasis,
    UniformBox,
    fit,
    make_target,
    run,
    write_outputs,
)
from ofevi.basis1d import MAX_ORDER

CONFIGS = {
    "sweep_mixture2d": dict(
        target="mixture2d", orders=[[5, 5], [10, 10], [15, 15], [20, 20]],
        proposal_scale=9.0, eval_samples=100_000, sample_probe=1_000,
    ),
    "fit_sinh5d": dict(
        target="sinh5d_1", orders=[[3] * 5, [4, 4, 4, 3, 3]], samples=[5760],
        standardize=True, standardize_samples=10_000, proposal_scale=6.0, eval_samples=5_000,
    ),
    "hermite1d": dict(
        target="bimodal1d", orders=[[3], [6], [9]], eval_samples=20_000, sample_probe=1_000,
    ),
    "laguerre1d": dict(
        target="gaussian", target_params={"mean": [6.0], "cov": [[1.0]]}, family="laguerre",
        orders=[[4], [8]], proposal_scale=10.0, eval_samples=20_000, sample_probe=1_000,
    ),
    "legendre2d": dict(
        target="gaussian", family="legendre",
        target_params={"mean": [0.1, -0.1], "cov": [[0.03, 0.01], [0.01, 0.04]]}, orders=[[3, 3], [5, 4]], eval_samples=20_000, sample_probe=1_000,
    ),
    "fourier2d": dict(
        target="gaussian", target_params={"mean": [math.pi, 3.0], "cov": [[0.3, 0.1], [0.1, 0.4]]},
        family="fourier", orders=[[3, 3], [5, 5]], eval_samples=20_000, sample_probe=1_000,
    ),
}

# In-support grids, each ending in -0.0 so that the sign of every zero is pinned.
TABLE_GRIDS = {
    "hermite": np.append(np.linspace(-12.0, 12.0, 241), -0.0),
    "legendre": np.append(np.linspace(-1.0, 1.0, 201), -0.0),
    "fourier": np.append(np.linspace(0.0, 2.0 * math.pi, 201), -0.0),
    "laguerre": np.append(np.linspace(0.0, 80.0, 201), -0.0),
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out-dir", type=Path, default=Path("digest"))
    args = parser.parse_args()

    lines = []
    for name, fields in CONFIGS.items():
        config = ExperimentConfig(seed=args.seed, out_prefix=str(args.out_dir / name), **fields)
        for path in write_outputs(config, *run(config)):
            if not path.name.endswith("_records.json"):
                lines.append((path.name, digest(path.read_bytes())))

    path = args.out_dir / "mixture2d_density_20x20.json"
    fit(
        make_target("mixture2d"),
        ProductBasis.uniform(BasisFamily("hermite"), 20, 2),
        UniformBox.centered(9.0, 2),
        np.random.default_rng((args.seed, 1)),
    ).density.save(path)
    q = OfeDensity.load(path)
    mean, cov = q.mean_and_cov()
    lines += [
        (path.name, digest(path.read_bytes())),
        ("mixture2d_20x20_draws_10000",
         digest(q.sample(np.random.default_rng((args.seed, 4)), 10_000).tobytes())),
        ("mixture2d_20x20_moments", digest(mean.tobytes() + cov.tobytes())),
    ]

    q = OfeDensity.load(args.out_dir / "fit_sinh5d_density_4x4x4x3x3_B5760.json")
    draws = q.sample(np.random.default_rng((args.seed, 5)), 50_000)
    lines.append(("sinh5d_4x4x4x3x3_draws_50000", digest(draws.tobytes())))

    for kind, stream in (("legendre", 6), ("laguerre", 7)):
        rng = np.random.default_rng((args.seed, stream))
        q = OfeDensity(ProductBasis([BasisFamily(kind)], (40,)), rng.standard_normal(40))
        lines.append((f"{kind}40_draws_10000", digest(q.sample(rng, 10_000).tobytes())))

    rng = np.random.default_rng((args.seed, 8))
    families = [BasisFamily(kind) for kind in ("hermite", "laguerre", "hermite")]
    q = OfeDensity(ProductBasis(families, (4, 3, 6)), rng.standard_normal(4 * 3 * 6))
    z = np.column_stack([rng.normal(scale=2.0, size=20_000), rng.exponential(3.0, 20_000),
                         rng.normal(scale=2.0, size=20_000)])
    lines.append(("hermite4_laguerre3_hermite6_eval_20000",
                  digest(q.log_density(z).tobytes() + q.score(z).tobytes())))

    for kind, grid in TABLE_GRIDS.items():
        sha = hashlib.sha256()
        for k in range(1, MAX_ORDER + 1):
            feats, grads = ProductBasis([BasisFamily(kind)], (k,)).feature_gradients(grid[:, None])
            sha.update(feats.tobytes() + grads.tobytes())
        lines.append((f"{kind}_tables_1-{MAX_ORDER}", sha.hexdigest()))

    for name, sha in lines:
        print(name, sha)


if __name__ == "__main__":
    main()
