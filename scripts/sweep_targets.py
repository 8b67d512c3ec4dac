"""Sweep expansion size K on the benchmark targets and record forward KL.

Writes one CSV/JSON artifact set per target under --out-dir and prints a
small table.  Batch size defaults to ten draws per basis function; pass
--samples to pin it instead.

    python3 scripts/sweep_targets.py --out-dir results --seed 0
"""

import argparse
from pathlib import Path

from ofevi import ExperimentConfig, run, write_outputs

SWEEPS = {
    "bimodal1d": ([[3], [5], [7], [9]], 6.0),
    "mixture2d": ([[3, 3], [6, 6], [10, 10]], 9.0),
    "funnel2d": ([[3, 3], [6, 6], [10, 10]], 9.0),
    "cross2d": ([[3, 3], [6, 6], [10, 10]], 9.0),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--targets", nargs="*", default=list(SWEEPS), choices=list(SWEEPS))
    parser.add_argument("--samples", type=int, default=None,
                        help="fixed batch size per fit (default: 10 per basis function)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", type=Path, default=Path("results"))
    args = parser.parse_args()

    for name in args.targets:
        orders, scale = SWEEPS[name]
        config = ExperimentConfig(
            target=name,
            orders=tuple(tuple(o) for o in orders),
            seed=args.seed,
            samples=(args.samples,),
            proposal_scale=scale,
            sample_probe=1000,
            out_prefix=str(args.out_dir / name),
        )
        records, densities = run(config)
        for record in records:
            if record.error is not None:
                print(f"{name} K={record.K}: FAILED ({record.error})")
                continue
            kl = "n/a" if record.kl is None else f"{record.kl:.4f} (se {record.kl_se:.4f})"
            print(f"{name} K={record.K} B={record.B}: kl={kl} lambda_min={record.lambda_min:.3e}")
        for path in write_outputs(config, records, densities):
            print(f"  wrote {path}")


if __name__ == "__main__":
    main()
