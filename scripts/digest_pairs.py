"""Compare the output digests of two checkouts at every BLAS thread setting.

    python3 scripts/digest_pairs.py PARENT CHANGE --seed 1 --seed 2

PARENT and CHANGE are two checkouts of the repository.  For each seed the
script runs PARENT's `scripts/output_digest.py` once, with
`OPENBLAS_NUM_THREADS` unset, and CHANGE's four times: with the variable
at 1, at 4, unset, and unset on one CPU.  For the one-CPU run the child
process pins itself to the first CPU it may use
(`os.sched_setaffinity(0, {cpu})`) before it imports numpy, so OpenBLAS
sees one CPU, as under `taskset -c 0`, and no other process is touched.
Each run writes into its own temporary directory, with the checkout's
`src` on `PYTHONPATH`.

Every listing of CHANGE must equal PARENT's at the same seed.  For each
setting the script prints the names whose digest moved (changed, missing
or new), and it exits 1 if any name moved or any run failed, 0 otherwise.
A checkout without `scripts/output_digest.py` is refused with exit code 2
before any run.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

UNSET, ONE_CPU = "unset", "unset, one CPU"
CHANGE_SETTINGS = ("1", "4", UNSET, ONE_CPU)

# Run a script as __main__ after pinning this process to one CPU.
_PINNED = ("import os, runpy, sys; os.sched_setaffinity(0, {int(sys.argv[1])}); "
           "sys.argv = sys.argv[2:]; runpy.run_path(sys.argv[0], run_name='__main__')")


def run_digest(checkout: Path, seed: int, setting: str) -> tuple[int, str]:
    """Exit code and listing of `checkout`'s output digest at `seed` under one thread setting."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if setting not in (UNSET, ONE_CPU):
        env["OPENBLAS_NUM_THREADS"] = setting
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(checkout / "src"), env.get("PYTHONPATH")) if p
    )
    with tempfile.TemporaryDirectory() as out:
        script = [str(checkout / "scripts" / "output_digest.py"), "--seed", str(seed), "--out-dir", out]
        if setting == ONE_CPU:
            command = [sys.executable, "-c", _PINNED, str(min(os.sched_getaffinity(0))), *script]
        else:
            command = [sys.executable, *script]
        proc = subprocess.run(command, cwd=out, env=env, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def listing(stdout: str) -> dict[str, str]:
    """The `name sha256` lines of a digest run as a dict."""
    return dict(line.split(" ", 1) for line in stdout.splitlines() if line.strip())


def moved_names(before: dict[str, str], after: dict[str, str]) -> list[str]:
    """The names whose digest differs between two listings, or that only one of them has."""
    return sorted(name for name in before.keys() | after.keys() if before.get(name) != after.get(name))


def _failure(code: int, digests: dict) -> str:
    """Why a run's listing cannot be compared, or "" when it can."""
    if code != 0:
        return f"exited with code {code}"
    return "" if digests else "printed no listing"


def compare(parent: Path, change: Path, seeds: list[int], run, log=print) -> bool:
    """True when every CHANGE listing equals PARENT's unset listing at the same seed."""
    same = True
    for seed in seeds:
        code, stdout = run(parent, seed, UNSET)
        reference = listing(stdout)
        if why := _failure(code, reference):
            log(f"seed {seed}: the parent run {why}")
            same = False
            continue
        for setting in CHANGE_SETTINGS:
            label = setting if setting in (UNSET, ONE_CPU) else f"OPENBLAS_NUM_THREADS={setting}"
            code, stdout = run(change, seed, setting)
            digests = listing(stdout)
            if why := _failure(code, digests):
                log(f"seed {seed}, {label}: the change run {why}")
                same = False
                continue
            moved = moved_names(reference, digests)
            log(f"seed {seed}, {label}: " + (f"moved {', '.join(moved)}" if moved
                                               else f"all {len(reference)} names equal"))
            same = same and not moved
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--seed", type=int, action="append", help="a seed (repeatable; default 1)")
    args = parser.parse_args(argv)
    for checkout in (args.parent, args.change):
        if not (checkout / "scripts" / "output_digest.py").is_file():
            print(f"no scripts/output_digest.py under {checkout}", file=sys.stderr)
            return 2
    same = compare(args.parent.resolve(), args.change.resolve(), args.seed or [1], run_digest)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
