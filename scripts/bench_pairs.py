"""Alternate untraced benchmark runs of two checkouts and summarize each metric.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload sample_mixture2d \\
        --pairs 10 --seed 23

PARENT and CHANGE are two checkouts of the repository; make them sibling
fresh copies whose paths have the same length, since a process's peak RSS
can move with the directory it runs from.  Pair i runs
`perfbench/run.py --trace 0` of both checkouts at seed `--seed + i - 1`,
the parent first in odd pairs and the change first in even ones.  Each
run lasts the `run_seconds` of the BENCHMARK.json in its own checkout.

A pair where either run exits nonzero, is not `correct` or has failed
operations is refused: it is reported, left out of the summary, and the
script exits 1.  For each metric of the accepted pairs the summary gives
the median and quartiles [q1, q3] of both sides, the change in the median,
the number of pairs whose change run was lower ("lower in k/n"), and the
gap between the medians against the parent's interquartile range, then
every run's value in pair order.  Only the metrics that every accepted run
of both sides reports are summarized; the others are named as skipped.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int) -> tuple[int, str]:
    """Exit code and standard output of one untraced benchmark run of `checkout`."""
    seconds = json.loads((checkout / "BENCHMARK.json").read_text())["run_seconds"]
    command = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def parse_result(code: int, stdout: str) -> tuple[dict | None, str]:
    """The metric values of one run's last output line, or None and the reason it is refused."""
    if code != 0:
        return None, f"exited with code {code}"
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {name: float(m["value"]) for name, m in result["metrics"].items()}
        correct, failed = result["correct"], result["failed"]
    except (IndexError, ValueError, TypeError, KeyError):
        return None, "printed no result line"
    if correct is not True:
        return None, "is not correct"
    if failed != 0:
        return None, f"has {failed} failed operations"
    return metrics, ""


def run_pairs(parent: Path, change: Path, args, run=run_once, log=print):
    """Accepted (parent, change) metric pairs, and the number of refused pairs."""
    accepted, refused = [], 0
    for i in range(1, args.pairs + 1):
        seed = args.seed + i - 1
        sides = [("parent", parent), ("change", change)]
        results = {}
        for name, checkout in sides if i % 2 else sides[::-1]:
            results[name] = parse_result(*run(checkout, args.workload, seed))
        reasons = [f"the {name} run {why}" for name, (m, why) in results.items() if m is None]
        if reasons:
            refused += 1
            log(f"refused pair {i} (seed {seed}): " + "; ".join(reasons))
            continue
        accepted.append((results["parent"][0], results["change"][0]))
        log(f"pair {i} (seed {seed}) done")
    return accepted, refused


def _median_and_quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def summary_lines(pairs: list[tuple[dict, dict]]) -> list[str]:
    """Per metric: medians and quartiles, the median's change, lower in k/n, gap against parent IQR."""
    if not pairs:
        return ["no accepted pairs"]
    runs = [run for pair in pairs for run in pair]
    common = [name for name in runs[0] if all(name in run for run in runs)]
    skipped = sorted({name for run in runs for name in run} - set(common))
    lines = []
    for name in common:
        before = [p[name] for p, _ in pairs]
        after = [c[name] for _, c in pairs]
        b_med, b_q1, b_q3 = _median_and_quartiles(before)
        a_med, a_q1, a_q3 = _median_and_quartiles(after)
        lower = sum(a < b for b, a in zip(before, after))
        rel = f"{100.0 * (a_med - b_med) / b_med:+.1f}%" if b_med else "n/a"
        lines.append(
            f"{name}: parent {b_med:.4g} [{b_q1:.4g}, {b_q3:.4g}] -> change {a_med:.4g} "
            f"[{a_q1:.4g}, {a_q3:.4g}] ({rel}), lower in {lower}/{len(pairs)}, "
            f"median gap {abs(a_med - b_med):.4g} against parent IQR {b_q3 - b_q1:.4g}"
        )
        lines.append("  parent " + " ".join(f"{v:.4g}" for v in before))
        lines.append("  change " + " ".join(f"{v:.4g}" for v in after))
    if skipped:
        lines.append("skipped, not reported by every run: " + ", ".join(skipped))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    for checkout in (args.parent, args.change):
        for needed in ("perfbench/run.py", "BENCHMARK.json"):
            if not (checkout / needed).is_file():
                print(f"no {needed} under {checkout}", file=sys.stderr)
                return 2
    pairs, refused = run_pairs(args.parent.resolve(), args.change.resolve(), args)
    print(f"workload {args.workload}: {len(pairs)} pairs accepted, {refused} refused")
    for line in summary_lines(pairs):
        print(line)
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
