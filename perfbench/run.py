"""The ofevi benchmark.  One invocation measures one workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and README.md): sweep_mixture2d, fit_sinh5d,
sample_mixture2d.  Every workload runs in child processes started from this
one, so peak memory is that of the workload alone.

--trace 0 reports the end-to-end metrics, measured with tracing off:
  setup_s      seconds from starting a process to its first timed pass;
               the median of five processes.
  job_s        median wall seconds of one pass.
  peak_rss_mb  peak resident memory of the process that ran the passes.
--trace 1 reports the per-layer metrics of a traced run, the tracing
overhead, and `blas1.job_s`: one pass in a process with
OPENBLAS_NUM_THREADS=1.  Measured runs leave the thread settings as the
environment has them.

Human-readable lines come first; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.  The full
result, with the environment and, for traced runs, every span, is written
to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_REPEATS = 5
DEADLINE_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def spawn(mode: str, args, workdir: Path, deadline: float, env=None) -> dict:
    """Run one worker process to completion and return its result."""
    command = [sys.executable, str(WORKER), mode, args.workload, str(args.seed),
               str(args.seconds), str(workdir)]
    started = time.monotonic()
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker ran past the deadline") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def run_measured(args, workdir: Path, deadline: float) -> dict:
    setups = [spawn("setup", args, workdir, deadline)["setup_s"] for _ in range(SETUP_REPEATS - 1)]
    main = spawn("measure", args, workdir, deadline)
    setups.append(main["setup_s"])
    main["setup_runs_s"] = setups
    main["metrics"] = {
        "setup_s": statistics.median(setups),
        "job_s": statistics.median(main["pass_s"]),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    return main


def run_traced(args, workdir: Path, deadline: float) -> dict:
    traced = spawn("trace", args, workdir, deadline)
    blas1 = spawn("once", args, workdir, deadline, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    traced["metrics"]["blas1.job_s"] = blas1["pass_s"][0]
    traced["ops"] += blas1["ops"]
    traced["blas1_env"] = blas1["env"]
    return traced


def units() -> dict:
    """Unit of every metric, as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def summary_lines(args, result: dict, unit: dict, attempted: int, failed: int) -> list[str]:
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}",
             "env " + json.dumps(result["env"], sort_keys=True)]
    for name, value in result["metrics"].items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        lines.append(f"{name:30s} {shown} {unit[name]}")
    times = result["pass_s"]
    if len(times) > 1:
        q1, _, q3 = statistics.quantiles(times, n=4)
        lines.append(f"{'passes':30s} {len(times)} untraced, job_s quartiles {q1:.4f} .. {q3:.4f} s")
    if args.trace == 0:
        lines.append(f"{'setup runs':30s} " + " ".join(f"{s:.4f}" for s in result["setup_runs_s"]) + " s")
        for name in ("kl_final", "fisher_final"):
            value = result[name]
            lines.append(f"{name:30s} {'n/a' if value is None else f'{value:.6g}'} "
                         f"{'nats' if name == 'kl_final' else '(score units)^2'}")
    lines.append(f"{'failed_frac':30s} {failed / attempted:.6g} ({failed} of {attempted} operations)")
    lines += [f"FAILED: {op}" for op, ok in result["ops"] if not ok]
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ofevi" / "__init__.py").is_file():
        print(f"no ofevi sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=HERE / ".work"))
    try:
        result = (run_traced if args.trace else run_measured)(args, workdir, deadline)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(result["ops"])
    failed = sum(1 for _, ok in result["ops"] if not ok)
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    result_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(result) + "\n")

    unit = units()
    for line in summary_lines(args, result, unit, attempted, failed):
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
