"""Runs one workload in a process of its own and prints its measurements.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS WORKDIR

MODE is one of
  setup    set up and stop;
  measure  time passes, tracing off, until SECONDS have passed;
  trace    run untraced and traced passes in turn until SECONDS have passed,
           with at least one untraced and two traced passes;
  once     time a single pass.
The last line of standard output is one JSON object.  `ready` is the
system-wide monotonic clock when set-up ended, so the parent can time
set-up from the moment it started this process.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import ofevi  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, PassResult  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {var: os.environ.get(var) for var in THREAD_VARS}
    env.update(
        cpu_count=os.cpu_count(),
        python=platform.python_version(),
        numpy=np.__version__,
        scipy=scipy.__version__,
        blas=f"{blas.get('name')} {blas.get('version')}",
    )
    return env


def _timed(workload) -> tuple[float, PassResult]:
    t0 = time.perf_counter()
    out = workload.run_pass()
    elapsed = time.perf_counter() - t0
    return elapsed, workload.check(out)


def measure(workload, seconds: float) -> dict:
    """Passes with tracing off; at least one, then until `seconds` have passed."""
    times, ops, last = [], [], None
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        elapsed, last = _timed(workload)
        times.append(elapsed)
        ops += last.ops
    return {"pass_s": times, "ops": ops, "kl_final": last.kl_final, "fisher_final": last.fisher_final}


def trace(workload, seconds: float) -> dict:
    """Untraced and traced passes in turn; per-layer medians over the traced ones."""
    untraced, traced, layers, spans, ops = [], [], [], [], []
    start = time.perf_counter()
    while len(traced) < 2 or not untraced or time.perf_counter() - start < seconds:
        # Order untraced, traced, traced, untraced, untraced, ...: untraced[i]
        # and traced[i] run back to back, and warm-up and drift fall on both
        # kinds alike.
        if (len(untraced) + len(traced)) % 4 in (1, 2):
            with tracing.Tracer() as tracer:
                elapsed, result = _timed(workload)
            traced.append(elapsed)
            layers.append(tracing.layer_metrics(tracer.spans))
            spans.append([[s.name, s.start, s.end, s.parent] for s in tracer.spans])
        else:
            elapsed, result = _timed(workload)
            untraced.append(elapsed)
        ops += result.ops
    counts = [{k: m[k] for k in tracing.COUNT_METRICS} for m in layers]
    ops.append(("computed counts repeat across traced passes", all(c == counts[0] for c in counts)))
    metrics = {name: statistics.median(m[name] for m in layers) for name in tracing.TIME_METRICS}
    metrics.update(counts[0])
    metrics["trace.job_s"] = statistics.median(traced)
    metrics["trace.overhead"] = statistics.median(t / u for u, t in zip(untraced, traced))
    return {"pass_s": untraced, "traced_pass_s": traced, "ops": ops, "metrics": metrics, "spans": spans}


def main(argv: list[str]) -> int:
    mode, name, seed, seconds, workdir = argv
    if not Path(ofevi.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"ofevi was imported from {ofevi.__file__}, not from this checkout", file=sys.stderr)
        return 2
    if name not in WORKLOADS:
        print(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[name](int(seed), Path(workdir))
    result = {"ready": time.monotonic()}
    if mode == "measure":
        result.update(measure(workload, float(seconds)))
    elif mode == "trace":
        result.update(trace(workload, float(seconds)))
    elif mode == "once":
        result.update(measure(workload, 0.0))
    elif mode != "setup":
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
