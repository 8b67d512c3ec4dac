"""Smoke tests: each experiment script runs to completion on a small input.

The benchmark-pair script is fed canned result lines and runs no benchmark.
"""

import argparse
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("sweep_targets.py", ["--targets", "bimodal1d", "--samples", "200", "--out-dir", None]),
        ("standardize_demo.py", ["--standardize-samples", "20000"]),
    ],
)
def test_script_exits_zero(tmp_path, script, args):
    args = [str(tmp_path) if a is None else a for a in args]
    run_script(tmp_path, script, args)


@pytest.fixture(scope="module")
def digest_seed1(tmp_path_factory):
    """The output digest's listing at seed 1, BLAS thread count unset, and the directory it wrote."""
    out = tmp_path_factory.mktemp("digest")
    return run_script(out, "output_digest.py", ["--seed", "1", "--out-dir", str(out)]), out


def test_output_digest_lists_every_output_once(digest_seed1):
    stdout, out = digest_seed1
    digests = dict(line.split(" ") for line in stdout.splitlines())
    assert len(digests) == len(stdout.splitlines())
    assert all(re.fullmatch(r"[0-9a-f]{64}", sha) for sha in digests.values())
    written = {p.name for p in out.iterdir() if not p.name.endswith("_records.json")}
    assert written < set(digests)
    assert set(digests) - written == {
        "mixture2d_20x20_draws_10000", "mixture2d_20x20_moments", "sinh5d_4x4x4x3x3_draws_50000",
        "legendre40_draws_10000", "laguerre40_draws_10000", "hermite4_laguerre3_hermite6_eval_20000",
        "hermite_tables_1-64", "legendre_tables_1-64", "fourier_tables_1-64", "laguerre_tables_1-64",
    }


@pytest.mark.parametrize("threads", [1, 4])
def test_output_digest_lists_the_same_outputs_at_any_blas_thread_count(tmp_path, digest_seed1, threads):
    stdout = run_script(tmp_path, "output_digest.py", ["--seed", "1", "--out-dir", str(tmp_path)],
                        openblas_threads=threads)
    assert stdout == digest_seed1[0]


def run_script(cwd, script, args, openblas_threads=None) -> str:
    """The script's stdout, run with OPENBLAS_NUM_THREADS at openblas_threads, or unset for None."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(openblas_threads)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_line(job_s, rss=50.0, correct=True, failed=0):
    """A benchmark run's output: a human line, then its JSON result line."""
    metrics = {"setup_s": {"value": 0.25, "unit": "s"}, "job_s": {"value": job_s, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    summary = {"correct": correct, "attempted": 4, "failed": failed, "metrics": metrics}
    return f"job_s {job_s} s\n" + json.dumps(summary) + "\n"


def test_bench_pairs_alternates_and_summarizes_canned_runs():
    bench_pairs = load_script("bench_pairs")
    parent_jobs = [0.30, 0.32, 0.29, 0.31, 0.33]
    change_jobs = [0.26, 0.27, 0.30, 0.25, 0.28]
    calls = []

    def canned(checkout, workload, seed):
        calls.append((checkout.name, seed))
        jobs = parent_jobs if checkout.name == "parent" else change_jobs
        return 0, result_line(jobs[seed - 7], rss=50.0 if checkout.name == "parent" else 49.0)

    args = argparse.Namespace(pairs=5, seed=7, workload="sample_mixture2d")
    pairs, refused = bench_pairs.run_pairs(Path("parent"), Path("change"), args, run=canned,
                                           log=lambda line: None)
    assert refused == 0 and len(pairs) == 5
    # The parent runs first in odd pairs, the change first in even ones; a pair shares its seed.
    assert calls == [("parent", 7), ("change", 7), ("change", 8), ("parent", 8), ("parent", 9),
                     ("change", 9), ("change", 10), ("parent", 10), ("parent", 11), ("change", 11)]
    lines = bench_pairs.summary_lines(pairs)
    job = next(line for line in lines if line.startswith("job_s:"))
    # Medians 0.31 and 0.27, exclusive quartiles [0.295, 0.325] and [0.255, 0.29].
    assert job.startswith("job_s: parent 0.31 [0.295, 0.325] -> change 0.27 [0.255, 0.29] (-12.9%)")
    assert "lower in 4/5" in job and "against parent IQR 0.03" in job
    assert "  parent 0.3 0.32 0.29 0.31 0.33" in lines
    rss = next(line for line in lines if line.startswith("peak_rss_mb:"))
    assert "lower in 5/5" in rss
    assert not any(line.startswith("skipped") for line in lines)


def test_bench_pairs_summarizes_only_the_metrics_every_run_reports():
    # One tree may add or rename a metric; the summary keeps the shared ones.
    bench_pairs = load_script("bench_pairs")
    parent = json.loads(result_line(0.3).splitlines()[-1])["metrics"]
    change = json.loads(result_line(0.25).splitlines()[-1])["metrics"]
    change["rss_mb"] = change.pop("peak_rss_mb")
    change["extra_s"] = {"value": 1.0}
    flat = [{name: m["value"] for name, m in side.items()} for side in (parent, change)]
    lines = bench_pairs.summary_lines([tuple(flat), tuple(flat)])
    assert [line.split(":")[0] for line in lines if not line.startswith("  ")] == [
        "setup_s", "job_s", "skipped, not reported by every run"]
    assert lines[-1].endswith(": extra_s, peak_rss_mb, rss_mb")


@pytest.mark.parametrize(
    "code, stdout, reason",
    [
        (1, "", "exited with code 1"),
        (0, "benchmark failed\n", "printed no result line"),
        (0, result_line(0.3, correct=False), "is not correct"),
        (0, result_line(0.3, failed=2), "has 2 failed operations"),
    ],
)
def test_bench_pairs_refuses_a_pair_with_a_bad_run(code, stdout, reason):
    bench_pairs = load_script("bench_pairs")
    logged = []

    def canned(checkout, workload, seed):
        if checkout.name == "change" and seed == 2:
            return code, stdout
        return 0, result_line(0.3)

    args = argparse.Namespace(pairs=3, seed=1, workload="fit_sinh5d")
    pairs, refused = bench_pairs.run_pairs(Path("parent"), Path("change"), args, run=canned,
                                           log=logged.append)
    assert refused == 1 and len(pairs) == 2
    assert f"refused pair 2 (seed 2): the change run {reason}" in logged
