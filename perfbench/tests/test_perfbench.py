"""Tests of the benchmark itself, on tiny versions of each workload.

    python -m pytest perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import worker
import workloads
from ofevi import density, harness
from ofevi.harness import RunRecord

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name, tmp_path, seed=3):
    return workloads.WORKLOADS[name](seed, tmp_path, tiny=True)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workloads_pass_every_check(name, tmp_path):
    result = worker.measure(tiny(name, tmp_path), seconds=0.0)
    assert len(result["pass_s"]) == 1 and result["pass_s"][0] > 0.0
    assert result["ops"] and all(ok for _, ok in result["ops"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    result = worker.trace(tiny(name, tmp_path), seconds=0.0)
    assert len(result["traced_pass_s"]) == 2
    assert all(ok for _, ok in result["ops"])
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert per_layer - set(result["metrics"]) == {"blas1.job_s"}
    assert all(isinstance(result["metrics"][k], int) for k in tracing.COUNT_METRICS)


def test_measured_metrics_match_benchmark_json(monkeypatch):
    setups = [0.5 + 0.1 * i for i in range(run.SETUP_REPEATS)]
    result = {"pass_s": [2.0, 1.0, 3.0], "ready": 0.0, "peak_rss_mb": 10.0, "setup_s": setups[-1]}
    calls = iter([{"setup_s": s} for s in setups[:-1]] + [result])
    monkeypatch.setattr(run, "spawn", lambda *args, **kwargs: next(calls))
    out = run.run_measured(None, None, None)
    assert list(out["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert out["metrics"] == {"setup_s": setups[len(setups) // 2], "job_s": 2.0, "peak_rss_mb": 10.0}


def test_benchmark_json_follows_its_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


# -- output checks -----------------------------------------------------------

def _record(k, kl, kl_se=1e-3, error=None):
    return RunRecord(config="c", target="t", family="hermite", orders=(k,), K=k, B=10 * k,
                     seed=0, standardize=False, kl=kl, kl_se=kl_se, error=error)


def test_kl_check_allows_noise_but_not_a_real_increase():
    assert workloads.kl_not_increasing([_record(4, 0.5), _record(9, 0.1), _record(16, 0.102)])
    assert not workloads.kl_not_increasing([_record(4, 0.5), _record(9, 0.1), _record(16, 0.2)])
    assert not workloads.kl_not_increasing([_record(4, 0.5), _record(9, math.nan)])


def test_sweep_check_counts_cell_errors_and_changed_csv(tmp_path):
    sweep = tiny("sweep_mixture2d", tmp_path)
    records, paths = sweep.run_pass()
    assert all(ok for _, ok in sweep.check((records, paths)).ops)
    broken = [records[0], replace(records[1], error="boom", kl=None)]
    failed = [op for op, ok in sweep.check((broken, paths)).ops if not ok]
    assert failed == ["cell K=9"]
    csv = next(p for p in paths if p.name.endswith("_metrics.csv"))
    csv.write_text(csv.read_text() + "extra\n")
    failed = [op for op, ok in sweep.check((records, paths)).ops if not ok]
    assert failed == ["csv identical across passes"]


def test_fit_check_applies_the_residual_and_eigenvalue_bounds():
    fit = workloads.FitSinh5d.__new__(workloads.FitSinh5d)
    records = [_record(32, 0.1), _record(48, 0.09)]
    norm = 10.0
    good = [(1.0, 1e-12, norm), (-1e-11, 1e-12, norm)]
    assert all(ok for _, ok in fit.check((records, good)).ops)
    bad = [(1.0, 2e-7, norm), (-1e-8, 1e-12, norm)]
    failed = [op for op, ok in fit.check((records, bad)).ops if not ok]
    assert failed == ["residual within the estimator's bound", "lambda_min not below -1e-10 ||M||"]


def test_sample_check_rejects_a_shifted_mean_and_clamps(tmp_path):
    sample = tiny("sample_mixture2d", tmp_path)
    draws, info, mean, cov = sample.run_pass()
    assert all(ok for _, ok in sample.check((draws, info, mean, cov)).ops)
    se = np.sqrt(np.diag(cov) / draws.shape[0])
    shifted = sample.check((draws, info, mean + 6.0 * se, cov))
    clamped = sample.check((draws, {"boundary_clamps": np.array([0, 1])}, mean, cov))
    assert [ok for _, ok in shifted.ops] == [False, True]
    assert [ok for _, ok in clamped.ops] == [True, False]


# -- tracing -----------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        tracing.Span("harness.run", 0.0, 10.0),
        tracing.Span("estimator.fit", 1.0, 7.0, parent=0),
        tracing.Span("estimator.assemble", 2.0, 6.0, parent=1),
        tracing.Span("product_basis.features", 3.0, 4.0, parent=2),
    ]
    assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0]
    metrics = tracing.layer_metrics(spans)
    assert metrics["estimator.fit_s"] == 6.0
    assert metrics["estimator.assemble_s"] == 3.0
    assert metrics["harness.run_self_s"] == 4.0
    assert metrics["density.sample_s"] == 0.0


def test_tracer_records_nesting_and_puts_every_attribute_back():
    before = {(id(o), a): o.__dict__[a] for o, a, _, _ in tracing._wrap_points()}
    with tracing.Tracer() as tracer:
        assert harness.fit_from_batch is not before[(id(harness), "fit_from_batch")]
        q = density.OfeDensity.load  # a classmethod stays one
        assert q.__self__ is density.OfeDensity
    assert {(id(o), a): o.__dict__[a] for o, a, _, _ in tracing._wrap_points()} == before
    assert tracer.spans == []


def test_counts_follow_the_array_shapes(tmp_path):
    fit = tiny("fit_sinh5d", tmp_path)
    with tracing.Tracer() as tracer:
        fit.run_pass()
    counts = tracing.counts(tracer.spans)
    sizes = [math.prod(o) for o in fit.config.orders]
    batch, dim = fit.config.samples[0], fit.config.dim
    assert counts["estimator.assemble_dots"] == sum(k * (k + 1) // 2 for k in sizes)
    assert counts["estimator.u_bytes"] == max(sizes) * batch * dim * 8
    assert counts["targets.score_points"] == batch + fit.config.eval_samples
    # log q and the score of q at the eval set, for each order: KL + Fisher.
    assert counts["density.eval_points"] == 3 * fit.config.eval_samples * len(sizes)

    with tracing.Tracer() as again:
        tiny("fit_sinh5d", tmp_path).run_pass()
    assert tracing.counts(again.spans) == counts


def test_assemble_dots_counts_chunks():
    u = np.zeros((5, 10, 2))
    assert tracing._assemble_dots((u, None), {"chunk_size": 4}, None) == {
        "estimator.assemble_dots": 15 * 3
    }
    assert tracing._assemble_dots((u,), {}, None) == {"estimator.assemble_dots": 15}


# -- the command -------------------------------------------------------------

def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_mixture2d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
