"""Smoke tests: each experiment script runs to completion on a small input."""

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


def test_output_digest_lists_every_output_once(tmp_path):
    stdout = run_script(tmp_path, "output_digest.py", ["--seed", "1", "--out-dir", str(tmp_path)])
    digests = dict(line.split(" ") for line in stdout.splitlines())
    assert len(digests) == len(stdout.splitlines())
    assert all(re.fullmatch(r"[0-9a-f]{64}", sha) for sha in digests.values())
    written = {p.name for p in tmp_path.iterdir() if not p.name.endswith("_records.json")}
    assert written < set(digests)
    assert set(digests) - written == {
        "mixture2d_20x20_draws_10000", "mixture2d_20x20_moments", "sinh5d_4x4x4x3x3_draws_50000",
        "legendre40_draws_10000", "laguerre40_draws_10000", "hermite4_laguerre3_hermite6_eval_20000",
        "hermite_tables_1-64", "legendre_tables_1-64", "fourier_tables_1-64", "laguerre_tables_1-64",
    }


def run_script(cwd, script, args) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
