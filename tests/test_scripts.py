"""Smoke tests: each experiment script runs to completion on a small input."""

import os
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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
