"""Smoke runs of the experiment scripts at a small scale."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["scripts/run_campaigns.py", "--instances", "200"],
    ["scripts/run_exhaustive.py", "--max-size", "4", "--bound", "4"],
])
def test_script_runs_clean(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
