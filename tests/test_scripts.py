"""Smoke runs of the experiment scripts at a small scale."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True,
                          text=True, env=env, timeout=300)


@pytest.mark.parametrize("argv", [
    ["scripts/run_campaigns.py", "--instances", "200"],
    ["scripts/run_exhaustive.py", "--max-size", "4", "--bound", "4"],
])
def test_script_runs_clean(argv):
    proc = _run(argv)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# below 1, the sweep checks no formula (--max-size) or no unsat verdict
# (--bound 0), or the oracle fails to build its spaces (--bound -2)
@pytest.mark.parametrize("flag, value", [
    ("--max-size", "-1"), ("--bound", "0"), ("--bound", "-2"),
])
def test_exhaustive_refuses_sizes_below_one(flag, value):
    proc = _run(["scripts/run_exhaustive.py", flag, value])
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1].endswith(
        f"error: argument {flag}: expected a positive integer, got '{value}'")


# the oracle's profile cache takes sizes of 0 and up as ASCII digits: int
# alone would turn the cache off for -1 and read "1_0" as 10
@pytest.mark.parametrize("value", ["-1", "1_0", "٣", "+1", "", "1.0"])
def test_exhaustive_refuses_cache_sizes_that_are_not_plain_digits(value):
    proc = _run(["scripts/run_exhaustive.py", "--cache-max-size", value])
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1].endswith(
        "error: argument --cache-max-size: expected a non-negative "
        f"integer, got {value!r}")


def test_exhaustive_takes_a_zero_cache_size():
    proc = _run(["scripts/run_exhaustive.py", "--max-size", "2", "--bound", "3",
                 "--cache-max-size", "0"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "clean"


# below 1, a campaign runs no instance (--instances 0 or -1, which read as
# "0/-1 failures: NOT DETECTED") or cannot draw a trace (the two bounds)
@pytest.mark.parametrize("flag, value", [
    ("--instances", "0"), ("--instances", "-1"),
    ("--max-finite-len", "0"), ("--max-lasso-total", "-3"),
])
def test_campaigns_refuse_sizes_below_one(flag, value):
    proc = _run(["scripts/run_campaigns.py", flag, value])
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1].endswith(
        f"error: argument {flag}: expected a positive integer, got '{value}'")


# --seed reads ASCII digits after an optional minus sign, as caretkit fuzz
# --seed does: int alone would run seed 10 for "1_0"
@pytest.mark.parametrize("value", ["1_0", "٣", "+1", "", "1.0"])
def test_campaigns_refuse_seeds_that_are_not_plain_integers(value):
    proc = _run(["scripts/run_campaigns.py", "--seed", value])
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1].endswith(
        f"error: argument --seed: expected an integer, got {value!r}")


def test_campaigns_take_a_negative_seed():
    proc = _run(["scripts/run_campaigns.py", "--seed", "-3", "--instances", "20"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
