"""Smoke test: the demos run to completion and print their walk-through."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


@pytest.mark.parametrize("name", [
    "01_time_sharing_basics.py",
    "02_rate_oscillation_tradeoff.py",
    "03_joint_power_control.py",
    "04_limited_feedback.py",
    "05_fairness_adaptation.py",
])
def test_demo_runs(name):
    result = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
