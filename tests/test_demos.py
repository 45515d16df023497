"""Smoke test: the narrative demos run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import xmodal

DEMOS = Path(__file__).resolve().parents[1] / "demos"


# 05 is the default-scale pipeline that the acceptance suite runs on
# five seeds
@pytest.mark.parametrize("name", [
    "01_sequence_embedding.py",
    "02_head_and_losses.py",
    "03_two_stage_training.py",
    "04_evaluation_and_layout.py",
])
def test_demo_exits_zero(name):
    package_root = str(Path(xmodal.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, str(DEMOS / name)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
