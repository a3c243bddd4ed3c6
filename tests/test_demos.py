"""Smoke test: every demo script runs to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# Trimmed so the whole set stays a few seconds.
EXTRA_ARGS = {"rmse_vs_snr.py": ["--trials", "1"]}


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # A demo's scratch files go to the temp folder and are gone when it ends.
    temp = tmp_path / "temp"
    temp.mkdir()
    env["TMPDIR"] = str(temp)
    completed = subprocess.run(
        [sys.executable, str(script), *EXTRA_ARGS.get(script.name, [])],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert not list(temp.iterdir())
