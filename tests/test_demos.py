"""Every runnable walkthrough under demos/ exits cleanly against the current API."""

import pathlib
import subprocess
import sys

import pytest
from conftest import child_env

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_four_demos_are_found():
    assert [p.name for p in DEMOS] == [
        "decompose_walkthrough.py",
        "entropy_and_granules.py",
        "feature_weights.py",
        "forecast_small.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=child_env(), capture_output=True, text=True
    )
    assert proc.returncode == 0, f"{demo.name} exited {proc.returncode}\n{proc.stderr}"
