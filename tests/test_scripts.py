"""The experiment scripts README documents run to completion at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/lambda_sweep.py", "--n", "10", "--pf", "0.1", "--pm", "0.2", "--trials", "200"],
        ["scripts/reputation_demo.py", "--n", "6", "--rounds", "10"],
    ],
    ids=["lambda_sweep", "reputation_demo"],
)
def test_script_exits_zero(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
