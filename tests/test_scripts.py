"""The experiment scripts README documents run to completion at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/lambda_sweep.py", "--n", "10", "--pf", "0.1", "--pm", "0.2", "--trials", "200"],
        ["scripts/reputation_demo.py", "--n", "6", "--rounds", "10"],
    ],
    ids=["lambda_sweep", "reputation_demo"],
)
def test_script_exits_zero(argv):
    proc = run_script(argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_output_digests_print_one_line_of_hashes_per_run():
    argv = ["scripts/output_digests.py", "--workload", "long", "churn", "--seed", "7", "8", "--size", "tiny"]
    runs = [run_script(argv) for _ in range(2)]
    assert runs[0].returncode == 0, runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    lines = runs[0].stdout.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["long", "seed=7"], ["long", "seed=8"], ["churn", "seed=7"], ["churn", "seed=8"]
    ]
    for line in lines:
        report, transcript = line.split()[2:]
        assert report.startswith("report=") and len(report) == len("report=") + 64
        assert transcript.startswith("transcript=") and len(transcript) == len("transcript=") + 64
    assert len({line.split()[2] for line in lines}) == 4
