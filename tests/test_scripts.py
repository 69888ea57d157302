"""The experiment scripts README documents run to completion at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lp3pss.fusion import DetectionProfile, compute_alpha, compute_lambda

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


def numpy_sweep_printout(n: int, p_f: float, p_m: float, trials: int, seed: int) -> str:
    """What lambda_sweep.py printed when it drew its votes with numpy."""
    rng = np.random.default_rng(seed)
    busy_votes = (rng.random((trials, n)) < 1.0 - p_m).sum(axis=1)
    free_votes = (rng.random((trials, n)) < p_f).sum(axis=1)
    lam_opt = compute_lambda(n, compute_alpha(DetectionProfile(p_f, p_m)))
    lines = [
        f"n={n} p_f={p_f} p_m={p_m} trials={trials}  ->  analytic optimum lambda={lam_opt}",
        f"{'lambda':>6}  {'Q_f':>8}  {'Q_m':>8}  {'Q_f+Q_m':>8}",
    ]
    best = min(
        range(1, n + 1),
        key=lambda lam: (free_votes >= lam).mean() + (busy_votes < lam).mean(),
    )
    for lam in range(1, n + 1):
        q_f = (free_votes >= lam).mean()
        q_m = (busy_votes < lam).mean()
        marks = ("  <- empirical argmin" if lam == best else "") + (
            "  (analytic)" if lam == lam_opt else ""
        )
        lines.append(f"{lam:>6}  {q_f:>8.4f}  {q_m:>8.4f}  {q_f + q_m:>8.4f}{marks}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "n, p_f, p_m, trials, seed",
    [(10, 0.1, 0.2, 2000, 7), (7, 0.05, 0.3, 3000, 123), (25, 0.2, 0.25, 500, 99), (1, 0.1, 0.2, 1, 0)],
)
def test_lambda_sweep_prints_what_numpy_draws_give(n, p_f, p_m, trials, seed):
    argv = ["--n", n, "--pf", p_f, "--pm", p_m, "--trials", trials, "--seed", seed]
    proc = run_script(["scripts/lambda_sweep.py", *map(str, argv)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == numpy_sweep_printout(n, p_f, p_m, trials, seed)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["scripts/lambda_sweep.py", "--n", "0"], "--n"),
        (["scripts/lambda_sweep.py", "--pf", "0.7", "--pm", "0.7"], "--pf"),
        (["scripts/lambda_sweep.py", "--trials", "0"], "--trials"),
        (["scripts/lambda_sweep.py", "--seed", "-1"], "--seed"),
        (["scripts/reputation_demo.py", "--n", "0"], "--n"),
        (["scripts/reputation_demo.py", "--rounds", "0"], "--rounds"),
    ],
    ids=["sweep-n", "sweep-pf-pm", "sweep-trials", "sweep-seed", "demo-n", "demo-rounds"],
)
def test_script_rejects_bad_argument_with_usage_error(argv, flag):
    proc = run_script(argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    last = proc.stderr.splitlines()[-1]
    assert ": error: " + flag in last


# What the digests script prints for the tiny sizes: pinned like the golden
# hashes in test_recording.py, and changed only with a deliberate change to
# the crypto or to the report or transcript format.
GOLDEN_TINY_DIGESTS = """\
wide seed=7 report=3698166702ef48cbfc2e38038dc19123c88299e5cf06a0d31f4fe16fc29925be transcript=6b4505d9a099c855dfb119ad559070bd07ea87426833411d2fe1b79fb6e602d0
wide seed=8 report=3922b56b529f62e33bf0297f7d4e98b9c8fc980ecdc3234ad41ef9a9e160afc0 transcript=4859b26f7d5f543b4bf16d06efc02164f15ebcfc124989d6da9c1c758a839366
long seed=7 report=fd2215c3bff98efb0740ec5674abd357abfcd51e41ac738140c3ad5a076bc0ce transcript=214a04965b75398757b85c97f3496321651435121e0138f8b619a035cee0ce49
long seed=8 report=3c1869841b6f976197cc782d9626409adcee81c315d72858174ce439bc28f843 transcript=8cab399e0b03235dc99d2066b15dbac8e6c39fd30bdb8a113d3043127d44a971
churn seed=7 report=818e5566578935f2d097ecf5032bff3a72b7e67fce17888fd659764d9c5d7554 transcript=c28d38701f8139878539be7ed51d8193156d8a7e8058a943555030bf7d38f22e
churn seed=8 report=786cdc07a679a83859f7ad5746d1ad8c33ef085ce918308e529fe3fb9b1c3af0 transcript=f176428c40bb881cc9874f196c281ac52a18798312c9baffc4fde3450f40cf0c
"""


def test_output_digests_print_one_line_of_hashes_per_run():
    argv = [
        "scripts/output_digests.py", "--workload", "wide", "long", "churn", "--seed", "7", "8", "--size", "tiny"
    ]
    runs = [run_script(argv) for _ in range(2)]
    assert runs[0].returncode == 0, runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    lines = runs[0].stdout.splitlines()
    assert [line.split()[:2] for line in lines] == [
        [workload, f"seed={seed}"] for workload in ("wide", "long", "churn") for seed in (7, 8)
    ]
    for line in lines:
        report, transcript = line.split()[2:]
        assert report.startswith("report=") and len(report) == len("report=") + 64
        assert transcript.startswith("transcript=") and len(transcript) == len("transcript=") + 64
    assert len({line.split()[2] for line in lines}) == 6
    assert runs[0].stdout == GOLDEN_TINY_DIGESTS
