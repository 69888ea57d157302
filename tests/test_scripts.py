"""The experiment scripts README documents run to completion at tiny sizes."""

import importlib.util
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
wide seed=7 report=ee92301f0a56a15cc43f6cc1c5c735ceff84a8e2f237458ba66f5187fa13bae7 transcript=82558319f4a839e4b6e16fa8a0a4354239fa3b61d1e1a270f5208d93e1c2277c
wide seed=8 report=cb3c602e421f924cef69906a6fef329cb18e9aba547c1498a20387f20e1e029f transcript=82bdc2bd1bd63d67a05fcdf6eb64cc3b742222ce32f2a7390b5f8aae74bb76ab
long seed=7 report=fd2215c3bff98efb0740ec5674abd357abfcd51e41ac738140c3ad5a076bc0ce transcript=8244b5167e8a5a7c8dc1c633abed8b72d6e7436796a159af4735a9295c886ac8
long seed=8 report=dfdd4c91d3ce8553e0f94c5e213fa6cb2b7db08820416a5987be2abb9516753d transcript=73ea0dfc76fc273715594dd959af73a42844b787764f370b4fdf145443141130
churn seed=7 report=d8841c7f55e10ff9f30f4e6d5493b466ddd0aa6d8f795ac26eed6012890f2fe5 transcript=fcd59984536ba1eac686f3eb53087cd5217b2df7802fcf3ad7d9bd315a40f061
churn seed=8 report=89c66ae7914ba59cf1b1e3fc1468bad4949cf289f679650a73e6dd2363de585c transcript=f5ac81d48507dc0526c4437961f1ac9a7536f2a85f8dfac9a0ccbfcc6bb715e0
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


def test_output_digests_exit_1_naming_a_run_whose_transcript_reads_back_otherwise(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts perfbench/ on it
    spec = importlib.util.spec_from_file_location("output_digests", ROOT / "scripts" / "output_digests.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    honest = script.load_transcript
    monkeypatch.setattr(script, "load_transcript", lambda lines: honest(lines)[:-1])
    monkeypatch.setattr(sys, "argv", ["output_digests.py", "--workload", "long", "--seed", "7", "8", "--size", "tiny"])
    with pytest.raises(SystemExit) as exited:
        script.main()
    assert exited.value.code == 1
    out, err = capsys.readouterr()
    assert out == "".join(GOLDEN_TINY_DIGESTS.splitlines(keepends=True)[2:4])
    assert "long seed=7:" in err and "long seed=8:" in err


# Counted by hand: 6 code lines, the three of the last statement among
# them. Not counted: the module, class and function docstrings (6 lines),
# the comment line and the blank lines.
HAND_COUNTED = '''"""A module docstring
over two lines."""

import os  # a comment after code is still code

# a comment line


class Box:
    """A one-line class docstring."""

    def total(self):
        """A function docstring
        over two lines.
        """
        return sum(  # a statement over three lines
            [1, 2],
        )
'''


def test_code_lines_counts_only_the_lines_that_hold_code(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(HAND_COUNTED)
    proc = run_script(["scripts/code_lines.py", str(module)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"6 {module}\n6 total\n"
