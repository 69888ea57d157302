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
wide seed=7 report=ee92301f0a56a15cc43f6cc1c5c735ceff84a8e2f237458ba66f5187fa13bae7 transcript=af0bc3db6b89e818866ec134b042a5d6035abee1d530832ec1fd37f1a7742a93
wide seed=8 report=cb3c602e421f924cef69906a6fef329cb18e9aba547c1498a20387f20e1e029f transcript=85cb47714f623498092f436090242e667c4415353fcc9137a95b3833329db3cd
long seed=7 report=fd2215c3bff98efb0740ec5674abd357abfcd51e41ac738140c3ad5a076bc0ce transcript=4e3566ef7b194cb90e16085fa052a52aaa7218559ef4cc84f34d977c6f9118cf
long seed=8 report=dfdd4c91d3ce8553e0f94c5e213fa6cb2b7db08820416a5987be2abb9516753d transcript=ae179038eb2accceb080a4478bdc8219b0be928846b28322111481949fc86a59
churn seed=7 report=d8841c7f55e10ff9f30f4e6d5493b466ddd0aa6d8f795ac26eed6012890f2fe5 transcript=a79c5bb9c988662a2fa14c5c658313ac3dfe361fc5461924569dd6029609f90f
churn seed=8 report=89c66ae7914ba59cf1b1e3fc1468bad4949cf289f679650a73e6dd2363de585c transcript=f892d55c4c2e2c7e2315b9ffb2c5a1d349a1aeb3bc01362a7b6f5d4b13bae106
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
    # standard error states each run's event count; the tiny wide and long
    # runs are honest: 4 events per user at init, 6 per user-round, 3 per round
    counts = runs[0].stderr.splitlines()
    assert [line.split()[:2] for line in counts] == [line.split()[:2] for line in lines]
    for workload, (n, rounds) in (("wide", (20, 3)), ("long", (6, 12))):
        events = 4 * n + 6 * n * rounds + 3 * rounds
        for seed in (7, 8):
            assert f"{workload} seed={seed} events={events} per_user_round={events / (n * rounds):.3f}" in counts


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
