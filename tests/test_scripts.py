"""The experiment scripts README documents run to completion at tiny sizes."""

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from random import Random

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


def seeded_sweep_printout(n: int, p_f: float, p_m: float, trials: int, seed: int) -> str:
    """What lambda_sweep.py prints: ``Random(seed)``'s doubles, all busy
    trials first, read as rows of n votes each."""
    rng = Random(seed)
    doubles = [rng.random() for _ in range(2 * trials * n)]
    busy, free = doubles[: trials * n], doubles[trials * n :]
    busy_votes = [sum(u < 1.0 - p_m for u in busy[i : i + n]) for i in range(0, trials * n, n)]
    free_votes = [sum(u < p_f for u in free[i : i + n]) for i in range(0, trials * n, n)]

    def q_f(lam):
        return sum(v >= lam for v in free_votes) / trials

    def q_m(lam):
        return sum(v < lam for v in busy_votes) / trials

    lam_opt = compute_lambda(n, compute_alpha(DetectionProfile(p_f, p_m)))
    lines = [
        f"n={n} p_f={p_f} p_m={p_m} trials={trials}  ->  analytic optimum lambda={lam_opt}",
        f"{'lambda':>6}  {'Q_f':>8}  {'Q_m':>8}  {'Q_f+Q_m':>8}",
    ]
    best = min(range(1, n + 1), key=lambda lam: q_f(lam) + q_m(lam))
    for lam in range(1, n + 1):
        marks = ("  <- empirical argmin" if lam == best else "") + (
            "  (analytic)" if lam == lam_opt else ""
        )
        lines.append(f"{lam:>6}  {q_f(lam):>8.4f}  {q_m(lam):>8.4f}  {q_f(lam) + q_m(lam):>8.4f}{marks}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "n, p_f, p_m, trials, seed",
    [(10, 0.1, 0.2, 2000, 7), (7, 0.05, 0.3, 3000, 123), (25, 0.2, 0.25, 500, 99), (1, 0.1, 0.2, 1, 0)],
)
def test_lambda_sweep_prints_what_seeded_random_draws_give(n, p_f, p_m, trials, seed):
    argv = ["--n", n, "--pf", p_f, "--pm", p_m, "--trials", trials, "--seed", seed]
    proc = run_script(["scripts/lambda_sweep.py", *map(str, argv)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == seeded_sweep_printout(n, p_f, p_m, trials, seed)


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
# the crypto, the random draws, or the report or transcript format.
GOLDEN_TINY_DIGESTS = """\
wide seed=7 report=194a22103a155ee0930503a5e5f3e26b38ba33abad535aa27e290428d7ff34c3 transcript=763d8d06072cc3aa0fc732614b0b578a8b72eabc1cca71954016178ab8dfc339
wide seed=8 report=29580e9d9479677314de950d5b5231e5aa40979b7ca3dcdb3005aa33cc6214e0 transcript=aabc5448ebb6cbe25275a9bcdac5c498fc3ebe5f2ad276a04ada9bdd0a8cfd2b
long seed=7 report=aa4b2e3ec5fe04e692198933b083dfcda9cfbb83658770d439ceb383ddb5ecb3 transcript=3f9ab3067068a1fc1ab011372668a1340d82568a52576cf24871ebbee7175f5c
long seed=8 report=f5f9f4d14f45f834cc3b173bcbc2606472d36b9fedbfc396d2c900ec934061e5 transcript=32ecd77b2bc2a03f2519579bb386f2975d43b2b8748c2eb5021fd87ae0bf8175
churn seed=7 report=400089ea1d698cb694e4f7f1ddffc1b7a7865ee7972875003877d02a9cfe3d94 transcript=b74b75d1a5e97de2c2d6140ebc7a2adb69cfa5fc9b6a66a2c789d02b6fb60ff3
churn seed=8 report=af2f55e3bffc0657949204c41cfbf2d2151cc3092132fc4e98acb3d41bcaa64c transcript=897c2b471123b12b6846269738dce47aaaa3a3107d185eace94c6104d9ce48d3
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
    # runs are honest: 4 events per user at init, 5 per user-round, 3 per round
    counts = runs[0].stderr.splitlines()
    assert [line.split()[:2] for line in counts] == [line.split()[:2] for line in lines]
    for workload, (n, rounds) in (("wide", (20, 3)), ("long", (6, 12))):
        events = 4 * n + 5 * n * rounds + 3 * rounds
        for seed in (7, 8):
            stated = f"{workload} seed={seed} events={events} per_user_round={events / (n * rounds):.3f} "
            assert any(line.startswith(stated) for line in counts), stated


# What the digests script prints on standard error for the tiny sizes: each
# run's event count, and how many transcript lines the reader decoded out of
# how many. Both are as deterministic as the digests; the second changes
# with the reader or the transcript layout.
GOLDEN_TINY_COUNTS = """\
wide seed=7 events=389 per_user_round=6.483 decoded_lines=212/389
wide seed=8 events=389 per_user_round=6.483 decoded_lines=207/389
long seed=7 events=420 per_user_round=5.833 decoded_lines=96/420
long seed=8 events=420 per_user_round=5.833 decoded_lines=77/420
churn seed=7 events=643 per_user_round=6.698 decoded_lines=386/643
churn seed=8 events=655 per_user_round=6.823 decoded_lines=398/655
"""


def test_output_digests_count_the_transcript_lines_the_reader_decoded():
    argv = ["scripts/output_digests.py", "--workload", "wide", "long", "churn", "--seed", "7", "8", "--size", "tiny"]
    proc = run_script(argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == GOLDEN_TINY_COUNTS
    for line in proc.stderr.splitlines():
        decoded, lines = map(int, line.rpartition(" decoded_lines=")[2].split("/"))
        assert 0 < decoded < lines and f" events={lines} " in line


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


def checkout_copy(to: Path) -> Path:
    """What a benchmark run reads of a checkout: the package, perfbench/ and BENCHMARK.json."""
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, to / part, ignore=shutil.ignore_patterns("__pycache__", ".perfbench_out"))
    shutil.copy(ROOT / "BENCHMARK.json", to / "BENCHMARK.json")
    return to


def test_ab_pairs_prints_each_end_to_end_metric_of_the_pairs(tmp_path):
    parent, change = checkout_copy(tmp_path / "a"), checkout_copy(tmp_path / "b")
    argv = [
        "scripts/ab_pairs.py", str(parent), str(change),
        "--workload", "long", "--pairs", "1", "--seconds", "0.1", "--seed", "3", "--size", "tiny",
    ]
    proc = run_script(argv)
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stdout.splitlines()
    assert header == "long, 1 pairs of 0.1 s, seeds 3-3"
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert len(lines) == len(metrics)
    for metric, line in zip(metrics, lines):
        assert re.fullmatch(
            rf"{metric['name']} \({re.escape(metric['unit'])}, {metric['better']} is better\): "
            r"parent (\S+) \[\1, \1\], change \S+, [+-]\S+ %, change better in [01] of 1 pairs",
            line,
        ), line


def test_ab_pairs_refuses_checkouts_whose_paths_differ_in_length(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "bb").mkdir()
    argv = ["scripts/ab_pairs.py", str(tmp_path / "a"), str(tmp_path / "bb"),
            "--workload", "long", "--pairs", "1", "--seconds", "1", "--seed", "1"]
    proc = run_script(argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "differ in length" in proc.stderr
