"""Smoke test of the benchmark itself, at a tiny size.

Run from the root of the repository, either way:

    python3 perfbench/smoke_test.py
    python3 -m pytest -q perfbench/smoke_test.py

It runs every workload with tracing off and on and checks that every
metric named in BENCHMARK.json is printed with its unit, that a corrupted
report digest is counted as a failed check, and that the benchmark fails
without printing a result where the program's sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from workloads import SIZES, make_config

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_every_metric_is_printed() -> None:
    for workload in sorted(SIZES):
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            proc = bench(
                "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--size", "tiny",
            )
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            wanted = {m["name"]: m["unit"] for m in BENCHMARK[section]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == wanted, (workload, trace)
            for metric in result["metrics"].values():
                assert isinstance(metric["value"], (int, float))
            if section == "end_to_end":
                assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_digest_is_a_failure() -> None:
    job = {
        "src": str(run.SRC),
        "config": make_config("wide", 5, "tiny"),
        "transcript": None,
        "spans": None,
    }
    rep = run.run_worker(job, False, deadline=run.time.monotonic() + 60)
    attempted, failed, _ = run.evaluate([rep, dict(rep)], [])
    assert failed == 0 and attempted >= 2
    corrupted = dict(rep, report_sha256="0" * 64)
    attempted_bad, failed_bad, failures = run.evaluate([rep, corrupted], [])
    assert attempted_bad == attempted and failed_bad == 1
    assert "digest" in failures[0]


def test_fails_without_the_program() -> None:
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            run.ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
        )
        proc = bench("--workload", "wide", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""


if __name__ == "__main__":
    for test in (test_every_metric_is_printed, test_corrupted_digest_is_a_failure, test_fails_without_the_program):
        test()
        print(f"ok {test.__name__}")
