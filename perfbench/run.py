"""Benchmark of lp3pss: one full simulation run per fresh interpreter.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload {wide,long,churn} --seed N \\
        --seconds S --trace {0,1}

A full run builds and checks the config, then times ``run_simulation``,
``report_json``, both ``verify_*`` conformance checks and, on ``long``,
writing the transcript, reading it back and checking its leakage again.
Each repetition runs in a new interpreter started by this script (see
worker.py), and repetitions follow one another until ``--seconds`` is
spent: a closed loop of one client, single-threaded.

With ``--trace 0`` the last line of standard output carries the
end-to-end metrics: the median throughput and set-up time of the
repetitions, each scaled to the reference speed of a calibration loop
timed around it, and the median peak memory. With ``--trace 1``
each step runs once untraced and once traced; the last line carries the
per-layer self times and counts from the traced runs, the tracing
overhead and the wall time no layer accounts for. The spans of the last
traced repetition are written to ``.perfbench_out/``.

Every repetition is checked: both conformance verdicts are ok, the
leakage verdict conforms, on ``long`` the re-read transcript gives the
same verdict, and the report's sha256 is the same in every repetition.
A failed check is counted in ``failed`` and makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SIZES, TRANSCRIPT_WORKLOADS, make_config

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"
# Keeps a whole invocation under three minutes; no new step starts past it.
TIME_LIMIT_S = 150.0
# Size of the calibration loop, and its time on a quiet 2.1 GHz Xeon vCPU,
# the speed to which the end-to-end times are scaled.
CALIBRATION_LOOPS = 150_000
REFERENCE_CALIB_S = 0.040

END_TO_END = {"user_rounds_per_s": "1/s", "peak_rss_mb": "MiB", "setup_s": "s"}

# Span names recorded by worker.install_spans, and whether their number
# of calls is reported next to their self time.
SPAN_LAYERS = {
    "crypto.ope_encrypt": True,
    "crypto.aead_encrypt": True,
    "crypto.aead_decrypt": True,
    "crypto.derive_pairwise_keys": False,
    "crypto.add_user": True,
    "entities.su_sense_report": False,
    "entities.gw_compare": False,
    "entities.fc_decide": False,
    "entities.init": False,
    "entities.handle_membership": True,
    "fusion.fuse_votes": False,
    "fusion.update_reputation": False,
    "fusion.compute_weights": False,
    "scenario.generate_rss": False,
    "scenario.apply_malice": True,
    "scenario.churn_step": False,
    "recording": False,
    "recording.dump_transcript": False,
    "recording.load_transcript": False,
    "observability.check_leakage": True,
    "sim.driver": False,
    "sim.report_json": False,
    "sim.verify_computation_counts": False,
    "sim.verify_communication_counts": False,
}


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for span, with_calls in SPAN_LAYERS.items():
        units[f"{span}.s"] = "s"
        if with_calls:
            units[f"{span}.calls"] = "count"
    units.update(
        {
            "entities.reports_missing": "count",
            "recording.events": "count",
            "recording.events_per_user_round": "count/user_round",
            "recording.transcript_bytes": "B",
            "sim.report_bytes": "B",
            "runtime.gc_s": "s",
            "runtime.gc_gen2": "count",
            "trace.traced_wall_s": "s",
            "trace.overhead_s": "s",
            "trace.unattributed_s": "s",
        }
    )
    return units


PER_LAYER = per_layer_units()


class BenchError(RuntimeError):
    """The benchmark could not run the program; no result is printed."""


def machine_info() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "cryptography": importlib.metadata.version("cryptography"),
    }


def calibrate() -> float:
    """Seconds this process takes for a fixed piece of pure-Python work.

    The work touches no lp3pss code, so no change to the program can move
    it; only the speed the machine lends this process at the moment does.
    """
    began = time.perf_counter()
    table: dict[int, tuple[int, str]] = {}
    total = 0
    for i in range(CALIBRATION_LOOPS):
        table[i & 1023] = (i, str(i))
        total += len(table[i & 1023][1])
    return time.perf_counter() - began


def run_worker(job: dict, trace: bool, deadline: float) -> dict:
    """One repetition in a new interpreter; returns its measurements.

    The calibration loop runs just before the interpreter starts and
    just after it ends; the mean of the two is returned with the
    repetition's measurements as ``calib_s``.
    """
    calib_before = calibrate()
    payload = json.dumps({**job, "trace": trace, "spawned": time.monotonic()})
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER)],
            input=payload,
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("a repetition ran past the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"a repetition exited with code {proc.returncode}:\n{proc.stderr}")
    calib_s = (calib_before + calibrate()) / 2
    return {**json.loads(proc.stdout.strip().splitlines()[-1]), "calib_s": calib_s}


def run_reps(job: dict, trace: bool, seconds: float) -> tuple[list[dict], list[dict]]:
    """Repeat until the next step would overrun ``seconds``; at least one step.

    A step is one untraced repetition, plus one traced repetition when
    tracing, in alternating order.
    """
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    plain: list[dict] = []
    traced: list[dict] = []
    step_s: list[float] = []
    while True:
        began = time.monotonic()
        order = (False, True) if len(plain) % 2 == 0 else (True, False)
        for with_spans in order if trace else (False,):
            rep = run_worker(job, with_spans, deadline)
            (traced if with_spans else plain).append(rep)
            print(
                f"rep {len(plain) + len(traced)}{' traced' if with_spans else ''}: "
                f"wall {rep['wall_s']:.3f} s, cpu {rep['cpu_s']:.3f} s, setup {rep['setup_s']:.3f} s, "
                f"peak {rep['peak_rss_mb']:.1f} MiB",
                file=sys.stderr,
            )
        step_s.append(time.monotonic() - began)
        elapsed = time.monotonic() - start
        if elapsed + statistics.median(step_s) > min(seconds, TIME_LIMIT_S):
            return plain, traced


def evaluate(plain: list[dict], traced: list[dict]) -> tuple[int, int, list[str]]:
    """Checks attempted, checks failed, and a line per failure.

    Each repetition's own verdicts count one check each. Every repetition
    after the first adds one check that its report digest equals the
    first one's, and every traced repetition after the first one that its
    counts equal the first traced repetition's.
    """
    attempted = 0
    failures: list[str] = []
    reps = plain + traced
    for i, rep in enumerate(reps):
        for name, ok in sorted(rep["checks"].items()):
            attempted += 1
            if not ok:
                failures.append(f"repetition {i + 1}: {name} failed")
        if i > 0:
            attempted += 1
            if rep["report_sha256"] != reps[0]["report_sha256"]:
                failures.append(f"repetition {i + 1}: report digest differs from repetition 1")
    for i, rep in enumerate(traced[1:], start=2):
        attempted += 1
        if exact_counts(rep) != exact_counts(traced[0]):
            failures.append(f"traced repetition {i}: counts differ from traced repetition 1")
    return attempted, len(failures), failures


def exact_counts(rep: dict) -> dict:
    calls = {name: layer["calls"] for name, layer in rep["layers"].items() if name != "runtime.gc"}
    return {**rep["counts"], **calls}


def end_to_end_metrics(plain: list[dict]) -> dict[str, float]:
    """Median times at reference speed; median peak memory.

    The host's speed changes under other tenants' load, in bursts of
    seconds and in phases of minutes, longer than a run. Each repetition's
    wall and set-up time is therefore divided by the time of the
    calibration loop run around it, and the median of these ratios is
    scaled back to seconds by the loop's time on a quiet host. Every
    repetition's raw times are printed next to the result.
    """
    median = statistics.median
    wall_s = median(r["wall_s"] / r["calib_s"] for r in plain) * REFERENCE_CALIB_S
    return {
        "user_rounds_per_s": plain[0]["user_rounds"] / wall_s,
        "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
        "setup_s": median(r["setup_s"] / r["calib_s"] for r in plain) * REFERENCE_CALIB_S,
    }


def per_layer_metrics(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    median = statistics.median
    first = traced[0]
    values: dict[str, float] = {}
    for span, with_calls in SPAN_LAYERS.items():
        values[f"{span}.s"] = median(r["layers"][span]["s"] for r in traced)
        if with_calls:
            values[f"{span}.calls"] = first["layers"][span]["calls"]
    values.update(first["counts"])
    values["recording.events_per_user_round"] = first["counts"]["recording.events"] / first["user_rounds"]
    values["runtime.gc_s"] = median(r["layers"]["runtime.gc"]["s"] for r in traced)
    values["runtime.gc_gen2"] = median(r["gc_gen2"] for r in traced)
    # Fastest repetitions, as for user_rounds_per_s.
    traced_wall = min(r["wall_s"] for r in traced)
    values["trace.traced_wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - min(r["wall_s"] for r in plain)
    # Every span name is a named layer, and runtime.gc holds the pauses.
    values["trace.unattributed_s"] = median(
        r["wall_s"] - sum(layer["s"] for layer in r["layers"].values()) for r in traced
    )
    return values


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--size", default="full", choices=("full", "tiny"), help="tiny is for the smoke test"
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # One CPU for this process and every repetition it starts: on a virtual
    # machine each CPU is slowed by other tenants in its own way, and the
    # calibration loop must run where the program does.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "lp3pss" / "__init__.py").is_file():
        print(f"perfbench: no lp3pss package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    info = {
        **machine_info(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
    }
    job = {
        "src": str(SRC),
        "config": make_config(args.workload, args.seed, args.size),
        "transcript": str(OUT / f"transcript-{args.workload}.jsonl")
        if args.workload in TRANSCRIPT_WORKLOADS
        else None,
        "spans": str(OUT / f"spans-{args.workload}.npz"),
        "info": info,
    }
    try:
        plain, traced = run_reps(job, bool(args.trace), args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted, failed, failures = evaluate(plain, traced)
    for line in failures:
        print(f"perfbench: {line}", file=sys.stderr)
    if args.trace:
        values, units = per_layer_metrics(plain, traced), PER_LAYER
    else:
        values, units = end_to_end_metrics(plain), END_TO_END
    info.update(
        repetitions=len(plain) + len(traced),
        wall_s=[r["wall_s"] for r in plain],
        setup_s=[r["setup_s"] for r in plain],
        calib_s=[r["calib_s"] for r in plain],
        traced_wall_s=[r["wall_s"] for r in traced],
        report_sha256=plain[0]["report_sha256"],
        config=job["config"],
    )
    print("perfbench info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
