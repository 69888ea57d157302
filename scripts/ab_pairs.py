#!/usr/bin/env python3
"""Alternating pairs of benchmark runs: a parent checkout against a change.

Usage:

    python scripts/ab_pairs.py PARENT CHANGE --workload long --pairs 10 \\
        --seconds 40 --seed 1 [--size tiny]

PARENT and CHANGE are checkouts of the repository. Pair i runs
``perfbench/run.py --trace 0`` with seed S + i once in each, the parent
first in even pairs and the change first in odd ones, so that a drift of
the host's speed falls on both sides alike. Each run's progress goes to
standard error.

The checkouts' absolute paths must have the same length: a run's paths
are in the strings it builds, so their length moves its memory. Paths
of unequal length exit 2 before any run.

For each end-to-end metric in CHANGE's ``BENCHMARK.json``, one line gives
the parent's median and quartiles, the change's median, the relative
change of the medians and the number of pairs the change won. It exits
1 if any run failed or was not ``correct``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, args: argparse.Namespace, seed: int) -> dict | None:
    """The result line of one benchmark run in ``checkout``, or None if it failed."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", "0", "--size", args.size,
    ]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"ab_pairs: the run in {checkout} with seed {seed} exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summary(name: str, unit: str, better: str, parent: list[float], change: list[float]) -> str:
    q1, median, q3 = quartiles(parent)
    changed = statistics.median(change)
    won = sum(c > p if better == "higher" else c < p for p, c in zip(parent, change))
    relative = (changed - median) / median * 100 if median else float("nan")
    return (
        f"{name} ({unit}, {better} is better): parent {median:.6g} [{q1:.6g}, {q3:.6g}], "
        f"change {changed:.6g}, {relative:+.2f} %, change better in {won} of {len(parent)} pairs"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs: must be >= 1")
    parent, change = args.parent.resolve(), args.change.resolve()
    if len(str(parent)) != len(str(change)):
        print(f"ab_pairs: {parent} and {change} differ in length; runs in them are not comparable",
              file=sys.stderr)
        return 2
    metrics = json.loads((change / "BENCHMARK.json").read_text())["end_to_end"]
    values: dict[str, dict[str, list[float]]] = {"parent": {}, "change": {}}
    all_correct = True
    for i in range(args.pairs):
        sides = [("parent", parent), ("change", change)]
        for side, checkout in sides if i % 2 == 0 else sides[::-1]:
            result = run_once(checkout, args, args.seed + i)
            if result is None or not result["correct"]:
                all_correct = False
                continue
            for metric in metrics:
                values[side].setdefault(metric["name"], []).append(result["metrics"][metric["name"]]["value"])
    if not all_correct:
        print("ab_pairs: a run failed or was not correct", file=sys.stderr)
        return 1
    print(f"{args.workload}, {args.pairs} pairs of {args.seconds:g} s, seeds {args.seed}-{args.seed + args.pairs - 1}")
    for metric in metrics:
        name = metric["name"]
        print(summary(name, metric["unit"], metric["better"], values["parent"][name], values["change"][name]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
