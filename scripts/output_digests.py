#!/usr/bin/env python3
"""Digests of a run's outputs, for checking that a change leaves them byte-identical.

For each workload and seed of the benchmark, runs the simulation and prints
one line: the workload, the seed, the sha256 of ``report_json()`` and the
sha256 of the dumped transcript. Run it before and after a change that must
not alter outputs, and diff the two printouts.

Usage, from the root of the repository:

    PYTHONPATH=src python scripts/output_digests.py \\
        --workload wide long churn --seed 7 8 [--size tiny]

Configs come from ``perfbench/workloads.py``'s ``make_config``, the ones the
benchmark runs; ``--size tiny`` picks its small sizes.
"""

import argparse
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import SIZES, make_config  # noqa: E402

from lp3pss.sim import config_from_dict, run_simulation  # noqa: E402


def digests(workload: str, seed: int, size: str) -> tuple[str, str]:
    """sha256 of the report JSON and of the transcript of one run."""
    result = run_simulation(config_from_dict(make_config(workload, seed, size)))
    fh = io.StringIO()
    result.recorder.dump_transcript(fh)
    report = hashlib.sha256(result.report_json().encode()).hexdigest()
    transcript = hashlib.sha256(fh.getvalue().encode()).hexdigest()
    return report, transcript


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=sorted(SIZES), required=True)
    parser.add_argument("--seed", nargs="+", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()
    for workload in args.workload:
        for seed in args.seed:
            report, transcript = digests(workload, seed, args.size)
            print(f"{workload} seed={seed} report={report} transcript={transcript}")


if __name__ == "__main__":
    main()
