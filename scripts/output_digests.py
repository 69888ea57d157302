#!/usr/bin/env python3
"""Digests of a run's outputs, for checking that a change leaves them byte-identical.

For each workload and seed of the benchmark, runs the simulation and prints
one line: the workload, the seed, the sha256 of ``report_json()`` and the
sha256 of the dumped transcript. Run it before and after a change that must
not alter outputs, and diff the two printouts.

It also reads each dumped transcript back with ``load_transcript``. If the
events read differ from the run's, it names the workload and seed on
standard error and, after printing every line, exits with status 1.

On standard error it also prints, for each run, the number of events the
run appended and that number per user-round (the sum over rounds of the
live users), so that a change to the event layout can state its event
arithmetic, and how many of the transcript's lines ``load_transcript``
decoded, out of how many: the reader builds the others from lines it
decoded before. It counts the decodes by wrapping
``recording._parse_event`` while it reads. Standard output is only the
digest lines.

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

from lp3pss import recording  # noqa: E402
from lp3pss.recording import load_transcript  # noqa: E402
from lp3pss.sim import config_from_dict, run_simulation  # noqa: E402


def load_counting_decodes(text: str) -> tuple[list, int]:
    """``load_transcript`` of ``text``, and how many of its lines it decoded."""
    parse = recording._parse_event
    decoded = 0

    def counted(line: str):
        nonlocal decoded
        decoded += 1
        return parse(line)

    recording._parse_event = counted
    try:
        return load_transcript(io.StringIO(text)), decoded
    finally:
        recording._parse_event = parse


def digests(workload: str, seed: int, size: str) -> tuple[str, str, bool, int, int, int]:
    """sha256 of the report JSON and of the transcript of one run, whether
    the transcript reads back as the run's events, the number of events,
    the number of user-rounds and the number of transcript lines decoded."""
    result = run_simulation(config_from_dict(make_config(workload, seed, size)))
    fh = io.StringIO()
    result.recorder.dump_transcript(fh)
    text = fh.getvalue()
    report = hashlib.sha256(result.report_json().encode()).hexdigest()
    transcript = hashlib.sha256(text.encode()).hexdigest()
    events = result.recorder.events
    loaded, decoded = load_counting_decodes(text)
    reloads = loaded == events
    user_rounds = sum(r.result.n_live for r in result.rounds)
    return report, transcript, reloads, len(events), user_rounds, decoded


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=sorted(SIZES), required=True)
    parser.add_argument("--seed", nargs="+", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()
    failed = False
    for workload in args.workload:
        for seed in args.seed:
            report, transcript, reloads, events, user_rounds, decoded = digests(workload, seed, args.size)
            print(f"{workload} seed={seed} report={report} transcript={transcript}")
            # the transcript has one line per event
            print(
                f"{workload} seed={seed} events={events} per_user_round={events / user_rounds:.3f}"
                f" decoded_lines={decoded}/{events}",
                file=sys.stderr,
            )
            if not reloads:
                print(f"{workload} seed={seed}: the transcript reads back as other events", file=sys.stderr)
                failed = True
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
