"""The benchmark's workloads: each turns a seed into one lp3pss config.

The program only ever receives the config dict built here; the seed
decides the simulation seed and, on ``churn``, which users misbehave.

* ``wide``: many users, few rounds, honest, no churn, no transcript.
  Per-user work dominates: key derivation, one cold OPE prefix table
  per key, per-user AEAD and recorder events, and the garbage-collector
  pressure of all of that. The O(R^2 n) traffic check is negligible.
* ``long``: few users, many rounds, honest, no churn, transcript written
  and re-read. Per-round fixed costs dominate: fusion, decision-vector
  packing, the report's phi trajectory, the traffic check and transcript
  I/O. OPE tables are warm after round 1, so per-key set-up is bypassed.
* ``churn``: membership churn every round, stuck-at, always-flip and
  random-flip adversaries and lost reports. The only workload that runs
  ``handle_membership``, mid-run key minting, an OPE encryption at the
  top of the domain and the missing-report path.
"""

from __future__ import annotations

import hashlib
import random

# (users, rounds) per workload; "full" is what the benchmark measures,
# "tiny" is for the benchmark's own smoke test. A full run takes about
# half a second on a 2.1 GHz Xeon vCPU: short enough to share a moment
# of a shared host with the calibration loop timed around it (run.py),
# and a measured run holds dozens of repetitions.
SIZES = {
    "wide": {"full": (600, 5), "tiny": (20, 3)},
    "long": {"full": (10, 200), "tiny": (6, 12)},
    "churn": {"full": (250, 20), "tiny": (12, 8)},
}

# Workloads whose full run writes the transcript and checks it again.
TRANSCRIPT_WORKLOADS = frozenset({"long"})


def sensing_seed(workload: str, seed: int) -> int:
    """Simulation seed in [0, 2^63) derived from the workload seed."""
    digest = hashlib.sha256(f"perfbench|{workload}|{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def make_config(workload: str, seed: int, size: str = "full") -> dict:
    """The config dict for one workload, a pure function of its arguments."""
    n, rounds = SIZES[workload][size]
    sim_seed = sensing_seed(workload, seed)
    raw: dict = {"sensing": {"n": n, "rounds": rounds, "seed": sim_seed}}
    if workload == "churn":
        stuck, flip, random_flip = random.Random(sim_seed).sample(range(1, n + 1), 3)
        raw["sensing"]["report_loss_prob"] = 0.05
        # Four joins and four leaves every round: the mean of drawing each
        # from 0-8, without the random walk of the population. With the
        # walk, the seed decided whether a run had one full collection or
        # two, about a tenth of its time.
        raw["churn"] = {"mu": 1.0, "join": [4, 4], "leave": [4, 4]}
        raw["adversary"] = {
            str(stuck): {"kind": "stuck-at", "stuck_bit": 1},
            str(flip): {"kind": "always-flip"},
            str(random_flip): {"kind": "random-flip", "flip_prob": 0.5},
        }
    return raw
