#!/usr/bin/env python3
"""Reputation convergence demo: one always-flipping adversary among
honest users. Prints the credibility trajectory and the final weights,
showing the adversary's influence decaying over the sensing periods.

Usage: python scripts/reputation_demo.py [--n 10] [--rounds 100] [--seed 11]
"""

import argparse
import json

from lp3pss.scenario import ALWAYS_FLIP, AdversaryProfile, Behavior
from lp3pss.sim import ConfigError, SensingConfig, SimulationConfig, estimate_error_rates, run_simulation


def demo(n: int, rounds: int, seed: int) -> None:
    adversary_id = 1
    config = SimulationConfig(
        SensingConfig(n=n, rounds=rounds, seed=seed),
        adversary=AdversaryProfile({adversary_id: Behavior(ALWAYS_FLIP)}),
    )
    result = run_simulation(config)
    # the report is the one record of each round's credibilities, keyed by str(uid)
    trajectory = json.loads(result.report_json())["reputation"]["phi_trajectory"]
    adversary = str(adversary_id)
    print(f"n={n}, rounds={rounds}, U{adversary_id} always flips its report\n")
    print(f"{'t':>4}  {'phi(adversary)':>14}  {'min phi(honest)':>15}")
    for t in range(1, rounds + 1, max(1, rounds // 10)):
        phi = trajectory[t - 1]
        honest = [p for uid, p in phi.items() if uid != adversary]
        print(f"{t:>4}  {phi[adversary]:>14.3f}  {min(honest):>15.3f}")
    print("\nfinal records:")
    for uid, rec in sorted(result.fc.records.items()):
        role = "adversary" if uid == adversary_id else "honest"
        print(f"  U{uid:<3} rho={rec.rho:<4} eta={rec.eta:<4} phi={rec.phi:.3f} "
              f"weight={rec.weight:.3f}  ({role})")
    rates = estimate_error_rates(result.rounds).to_dict()
    print(f"\nfused error rates: {rates}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=10)
    parser.add_argument("--rounds", type=int, default=100)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()
    if args.n < 2:
        parser.error(f"--n must be at least 2, the adversary and an honest user, got {args.n}")
    if args.rounds < 1:
        parser.error(f"--rounds must be at least 1, got {args.rounds}")
    try:
        demo(args.n, args.rounds, args.seed)
    except ConfigError as exc:  # a seed out of range
        parser.error(str(exc))
