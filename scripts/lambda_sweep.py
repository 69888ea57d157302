#!/usr/bin/env python3
"""Monte Carlo sweep of the voting threshold.

Simulates per-user votes directly from the error profile (bit = 1 with
probability p_f when the channel is free, 1 - p_m when busy) and prints
Q_f + Q_m for every threshold, marking the analytic optimum. The votes
are drawn from ``random.Random(seed)`` one at a time, trial by trial,
busy trials first, so a seed gives the same output on every run.

Usage: python scripts/lambda_sweep.py [--n 10] [--pf 0.1] [--pm 0.2]
       [--trials 10000] [--seed 7]
"""

import argparse
from random import Random

from lp3pss.fusion import DetectionProfile, compute_alpha, compute_lambda


def sweep(n: int, p_f: float, p_m: float, trials: int, seed: int) -> None:
    rng = Random(seed)
    busy_votes = [sum(rng.random() < 1.0 - p_m for _ in range(n)) for _ in range(trials)]
    free_votes = [sum(rng.random() < p_f for _ in range(n)) for _ in range(trials)]
    rates = [
        (lam, sum(v >= lam for v in free_votes) / trials, sum(v < lam for v in busy_votes) / trials)
        for lam in range(1, n + 1)
    ]
    profile = DetectionProfile(p_f, p_m)
    lam_opt = compute_lambda(n, compute_alpha(profile))
    print(f"n={n} p_f={p_f} p_m={p_m} trials={trials}  ->  analytic optimum lambda={lam_opt}")
    print(f"{'lambda':>6}  {'Q_f':>8}  {'Q_m':>8}  {'Q_f+Q_m':>8}")
    best = min(rates, key=lambda rate: rate[1] + rate[2])[0]
    for lam, q_f, q_m in rates:
        marks = ("  <- empirical argmin" if lam == best else "") + (
            "  (analytic)" if lam == lam_opt else ""
        )
        print(f"{lam:>6}  {q_f:>8.4f}  {q_m:>8.4f}  {q_f + q_m:>8.4f}{marks}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=10)
    parser.add_argument("--pf", type=float, default=0.1)
    parser.add_argument("--pm", type=float, default=0.2)
    parser.add_argument("--trials", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    if args.n < 1:
        parser.error(f"--n must be at least 1, got {args.n}")
    if args.trials < 1:
        parser.error(f"--trials must be at least 1, got {args.trials}")
    if args.seed < 0:
        parser.error(f"--seed must be non-negative, got {args.seed}")
    try:
        DetectionProfile(args.pf, args.pm)
    except ValueError as exc:
        parser.error(f"--pf {args.pf} --pm {args.pm}: {exc}")
    sweep(args.n, args.pf, args.pm, args.trials, args.seed)
