"""Half-voting fusion rule and the beta reputation mechanism.

The fusion center declares the channel busy when the (weighted) number of
busy votes reaches the voting threshold lambda. For independent users with
per-user false-alarm probability P_f and missed-detection probability P_m,
the threshold minimizing Q_f + Q_m of the fused decision is

    lambda_opt = min(n, ceil(n / (1 + alpha))),
    alpha      = ln(P_f / (1 - P_m)) / ln(P_m / (1 - P_f)).

Reputation: each user accumulates agreement (rho) and disagreement (eta)
counts against the global decision; credibility is phi = (rho+1)/(rho+eta+2)
and contribution weights are credibilities normalized to sum to the live
user count, so uniform credibility reproduces all-ones weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

CHANNEL_FREE = 0
CHANNEL_BUSY = 1


@dataclass(frozen=True)
class DetectionProfile:
    """Per-user single-sensor error rates."""

    p_f: float
    p_m: float

    def __post_init__(self) -> None:
        if not 0.0 < self.p_f < 1.0:
            raise ValueError("p_f must lie in (0, 1)")
        if not 0.0 < self.p_m < 1.0:
            raise ValueError("p_m must lie in (0, 1)")
        if self.p_f + self.p_m >= 1.0:
            raise ValueError("need p_f + p_m < 1 for a meaningful detector")


@dataclass(frozen=True)
class ReputationRecord:
    """Agreement/disagreement counts plus the current contribution weight."""

    rho: int = 0
    eta: int = 0
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.rho < 0 or self.eta < 0:
            raise ValueError("rating counts must be non-negative")
        if self.weight < 0:
            raise ValueError("weight must be non-negative")

    @property
    def phi(self) -> float:
        """Credibility score in (0, 1); 1/2 for a fresh user."""
        return (self.rho + 1) / (self.rho + self.eta + 2)


@dataclass(frozen=True)
class FusionOutcome:
    decision: int  # CHANNEL_BUSY or CHANNEL_FREE
    vote_sum: float
    lam: int


def compute_alpha(profile: DetectionProfile) -> float:
    """Voting-threshold exponent from the per-user error rates.

    Positive whenever profile invariants hold; equals 1 for symmetric
    detectors (p_f == p_m).
    """
    denominator = math.log(profile.p_m / (1.0 - profile.p_f))
    if denominator == 0.0:
        raise ValueError("degenerate profile: p_m == 1 - p_f")
    return math.log(profile.p_f / (1.0 - profile.p_m)) / denominator


def compute_lambda(n: int, alpha: float) -> int:
    """Optimal number of busy votes required to declare the channel busy.

    lambda = 1 is the OR rule, lambda = n the AND rule; alpha = 1 gives
    majority voting.
    """
    if n < 1:
        raise ValueError("need at least one live user")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return min(n, math.ceil(n / (1.0 + alpha)))


def fuse_votes(weights: Sequence[float], bits: Sequence[int], lam: int) -> FusionOutcome:
    """Weighted vote fusion: busy iff sum(w_i * b_i) >= lambda.

    With all weights equal to 1 this reduces to plain vote counting.
    """
    if len(weights) != len(bits):
        raise ValueError(f"length mismatch: {len(weights)} weights vs {len(bits)} bits")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0 or 1")
    vote_sum = float(sum(w * b for w, b in zip(weights, bits)))
    decision = CHANNEL_BUSY if vote_sum >= lam else CHANNEL_FREE
    return FusionOutcome(decision, vote_sum, lam)


def update_reputation(
    records: Mapping[int, ReputationRecord],
    bits: Mapping[int, int],
    decision: int,
) -> dict[int, ReputationRecord]:
    """Credit users whose vote matched the global decision, debit the rest.

    ``bits`` holds only the users present this round; absent users keep
    their record untouched.
    """
    if decision not in (0, 1):
        raise ValueError("decision must be 0 or 1")
    updated: dict[int, ReputationRecord] = {}
    for uid, record in records.items():
        bit = bits.get(uid)
        if bit is None:
            updated[uid] = record
        elif bit == decision:
            updated[uid] = replace(record, rho=record.rho + 1)
        else:
            updated[uid] = replace(record, eta=record.eta + 1)
    return updated


def compute_weights(phi_values: Sequence[float], n_live: int) -> list[float]:
    """Normalize credibilities so weights sum to the live-user count.

    Uniform credibility therefore yields all-ones weights, keeping the
    weighted vote sum on the same scale as plain vote counting.
    """
    if not phi_values:
        raise ValueError("no credibility scores given")
    if len(phi_values) != n_live:
        raise ValueError(f"expected {n_live} scores, got {len(phi_values)}")
    if any(not 0.0 < phi < 1.0 for phi in phi_values):
        raise ValueError("credibility scores must lie in (0, 1)")
    total = sum(phi_values)
    return [n_live * phi / total for phi in phi_values]
