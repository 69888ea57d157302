"""Ground truth, RSS generation, membership churn, and adversary behaviors.

The signal model is a two-hypothesis Gaussian on the quantized RSS grid:
mean mu0 when the primary user is absent, mu1 when present, common standard
deviation sigma (all in quantization steps). ``calibrate_channel`` solves
for (sigma, tau) hitting requested per-user error rates, which keeps the
voting-threshold optimality experiments self-consistent.

Churn is a Bernoulli(mu) event process; when an event fires, join and
leave counts are drawn from bounded integer distributions. Adversaries
manipulate only their own report, before encryption, and never see the
detection threshold, so the flip behaviors reflect about the model
midpoint as their best guess of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Iterable

import numpy as np

PU_ABSENT = 0
PU_PRESENT = 1

HONEST = "honest"
ALWAYS_FLIP = "always-flip"
RANDOM_FLIP = "random-flip"
STUCK_AT = "stuck-at"

_BEHAVIOR_KINDS = (HONEST, ALWAYS_FLIP, RANDOM_FLIP, STUCK_AT)


@dataclass(frozen=True)
class Quantization:
    """The dBm grid of the integer OPE domain: value q reads min_dbm + q * step_dbm."""

    min_dbm: float = -110.0
    step_dbm: float = 0.01
    domain_bits: int = 16

    @property
    def domain_max(self) -> int:
        return (1 << self.domain_bits) - 1


@dataclass(frozen=True)
class ChannelModel:
    """Truth-conditional RSS distribution on the quantization grid."""

    mu0: float
    mu1: float
    sigma: float
    quant: Quantization = field(default_factory=Quantization)

    def __post_init__(self) -> None:
        if not self.mu0 < self.mu1:
            raise ValueError("need mu0 < mu1")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    @property
    def midpoint(self) -> float:
        return (self.mu0 + self.mu1) / 2.0


def calibrate_channel(
    p_f: float,
    p_m: float,
    mu0: float = 2000.0,
    mu1: float = 4000.0,
    quant: Quantization = Quantization(),
) -> tuple[ChannelModel, int]:
    """Solve for (sigma, tau) so a single user hits the requested rates.

    P(RSS >= tau | absent) = p_f and P(RSS < tau | present) = p_m for the
    continuous model; quantization shifts these by a negligible amount at
    the default grid resolution. Returns the model and the threshold.
    """
    z_f = NormalDist().inv_cdf(1.0 - p_f)
    z_m = NormalDist().inv_cdf(1.0 - p_m)
    if z_f + z_m <= 0:
        raise ValueError("error rates too large to separate the hypotheses")
    sigma = (mu1 - mu0) / (z_f + z_m)
    tau = round(mu0 + sigma * z_f)
    return ChannelModel(mu0, mu1, sigma, quant), tau


def generate_rss(
    model: ChannelModel, truth: int, rng: np.random.Generator, n: int
) -> list[int]:
    """Draw n i.i.d. quantized RSS values under the given hypothesis."""
    mean = model.mu1 if truth == PU_PRESENT else model.mu0
    draws = rng.normal(mean, model.sigma, size=n)
    clipped = np.clip(np.rint(draws), 0, model.quant.domain_max)
    return [int(v) for v in clipped]


@dataclass(frozen=True)
class CountRange:
    """Uniform bounded integer distribution; lo == hi pins a constant."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 0 or self.hi < self.lo:
            raise ValueError("need 0 <= lo <= hi")

    def sample(self, rng: np.random.Generator) -> int:
        if self.lo == self.hi:
            return self.lo
        return int(rng.integers(self.lo, self.hi + 1))


@dataclass(frozen=True)
class ChurnConfig:
    """Membership-change process: event probability and join/leave sizes."""

    mu: float = 0.0
    join_count: CountRange = CountRange(0, 2)
    leave_count: CountRange = CountRange(0, 2)

    def __post_init__(self) -> None:
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError("mu must lie in [0, 1]")

    @property
    def can_change(self) -> bool:
        return self.join_count.hi > 0 or self.leave_count.hi > 0


def churn_step(
    cfg: ChurnConfig,
    rng: np.random.Generator,
    t: int,
    live: set[int],
    used: set[int] | None = None,
) -> tuple[list[int], list[int]]:
    """One membership-change draw for period ``t``.

    With probability mu a change event fires; the (join, leave) counts are
    then resampled until non-empty when the config admits any change at
    all. Leaves never drain the network below one existing member. New
    ids are minted above every id in ``used`` (defaults to ``live``), so
    departed users are never re-issued.
    """
    if not live:
        raise ValueError("live set must be non-empty")
    if rng.random() >= cfg.mu or not cfg.can_change:
        return [], []
    n_join, n_leave = 0, 0
    while n_join == 0 and n_leave == 0:
        n_join = cfg.join_count.sample(rng)
        n_leave = cfg.leave_count.sample(rng)
    n_leave = min(n_leave, len(live) - 1)
    pool = sorted(used) if used is not None else sorted(live)
    next_id = (pool[-1] + 1) if pool else 1
    joins = list(range(next_id, next_id + n_join))
    members = sorted(live)
    leave_idx = rng.choice(len(members), size=n_leave, replace=False) if n_leave else []
    leaves = sorted(members[i] for i in leave_idx)
    return joins, leaves


@dataclass(frozen=True)
class Behavior:
    """Per-user reporting behavior; honest users report their draw as-is."""

    kind: str = HONEST
    flip_prob: float = 0.0  # random-flip only
    stuck_bit: int = 1  # stuck-at only

    def __post_init__(self) -> None:
        if self.kind not in _BEHAVIOR_KINDS:
            raise ValueError(f"unknown behavior {self.kind!r}")
        if not 0.0 <= self.flip_prob <= 1.0:
            raise ValueError("flip_prob must lie in [0, 1]")
        if self.stuck_bit not in (0, 1):
            raise ValueError("stuck_bit must be 0 or 1")


_HONEST = Behavior()  # frozen: every unlisted user shares it


@dataclass(frozen=True)
class AdversaryProfile:
    """Map of user id to behavior; unlisted users are honest."""

    behaviors: dict[int, Behavior] = field(default_factory=dict)

    def behavior_of(self, uid: int) -> Behavior:
        return self.behaviors.get(uid, _HONEST)


def _reflect(rss_q: int, model: ChannelModel) -> int:
    mirrored = round(2.0 * model.midpoint - rss_q)
    return min(max(mirrored, 0), model.quant.domain_max)


def apply_malice(
    profile: AdversaryProfile,
    uid: int,
    rss_q: int,
    model: ChannelModel,
    rng: np.random.Generator,
) -> int:
    """Reported value after the user's behavior is applied to its draw.

    Flips reflect about the model midpoint: adversaries never learn the
    actual threshold, so the midpoint is their best proxy for it.
    """
    behavior = profile.behavior_of(uid)
    if behavior.kind == HONEST:
        return rss_q
    if behavior.kind == ALWAYS_FLIP:
        return _reflect(rss_q, model)
    if behavior.kind == RANDOM_FLIP:
        if rng.random() < behavior.flip_prob:
            return _reflect(rss_q, model)
        return rss_q
    # stuck-at: extreme value for the chosen bit
    return model.quant.domain_max if behavior.stuck_bit == 1 else 0


def spawn_rngs(seed: int, names: Iterable[str]) -> dict[str, np.random.Generator]:
    """Independent named RNG streams derived from one seed."""
    names = list(names)
    children = np.random.SeedSequence(seed).spawn(len(names))
    return {name: np.random.default_rng(ss) for name, ss in zip(names, children)}
