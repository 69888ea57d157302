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

Every draw comes from a named ``random.Random`` stream (``spawn_rngs``),
seeded from the run seed and the stream's name alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from statistics import NormalDist
from typing import Collection, Iterable

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


def generate_rss(model: ChannelModel, truth: int, rng: Random, n: int) -> list[int]:
    """Draw n i.i.d. quantized RSS values under the given hypothesis,
    each rounded half to even and clamped to the domain.

    The clamp comes first, so a draw that overflowed to infinity (a huge
    sigma) lands on the domain's end instead of failing to round; for a
    finite draw the result is the same int either way."""
    mean = model.mu1 if truth == PU_PRESENT else model.mu0
    top = model.quant.domain_max
    sigma, gauss = model.sigma, rng.gauss
    return [round(min(max(gauss(mean, sigma), 0), top)) for _ in range(n)]


@dataclass(frozen=True)
class CountRange:
    """Uniform bounded integer distribution; lo == hi pins a constant.

    Bounds lie in [0, 2^63), as the run seed does: a bound past it is a
    typo, not a count. As join counts, ``SimulationConfig`` bounds them
    further, by the users a run may key (``sim.MAX_POPULATION``)."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not 0 <= self.lo <= self.hi < 2**63:
            raise ValueError("need 0 <= lo <= hi < 2^63")

    def sample(self, rng: Random) -> int:
        if self.lo == self.hi:
            return self.lo
        return rng.randint(self.lo, self.hi)


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


def churn_step(cfg: ChurnConfig, rng: Random, live: Collection[int]) -> tuple[int, list[int]]:
    """One membership-change draw: the number of users who join, and the
    sorted ids, from ``live``, of those who leave.

    With probability mu a change event fires; the (join, leave) counts are
    then resampled until non-empty when the config admits any change at
    all. Leaves never drain the network below one existing member. The
    joiners' ids are not chosen here: ``KeyTable.add_user`` mints them.
    """
    if not live:
        raise ValueError("live set must be non-empty")
    if rng.random() >= cfg.mu or not cfg.can_change:
        return 0, []
    n_join, n_leave = 0, 0
    while n_join == 0 and n_leave == 0:
        n_join = cfg.join_count.sample(rng)
        n_leave = cfg.leave_count.sample(rng)
    n_leave = min(n_leave, len(live) - 1)
    return n_join, sorted(rng.sample(sorted(live), n_leave))


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
    rng: Random,
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


def spawn_rngs(seed: int, names: Iterable[str]) -> dict[str, Random]:
    """Independent named streams derived from one seed.

    Each stream is seeded from the string ``lp3pss|{seed}|{name}``, all of
    whose bytes, and their SHA-512 digest, ``Random`` turns into its seed.
    So a stream's draws depend on the seed and its name only: not on the
    other names, nor on their order."""
    return {name: Random(f"lp3pss|{seed}|{name}") for name in names}
