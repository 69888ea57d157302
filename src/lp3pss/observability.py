"""Leakage verification and location-privacy attack oracles.

``check_leakage`` reads the event stream of a run (or of a transcript)
once and verdicts each entity against what the protocol permits it to
learn:

* a user sees opaque ciphertexts and its own plaintexts, nothing else;
* the fusion center sees opaque ciphertexts and the vote bits;
* the gateway sees opaque ciphertexts, OPE ciphertexts it may order-
  compare, and the vote bits it computed itself;
* nobody's view may contain the detection threshold, another user's RSS
  plaintext, or key material of a pair it does not belong to.

``lp3pss verify`` also requires a transcript file to be complete
(``require_complete``), noting what that takes in the same pass
(``Completeness``); a run's own stream needs no such check, so a run
whose every round was aborted still gets a verdict.

The module also hosts a deliberately naive soft-fusion baseline: users
send their RSS readings to the fusion center, which sums them; it decides
nothing and serves only as an attack target. Both oracles read only
event streams, the baseline's as the voting protocol's: the SRLP oracle
finds every reporter's RSS exposed at the fusion center, and the DLP
oracle, given the attacker's view of two rounds from
``agg_view_from_logs``, recovers a joining/leaving user's RSS from the
change in the aggregate. Neither is possible against the voting protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from lp3pss.crypto import aead_decrypt, aead_encrypt, pair_channel_key
from lp3pss.recording import (
    AEAD_DEC,
    AEAD_ENC,
    FC_NAME,
    GW_NAME,
    Recorder,
    ViewEvent,
    ViewTag,
    user_name,
)
from lp3pss.scenario import ChannelModel

BASELINE = "baseline"
LP3PSS = "lp3pss"

CONFORMS = "conforms"
VIOLATES = "violates"


@dataclass(frozen=True)
class Violation:
    entity: str
    event: ViewEvent
    reason: str


@dataclass(frozen=True)
class LeakageReport:
    verdicts: dict[str, str]
    violations: tuple[Violation, ...]

    @property
    def conforms(self) -> bool:
        return not self.violations


def _uid_of(entity: str) -> int | None:
    if entity.startswith("U") and entity[1:].isdigit():
        return int(entity[1:])
    return None


def _violation_reason(event: ViewEvent) -> str | None:
    """Why this event is not allowed in its entity's view, or None."""
    tag = event.tag
    if tag == ViewTag.OPAQUE_CIPHERTEXT:
        return None
    entity = event.entity
    meta = event.meta
    if tag == ViewTag.KEY_MATERIAL:
        parties = meta.get("parties", [])
        if entity not in parties:
            return "key material of a pair the entity does not belong to"
        return None
    if meta.get("kind") == "tau" and tag == ViewTag.PLAINTEXT_VALUE:
        return "detection threshold in plaintext"
    uid = _uid_of(entity)
    if uid is not None:
        if tag == ViewTag.PLAINTEXT_VALUE:
            if meta.get("kind") == "rss" and meta.get("user") == uid:
                return None
            return "plaintext value that is not the user's own RSS"
        return f"{tag} in a user view"
    if entity == FC_NAME:
        if tag == ViewTag.PLAINTEXT_BIT:
            return None
        return f"{tag} in the fusion center view"
    if entity == GW_NAME:
        if tag in (ViewTag.OPE_ORDER_PAIR, ViewTag.PLAINTEXT_BIT):
            return None
        return f"{tag} in the gateway view"
    return f"unknown entity {entity!r}"


class Completeness:
    """What ``require_complete`` checks, noted while a stream passes by.

    ``watch`` yields the events it is given, so that another reader, such
    as ``check_leakage``, consumes them in the same pass; it keeps only
    the set of entities and whether a round was decided. ``require`` then
    raises as ``require_complete`` does.
    """

    def __init__(self) -> None:
        self.entities: set[str] = set()
        self.decided = False

    def watch(self, events: Iterable[ViewEvent]) -> Iterator[ViewEvent]:
        entities = self.entities
        for event in events:
            entities.add(event.entity)
            if (
                not self.decided
                and event.entity == FC_NAME
                and event.meta.get("op") == AEAD_DEC
                and event.tag != ViewTag.OPAQUE_CIPHERTEXT
            ):
                self.decided = True
            yield event

    def require(self) -> None:
        entities = self.entities
        if FC_NAME not in entities or GW_NAME not in entities:
            raise ValueError("incomplete transcript: missing fusion center or gateway log")
        if not any(_uid_of(entity) is not None for entity in entities):
            raise ValueError("incomplete transcript: no user logs")
        if not self.decided:
            raise ValueError("incomplete transcript: no decided round")


def require_complete(events: Iterable[ViewEvent]) -> None:
    """Raise ``ValueError`` unless the stream holds events of the fusion
    center, the gateway and a user, and a decided round: a fusion-center
    decryption that yielded the vote bits (a failed one is opaque)."""
    completeness = Completeness()
    for _ in completeness.watch(events):
        pass
    completeness.require()


# Tags whose rule reads only the event's entity, never its ``meta``: within
# one stream, each (entity, tag) pair of these has one verdict for all its events.
_META_FREE_TAGS = frozenset({ViewTag.OPE_ORDER_PAIR, ViewTag.PLAINTEXT_BIT})


def check_leakage(events: Iterable[ViewEvent]) -> LeakageReport:
    """Verdict every entity's view against the permitted-knowledge rules.

    One pass over the stream. Verdicts are keyed in sorted entity order;
    violations are grouped by entity in that order, each entity's in the
    order its events happened.

    Verdicts are memoised where the rule reads little: per (entity, tag)
    for the tags of ``_META_FREE_TAGS``, and per (entity, tag, ``kind``,
    ``user``) for ``PLAINTEXT_VALUE``, whose rule reads nothing else of
    ``meta``. Keys compare as the rule does, with ``==``; an event whose
    ``kind`` or ``user`` cannot be hashed is judged on its own.
    """
    verdicts: dict[str, str] = {}
    violations: list[Violation] = []
    memo: dict[tuple, str | None] = {}
    opaque = ViewTag.OPAQUE_CIPHERTEXT
    value = ViewTag.PLAINTEXT_VALUE
    for event in events:
        entity = event.entity
        if entity not in verdicts:
            verdicts[entity] = CONFORMS
        tag = event.tag
        if tag == opaque:
            continue
        if tag == value:
            meta = event.meta
            key = (entity, tag, meta.get("kind"), meta.get("user"))
        elif tag in _META_FREE_TAGS:
            key = (entity, tag)
        else:
            key = None
        if key is None:
            reason = _violation_reason(event)
        else:
            try:
                reason = memo[key]
            except KeyError:
                reason = memo[key] = _violation_reason(event)
            except TypeError:  # an unhashable kind or user
                reason = _violation_reason(event)
        if reason is not None:
            verdicts[entity] = VIOLATES
            violations.append(Violation(entity, event, reason))
    violations.sort(key=lambda v: v.entity)  # stable
    return LeakageReport(dict(sorted(verdicts.items())), tuple(violations))


def srlp_exposure(events: Iterable[ViewEvent]) -> set[int]:
    """Users whose RSS plaintext appears in some other entity's view.

    The baseline exposes every reporter to the fusion center; the voting
    protocol exposes nobody.
    """
    exposed: set[int] = set()
    for event in events:
        if event.tag == ViewTag.PLAINTEXT_VALUE and event.meta.get("kind") == "rss":
            uid = event.meta.get("user")
            if uid is not None and uid != _uid_of(event.entity):
                exposed.add(uid)
    return exposed


# ---------------------------------------------------------------------------
# differential (join/leave) attack oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AggView:
    """What an attacker sees of one round: the roster, and the RSS
    aggregate if any entity's view contained one (None otherwise)."""

    roster: frozenset[int]
    rss_sum: int | None


@dataclass(frozen=True)
class DlpResult:
    recovered: int | None  # exact RSS of the target, or None
    aggregate_delta: int | None  # |sum_before - sum_after| when sums exist
    reason: str


def dlp_attack_oracle(before: AggView, after: AggView, target: int) -> DlpResult:
    """Try to recover the RSS of a user joining/leaving between two rounds.

    Succeeds only when the rosters differ by exactly the target and both
    rounds exposed an aggregate; with several simultaneous changes only
    the group sum is determined. The caller must name a user that actually
    changed sides.
    """
    diff = before.roster ^ after.roster
    if target not in diff:
        raise ValueError(f"user {target} did not join or leave between the rounds")
    if before.rss_sum is None or after.rss_sum is None:
        return DlpResult(None, None, "no RSS aggregate in any entity view")
    delta = abs(before.rss_sum - after.rss_sum)
    if diff != {target}:
        return DlpResult(None, delta, f"{len(diff)} users changed; only the group sum is determined")
    return DlpResult(delta, delta, "aggregate difference isolates the target")


def agg_view_from_logs(events: Iterable[ViewEvent], round_: int, roster: set[int]) -> AggView:
    """Attacker's view of one round, derived honestly from the event stream.

    Scans every entity's events for an RSS aggregate exposed in that
    round; the voting protocol never produces one.
    """
    rss_sum: int | None = None
    for event in events:
        if (
            event.round == round_
            and event.tag == ViewTag.PLAINTEXT_VALUE
            and event.meta.get("kind") == "rss_sum"
        ):
            rss_sum = event.meta["value"]
    return AggView(frozenset(roster), rss_sum)


# ---------------------------------------------------------------------------
# naive aggregation baseline (attack target)
# ---------------------------------------------------------------------------


def run_baseline(rounds: list[tuple[set[int], dict[int, int]]], master_seed: bytes) -> Recorder:
    """Run the aggregation baseline over explicit per-round reports.

    ``rounds`` lists (roster, reported RSS per user) pairs; the caller
    controls churn by varying the roster. Each user sends its RSS to the
    fusion center over the authenticated channel; the fusion center sums
    the plaintexts. Returns the recorder holding the run's event stream.
    """
    all_users = sorted({uid for roster, _ in rounds for uid in roster})
    channel = {uid: pair_channel_key(master_seed, FC_NAME, uid) for uid in all_users}
    rec = Recorder()
    rec.set_phase("sensing")
    for t, (roster, reports) in enumerate(rounds, start=1):
        rec.start_round(t)
        total = 0
        for uid in sorted(roster):
            rss = reports[uid]
            me = user_name(uid)
            rec.observe(me, ViewTag.PLAINTEXT_VALUE, "local", {"kind": "rss", "user": uid, "value": rss})
            body = aead_encrypt(channel[uid], rss.to_bytes(4, "big"), b"BASELINE_REPORT")
            rec.crypto_op(me, AEAD_ENC, ViewTag.OPAQUE_CIPHERTEXT, len(body), {"user": uid})
            rec.message_sent(me, FC_NAME, len(body), {"phase": "BASELINE_REPORT", "subject": uid})
            rec.message_delivered(me, FC_NAME, len(body), {"phase": "BASELINE_REPORT", "subject": uid})
            plain = aead_decrypt(channel[uid], body, b"BASELINE_REPORT")
            value = int.from_bytes(plain, "big")
            rec.crypto_op(
                FC_NAME,
                AEAD_DEC,
                ViewTag.PLAINTEXT_VALUE,
                len(body),
                {"kind": "rss", "user": uid, "value": value},
            )
            total += value
        rec.observe(FC_NAME, ViewTag.PLAINTEXT_VALUE, "computed", {"kind": "rss_sum", "value": total})
    return rec


def build_dlp_scenario(
    n: int,
    target: int,
    seed: int,
    model: ChannelModel,
    leave: bool = True,
) -> tuple[list[ViewEvent], tuple[set[int], set[int]], int]:
    """Frozen two-round churn scenario against the baseline.

    Every non-target RSS is held constant across the membership boundary,
    so the aggregate difference equals the target's reading exactly.
    Returns the baseline's event stream, the roster of each of its two
    rounds, and the target's true RSS.
    """
    if not 1 <= target <= n:
        raise ValueError("target must be one of the n users")
    rng = np.random.default_rng(seed)
    rss = {uid: int(rng.integers(0, model.quant.domain_max + 1)) for uid in range(1, n + 1)}
    full = set(range(1, n + 1))
    without = full - {target}
    rosters = (full, without) if leave else (without, full)
    recorder = run_baseline([(roster, rss) for roster in rosters], master_seed=seed.to_bytes(32, "big"))
    return recorder.events, rosters, rss[target]


# ---------------------------------------------------------------------------
# injected-violation mutants for checker sensitivity tests
# ---------------------------------------------------------------------------


def inject_event(
    events: Iterable[ViewEvent],
    entity: str,
    tag: str,
    meta: dict,
    round_: int = 1,
) -> list[ViewEvent]:
    """Copy the stream and append one foreign observation at ``entity``."""
    return [*events, ViewEvent(round_, entity, "received", tag, 0, meta)]
