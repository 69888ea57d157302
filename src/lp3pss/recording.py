"""Per-entity view logging and operation/byte accounting.

Every observable event of a run lands here: messages on each link (logged
at both the sender and the receiver), every crypto operation at its
performer, and every plaintext an entity learns at a decryption boundary.
An entity's view log is therefore exactly what that entity could know,
which is what the leakage checker inspects.

Transcript files are JSON lines, one event per line, with fields
{round, entity, direction, tag, size_bytes, meta}.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import IO, Iterable, Iterator

PHASE_INIT = "init"
PHASE_SENSING = "sensing"
PHASE_MEMBERSHIP = "membership"

OPE_ENC = "ope_enc"
AEAD_ENC = "aead_enc"
AEAD_DEC = "aead_dec"
COMPARE = "compare"

FC_NAME = "FC"
GW_NAME = "GW"


def user_name(uid: int) -> str:
    return f"U{uid}"


class ViewTag(str, Enum):
    """What kind of information an event exposes to its observer."""

    OPAQUE_CIPHERTEXT = "OPAQUE_CIPHERTEXT"
    OPE_ORDER_PAIR = "OPE_ORDER_PAIR"
    PLAINTEXT_BIT = "PLAINTEXT_BIT"
    PLAINTEXT_VALUE = "PLAINTEXT_VALUE"
    KEY_MATERIAL = "KEY_MATERIAL"


@dataclass(slots=True)
class ViewEvent:
    round: int
    entity: str
    direction: str  # sent | received | encrypt | decrypt | computed | local | error
    tag: ViewTag
    size_bytes: int = 0
    meta: dict = field(default_factory=dict)

    def to_json(self) -> str:
        record = {
            "round": self.round,
            "entity": self.entity,
            "direction": self.direction,
            "tag": self.tag.value,
            "size_bytes": self.size_bytes,
            "meta": self.meta,
        }
        return json.dumps(record, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "ViewEvent":
        record = json.loads(line)
        return cls(
            round=record["round"],
            entity=record["entity"],
            direction=record["direction"],
            tag=ViewTag(record["tag"]),
            size_bytes=record.get("size_bytes", 0),
            meta=record.get("meta", {}),
        )


@dataclass
class ViewLog:
    """Append-only list of everything one entity observed."""

    entity: str
    events: list[ViewEvent] = field(default_factory=list)

    def append(self, event: ViewEvent) -> None:
        self.events.append(event)

    def __iter__(self) -> Iterator[ViewEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)


class OpCounts:
    """Crypto-operation counters keyed by (round, entity, phase, op)."""

    def __init__(self) -> None:
        self._counts: Counter[tuple[int, str, str, str]] = Counter()

    def bump(self, round_: int, entity: str, phase: str, op: str) -> None:
        self._counts[(round_, entity, phase, op)] += 1

    def get(self, round_: int, entity: str, phase: str, op: str) -> int:
        return self._counts.get((round_, entity, phase, op), 0)

    def entity_totals(self) -> dict[str, dict[str, dict[str, int]]]:
        """entity -> phase -> op -> total over all rounds."""
        out: dict[str, dict[str, dict[str, int]]] = {}
        for (_, entity, phase, op), c in sorted(self._counts.items()):
            bucket = out.setdefault(entity, {}).setdefault(phase, {})
            bucket[op] = bucket.get(op, 0) + c
        return out

    def total(self, op: str, entity: str | None = None) -> int:
        return sum(
            c
            for (_, e, _, o), c in self._counts.items()
            if o == op and (entity is None or e == entity)
        )


class CommCounts:
    """Message/byte tallies per link per round, plus logical ciphertexts.

    ``size_bytes`` counts the authenticated-ciphertext wire encoding of
    the message body; addressing headers are not charged. One logical
    ciphertext is counted per protocol message of the sensing phase.
    """

    def __init__(self) -> None:
        self.messages: Counter[tuple[int, str, str]] = Counter()
        self.bytes: Counter[tuple[int, str, str]] = Counter()
        self.logical: Counter[int] = Counter()

    def add_message(self, round_: int, link: str, size_bytes: int, phase: str) -> None:
        self.messages[(round_, link, phase)] += 1
        self.bytes[(round_, link, phase)] += size_bytes
        if phase == PHASE_SENSING:
            self.logical[round_] += 1

    def logical_per_round(self) -> dict[int, int]:
        return dict(sorted(self.logical.items()))

    def round_bytes(self, round_: int, phase: str | None = None) -> int:
        return sum(
            b
            for (r, _, p), b in self.bytes.items()
            if r == round_ and (phase is None or p == phase)
        )

    def link_totals(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for (_, link, _), c in sorted(self.messages.items()):
            out.setdefault(link, {"messages": 0, "bytes": 0})["messages"] += c
        for (_, link, _), b in sorted(self.bytes.items()):
            out.setdefault(link, {"messages": 0, "bytes": 0})["bytes"] += b
        return out


class Recorder:
    """Collects the full transcript of one simulation run.

    The driver sets the round/phase context; entities report what they do
    through the log_* methods. Crypto operations are both counted and
    logged as view events, so counter totals can be audited against the
    transcript.
    """

    def __init__(self) -> None:
        self.view_logs: dict[str, ViewLog] = {}
        self.ops = OpCounts()
        self.comm = CommCounts()
        self.round = 0
        self.phase = PHASE_INIT
        self.errors: list[dict] = []

    # -- context ---------------------------------------------------------

    def start_round(self, round_: int) -> None:
        self.round = round_

    def set_phase(self, phase: str) -> None:
        if phase not in (PHASE_INIT, PHASE_SENSING, PHASE_MEMBERSHIP):
            raise ValueError(f"unknown phase {phase!r}")
        self.phase = phase

    def log_for(self, entity: str) -> ViewLog:
        if entity not in self.view_logs:
            self.view_logs[entity] = ViewLog(entity)
        return self.view_logs[entity]

    # -- event entry points ------------------------------------------------

    def crypto_op(
        self,
        entity: str,
        op: str,
        tag: ViewTag,
        size_bytes: int = 0,
        meta: dict | None = None,
    ) -> None:
        self.ops.bump(self.round, entity, self.phase, op)
        direction = "decrypt" if op == AEAD_DEC else "encrypt"
        if op == COMPARE:
            direction = "computed"
        full_meta = {"op": op, **(meta or {})}
        self.log_for(entity).append(
            ViewEvent(self.round, entity, direction, tag, size_bytes, full_meta)
        )

    def message_sent(
        self, sender: str, receiver: str, size_bytes: int, meta: dict | None = None
    ) -> None:
        full_meta = {"link": f"{sender}->{receiver}", **(meta or {})}
        self.log_for(sender).append(
            ViewEvent(self.round, sender, "sent", ViewTag.OPAQUE_CIPHERTEXT, size_bytes, full_meta)
        )

    def message_delivered(
        self, sender: str, receiver: str, size_bytes: int, meta: dict | None = None
    ) -> None:
        """Charge the link and log the receiver view; lost messages never get here."""
        link = f"{sender}->{receiver}"
        self.comm.add_message(self.round, link, size_bytes, self.phase)
        full_meta = {"link": link, **(meta or {})}
        self.log_for(receiver).append(
            ViewEvent(
                self.round, receiver, "received", ViewTag.OPAQUE_CIPHERTEXT, size_bytes, full_meta
            )
        )

    def observe(
        self,
        entity: str,
        tag: ViewTag,
        direction: str = "computed",
        meta: dict | None = None,
    ) -> None:
        self.log_for(entity).append(
            ViewEvent(self.round, entity, direction, tag, 0, meta or {})
        )

    def protocol_error(self, entity: str, reason: str, meta: dict | None = None) -> None:
        full_meta = {"reason": reason, **(meta or {})}
        self.errors.append({"round": self.round, "entity": entity, **full_meta})
        self.log_for(entity).append(
            ViewEvent(self.round, entity, "error", ViewTag.OPAQUE_CIPHERTEXT, 0, full_meta)
        )

    # -- transcript I/O ----------------------------------------------------

    def iter_events(self) -> Iterator[ViewEvent]:
        for entity in sorted(self.view_logs):
            yield from self.view_logs[entity].events

    def dump_transcript(self, fh: IO[str]) -> int:
        count = 0
        for event in self.iter_events():
            fh.write(event.to_json() + "\n")
            count += 1
        return count


def load_transcript(lines: Iterable[str]) -> dict[str, ViewLog]:
    """Rebuild per-entity view logs from a JSONL transcript."""
    logs: dict[str, ViewLog] = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = ViewEvent.from_json(line)
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
            raise ValueError(f"transcript line {lineno} is malformed: {exc}") from exc
        logs.setdefault(event.entity, ViewLog(event.entity)).append(event)
    return logs
