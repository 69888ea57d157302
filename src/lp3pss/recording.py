"""Per-entity view logging and operation/byte accounting.

Every observable event of a run lands here: messages on each link (logged
at both the sender and the receiver), every crypto operation at its
performer, and every plaintext an entity learns at a decryption boundary.
An entity's view log is therefore exactly what that entity could know,
which is what the leakage checker inspects.

Transcript files are JSON lines: one event per line, the entities' view
logs in sorted order of entity name, each log's events in the order they
happened. A line is the compact, sorted-key, ASCII-only JSON object

    {"direction":...,"entity":...,"meta":...,"round":...,"size_bytes":...,"tag":...}

that is, ``json.dumps(record, sort_keys=True, separators=(",", ":"))``
of the event, followed by a newline. The reader skips blank lines and
rejects, naming the line, any line that is not exactly one JSON object
with all six fields typed as the writer writes them: ``round`` and
``size_bytes`` integers (not booleans), ``entity`` and ``direction``
strings, ``meta`` an object and ``tag`` the value of a ``ViewTag``.
Other fields are ignored.
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
    """Message/byte tallies per link, bytes per (round, phase), logical ciphertexts.

    ``size_bytes`` counts the authenticated-ciphertext wire encoding of
    the message body; addressing headers are not charged. One logical
    ciphertext is counted per protocol message of the sensing phase.
    Each tally is keyed by what its reader asks for, so every read is a
    lookup or a pass over the links.
    """

    def __init__(self) -> None:
        self.messages: Counter[str] = Counter()
        self.bytes: Counter[str] = Counter()
        self.phase_bytes: Counter[tuple[int, str]] = Counter()
        self.logical: Counter[int] = Counter()

    def add_message(self, round_: int, link: str, size_bytes: int, phase: str) -> None:
        self.messages[link] += 1
        self.bytes[link] += size_bytes
        self.phase_bytes[(round_, phase)] += size_bytes
        if phase == PHASE_SENSING:
            self.logical[round_] += 1

    def logical_per_round(self) -> dict[int, int]:
        return dict(sorted(self.logical.items()))

    def round_bytes(self, round_: int, phase: str) -> int:
        return self.phase_bytes.get((round_, phase), 0)

    def link_totals(self) -> dict[str, dict[str, int]]:
        return {
            link: {"messages": self.messages[link], "bytes": self.bytes[link]}
            for link in sorted(self.messages)
        }


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

    def dump_transcript(self, fh: IO[str]) -> int:
        """Write every event as one JSONL line (format in the module docstring)."""
        strings = _JsonStrings()
        encode_meta = _META_ENCODER.encode
        count = 0
        for entity in sorted(self.view_logs):
            events = self.view_logs[entity].events
            for start in range(0, len(events), _CHUNK_EVENTS):
                fh.write("".join([
                    _LINE % (
                        strings[e.direction],
                        strings[e.entity],
                        encode_meta(e.meta),
                        e.round,
                        e.size_bytes,
                        _TAG_JSON[e.tag],
                    )
                    for e in events[start:start + _CHUNK_EVENTS]
                ]))
            count += len(events)
        return count


# -- transcript codec ---------------------------------------------------------

# One line, keys in sorted order: what json.dumps(record, sort_keys=True,
# separators=(",", ":")) writes for an event with int round and size_bytes.
_LINE = '{"direction":%s,"entity":%s,"meta":%s,"round":%d,"size_bytes":%d,"tag":%s}\n'
# Lines joined per write; bounds the writer's buffer, not the transcript.
_CHUNK_EVENTS = 1024
_META_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_TAG_JSON = {tag: json.dumps(tag.value) for tag in ViewTag}
_TAG_BY_VALUE = {tag.value: tag for tag in ViewTag}
_scan_once = json.JSONDecoder().scan_once
_FIELD_TYPES = (
    ("round", int),
    ("entity", str),
    ("direction", str),
    ("tag", str),
    ("size_bytes", int),
    ("meta", dict),
)
_JSON_TYPE_NAMES = {
    dict: "an object",
    list: "an array",
    str: "a string",
    int: "an integer",
    float: "a number",
    bool: "a boolean",
    type(None): "null",
}


class _JsonStrings(dict):
    """JSON text of each value looked up, encoded once per distinct value."""

    def __missing__(self, value: str) -> str:
        text = self[value] = json.dumps(value)
        return text


def _shape_error(record: object) -> str:
    """Why a parsed line is not an event record."""
    if type(record) is not dict:
        return f"expected an object, found {_JSON_TYPE_NAMES[type(record)]}"
    for name, kind in _FIELD_TYPES:
        if name not in record:
            return f"missing field {name!r}"
        if type(record[name]) is not kind:
            found = _JSON_TYPE_NAMES[type(record[name])]
            return f"field {name!r} must be {_JSON_TYPE_NAMES[kind]}, found {found}"
    return f"unknown tag {record['tag']!r}"


def _parse_event(line: str) -> ViewEvent:
    """The event on one stripped, non-empty transcript line."""
    try:
        record, end = _scan_once(line, 0)
    except StopIteration as exc:
        raise json.JSONDecodeError("Expecting value", line, exc.value) from None
    if end != len(line):
        raise json.JSONDecodeError("Extra data", line, end)
    if type(record) is dict:
        try:
            event = ViewEvent(
                record["round"],
                record["entity"],
                record["direction"],
                _TAG_BY_VALUE[record["tag"]],
                record["size_bytes"],
                record["meta"],
            )
        except (KeyError, TypeError):  # a field missing, or an unknown or unhashable tag
            pass
        else:
            if (
                type(event.round) is int
                and type(event.size_bytes) is int
                and type(event.entity) is str
                and type(event.direction) is str
                and type(event.meta) is dict
            ):
                return event
    raise ValueError(_shape_error(record))


def load_transcript(lines: Iterable[str]) -> dict[str, ViewLog]:
    """Rebuild per-entity view logs from a JSONL transcript.

    Raises ``ValueError`` naming the first malformed line.
    """
    logs: dict[str, ViewLog] = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = _parse_event(line)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"transcript line {lineno} is malformed: {exc}") from exc
        log = logs.get(event.entity)
        if log is None:
            log = logs[event.entity] = ViewLog(event.entity)
        log.events.append(event)
    return logs
