"""The event stream of one run, and everything counted from it.

Every observable event of a run is appended here, once, as a
``ViewEvent``: messages on each link (logged at both the sender and the
receiver), every crypto operation at its performer, every plaintext an
entity learns at a decryption boundary, and every protocol error at the
entity that detected it. The stream is the recorder's only record and
what the leakage checker reads: each event names the entity that could
know it. ``Recorder.fold`` walks it once and returns the counts:
operation counts, per-link traffic, bytes per round and phase, logical
ciphertexts per sensing round and the protocol errors.

Transcript files are JSON lines: one event per line, the stream
stable-sorted by entity name, so each entity's events stay in the order
they happened. A line is the compact, sorted-key, ASCII-only JSON object

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
from operator import attrgetter
from typing import IO, Iterable

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
class Tally:
    """What ``Recorder.fold`` counts from one event stream.

    ``size_bytes`` is the length of the framed AEAD bytes a message
    carries; addressing headers are not charged. One logical
    ciphertext is counted per message delivered in the sensing phase.
    """

    ops: Counter[tuple[int, str, str, str]]  # (round, entity, phase, op)
    messages: Counter[str]  # per link, "sender->receiver"
    link_bytes: Counter[str]
    phase_bytes: Counter[tuple[int, str]]  # (round, phase)
    logical: Counter[int]  # per sensing round
    protocol_errors: list[dict]  # {"round", "entity", "reason", ...} in event order

    def op_totals(self) -> dict[str, dict[str, dict[str, int]]]:
        """entity -> phase -> op -> total over all rounds."""
        out: dict[str, dict[str, dict[str, int]]] = {}
        for (_, entity, phase, op), c in sorted(self.ops.items()):
            bucket = out.setdefault(entity, {}).setdefault(phase, {})
            bucket[op] = bucket.get(op, 0) + c
        return out

    def link_totals(self) -> dict[str, dict[str, int]]:
        return {
            link: {"messages": self.messages[link], "bytes": self.link_bytes[link]}
            for link in sorted(self.messages)
        }

    def logical_per_round(self) -> dict[int, int]:
        return dict(sorted(self.logical.items()))


class Recorder:
    """The ordered event stream of one run.

    It holds the events, the current round and the index at which each
    phase began. The driver sets the round and phase; entities report
    what they do through the entry points, each of which appends exactly
    one event. Nothing is counted as events arrive: ``fold`` derives
    every count from the stream, so a count cannot disagree with the
    events it counts.
    """

    def __init__(self) -> None:
        self.events: list[ViewEvent] = []
        self.round = 0
        self.phase_starts: list[tuple[int, str]] = [(0, PHASE_INIT)]

    # -- context ---------------------------------------------------------

    def start_round(self, round_: int) -> None:
        self.round = round_

    def set_phase(self, phase: str) -> None:
        """Events from the next one on belong to ``phase``."""
        if phase not in (PHASE_INIT, PHASE_SENSING, PHASE_MEMBERSHIP):
            raise ValueError(f"unknown phase {phase!r}")
        self.phase_starts.append((len(self.events), phase))

    # -- event entry points ------------------------------------------------

    def crypto_op(
        self,
        entity: str,
        op: str,
        tag: ViewTag,
        size_bytes: int = 0,
        meta: dict | None = None,
    ) -> None:
        direction = "decrypt" if op == AEAD_DEC else "encrypt"
        if op == COMPARE:
            direction = "computed"
        full_meta = {"op": op, **(meta or {})}
        self.events.append(ViewEvent(self.round, entity, direction, tag, size_bytes, full_meta))

    def message_sent(
        self, sender: str, receiver: str, size_bytes: int, meta: dict | None = None
    ) -> None:
        full_meta = {"link": f"{sender}->{receiver}", **(meta or {})}
        self.events.append(
            ViewEvent(self.round, sender, "sent", ViewTag.OPAQUE_CIPHERTEXT, size_bytes, full_meta)
        )

    def message_delivered(
        self, sender: str, receiver: str, size_bytes: int, meta: dict | None = None
    ) -> None:
        """Log the receiver's view; lost messages never get here, so only these are traffic."""
        full_meta = {"link": f"{sender}->{receiver}", **(meta or {})}
        self.events.append(
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
        self.events.append(ViewEvent(self.round, entity, direction, tag, 0, meta or {}))

    def protocol_error(self, entity: str, reason: str, meta: dict | None = None) -> None:
        full_meta = {"reason": reason, **(meta or {})}
        self.events.append(
            ViewEvent(self.round, entity, "error", ViewTag.OPAQUE_CIPHERTEXT, 0, full_meta)
        )

    # -- derived views -----------------------------------------------------

    @property
    def view_logs(self) -> dict[str, list[ViewEvent]]:
        """entity -> everything it observed, in order; a fresh dict per read.

        Entities appear in the order of their first event.
        """
        logs: dict[str, list[ViewEvent]] = {}
        for event in self.events:
            logs.setdefault(event.entity, []).append(event)
        return logs

    def fold(self) -> Tally:
        """Count everything from one pass over the stream.

        Operation counts come from events whose ``meta`` has ``"op"``;
        traffic from ``"received"`` events; protocol errors from
        ``"error"`` events, in order.
        """
        ops: Counter[tuple[int, str, str, str]] = Counter()
        messages: Counter[str] = Counter()
        link_bytes: Counter[str] = Counter()
        phase_bytes: Counter[tuple[int, str]] = Counter()
        logical: Counter[int] = Counter()
        errors: list[dict] = []
        events = self.events
        ends = [start for start, _ in self.phase_starts[1:]] + [len(events)]
        for (start, phase), end in zip(self.phase_starts, ends):
            for e in events[start:end]:
                op = e.meta.get("op")
                if op is not None:
                    ops[e.round, e.entity, phase, op] += 1
                if e.direction == "received":
                    link = e.meta["link"]
                    messages[link] += 1
                    link_bytes[link] += e.size_bytes
                    phase_bytes[e.round, phase] += e.size_bytes
                    if phase == PHASE_SENSING:
                        logical[e.round] += 1
                elif e.direction == "error":
                    errors.append({"round": e.round, "entity": e.entity, **e.meta})
        return Tally(ops, messages, link_bytes, phase_bytes, logical, errors)

    # -- transcript I/O ----------------------------------------------------

    def dump_transcript(self, fh: IO[str]) -> int:
        """Write every event as one JSONL line (format in the module docstring)."""
        strings = _JsonStrings()
        encode_meta = _META_ENCODER.encode
        events = sorted(self.events, key=attrgetter("entity"))  # stable: each entity's in order
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
        return len(events)


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


def load_transcript(lines: Iterable[str]) -> list[ViewEvent]:
    """The events of a JSONL transcript, in file order.

    Raises ``ValueError`` naming the first malformed line.
    """
    events: list[ViewEvent] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            events.append(_parse_event(line))
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"transcript line {lineno} is malformed: {exc}") from exc
    return events
