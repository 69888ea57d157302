"""The event stream of one run, and everything counted from it.

Every observable event of a run is appended here, once, as a
``ViewEvent``: messages on each link (logged at both the sender and the
receiver), every crypto operation at its performer, every plaintext an
entity learns at a decryption boundary, and every protocol error at the
entity that detected it. The stream is what the leakage checker reads:
each event names the entity that could know it. The counts are kept in
``Recorder.tally`` as the events are appended: operation counts,
per-link traffic, bytes and logical ciphertexts per sensing round and
the protocol errors.

Transcript files are JSON lines: one event per line, the stream
stable-sorted by entity name, so each entity's events stay in the order
they happened. A line is the compact, sorted-key, ASCII-only JSON object

    {"direction":...,"entity":...,"meta":...,"round":...,"size_bytes":...,"tag":...}

that is, ``json.dumps(record, sort_keys=True, separators=(",", ":"))``
of the event, followed by a newline. The reader skips blank lines and
rejects, naming the line, any line that is not exactly one JSON object
with all six fields typed as the writer writes them: ``round`` and
``size_bytes`` integers (not booleans), ``entity`` and ``direction``
strings, ``meta`` an object and ``tag`` one of the ``ViewTag`` strings.
Other fields are ignored.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
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


class ViewTag:
    """What kind of information an event exposes to its observer, each a
    plain string: an event's ``tag`` and its transcript field carry it as
    is. Compare tags with ``==``: a loaded tag is an equal string, not the
    same object."""

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
    tag: str  # a ViewTag
    size_bytes: int = 0
    meta: dict = field(default_factory=dict)


@dataclass
class Tally:
    """The counts of one event stream, kept by ``Recorder`` as it appends.

    ``size_bytes`` is the length of the framed AEAD bytes a message
    carries; addressing headers are not charged. One logical
    ciphertext is counted per message delivered in the sensing phase.
    """

    # (round, entity, phase, op)
    ops: Counter[tuple[int, str, str, str]] = field(default_factory=Counter)
    messages: Counter[str] = field(default_factory=Counter)  # per link, "sender->receiver"
    link_bytes: Counter[str] = field(default_factory=Counter)
    sensing_bytes: Counter[int] = field(default_factory=Counter)  # per sensing round
    logical: Counter[int] = field(default_factory=Counter)  # per sensing round
    # {"round", "entity", "reason", ...} in event order
    protocol_errors: list[dict] = field(default_factory=list)

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


_PHASES = (PHASE_INIT, PHASE_SENSING, PHASE_MEMBERSHIP)
_DIRECTION = {OPE_ENC: "encrypt", AEAD_ENC: "encrypt", AEAD_DEC: "decrypt", COMPARE: "computed"}


class Recorder:
    """The ordered event stream of one run and its counts.

    It holds the events, the current round and phase, and the ``tally``.
    The driver sets the round and phase; entities report what they do
    through the entry points, each of which appends exactly one event
    and adds that event's contribution to the tally:

    * ``crypto_op`` counts one operation of its entity, round and phase;
    * ``message_delivered`` counts the message and its bytes on its
      link and, in the sensing phase, its bytes and one logical
      ciphertext in its round; a ``message_sent`` is counted nowhere,
      since lost messages are not traffic;
    * ``protocol_error`` adds its row to the protocol errors;
    * ``observe`` counts nothing.

    The caller hands each entry point a fresh ``meta`` dict, or none:
    the recorder takes it over as the event's ``meta``, adding ``op``,
    ``link`` or ``reason`` in place, so the caller must not reuse it.
    """

    def __init__(self) -> None:
        self.events: list[ViewEvent] = []
        self.round = 0
        self.phase = PHASE_INIT
        self.tally = Tally()

    # -- context ---------------------------------------------------------

    def start_round(self, round_: int) -> None:
        self.round = round_

    def set_phase(self, phase: str) -> None:
        """Events from the next one on belong to ``phase``."""
        if phase not in _PHASES:
            raise ValueError(f"unknown phase {phase!r}")
        self.phase = phase

    # -- event entry points ------------------------------------------------

    def crypto_op(
        self,
        entity: str,
        op: str,
        tag: str,
        size_bytes: int = 0,
        meta: dict | None = None,
    ) -> None:
        """``op`` is one of ``OPE_ENC``, ``AEAD_ENC``, ``AEAD_DEC`` and ``COMPARE``."""
        if meta is None:
            meta = {"op": op}
        else:
            meta["op"] = op
        round_ = self.round
        self.events.append(ViewEvent(round_, entity, _DIRECTION[op], tag, size_bytes, meta))
        ops = self.tally.ops
        key = (round_, entity, self.phase, op)
        ops[key] = ops.get(key, 0) + 1  # most keys are new: skip Counter.__missing__

    def message_sent(
        self, sender: str, receiver: str, size_bytes: int, meta: dict | None = None
    ) -> None:
        link = f"{sender}->{receiver}"
        if meta is None:
            meta = {"link": link}
        else:
            meta["link"] = link
        self.events.append(ViewEvent(self.round, sender, "sent", ViewTag.OPAQUE_CIPHERTEXT, size_bytes, meta))

    def message_delivered(
        self, sender: str, receiver: str, size_bytes: int, meta: dict | None = None
    ) -> None:
        """Log the receiver's view; lost messages never get here, so only these are traffic."""
        link = f"{sender}->{receiver}"
        if meta is None:
            meta = {"link": link}
        else:
            meta["link"] = link
        round_ = self.round
        self.events.append(ViewEvent(round_, receiver, "received", ViewTag.OPAQUE_CIPHERTEXT, size_bytes, meta))
        tally = self.tally
        tally.messages[link] += 1
        tally.link_bytes[link] += size_bytes
        if self.phase == PHASE_SENSING:
            tally.sensing_bytes[round_] += size_bytes
            tally.logical[round_] += 1

    def observe(
        self,
        entity: str,
        tag: str,
        direction: str = "computed",
        meta: dict | None = None,
    ) -> None:
        if meta is None:
            meta = {}
        self.events.append(ViewEvent(self.round, entity, direction, tag, 0, meta))

    def protocol_error(self, entity: str, reason: str, meta: dict | None = None) -> None:
        if meta is None:
            meta = {"reason": reason}
        else:
            meta["reason"] = reason
        round_ = self.round
        self.events.append(ViewEvent(round_, entity, "error", ViewTag.OPAQUE_CIPHERTEXT, 0, meta))
        self.tally.protocol_errors.append({"round": round_, "entity": entity, **meta})

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
                    strings[e.tag],
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
# Each tag to its constant: a loaded event shares the one string object
# rather than keeping the decoder's copy (about 1.3 MiB on 18 850 events).
_TAGS = {
    tag: tag
    for tag in (
        ViewTag.OPAQUE_CIPHERTEXT,
        ViewTag.OPE_ORDER_PAIR,
        ViewTag.PLAINTEXT_BIT,
        ViewTag.PLAINTEXT_VALUE,
        ViewTag.KEY_MATERIAL,
    )
}
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
                _TAGS[record["tag"]],
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
