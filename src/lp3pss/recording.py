"""The event stream of one run, and everything counted from it.

Every observable event of a run is appended here, once, as a
``ViewEvent``: messages on each link (logged at both the sender and the
receiver), every crypto operation at its performer, every plaintext an
entity learns at a decryption boundary, and every protocol error at the
entity that detected it. An operation that another event witnesses is
counted at that event and has none of its own (see ``Recorder``). The
stream is what the leakage checker reads: each event names the entity
that could know it. The counts are kept in ``Recorder.tally`` as the
events are appended: operation counts, per-link traffic, bytes and
logical ciphertexts per sensing round and the protocol errors.
Operation counts are kept per round until the round is folded into run
totals (``Tally.fold_ops``).

Transcript files are JSON lines: one event per line, in stream order,
the order the events were appended. A line is the compact, sorted-key,
ASCII-only JSON object

    {"direction":...,"entity":...,"meta":...,"round":...,"size_bytes":...,"tag":...}

that is, ``json.dumps(record, sort_keys=True, separators=(",", ":"))``
of the event, followed by a newline. That call defines the format.
``compact_json`` makes it, and is the one encoder of transcript lines and
of the simulation report. The writer fills one line pattern per event
with the texts of its fields. It encodes each shared meta (see
``Recorder``) once per dump and looks it up by identity, which is safe
only for those metas, since the recorder keeps them alive; every other
meta is encoded for its event. The reader
(``iter_transcript``, or ``load_transcript`` for a list) strips only
JSON whitespace (space, tab, CR and LF) from both ends of each line,
skips the lines that leaves empty, and rejects, naming the line, any
line that is not exactly one JSON object with all six fields typed as
the writer writes them:
``round`` and ``size_bytes`` integers (not booleans), ``entity`` and
``direction`` strings, ``meta`` an object and ``tag`` one of the
``ViewTag`` strings. Other fields are ignored. A line that repeats a line
of the previous round but for its round digits is read without a decode,
and its event shares that line's meta. So is a line that differs from one
of the previous round only in its round and in the integer ``value`` that
ends its meta; its event gets its own copy of that meta, with the new
value, holding the same key and string objects (``iter_transcript`` says
when each holds and why it reads what a decode would). So loaded metas,
like recorded ones, may be shared and must not be written. Reading holds
one line, its event and the line shapes of two rounds.
"""

from __future__ import annotations

import gc
import json
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from json import encoder as json_encoder
from sys import intern
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

    ``ops`` counts operations per round. ``fold_ops`` adds them into
    ``folded_ops``, the totals per (entity, phase, op), and empties
    ``ops``; the simulation driver calls it as each round ends, so in a
    run ``ops`` holds the current round only. ``op_totals`` reads both.
    A recorder driven by hand, which never folds, keeps every round's.
    """

    # (round, entity, phase, op)
    ops: Counter[tuple[int, str, str, str]] = field(default_factory=Counter)
    # (entity, phase, op), over the rounds folded so far
    folded_ops: Counter[tuple[str, str, str]] = field(default_factory=Counter)
    messages: Counter[str] = field(default_factory=Counter)  # per link, "sender->receiver"
    link_bytes: Counter[str] = field(default_factory=Counter)
    sensing_bytes: Counter[int] = field(default_factory=Counter)  # per sensing round
    logical: Counter[int] = field(default_factory=Counter)  # per sensing round
    # {"round", "entity", "reason", ...} in event order
    protocol_errors: list[dict] = field(default_factory=list)

    def fold_ops(self) -> None:
        """Add ``ops`` into ``folded_ops`` and empty it."""
        _add_ops(self.folded_ops, self.ops)
        self.ops.clear()

    def op_totals(self) -> dict[str, dict[str, dict[str, int]]]:
        """entity -> phase -> op -> total over all rounds, folded or not."""
        totals = dict(self.folded_ops)
        _add_ops(totals, self.ops)
        out: dict[str, dict[str, dict[str, int]]] = {}
        for (entity, phase, op), c in sorted(totals.items()):
            out.setdefault(entity, {}).setdefault(phase, {})[op] = c
        return out

    def link_totals(self) -> dict[str, dict[str, int]]:
        return {
            link: {"messages": self.messages[link], "bytes": self.link_bytes[link]}
            for link in sorted(self.messages)
        }

    def logical_per_round(self) -> dict[int, int]:
        return dict(sorted(self.logical.items()))


def _add_ops(totals: dict[tuple[str, str, str], int], ops: Counter[tuple[int, str, str, str]]) -> None:
    """Add per-round operation counts into totals per (entity, phase, op)."""
    for (_, entity, phase, op), c in ops.items():
        key = (entity, phase, op)
        totals[key] = totals.get(key, 0) + c


_PHASES = (PHASE_INIT, PHASE_SENSING, PHASE_MEMBERSHIP)
_DIRECTION = {OPE_ENC: "encrypt", AEAD_DEC: "decrypt"}


class Recorder:
    """The ordered event stream of one run and its counts.

    It holds the events, the current round and phase, and the ``tally``.
    The driver sets the round and phase; entities report what they do
    through the entry points, each of which appends exactly one event
    and adds that event's contribution to the tally. One event per act:
    an op that another event already witnesses has no event of its own,
    and that event counts it.

    * ``message_sent`` counts the sender's ``AEAD_ENC``: a message is
      sent sealed, so its encryption is witnessed by the send. The
      message itself is counted nowhere, since lost messages are not
      traffic;
    * ``vote`` counts the gateway's ``COMPARE``: the comparison gave the
      bit, and the OPE values it compared are in the gateway's
      decryption events already;
    * ``crypto_op`` counts the op in its meta, one ``OPE_ENC`` or
      ``AEAD_DEC`` of its entity, round and phase. A user's ``OPE_ENC``
      carries the reading it encrypted, so the encryption and what the
      user knows of it are one event;
    * ``message_delivered`` counts the message and its bytes on its
      link and, in the sensing phase, its bytes and one logical
      ciphertext in its round;
    * ``protocol_error`` adds its row to the protocol errors;
    * ``observe`` counts nothing.

    Two kinds of meta are shared by every event that carries one, each
    built once per run and kept in a memo keyed by the fields that fix it
    (so it holds a few metas per user ever keyed):

    * ``message_sent`` and ``message_delivered`` give a message the header
      ``{"phase": phase, "subject": subject, "link": "sender->receiver"}``
      (no ``subject`` when it is None), one per link, phase and subject;
    * ``vote`` gives the gateway's vote bit ``{"kind": "vote", "user":
      user, "bit": bit}``.

    ``crypto_op`` takes a fresh ``meta`` dict from the caller, and
    ``observe`` and ``protocol_error`` one or none: the recorder takes it
    over as the event's ``meta``, adding ``op`` or ``reason`` in place, so
    the caller must not reuse it. Once
    recorded, a meta is never written again, shared or fresh: readers of
    the stream must not write to one either.

    The recorder never folds the tally's per-round operation counts
    itself: the simulation driver does at each round's end (see
    ``Tally``), so a recorder driven by hand keeps them all.
    """

    def __init__(self) -> None:
        self.events: list[ViewEvent] = []
        self.round = 0
        self.phase = PHASE_INIT
        self.tally = Tally()
        # the shared metas: (sender, receiver, phase, subject) and
        # ("vote", user, bit) to the one dict each names
        self._shared: dict[tuple, dict] = {}

    # -- context ---------------------------------------------------------

    def start_round(self, round_: int) -> None:
        self.round = round_

    def set_phase(self, phase: str) -> None:
        """Events from the next one on belong to ``phase``."""
        if phase not in _PHASES:
            raise ValueError(f"unknown phase {phase!r}")
        self.phase = phase

    # -- event entry points ------------------------------------------------

    def crypto_op(self, entity: str, op: str, tag: str, size_bytes: int, meta: dict) -> None:
        """``op`` is ``OPE_ENC`` or ``AEAD_DEC``; an ``AEAD_ENC`` is counted
        by ``message_sent`` and a ``COMPARE`` by ``vote``."""
        meta["op"] = op
        self._append_op(entity, op, _DIRECTION[op], tag, size_bytes, meta)

    def _append_op(self, entity: str, op: str, direction: str, tag: str, size_bytes: int, meta: dict) -> None:
        """Append an event and count ``op`` of ``entity`` in the current round and phase."""
        round_ = self.round
        self.events.append(ViewEvent(round_, entity, direction, tag, size_bytes, meta))
        ops = self.tally.ops
        key = (round_, entity, self.phase, op)
        ops[key] = ops.get(key, 0) + 1  # most keys are new: skip Counter.__missing__

    def _header(self, sender: str, receiver: str, phase: str, subject: int | None) -> dict:
        """The shared header of a message, made on its first use."""
        link = f"{sender}->{receiver}"
        if subject is None:
            header = {"phase": phase, "link": link}
        else:
            header = {"phase": phase, "subject": subject, "link": link}
        self._shared[sender, receiver, phase, subject] = header
        return header

    def message_sent(
        self, sender: str, receiver: str, size_bytes: int, phase: str, subject: int | None = None
    ) -> None:
        """Log the sender's view of a message it sealed, counting its ``AEAD_ENC``."""
        try:
            meta = self._shared[sender, receiver, phase, subject]
        except KeyError:
            meta = self._header(sender, receiver, phase, subject)
        self._append_op(sender, AEAD_ENC, "sent", ViewTag.OPAQUE_CIPHERTEXT, size_bytes, meta)

    def message_delivered(
        self, sender: str, receiver: str, size_bytes: int, phase: str, subject: int | None = None
    ) -> None:
        """Log the receiver's view; lost messages never get here, so only these are traffic."""
        try:
            meta = self._shared[sender, receiver, phase, subject]
        except KeyError:
            meta = self._header(sender, receiver, phase, subject)
        link = meta["link"]
        round_ = self.round
        self.events.append(ViewEvent(round_, receiver, "received", ViewTag.OPAQUE_CIPHERTEXT, size_bytes, meta))
        tally = self.tally
        # dict.get, not Counter's +=: a missing key costs Counter a Python call
        messages, link_bytes = tally.messages, tally.link_bytes
        messages[link] = messages.get(link, 0) + 1
        link_bytes[link] = link_bytes.get(link, 0) + size_bytes
        if self.phase == PHASE_SENSING:
            sensing_bytes, logical = tally.sensing_bytes, tally.logical
            sensing_bytes[round_] = sensing_bytes.get(round_, 0) + size_bytes
            logical[round_] = logical.get(round_, 0) + 1

    def observe(
        self,
        entity: str,
        tag: str,
        direction: str = "computed",
        meta: dict | None = None,
    ) -> None:
        """Log what ``entity`` learns with no op of its own, counting
        nothing: the baseline's readings and sum (``observability.run_baseline``)."""
        if meta is None:
            meta = {}
        self.events.append(ViewEvent(self.round, entity, direction, tag, 0, meta))

    def vote(self, user: int, bit: int) -> None:
        """Log the gateway's vote ``bit`` for ``user``, with its shared meta.

        The vote is the outcome of the gateway's one comparison of OPE
        values, counted here as a ``COMPARE`` op: the values compared are
        in the gateway's decryption events already, so the comparison has
        no event of its own.
        """
        try:
            meta = self._shared["vote", user, bit]
        except KeyError:
            meta = self._shared["vote", user, bit] = {"kind": "vote", "user": user, "bit": bit}
        self._append_op(GW_NAME, COMPARE, "computed", ViewTag.PLAINTEXT_BIT, 0, meta)

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
        """Write each event as one JSONL line, in stream order (format in the module docstring).

        Each shared meta is encoded once per dump and found by identity,
        which holds only because the recorder keeps its ``_shared`` dicts
        alive; every other meta is encoded for its event, since a fresh
        meta's id may be reused once the meta is freed. Names and tags are
        strings, each encoded once per dump.
        """
        shared_text = {id(meta): compact_json(meta) for meta in self._shared.values()}.get
        text = _NameTexts()
        events = self.events
        for start in range(0, len(events), _CHUNK_EVENTS):
            # a meta's text is never empty, so `or` encodes fresh metas only
            fh.write("".join([
                _LINE % (text[e.direction], text[e.entity], shared_text(id(e.meta)) or compact_json(e.meta),
                         e.round, e.size_bytes, text[e.tag])
                for e in events[start:start + _CHUNK_EVENTS]
            ]))
        return len(events)


# -- transcript codec ---------------------------------------------------------

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
# json.dumps builds its C encoder anew on every call, about 1.3 µs. This one
# is built once, with the arguments json.dumps gives it, except that it does
# not check for circular references, which reports and metas cannot hold.
_chunks = json_encoder.c_make_encoder and json_encoder.c_make_encoder(
    None, _ENCODER.default, json_encoder.encode_basestring_ascii, None, ":", ",", True, False, True
)


def compact_json(obj: object) -> str:
    """``json.dumps(obj, sort_keys=True, separators=(",", ":"))``, the compact,
    sorted-key, ASCII-only JSON text that the report and every transcript
    line are written in."""
    return "".join(_chunks(obj, 0)) if _chunks else _ENCODER.encode(obj)


# One line, keys in sorted order: what compact_json writes for an event's
# record with int round and size_bytes.
_LINE = '{"direction":%s,"entity":%s,"meta":%s,"round":%d,"size_bytes":%d,"tag":%s}\n'
# Lines per write; bounds the writer's buffer, not the transcript.
_CHUNK_EVENTS = 1024


class _NameTexts(dict):
    """``compact_json`` of each string looked up, made on its first lookup."""

    def __missing__(self, name: str) -> str:
        text = self[name] = compact_json(name)
        return text


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
# What json.loads skips around a value; str.strip() with no argument strips
# more (NBSP, form feed, \x1c-\x1f, \x85, \u2028, ...), which JSON rejects.
_JSON_WHITESPACE = " \t\r\n"
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
    """The event on one stripped, non-empty transcript line.

    Its entity and direction are interned: events share one string object
    per name rather than each keeping the decoder's copy (about 2 MiB on
    18 850 events), as they share the tag constants.
    """
    try:
        record, end = _scan_once(line, 0)
    except StopIteration as exc:
        raise json.JSONDecodeError("Expecting value", line, exc.value) from None
    if end != len(line):
        raise json.JSONDecodeError("Extra data", line, end)
    if type(record) is dict:
        try:
            round_ = record["round"]
            entity = record["entity"]
            direction = record["direction"]
            tag = _TAGS[record["tag"]]
            size_bytes = record["size_bytes"]
            meta = record["meta"]
        except (KeyError, TypeError):  # a field missing, or an unknown or unhashable tag
            pass
        else:
            if (
                type(round_) is int
                and type(size_bytes) is int
                and type(entity) is str
                and type(direction) is str
                and type(meta) is dict
            ):
                return ViewEvent(round_, intern(entity), intern(direction), tag, size_bytes, meta)
    raise ValueError(_shape_error(record))


# What the writer puts after a line's round digits and their comma.
_WRITER_TAIL = re.compile(r'"size_bytes":[0-9]+,"tag":"[A-Z_]+"}').fullmatch
# A round text that is one JSON number token and that int() reads as the
# decoder does: ASCII digits, no leading zero, fewer than 19 digits.
_CANONICAL_ROUND = re.compile(r"0|[1-9][0-9]{0,17}").fullmatch
# What ends a head after its last colon when the meta's last member is an
# integer ``value``: one JSON integer token that int() reads as the decoder
# does, of at most 19 digits (every 63-bit OPE value), and the meta's ``}``.
_VALUE_END = re.compile(r"(-?(?:0|[1-9][0-9]{0,18}))}").fullmatch


def iter_transcript(lines: Iterable[str]) -> Iterator[ViewEvent]:
    """The events of a JSONL transcript, in file order, one line at a time.

    Raises ``ValueError`` naming the first malformed line when it reaches
    that line, after yielding the events before it. Memory holds one line,
    its event and the shapes of two rounds (below), so a caller that keeps
    no events reads a file of any length in bounded memory; the lines must
    stay readable until the generator is done.

    Most lines repeat a line of the previous round but for the round
    digits, since the recorder shares round-invariant metas. Each stripped
    line is split at its last ``,"round":`` into a head, the round digits
    (up to the next comma) and the rest. The shape of a line, its rest,
    entity, direction, tag, size and meta, is kept under its head for the
    round whose digits it carries and the round after; a line of the next
    round with the same head and rest is built from that shape, with no
    decode, and its meta is the same object. So events loaded may share
    metas, and a caller must not write to a loaded meta, as to a recorded
    one.

    Most other lines differ from a line of the previous round only in
    their round and in the integer ``value`` that ends their meta: each
    user's reading and the gateway's decryption of it. A shape is also
    kept, in a second table, under its head up to the last colon, when the
    head ends with ``,"meta":`` and ``compact_json`` of the line's meta,
    and that meta's last member is an integer ``value``. A line of the next
    round whose head, cut at its last colon, finds such a shape, whose
    rest is the shape's and whose head ends, after that colon, in one
    integer token and ``}`` (``_VALUE_END``), is built from the shape with
    a copy of its meta whose ``value`` is that integer, with no decode.
    Its meta is its own dict, holding the decoded line's keys and strings.
    Every other line is decoded by ``_parse_event``.

    Why a hit decodes to the same record but for its round. A shape is
    kept only from a line that decoded, whose round digits are canonical
    (``_CANONICAL_ROUND``: one JSON number token) and whose rest is the
    writer's tail, ``"size_bytes":<digits>,"tag":"<A-Z_>"}``. In valid
    JSON, ``,"round":`` is a member key: a quote after a comma inside a
    string would end the string, and a bare ``round`` cannot follow. The
    digits are that member's whole value, as a comma follows them. The
    tail holds one ``}``, the line's last character, which closes the
    top-level object; so the object holding this ``round`` is the
    top-level one, and the tail holds no later ``round`` key that the
    decoder would read instead. A line with the same head and rest and
    other canonical digits differs in that one number token only.

    Why a value hit decodes to the same record but for its round and its
    meta's ``value``. By the argument above, ``,"meta":`` is a member key
    too, and the text after it, ``compact_json`` of the decoded meta, is
    one whole JSON value; the member that follows it is the top-level
    ``round``, so this ``meta`` is a member of the top-level object and the
    last one, the one the decoder reads. That text has no duplicate keys
    and ends in its last member, ``"value":``, the integer's digits (no
    colon among them) and ``}``. So the head's last colon is that
    member's, and what follows it up to the ``}`` is the integer token of
    the meta's ``value``, not of a field the reader ignores. A line with
    the same text up to that colon and the same rest, and other canonical
    round digits and integer token, differs in those two number tokens
    only; its meta is the kept one with ``value`` set, in the same place.
    """
    # head -> (rest, entity, direction, tag, size_bytes, meta) of the
    # previous and the current round: one shape per head, the last kept
    prev: dict[str, tuple] = {}
    cur: dict[str, tuple] = {}
    # head up to its last colon -> shape, for lines that end in a value
    prev_values: dict[str, tuple] = {}
    cur_values: dict[str, tuple] = {}
    tails: dict[str, bool] = {}  # this round's rests: each the writer's tail or not
    round_text: str | None = None
    round_: int | None = None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip(_JSON_WHITESPACE)
        if not line:
            continue
        head, _, after = line.rpartition(',"round":')
        digits, _, rest = after.partition(",")
        if digits != round_text:
            round_text = digits
            if _CANONICAL_ROUND(digits):
                round_ = int(digits)
                prev, cur, tails = cur, {}, {}
                prev_values, cur_values = cur_values, {}
            else:  # no shape is found or kept until the digits are canonical
                round_ = None
                prev = cur = prev_values = cur_values = {}
        shape = prev.get(head)
        if shape is not None:
            known, entity, direction, tag, size_bytes, meta = shape
            if known == rest:
                cur[head] = shape
                yield ViewEvent(round_, entity, direction, tag, size_bytes, meta)
                continue
        else:
            stem, _, end = head.rpartition(":")
            shape = prev_values.get(stem)
            if shape is not None and shape[0] == rest:
                value = _VALUE_END(end)
                if value is not None:
                    cur_values[stem] = shape
                    _, entity, direction, tag, size_bytes, meta = shape
                    yield ViewEvent(round_, entity, direction, tag, size_bytes, {**meta, "value": int(value[1])})
                    continue
        try:
            event = _parse_event(line)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"transcript line {lineno} is malformed: {exc}") from exc
        if round_ is not None:
            writers = tails.get(rest)
            if writers is None:
                writers = tails[rest] = _WRITER_TAIL(rest) is not None
            if writers:
                meta = event.meta
                shape = cur[head] = (rest, event.entity, event.direction, event.tag, event.size_bytes, meta)
                if (
                    type(meta.get("value")) is int
                    and next(reversed(meta)) == "value"
                    and head.endswith(',"meta":' + compact_json(meta))
                ):
                    cur_values[head.rpartition(":")[0]] = shape
        yield event


@contextmanager
def collection_paused() -> Iterator[None]:
    """Pause automatic garbage collection for a block that builds objects
    it keeps and no reference cycles; then hand them to the oldest generation.

    On entry, automatic collection is paused if it was on. On exit, by
    return or by raise, it is switched back on if it was on, and no
    collection runs. Before that, if it was on and no object is frozen,
    ``gc.freeze(); gc.unfreeze()`` moves every object the collector
    tracks into its oldest generation, in constant time, and zeroes the
    young generation's count. That is where the collector's own
    young-generation passes would have moved the kept objects, after
    scanning each of them twice and freeing nothing.

    Side effects, process-wide:

    * the caller's young objects, and any that other threads make inside
      the block, are promoted too, so cyclic garbage among them waits for
      the next full collection instead of a young one;
    * if the caller has frozen objects (``gc.get_freeze_count()`` is not
      0), the generations are left as they are, so the caller's frozen
      objects are never thawed;
    * if collection was off, the generations are left as they are too.
    """
    enabled = gc.isenabled()
    if enabled:
        gc.disable()
    try:
        yield
    finally:
        if enabled:
            if gc.get_freeze_count() == 0:
                gc.freeze()
                gc.unfreeze()
            gc.enable()


def load_transcript(lines: Iterable[str]) -> list[ViewEvent]:
    """The events of a JSONL transcript, in file order: ``iter_transcript`` read in full.

    Raises ``ValueError`` naming the first malformed line. The result is
    a list, read in full before returning, and stays so: callers such as
    ``perfbench/worker.py`` check it after closing the file. Events read
    from lines that repeat a line of the previous round but for the round
    share that line's meta object, and events read from lines that also
    differ in their meta's integer ``value`` hold a copy of it, sharing its
    keys and strings (see ``iter_transcript``): a caller must not write to
    a loaded meta. Beyond the list, memory holds one line and the line
    shapes of two rounds.

    The read runs under ``collection_paused``: automatic garbage
    collection is paused while the events are built, and on return or
    raise the events, with every other object the process tracks, are
    handed to the collector's oldest generation (see there for the side
    effects). Reading builds no reference cycles, so the young-generation
    passes it would start would only rescan the events and free nothing.
    """
    with collection_paused():
        return list(iter_transcript(lines))
