"""The event stream of one run, and everything counted from it.

Every observable event of a run is appended here, once, as a
``ViewEvent``: messages on each link (logged at both the sender and the
receiver), every crypto operation at its performer, every plaintext an
entity learns at a decryption boundary, and every protocol error at the
entity that detected it. The stream is what the leakage checker reads:
each event names the entity that could know it. The counts are kept in
``Recorder.tally`` as the events are appended: operation counts,
per-link traffic, bytes and logical ciphertexts per sensing round and
the protocol errors. Operation counts are kept per round until the
round is folded into run totals (``Tally.fold_ops``).

Transcript files are JSON lines: one event per line, the stream
stable-sorted by entity name, so each entity's events stay in the order
they happened. A line is the compact, sorted-key, ASCII-only JSON object

    {"direction":...,"entity":...,"meta":...,"round":...,"size_bytes":...,"tag":...}

that is, ``json.dumps(record, sort_keys=True, separators=(",", ":"))``
of the event, followed by a newline. That call defines the format. The
writer does not make it per event: it fills line templates cached per
key tuple of ``meta`` and leaves any value those do not fit to the JSON
encoder (``_TranscriptWriter``), and writes the same bytes. The reader
(``iter_transcript``, or ``load_transcript`` for a list) skips blank
lines and rejects, naming the line, any line that is not exactly one
JSON object with all six fields typed as the writer writes them:
``round`` and ``size_bytes`` integers (not booleans), ``entity`` and
``direction`` strings, ``meta`` an object and ``tag`` one of the
``ViewTag`` strings. Other fields are ignored.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter, itemgetter
from sys import intern
from typing import IO, Callable, Iterable, Iterator, Sequence

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
_DIRECTION = {OPE_ENC: "encrypt", AEAD_ENC: "encrypt", AEAD_DEC: "decrypt", COMPARE: "computed"}


class Recorder:
    """The ordered event stream of one run and its counts.

    It holds the events, the current round and phase, and the ``tally``.
    The driver sets the round and phase; entities report what they do
    through the entry points, each of which appends exactly one event
    and adds that event's contribution to the tally:

    * ``crypto_op`` and ``user_op`` each count one operation of their
      entity, round and phase;
    * ``message_delivered`` counts the message and its bytes on its
      link and, in the sensing phase, its bytes and one logical
      ciphertext in its round; a ``message_sent`` is counted nowhere,
      since lost messages are not traffic;
    * ``protocol_error`` adds its row to the protocol errors;
    * ``observe`` and ``vote`` count nothing.

    Three entry points give their events a meta shared by every event
    that carries it, built once per run and kept in a memo keyed by the
    fields that fix it (so it holds a few metas per user ever keyed):

    * ``user_op`` is ``crypto_op`` with ``{"user": user, "op": op}``, or
      ``{"op": op}`` for no user;
    * ``message_sent`` and ``message_delivered`` give a message the header
      ``{"phase": phase, "subject": subject, "link": "sender->receiver"}``
      (no ``subject`` when it is None), one per link, phase and subject;
    * ``vote`` observes a vote bit with ``{"kind": "vote", "user": user,
      "bit": bit}``.

    The other entry points take a fresh ``meta`` dict from the caller, or
    none: the recorder takes it over as the event's ``meta``, adding
    ``op`` or ``reason`` in place, so the caller must not reuse it. Once
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
        # the shared metas: (user, op), (sender, receiver, phase, subject)
        # and ("vote", user, bit) to the one dict each names
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

    def user_op(self, entity: str, op: str, tag: str, size_bytes: int, user: int | None) -> None:
        """``crypto_op`` with the shared meta of ``user`` and ``op``."""
        try:
            meta = self._shared[user, op]
        except KeyError:
            meta = self._shared[user, op] = {"op": op} if user is None else {"user": user, "op": op}
        round_ = self.round
        self.events.append(ViewEvent(round_, entity, _DIRECTION[op], tag, size_bytes, meta))
        ops = self.tally.ops
        key = (round_, entity, self.phase, op)
        ops[key] = ops.get(key, 0) + 1

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
        try:
            meta = self._shared[sender, receiver, phase, subject]
        except KeyError:
            meta = self._header(sender, receiver, phase, subject)
        self.events.append(ViewEvent(self.round, sender, "sent", ViewTag.OPAQUE_CIPHERTEXT, size_bytes, meta))

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
        if meta is None:
            meta = {}
        self.events.append(ViewEvent(self.round, entity, direction, tag, 0, meta))

    def vote(self, entity: str, direction: str, user: int, bit: int) -> None:
        """``observe`` the vote ``bit`` of ``user``, with its shared meta."""
        try:
            meta = self._shared["vote", user, bit]
        except KeyError:
            meta = self._shared["vote", user, bit] = {"kind": "vote", "user": user, "bit": bit}
        self.events.append(ViewEvent(self.round, entity, direction, ViewTag.PLAINTEXT_BIT, 0, meta))

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
        writer = _TranscriptWriter()
        events = sorted(self.events, key=attrgetter("entity"))  # stable: each entity's in order
        for start in range(0, len(events), _CHUNK_EVENTS):
            fh.write(writer.lines(events[start:start + _CHUNK_EVENTS]))
        return len(events)


# -- transcript codec ---------------------------------------------------------

# One line, keys in sorted order: what json.dumps(record, sort_keys=True,
# separators=(",", ":")) writes for an event with int round and size_bytes.
_LINE = '{"direction":%s,"entity":%s,"meta":%s,"round":%d,"size_bytes":%d,"tag":%s}\n'
# The same line with the meta object's fields written in between, and every
# value a %s to fill with its JSON text.
_LINE_HEAD = '{"direction":%s,"entity":%s,"meta":{'
_LINE_TAIL = '},"round":%s,"size_bytes":%s,"tag":%s}\n'
# Events written per write, and per % when they fit the templates; bounds
# the writer's buffers, not the transcript.
_CHUNK_EVENTS = 1024
# Bound on the writer's cache of value texts.
_VALUE_TEXTS = 1024
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


class _JsonValues(dict):
    """JSON text of each exact ``int`` or ``str`` looked up, made once per value.

    Look up nothing else: an int key also matches an equal bool or float,
    whose JSON text differs. Most ints (OPE ciphertexts, readings) appear
    once, so the texts are dropped whenever ``_VALUE_TEXTS`` are held.
    """

    def __missing__(self, value: int | str) -> str:
        if len(self) >= _VALUE_TEXTS:
            self.clear()
        text = self[value] = int.__repr__(value) if type(value) is int else json.dumps(value)
        return text


try:
    from operator import call as _call
except ImportError:  # Python 3.10

    def _call(function, arg):
        return function(arg)


_META = attrgetter("meta")
_HEAD = attrgetter("direction", "entity")
_TAIL = attrgetter("round", "size_bytes", "tag")
_DICT = frozenset({dict})
_PLAIN = frozenset({int, str})
# What a template's getter returns for a meta it does not fit: no line
# takes a None, so the events holding it go to the encoder.
_MISFIT = (None,)


def _line_template(meta: dict) -> tuple[str, Callable[[dict], Sequence]] | None:
    """The template for lines whose ``meta`` has this one's keys in this order.

    That is the line with the keys written in sorted order and a ``%s``
    for each value, where a list in ``meta`` stands for a list of its
    length with a ``%s`` per item, and a getter of the values (list items
    spliced in) in that order. None when a key is not an exact ``str``.
    """
    if not all(type(key) is str for key in meta):
        return None
    order = sorted(meta)
    lengths = [len(meta[key]) if type(meta[key]) is list else None for key in order]
    fields = ",".join(
        json.dumps(key).replace("%", "%%") + ":" + ("%s" if n is None else "[%s]" % ",".join(["%s"] * n))
        for key, n in zip(order, lengths)
    )
    line = _LINE_HEAD + fields + _LINE_TAIL
    # itemgetter returns a bare value for one key: wrap fewer than two
    get = itemgetter(*order) if len(order) > 1 else lambda d: tuple(map(d.__getitem__, order))
    if all(n is None for n in lengths):
        return line, get

    def spliced(meta: dict) -> Sequence:
        values: list = []
        for value, n in zip(get(meta), lengths):
            if n is None:
                values.append(value)
            elif type(value) is list and len(value) == n:
                values += value
            else:
                return _MISFIT
        return values

    return line, spliced


class _TranscriptWriter:
    """The lines of one dump, most of them filled from cached templates.

    Each key tuple of a ``meta`` dict, in insertion order, gets one line
    template (``_line_template``) from the first dict that has it. A run of
    events is written by one ``%`` of their templates joined, when every
    ``meta`` is an exact ``dict``, every value to write (the event's fields
    and its meta values) is an exact ``int`` or ``str``, and every list has
    its template's length. Otherwise the run is split in halves, and an
    event that still does not fit is written with ``_META_ENCODER``: its
    ``meta`` is not an exact ``dict``, has a key that is not an exact
    ``str``, or holds a bool, float, None, dict, subclass or nested list.
    Either way each line is what ``_LINE`` gives.
    """

    def __init__(self) -> None:
        self.value_text = _JsonValues().__getitem__
        self.templates: dict[tuple, tuple | None] = {}

    def lines(self, events: list[ViewEvent]) -> str:
        """The lines of ``events``, in order, joined."""
        text = self._from_templates(events)
        if text is not None:
            return text
        if len(events) > 1:
            half = len(events) // 2
            return self.lines(events[:half]) + self.lines(events[half:])
        (e,) = events
        encode = _META_ENCODER.encode
        return _LINE % (encode(e.direction), encode(e.entity), encode(e.meta), e.round, e.size_bytes, encode(e.tag))

    def _from_templates(self, events: list[ViewEvent]) -> str | None:
        """The lines of ``events`` filled from templates, or None when one does not fit."""
        metas = list(map(_META, events))
        if not _DICT.issuperset(map(type, metas)):
            return None
        shapes = list(map(tuple, metas))
        templates = self.templates
        found = list(map(templates.get, shapes))
        if None in found:
            for shape, meta in zip(shapes, metas):
                if shape not in templates:
                    templates[shape] = _line_template(meta)
            found = list(map(templates.get, shapes))
            if None in found:
                return None
        lines, getters = zip(*found)
        # every line's values in its template's order: direction, entity,
        # the meta values, round, size_bytes and tag
        values = list(chain.from_iterable(chain.from_iterable(
            zip(map(_HEAD, events), map(_call, getters, metas), map(_TAIL, events))
        )))
        if not _PLAIN.issuperset(map(type, values)):
            return None
        return "".join(lines) % tuple(map(self.value_text, values))


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


def iter_transcript(lines: Iterable[str]) -> Iterator[ViewEvent]:
    """The events of a JSONL transcript, in file order, one line at a time.

    Raises ``ValueError`` naming the first malformed line when it reaches
    that line, after yielding the events before it. Memory holds one line
    and its event, so a caller that keeps no events reads a file of any
    length in bounded memory; the lines must stay readable until the
    generator is done.
    """
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = _parse_event(line)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"transcript line {lineno} is malformed: {exc}") from exc
        yield event


def load_transcript(lines: Iterable[str]) -> list[ViewEvent]:
    """The events of a JSONL transcript, in file order: ``iter_transcript`` read in full.

    Raises ``ValueError`` naming the first malformed line. The result is
    a list, read in full before returning, and stays so: callers such as
    ``perfbench/worker.py`` check it after closing the file.
    """
    return list(iter_transcript(lines))
