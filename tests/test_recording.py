"""The event stream: its tally, the transcript codec and pinned output hashes."""

import contextlib
import copy
import dataclasses
import enum
import gc
import hashlib
import io
import json

from conftest import collection, flip_tag_bit, young_count
import pytest
from hypothesis import given, settings, strategies as st

from lp3pss import entities as entities_module
from lp3pss import sim as sim_module
from lp3pss.entities import MsgPhase
from lp3pss.observability import check_leakage
from lp3pss.recording import (
    AEAD_DEC,
    AEAD_ENC,
    COMPARE,
    FC_NAME,
    GW_NAME,
    OPE_ENC,
    PHASE_INIT,
    PHASE_MEMBERSHIP,
    PHASE_SENSING,
    Recorder,
    Tally,
    ViewTag,
    _parse_event,
    compact_json,
    iter_transcript,
    load_transcript,
    user_name,
)
from lp3pss.scenario import (
    ALWAYS_FLIP,
    RANDOM_FLIP,
    STUCK_AT,
    AdversaryProfile,
    Behavior,
    ChurnConfig,
    CountRange,
)
from lp3pss.sim import SensingConfig, SimulationConfig, run_simulation


OPAQUE = ViewTag.OPAQUE_CIPHERTEXT


def fold_event(tally: Tally, phase: str, e) -> None:
    """The reference fold: add one event, appended in ``phase``, to ``tally``.

    Operation counts come from events whose ``meta`` has ``"op"``; traffic
    from ``"received"`` events; protocol errors from ``"error"`` events.
    """
    op = e.meta.get("op")
    if op is not None:
        tally.ops[e.round, e.entity, phase, op] += 1
    if e.direction == "received":
        link = e.meta["link"]
        tally.messages[link] += 1
        tally.link_bytes[link] += e.size_bytes
        if phase == PHASE_SENSING:
            tally.sensing_bytes[e.round] += e.size_bytes
            tally.logical[e.round] += 1
    elif e.direction == "error":
        tally.protocol_errors.append({"round": e.round, "entity": e.entity, **e.meta})


class PhasedRecorder(Recorder):
    """A recorder that also notes the index of the event each phase began at."""

    def __init__(self) -> None:
        super().__init__()
        self.phase_starts = [(0, PHASE_INIT)]

    def set_phase(self, phase: str) -> None:
        super().set_phase(phase)
        self.phase_starts.append((len(self.events), phase))

    def reference_tally(self) -> Tally:
        """The reference fold of the whole retained stream."""
        tally = Tally()
        ends = [start for start, _ in self.phase_starts[1:]] + [len(self.events)]
        for (start, phase), end in zip(self.phase_starts, ends):
            for e in self.events[start:end]:
                fold_event(tally, phase, e)
        return tally


def test_each_entry_point_appends_one_event_and_nothing_else():
    # nothing else: the tally grows by that event's share and no other state moves
    recorder = Recorder()
    recorder.start_round(3)
    calls = [
        lambda: recorder.crypto_op(FC_NAME, AEAD_ENC, OPAQUE, 40),
        lambda: recorder.crypto_op(GW_NAME, AEAD_DEC, ViewTag.OPE_ORDER_PAIR, 40, {"user": 1}),
        lambda: recorder.crypto_op(GW_NAME, COMPARE, ViewTag.OPE_ORDER_PAIR, meta={"user": 1}),
        lambda: recorder.crypto_op(user_name(1), OPE_ENC, OPAQUE),
        lambda: recorder.user_op(user_name(1), OPE_ENC, OPAQUE, 0, 1),
        lambda: recorder.user_op(GW_NAME, AEAD_ENC, OPAQUE, 34, None),
        lambda: recorder.message_sent(FC_NAME, GW_NAME, 40, MsgPhase.INIT_C, 1),
        lambda: recorder.message_sent(GW_NAME, FC_NAME, 34, MsgPhase.DECISION_VEC),
        lambda: recorder.message_delivered(FC_NAME, GW_NAME, 40, MsgPhase.INIT_C, 1),
        lambda: recorder.message_delivered(GW_NAME, FC_NAME, 34, MsgPhase.DECISION_VEC),
        lambda: recorder.observe(GW_NAME, ViewTag.PLAINTEXT_BIT),
        lambda: recorder.observe(FC_NAME, ViewTag.PLAINTEXT_BIT, "observed", {"bit": 1}),
        lambda: recorder.vote(GW_NAME, "computed", 1, 1),
        lambda: recorder.vote(FC_NAME, "observed", 1, 1),
        lambda: recorder.protocol_error(FC_NAME, "decision vector failed authentication"),
        lambda: recorder.protocol_error(GW_NAME, "duplicate report", {"user": 1}),
    ]
    count = 0
    for phase in (PHASE_MEMBERSHIP, PHASE_SENSING):
        recorder.set_phase(phase)
        for call in calls:
            shared = dict(recorder._shared)
            before = copy.deepcopy(recorder.__dict__)
            call()
            count += 1
            assert len(recorder.events) == count
            assert recorder.events[:-1] == before.pop("events")
            expected = before.pop("tally")
            fold_event(expected, phase, recorder.events[-1])
            assert recorder.tally == expected
            # the memo of shared metas only grows, each entry kept as it was
            before.pop("_shared")
            assert all(recorder._shared[key] is meta for key, meta in shared.items())
            assert {k: v for k, v in recorder.__dict__.items() if k not in ("events", "tally", "_shared")} == before
    assert [e.direction for e in recorder.events[:4]] == ["encrypt", "decrypt", "computed", "encrypt"]


def test_entry_points_take_over_the_meta_dict_they_are_given():
    recorder = Recorder()
    calls = [
        (lambda meta: recorder.crypto_op(FC_NAME, AEAD_ENC, OPAQUE, 40, meta), {"op": AEAD_ENC}),
        (lambda meta: recorder.observe(GW_NAME, ViewTag.PLAINTEXT_BIT, "computed", meta), {}),
        (lambda meta: recorder.protocol_error(GW_NAME, "duplicate report", meta), {"reason": "duplicate report"}),
    ]
    for call, added in calls:
        meta = {"user": 1}
        call(meta)
        assert recorder.events[-1].meta is meta
        assert meta == {"user": 1, **added}
    # the protocol-error row is a dict of its own
    assert recorder.tally.protocol_errors[-1] is not recorder.events[-1].meta


def test_shared_entry_points_give_each_key_one_meta():
    recorder = Recorder()
    report_header = {"phase": MsgPhase.REPORT, "subject": 1, "link": "U1->GW"}
    vector_header = {"phase": MsgPhase.DECISION_VEC, "link": "GW->FC"}
    vote = {"kind": "vote", "user": 1, "bit": 0}
    expected = [
        {"user": 1, "op": OPE_ENC},
        {"user": 1, "op": OPE_ENC},  # the FC's encryption for U1 has U1's meta
        {"op": AEAD_ENC},
        report_header,
        report_header,
        vector_header,
        vector_header,
        vote,
        vote,
        {"kind": "vote", "user": 1, "bit": 1},
    ]
    for round_ in (1, 2):
        recorder.start_round(round_)
        recorder.user_op(user_name(1), OPE_ENC, OPAQUE, 0, 1)
        recorder.user_op(FC_NAME, OPE_ENC, OPAQUE, 0, 1)
        recorder.user_op(GW_NAME, AEAD_ENC, OPAQUE, 34, None)
        recorder.message_sent(user_name(1), GW_NAME, 44, MsgPhase.REPORT, 1)
        recorder.message_delivered(user_name(1), GW_NAME, 44, MsgPhase.REPORT, 1)
        recorder.message_sent(GW_NAME, FC_NAME, 34, MsgPhase.DECISION_VEC)
        recorder.message_delivered(GW_NAME, FC_NAME, 34, MsgPhase.DECISION_VEC)
        recorder.vote(GW_NAME, "computed", 1, 0)
        recorder.vote(FC_NAME, "observed", 1, 0)
        recorder.vote(GW_NAME, "computed", 1, 1)
    first, second = recorder.events[:10], recorder.events[10:]
    assert [e.meta for e in first] == expected
    assert all(a.meta is b.meta for a, b in zip(first, second))
    # one object per key: equal metas are the same dict, others are not
    ids = [id(e.meta) for e in first]
    assert ids[0] == ids[1] and ids[3] == ids[4] and ids[5] == ids[6] and ids[7] == ids[8]
    assert len(set(ids)) == 6
    assert recorder.tally.link_totals() == {
        "GW->FC": {"messages": 2, "bytes": 68},
        "U1->GW": {"messages": 2, "bytes": 88},
    }


def drive_by_hand() -> PhasedRecorder:
    """Init, a membership change and a sensing round with faults at GW and FC."""
    recorder = PhasedRecorder()
    recorder.start_round(0)
    recorder.crypto_op(FC_NAME, OPE_ENC, OPAQUE, meta={"user": 1})
    recorder.crypto_op(FC_NAME, AEAD_ENC, OPAQUE, 40, {"user": 1})
    recorder.message_sent(FC_NAME, GW_NAME, 40, MsgPhase.INIT_C, 1)
    recorder.message_delivered(FC_NAME, GW_NAME, 40, MsgPhase.INIT_C, 1)
    recorder.crypto_op(GW_NAME, AEAD_DEC, ViewTag.OPE_ORDER_PAIR, 40)

    recorder.start_round(1)
    recorder.set_phase(PHASE_MEMBERSHIP)  # U2 joins
    recorder.crypto_op(FC_NAME, OPE_ENC, OPAQUE, meta={"user": 2})
    recorder.crypto_op(FC_NAME, AEAD_ENC, OPAQUE, 40, {"user": 2})
    recorder.message_sent(FC_NAME, GW_NAME, 40, MsgPhase.INIT_C, 2)
    recorder.message_delivered(FC_NAME, GW_NAME, 40, MsgPhase.INIT_C, 2)
    recorder.crypto_op(GW_NAME, AEAD_DEC, ViewTag.OPE_ORDER_PAIR, 40)

    recorder.set_phase(PHASE_SENSING)
    for uid in (1, 2):
        recorder.crypto_op(user_name(uid), OPE_ENC, OPAQUE)
        recorder.crypto_op(user_name(uid), AEAD_ENC, OPAQUE, 44)
        recorder.message_sent(user_name(uid), GW_NAME, 44, MsgPhase.REPORT, uid)
        recorder.message_delivered(user_name(uid), GW_NAME, 44, MsgPhase.REPORT, uid)
    recorder.crypto_op(GW_NAME, AEAD_DEC, ViewTag.OPE_ORDER_PAIR, 44, {"user": 1})
    recorder.crypto_op(GW_NAME, COMPARE, ViewTag.OPE_ORDER_PAIR, meta={"user": 1})
    recorder.crypto_op(GW_NAME, AEAD_DEC, OPAQUE, 44, {"user": 2})  # fails authentication
    recorder.protocol_error(GW_NAME, "report failed authentication", {"user": 2})
    recorder.crypto_op(GW_NAME, AEAD_ENC, OPAQUE, 34)
    recorder.message_sent(GW_NAME, FC_NAME, 34, MsgPhase.DECISION_VEC)
    recorder.message_delivered(GW_NAME, FC_NAME, 34, MsgPhase.DECISION_VEC)
    recorder.crypto_op(FC_NAME, AEAD_DEC, OPAQUE, 34)  # fails authentication
    recorder.protocol_error(FC_NAME, "decision vector failed authentication")

    recorder.start_round(2)  # still sensing; one report lost, one from a stranger
    recorder.message_sent(user_name(1), GW_NAME, 44, MsgPhase.REPORT, 1)
    recorder.protocol_error(GW_NAME, "report from unknown user", {"user": 9})
    return recorder


def test_fold_splits_op_counts_by_round_entity_and_phase():
    recorder = drive_by_hand()
    tally = recorder.tally
    assert tally == recorder.reference_tally()
    assert dict(tally.ops) == {
        (0, FC_NAME, PHASE_INIT, OPE_ENC): 1,
        (0, FC_NAME, PHASE_INIT, AEAD_ENC): 1,
        (0, GW_NAME, PHASE_INIT, AEAD_DEC): 1,
        (1, FC_NAME, PHASE_MEMBERSHIP, OPE_ENC): 1,
        (1, FC_NAME, PHASE_MEMBERSHIP, AEAD_ENC): 1,
        (1, GW_NAME, PHASE_MEMBERSHIP, AEAD_DEC): 1,
        (1, "U1", PHASE_SENSING, OPE_ENC): 1,
        (1, "U1", PHASE_SENSING, AEAD_ENC): 1,
        (1, "U2", PHASE_SENSING, OPE_ENC): 1,
        (1, "U2", PHASE_SENSING, AEAD_ENC): 1,
        (1, GW_NAME, PHASE_SENSING, AEAD_DEC): 2,  # the failed decryption counts
        (1, GW_NAME, PHASE_SENSING, COMPARE): 1,
        (1, GW_NAME, PHASE_SENSING, AEAD_ENC): 1,
        (1, FC_NAME, PHASE_SENSING, AEAD_DEC): 1,
    }
    assert tally.op_totals()[FC_NAME] == {
        PHASE_INIT: {AEAD_ENC: 1, OPE_ENC: 1},
        PHASE_MEMBERSHIP: {AEAD_ENC: 1, OPE_ENC: 1},
        PHASE_SENSING: {AEAD_DEC: 1},
    }


def test_fold_counts_delivered_traffic_only():
    tally = drive_by_hand().tally
    assert tally.link_totals() == {
        "FC->GW": {"messages": 2, "bytes": 80},
        "GW->FC": {"messages": 1, "bytes": 34},
        "U1->GW": {"messages": 1, "bytes": 44},
        "U2->GW": {"messages": 1, "bytes": 44},
    }
    assert dict(tally.sensing_bytes) == {1: 44 + 44 + 34}
    assert tally.logical_per_round() == {1: 3}


def test_fold_lists_protocol_errors_in_event_order():
    assert drive_by_hand().tally.protocol_errors == [
        {"round": 1, "entity": GW_NAME, "reason": "report failed authentication", "user": 2},
        {"round": 1, "entity": FC_NAME, "reason": "decision vector failed authentication"},
        {"round": 2, "entity": GW_NAME, "reason": "report from unknown user", "user": 9},
    ]


def reference_transcript(recorder: Recorder) -> list[str]:
    """The format's definition: json.dumps of each event's record, in stream order."""
    lines = []
    for e in recorder.events:
        record = {
            "round": e.round,
            "entity": e.entity,
            "direction": e.direction,
            "tag": e.tag,
            "size_bytes": e.size_bytes,
            "meta": e.meta,
        }
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    return lines


def dump(recorder: Recorder) -> str:
    fh = io.StringIO()
    count = recorder.dump_transcript(fh)
    text = fh.getvalue()
    assert count == text.count("\n")
    return text


def assert_codec_conforms(recorder: Recorder) -> None:
    text = dump(recorder)
    assert text.splitlines(keepends=True) == reference_transcript(recorder)
    assert load_transcript(io.StringIO(text)) == recorder.events


def eventful_config() -> SimulationConfig:
    """Churn, all three adversary kinds and lost reports in a few rounds."""
    return SimulationConfig(
        SensingConfig(n=9, rounds=6, seed=11, report_loss_prob=0.1),
        churn=ChurnConfig(mu=0.8, join_count=CountRange(1, 2), leave_count=CountRange(0, 1)),
        adversary=AdversaryProfile(
            {
                1: Behavior(STUCK_AT, stuck_bit=1),
                2: Behavior(ALWAYS_FLIP),
                3: Behavior(RANDOM_FLIP, flip_prob=0.5),
            }
        ),
    )


def test_dump_matches_reference_encoding_and_reloads_equal(monkeypatch):
    honest_report = sim_module.su_sense_report

    def tampered_report(su, rss_q, recorder):
        msg = honest_report(su, rss_q, recorder)
        if su.uid == 4 and recorder.round == 3:
            msg = dataclasses.replace(msg, body=flip_tag_bit(msg.body))
        return msg

    monkeypatch.setattr(sim_module, "su_sense_report", tampered_report)
    result = run_simulation(eventful_config())
    recorder = result.recorder
    # the run exercises what it is meant to: a protocol error with its failed
    # decryption, lost reports, membership changes and misbehaving users
    tally = result.recorder.tally
    assert [(e["round"], e["reason"]) for e in tally.protocol_errors] == [
        (3, "report failed authentication")
    ]
    failed_decrypt = (3, "decrypt", ViewTag.OPAQUE_CIPHERTEXT, {"op": AEAD_DEC, "user": 4})
    assert any((e.round, e.direction, e.tag, e.meta) == failed_decrypt for e in recorder.view_logs["GW"])
    assert any(len(r.delivered) < len(r.roster) for r in result.rounds)
    assert any(phase == PHASE_MEMBERSHIP for phase in tally.op_totals()["FC"])
    assert {1, 2, 3} <= set(result.rounds[0].roster)
    assert_codec_conforms(recorder)


class CopyingRecorder(Recorder):
    """A recorder that also keeps a deep copy of each meta as it is recorded."""

    def __init__(self) -> None:
        super().__init__()
        self.events = CopyingList()


class CopyingList(list):
    def __init__(self) -> None:
        super().__init__()
        self.copies: list[dict] = []

    def append(self, event) -> None:
        super().append(event)
        self.copies.append(copy.deepcopy(event.meta))


def test_round_invariant_metas_are_shared_and_never_written(monkeypatch):
    # churn, lost reports, all three adversary kinds and one tampered report
    honest_report = sim_module.su_sense_report

    def tampered_report(su, rss_q, recorder):
        msg = honest_report(su, rss_q, recorder)
        if su.uid == 4 and recorder.round == 3:
            msg = dataclasses.replace(msg, body=flip_tag_bit(msg.body))
        return msg

    monkeypatch.setattr(sim_module, "su_sense_report", tampered_report)
    monkeypatch.setattr(sim_module, "Recorder", CopyingRecorder)
    result = run_simulation(eventful_config())
    events = result.recorder.events
    assert [e["reason"] for e in result.recorder.tally.protocol_errors] == ["report failed authentication"]
    assert any(r.joins or r.leaves for r in result.rounds)
    assert any(len(r.delivered) < len(r.roster) for r in result.rounds)

    def objects_per_key(key_of) -> dict:
        groups: dict = {}
        for e in events:
            key = key_of(e)
            if key is not None:
                groups.setdefault(key, set()).add(id(e.meta))
        return groups

    headers = objects_per_key(
        lambda e: (e.meta["link"], e.meta["phase"], e.meta.get("subject"))
        if e.direction in ("sent", "received") else None
    )
    # each user's encryptions, the FC's for it at keying included
    user_ops = objects_per_key(lambda e: (e.meta.get("user"), e.meta["op"]) if e.direction == "encrypt" else None)
    votes = objects_per_key(
        lambda e: (e.entity, e.meta["user"], e.meta["bit"]) if e.meta.get("kind") == "vote" else None
    )
    for groups in (headers, user_ops, votes):
        assert groups and all(len(ids) == 1 for ids in groups.values())
    assert len(headers) > len(result.rounds) and len(votes) > len(result.rounds)
    assert any(len([e for e in events if id(e.meta) in ids]) > 2 for ids in user_ops.values())
    # the refused report's metas, and every other meta, are fresh
    shared_ids = set().union(*headers.values(), *user_ops.values(), *votes.values())
    fresh = [e for e in events if id(e.meta) not in shared_ids]
    assert len({id(e.meta) for e in fresh}) == len(fresh)
    assert [e.meta for e in fresh if e.direction == "error"] == [{"user": 4, "reason": "report failed authentication"}]
    assert {"op": AEAD_DEC, "user": 4} in [e.meta for e in fresh if e.tag == OPAQUE]
    # and no meta was written after it was recorded
    assert len(events.copies) == len(events)
    assert all(kept == e.meta for kept, e in zip(events.copies, events))


def test_online_tally_equals_reference_fold_of_the_stream(monkeypatch, round_ops):
    # churn, lost reports, all three adversary kinds, one tampered report
    # and one tampered join message, counted as they happen and folded after
    honest_report = sim_module.su_sense_report
    honest_ingest = entities_module.gw_ingest_init
    tampered_joins = []

    def tampered_report(su, rss_q, recorder):
        msg = honest_report(su, rss_q, recorder)
        if su.uid == 4 and recorder.round == 3:
            msg = dataclasses.replace(msg, body=flip_tag_bit(msg.body))
        return msg

    def tampered_ingest(gw, messages, recorder):
        if recorder.phase == PHASE_MEMBERSHIP and not tampered_joins:
            tampered_joins.append(recorder.round)
            messages = [dataclasses.replace(m, body=flip_tag_bit(m.body)) for m in messages]
        honest_ingest(gw, messages, recorder)

    monkeypatch.setattr(sim_module, "su_sense_report", tampered_report)
    monkeypatch.setattr(entities_module, "gw_ingest_init", tampered_ingest)
    monkeypatch.setattr(sim_module, "Recorder", PhasedRecorder)
    result = run_simulation(eventful_config())
    recorder = result.recorder
    reasons = {e["reason"] for e in recorder.tally.protocol_errors}
    assert {"report failed authentication", "init message failed authentication"} <= reasons
    assert tampered_joins and any(len(r.delivered) < len(r.roster) for r in result.rounds)
    reference = recorder.reference_tally()
    # each round's counts as the round ended, before the driver folded them
    assert round_ops == [reference.ops]
    reference.fold_ops()
    assert recorder.tally == reference


# Strings JSON must escape: quotes, backslashes, control characters, non-ASCII.
awkward_text = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x85\u2028\ufeff'),
        st.characters(min_codepoint=0x20, max_codepoint=0x7E),
        st.characters(min_codepoint=0x80),
    ),
    max_size=12,
)
meta_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | awkward_text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(awkward_text, inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=60, deadline=None)
@given(
    events=st.lists(
        st.tuples(
            awkward_text,
            awkward_text,
            st.sampled_from([
                ViewTag.OPAQUE_CIPHERTEXT,
                ViewTag.OPE_ORDER_PAIR,
                ViewTag.PLAINTEXT_BIT,
                ViewTag.PLAINTEXT_VALUE,
                ViewTag.KEY_MATERIAL,
            ]),
            st.integers(min_value=-(2**70), max_value=2**70),
            st.integers(min_value=0, max_value=2**40),
            st.dictionaries(awkward_text, meta_values, max_size=4),
        ),
        max_size=8,
    )
)
def test_awkward_strings_round_trip(events):
    recorder = Recorder()
    for entity, direction, tag, round_, size_bytes, meta in events:
        recorder.start_round(round_)
        recorder.observe(entity, tag, direction, meta)
        recorder.events[-1].size_bytes = size_bytes
    assert_codec_conforms(recorder)


class Level(enum.IntEnum):
    HIGH = 7


# Values the writer must write as json.dumps would: every type json.dumps
# accepts in a meta, and strings that mean something to % or to JSON.
ODD_VALUES = [
    True,
    False,
    Level.HIGH,
    7.0,
    -0.0,
    1.5,
    float("nan"),
    float("inf"),
    float("-inf"),
    None,
    [],
    [1],
    [1, 2, 3],
    [True, 2],
    [1.0, 2],
    ["a", 2],
    [[1], 2],
    {"b": 1, "a": [2, None]},
    "100%",
    "%(x)s",
    "%s%d",
    'say "hi"\\',
    "caf\u00e9 \u2713 \U0001f600",
    "7",
    2**70,
    -3,
]


def test_dump_writes_what_json_dumps_writes_whatever_the_value_types():
    # every event shares its key tuple with plain ones written before and
    # after it, and each odd value reaches fresh metas and, when hashable,
    # shared ones, each shared meta next to a fresh one equal to it
    recorder = Recorder()
    pairs = []  # (shared meta, fresh meta equal to it)

    def beside_shared() -> None:
        """Observe a fresh copy of the last event's shared meta next to it."""
        shared = recorder.events[-1]
        recorder.observe(shared.entity, shared.tag, shared.direction, dict(shared.meta))
        pairs.append((shared.meta, recorder.events[-1].meta))

    for value in ODD_VALUES:
        for meta in (
            {"user": 7, "op": OPE_ENC},
            {"user": value, "op": OPE_ENC},
            {"user": 0, "op": value},
            {"user": 1, "pair": [4, 5], "op": COMPARE},
            {"user": 1, "pair": value, "op": COMPARE},
            {"kind": "rss", "user": 2, "value": value},
            {"kind": value, "user": 2, "value": 9},
        ):
            recorder.observe(GW_NAME, OPAQUE, "computed", meta)
        if type(value) in (list, dict):
            continue  # the fields of a shared meta key its memo, so they are hashable
        # None is no user and no subject
        recorder.user_op(GW_NAME, OPE_ENC, OPAQUE, 0, value)
        beside_shared()
        recorder.vote(GW_NAME, "received", value, value)
        beside_shared()
        recorder.message_sent(GW_NAME, FC_NAME, 34, MsgPhase.REPORT, value)
        beside_shared()
        recorder.message_delivered(user_name(3), GW_NAME, 34, MsgPhase.REPORT, value)
        beside_shared()
    shared_ids = {id(meta) for meta in recorder._shared.values()}
    assert all(
        id(shared) in shared_ids and id(fresh) not in shared_ids and shared == fresh
        for shared, fresh in pairs
    )
    assert len(pairs) == 4 * len([v for v in ODD_VALUES if type(v) not in (list, dict)])
    # keys that mean something to %
    for meta in ({"100%": 1, "%(x)s": "%s"}, {"%d": 2, "%": "%%"}):
        recorder.observe(GW_NAME, OPAQUE, "computed", meta)
    # a long run, with odd values deep inside a stretch of plain ones
    for i in range(3000):
        meta = {"user": i, "op": "%" if i % 2 else "op"}
        if i in (1500, 2047, 2048):
            meta["user"] = float(i)
        recorder.observe(user_name(1), OPAQUE, "computed", meta)
    assert dump(recorder).splitlines(keepends=True) == reference_transcript(recorder)


@pytest.mark.parametrize("key", [1, True, None, 2.5], ids=["int", "bool", "none", "float"])
def test_dump_writes_keys_that_are_not_strings_as_json_dumps_does(key):
    recorder = Recorder()
    for meta in ({"user": 1}, {key: 1}, {key: "a"}, {"user": 2}):
        recorder.observe(FC_NAME, OPAQUE, "computed", meta)
    assert dump(recorder).splitlines(keepends=True) == reference_transcript(recorder)


def test_keys_mixing_strings_and_ints_raise_the_encoders_type_error():
    recorder = Recorder()
    recorder.observe(FC_NAME, OPAQUE, "computed", {"user": 1, "op": OPE_ENC})
    recorder.observe(FC_NAME, OPAQUE, "computed", {"user": 1, 2: OPE_ENC})
    with pytest.raises(TypeError) as expected:
        reference_transcript(recorder)
    with pytest.raises(TypeError) as raised:
        dump(recorder)
    assert str(raised.value) == str(expected.value)


def test_loaded_events_outlive_the_file(tmp_path):
    # readers check the events after closing the transcript, as the benchmark
    # does: a lazy reader would fail there on the closed file
    result = run_simulation(eventful_config())
    path = tmp_path / "run.jsonl"
    with open(path, "w") as fh:
        result.recorder.dump_transcript(fh)
    with open(path) as fh:
        events = load_transcript(fh)
    assert type(events) is list
    assert check_leakage(events).verdicts == result.leakage.verdicts
    assert events == result.recorder.events


def test_loaded_events_share_one_string_per_name():
    result = run_simulation(eventful_config())
    events = load_transcript(io.StringIO(dump(result.recorder)))
    for field in ("entity", "direction", "tag"):
        names = [getattr(e, field) for e in events]
        assert len({id(name) for name in names}) == len(set(names)), field


def test_lines_ending_in_crlf_load():
    result = run_simulation(eventful_config())
    lines = [line[:-1] + "\r\n" for line in dump(result.recorder).splitlines(keepends=True)]
    assert load_transcript([*lines, "\r\n", " \t\r\n"]) == result.recorder.events


def strict_read(lines: list[str]) -> tuple[list, str | None]:
    """The oracle: ``_parse_event`` of each stripped, non-empty line, and the
    reader's error text for the first line it rejects."""
    events = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip(" \t\r\n")
        if not line:
            continue
        try:
            events.append(_parse_event(line))
        except (ValueError, RecursionError) as exc:
            return events, f"transcript line {lineno} is malformed: {exc}"
    return events, None


def read(lines: list[str]) -> tuple[list, str | None]:
    events = []
    try:
        for event in iter_transcript(lines):
            events.append(event)
    except ValueError as exc:
        return events, str(exc)
    return events, None


def with_round(line: str, text: str) -> str:
    """The line with the digits after its last ``,"round":`` replaced by ``text``."""
    head, key, after = line.rpartition(',"round":')
    _, comma, rest = after.partition(",")
    return head + key + text + comma + rest


def record_text(items: list[tuple[str, object]]) -> str:
    return "{" + ",".join(f"{json.dumps(k)}:{compact_json(v)}" for k, v in items) + "}"


SMALL_TRANSCRIPT = dump(run_simulation(SimulationConfig(SensingConfig(n=2, rounds=3, seed=1))).recorder)
# text that makes a round the writer never writes, or no JSON integer at all
ODD_ROUNDS = ["01", "-1", "1.0", "1e2", " 1", "1234567890123456789", "١"]


@st.composite
def mutated_copy(draw, line: str, t: int) -> str:
    """A copy of a round-t line for round t+1, mutated so that a reader which
    trusted the text around its round could misread it."""
    record = json.loads(line)
    record["round"] = t + 1
    items = sorted(record.items())
    kind = draw(st.sampled_from(["round", "second round", "meta last", "whitespace", "reorder", "trailing"]))
    if kind == "round":
        return with_round(line, draw(st.sampled_from(ODD_ROUNDS)))
    if kind == "second round":
        extra = ("round", draw(st.integers(0, 9)))
        return record_text([extra, *items] if draw(st.booleans()) else [*items, extra])
    if kind == "meta last":
        # the meta's text ends as a line does, with a round of its own
        tail = [("round", t), ("size_bytes", record["size_bytes"]), ("tag", record["tag"])]
        meta = record_text([*sorted(record["meta"].items()), *tail])
        return record_text([(k, v) for k, v in items if k != "meta"])[:-1] + ',"meta":' + meta + "}"
    text = record_text(items)
    if kind == "whitespace":
        at = draw(st.integers(1, len(text) - 1))
        return text[:at] + draw(st.sampled_from([" ", "\t", "\r\n "])) + text[at:]
    if kind == "reorder":
        return record_text(draw(st.permutations(items)))
    return text + draw(st.sampled_from(["x", " ", "{}", ",", '"', "\\", ',"round":1']))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reader_reads_what_the_strict_parse_reads(data):
    lines = SMALL_TRANSCRIPT.splitlines(keepends=True)
    # a line of round 1 or later: the next round's copy would find its shape
    at = data.draw(st.sampled_from([i for i, line in enumerate(lines) if json.loads(line)["round"] >= 1]))
    t = json.loads(lines[at])["round"]
    copy_ = data.draw(mutated_copy(lines[at].rstrip("\n"), t))
    # then the copy and the line again, each with the next round's digits
    again = [with_round(copy_, str(t + 2)) + "\n", with_round(lines[at], str(t + 2))]
    stream = [*lines[: at + 1], copy_ + "\n", *again, *lines[at + 1 :]]
    assert read(stream) == strict_read(stream)


def test_loaded_events_of_one_shape_share_one_meta():
    result = run_simulation(SimulationConfig(SensingConfig(n=4, rounds=6, seed=5)))
    events = load_transcript(io.StringIO(dump(result.recorder)))
    assert events == result.recorder.events
    by_shape: dict[tuple, list] = {}
    for e in events:
        by_shape.setdefault((e.entity, e.direction, e.tag, e.size_bytes, compact_json(e.meta)), []).append(e)
    # a shape in every sensing round, once a round, is read from one line's
    # decode: its events share that line's meta
    every_round = [
        shape_events for shape_events in by_shape.values()
        if [e.round for e in shape_events] == list(range(1, 7))
    ]
    assert len(every_round) >= 4 * 3  # each user's two operations and report, at least
    for shape_events in every_round:
        assert len({id(e.meta) for e in shape_events}) == 1, shape_events[0]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
def test_load_pauses_collection_and_restores_the_callers_setting(raises, enabled):
    good = dump(run_simulation(SimulationConfig(SensingConfig(n=3, rounds=2, seed=1))).recorder)
    good_lines = good.splitlines(keepends=True)
    seen: list[bool] = []

    def lines():
        for line in good_lines:
            seen.append(gc.isenabled())
            yield line
        if raises:
            yield "not json\n"

    with collection(enabled):
        with pytest.raises(ValueError, match="malformed") if raises else contextlib.nullcontext():
            load_transcript(lines())
        assert gc.isenabled() is enabled
    assert seen == [False] * len(good_lines)


def test_load_hands_its_events_to_the_oldest_generation():
    text = dump(run_simulation(eventful_config()).recorder)
    with collection(True):
        assert gc.get_freeze_count() == 0
        events = load_transcript(io.StringIO(text))
        assert young_count(events) == 0


def test_load_makes_no_reference_cycles():
    text = dump(run_simulation(eventful_config()).recorder)
    with collection(False):
        gc.collect()
        events = load_transcript(io.StringIO(text))
        unreachable = gc.collect()
    assert unreachable == 0
    assert len(events) == text.count("\n")


# Pinned output of one small run with churn, adversaries and lost reports.
# These hashes change only with a deliberate change to the crypto or to the
# report or transcript format; such a change records the new values and the
# reason in CHANGES.md.
GOLDEN_REPORT_SHA256 = "53f045de2319d68f007bcba60c62e6f7890c4e56a8aadc5651614048dd389be6"
GOLDEN_TRANSCRIPT_SHA256 = "1a1c95cc3b653ecf6f98ed4413257332801e4e0e8edb43f4648be4c11f688476"


def test_golden_report_and_transcript_hashes():
    result = run_simulation(eventful_config())
    assert hashlib.sha256(result.report_json().encode()).hexdigest() == GOLDEN_REPORT_SHA256
    assert hashlib.sha256(dump(result.recorder).encode()).hexdigest() == GOLDEN_TRANSCRIPT_SHA256
