"""The event stream: its tally, the transcript codec and pinned output hashes."""

import copy
import dataclasses
import enum
import hashlib
import io
import json

from conftest import flip_tag_bit
import pytest
from hypothesis import given, settings, strategies as st

from lp3pss import entities as entities_module
from lp3pss import sim as sim_module
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
        lambda: recorder.message_sent(FC_NAME, GW_NAME, 40),
        lambda: recorder.message_sent(user_name(1), GW_NAME, 44, {"subject": 1}),
        lambda: recorder.message_delivered(FC_NAME, GW_NAME, 40),
        lambda: recorder.message_delivered(user_name(1), GW_NAME, 44, {"subject": 1}),
        lambda: recorder.observe(GW_NAME, ViewTag.PLAINTEXT_BIT),
        lambda: recorder.observe(FC_NAME, ViewTag.PLAINTEXT_BIT, "observed", {"bit": 1}),
        lambda: recorder.protocol_error(FC_NAME, "decision vector failed authentication"),
        lambda: recorder.protocol_error(GW_NAME, "duplicate report", {"user": 1}),
    ]
    count = 0
    for phase in (PHASE_MEMBERSHIP, PHASE_SENSING):
        recorder.set_phase(phase)
        for call in calls:
            before = copy.deepcopy(recorder.__dict__)
            call()
            count += 1
            assert len(recorder.events) == count
            assert recorder.events[:-1] == before.pop("events")
            expected = before.pop("tally")
            fold_event(expected, phase, recorder.events[-1])
            assert recorder.tally == expected
            assert {k: v for k, v in recorder.__dict__.items() if k not in ("events", "tally")} == before
    assert [e.direction for e in recorder.events[:4]] == ["encrypt", "decrypt", "computed", "encrypt"]


def test_entry_points_take_over_the_meta_dict_they_are_given():
    recorder = Recorder()
    calls = [
        (lambda meta: recorder.crypto_op(FC_NAME, AEAD_ENC, OPAQUE, 40, meta), {"op": AEAD_ENC}),
        (lambda meta: recorder.message_sent(FC_NAME, GW_NAME, 40, meta), {"link": "FC->GW"}),
        (lambda meta: recorder.message_delivered(FC_NAME, GW_NAME, 40, meta), {"link": "FC->GW"}),
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


def drive_by_hand() -> PhasedRecorder:
    """Init, a membership change and a sensing round with faults at GW and FC."""
    recorder = PhasedRecorder()
    recorder.start_round(0)
    recorder.crypto_op(FC_NAME, OPE_ENC, OPAQUE, meta={"user": 1})
    recorder.crypto_op(FC_NAME, AEAD_ENC, OPAQUE, 40, {"user": 1})
    recorder.message_sent(FC_NAME, GW_NAME, 40)
    recorder.message_delivered(FC_NAME, GW_NAME, 40)
    recorder.crypto_op(GW_NAME, AEAD_DEC, ViewTag.OPE_ORDER_PAIR, 40)

    recorder.start_round(1)
    recorder.set_phase(PHASE_MEMBERSHIP)  # U2 joins
    recorder.crypto_op(FC_NAME, OPE_ENC, OPAQUE, meta={"user": 2})
    recorder.crypto_op(FC_NAME, AEAD_ENC, OPAQUE, 40, {"user": 2})
    recorder.message_sent(FC_NAME, GW_NAME, 40)
    recorder.message_delivered(FC_NAME, GW_NAME, 40)
    recorder.crypto_op(GW_NAME, AEAD_DEC, ViewTag.OPE_ORDER_PAIR, 40)

    recorder.set_phase(PHASE_SENSING)
    for uid in (1, 2):
        recorder.crypto_op(user_name(uid), OPE_ENC, OPAQUE)
        recorder.crypto_op(user_name(uid), AEAD_ENC, OPAQUE, 44)
        recorder.message_sent(user_name(uid), GW_NAME, 44)
        recorder.message_delivered(user_name(uid), GW_NAME, 44)
    recorder.crypto_op(GW_NAME, AEAD_DEC, ViewTag.OPE_ORDER_PAIR, 44, {"user": 1})
    recorder.crypto_op(GW_NAME, COMPARE, ViewTag.OPE_ORDER_PAIR, meta={"user": 1})
    recorder.crypto_op(GW_NAME, AEAD_DEC, OPAQUE, 44, {"user": 2})  # fails authentication
    recorder.protocol_error(GW_NAME, "report failed authentication", {"user": 2})
    recorder.crypto_op(GW_NAME, AEAD_ENC, OPAQUE, 34)
    recorder.message_sent(GW_NAME, FC_NAME, 34)
    recorder.message_delivered(GW_NAME, FC_NAME, 34)
    recorder.crypto_op(FC_NAME, AEAD_DEC, OPAQUE, 34)  # fails authentication
    recorder.protocol_error(FC_NAME, "decision vector failed authentication")

    recorder.start_round(2)  # still sensing; one report lost, one from a stranger
    recorder.message_sent(user_name(1), GW_NAME, 44)
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
    """The format's definition: json.dumps of each event's record, per sorted entity."""
    lines = []
    logs = recorder.view_logs
    for entity in sorted(logs):
        for e in logs[entity]:
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
    # file order: the stream stable-sorted by entity
    assert load_transcript(io.StringIO(text)) == sorted(recorder.events, key=lambda e: e.entity)


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


def test_online_tally_equals_reference_fold_of_the_stream(monkeypatch):
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
    assert recorder.tally == recorder.reference_tally()


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


# Values the writer's templates must leave to the encoder, or write as the
# encoder would: every type json.dumps accepts in a meta, and strings that
# mean something to % or to JSON.
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


def test_templates_write_what_json_dumps_writes_whatever_the_value_types():
    # every event shares its key tuple with plain ones written before and
    # after it, so each odd value meets a template made for ints and strs
    recorder = Recorder()
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
    # keys that mean something to %
    for meta in ({"100%": 1, "%(x)s": "%s"}, {"%d": 2, "%": "%%"}):
        recorder.observe(GW_NAME, OPAQUE, "computed", meta)
    # a long run, with odd values deep inside a template-filled stretch
    for i in range(3000):
        meta = {"user": i, "op": "%" if i % 2 else "op"}
        if i in (1500, 2047, 2048):
            meta["user"] = float(i)
        recorder.observe(user_name(1), OPAQUE, "computed", meta)
    assert dump(recorder).splitlines(keepends=True) == reference_transcript(recorder)


@pytest.mark.parametrize("key", [1, True, None, 2.5], ids=["int", "bool", "none", "float"])
def test_templates_leave_keys_that_are_not_strings_to_the_encoder(key):
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
    assert events == sorted(result.recorder.events, key=lambda e: e.entity)


def test_loaded_events_share_one_string_per_name():
    result = run_simulation(eventful_config())
    events = load_transcript(io.StringIO(dump(result.recorder)))
    for field in ("entity", "direction", "tag"):
        names = [getattr(e, field) for e in events]
        assert len({id(name) for name in names}) == len(set(names)), field


# Pinned output of one small run with churn, adversaries and lost reports.
# These hashes change only with a deliberate change to the crypto or to the
# report or transcript format; such a change records the new values and the
# reason in CHANGES.md.
GOLDEN_REPORT_SHA256 = "53f045de2319d68f007bcba60c62e6f7890c4e56a8aadc5651614048dd389be6"
GOLDEN_TRANSCRIPT_SHA256 = "394d4981fd207e2c1d73b3def01259d4981c1af80a46b85bcb215de2f899b164"


def test_golden_report_and_transcript_hashes():
    result = run_simulation(eventful_config())
    assert hashlib.sha256(result.report_json().encode()).hexdigest() == GOLDEN_REPORT_SHA256
    assert hashlib.sha256(dump(result.recorder).encode()).hexdigest() == GOLDEN_TRANSCRIPT_SHA256
