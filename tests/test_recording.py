"""The event stream: its fold, the transcript codec and pinned output hashes."""

import copy
import dataclasses
import hashlib
import io
import json

from hypothesis import given, settings, strategies as st

from lp3pss import sim as sim_module
from lp3pss.crypto import AeadCiphertext
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


def test_each_entry_point_appends_one_event_and_nothing_else():
    recorder = Recorder()
    recorder.start_round(3)
    recorder.set_phase(PHASE_SENSING)
    calls = [
        lambda: recorder.crypto_op(FC_NAME, AEAD_ENC, OPAQUE, 40),
        lambda: recorder.message_sent(FC_NAME, GW_NAME, 40),
        lambda: recorder.message_delivered(FC_NAME, GW_NAME, 40),
        lambda: recorder.observe(GW_NAME, ViewTag.PLAINTEXT_BIT),
        lambda: recorder.protocol_error(GW_NAME, "duplicate report", {"user": 1}),
    ]
    for count, call in enumerate(calls, start=1):
        before = copy.deepcopy(recorder.__dict__)
        call()
        assert len(recorder.events) == count
        assert recorder.events[:-1] == before.pop("events")
        assert {k: v for k, v in recorder.__dict__.items() if k != "events"} == before


def drive_by_hand() -> Recorder:
    """Init, a membership change and a sensing round with faults at GW and FC."""
    recorder = Recorder()
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
    tally = drive_by_hand().fold()
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
    tally = drive_by_hand().fold()
    assert tally.link_totals() == {
        "FC->GW": {"messages": 2, "bytes": 80},
        "GW->FC": {"messages": 1, "bytes": 34},
        "U1->GW": {"messages": 1, "bytes": 44},
        "U2->GW": {"messages": 1, "bytes": 44},
    }
    assert dict(tally.phase_bytes) == {
        (0, PHASE_INIT): 40,
        (1, PHASE_MEMBERSHIP): 40,
        (1, PHASE_SENSING): 44 + 44 + 34,
    }
    assert tally.logical_per_round() == {1: 3}


def test_fold_lists_protocol_errors_in_event_order():
    assert drive_by_hand().fold().protocol_errors == [
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
                "tag": e.tag.value,
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
            body = msg.body
            flipped = AeadCiphertext(body.nonce, body.body, bytes([body.tag[0] ^ 1]) + body.tag[1:])
            msg = dataclasses.replace(msg, body=flipped)
        return msg

    monkeypatch.setattr(sim_module, "su_sense_report", tampered_report)
    result = run_simulation(eventful_config())
    recorder = result.recorder
    # the run exercises what it is meant to: a protocol error with its failed
    # decryption, lost reports, membership changes and misbehaving users
    tally = result.tally
    assert [(e["round"], e["reason"]) for e in tally.protocol_errors] == [
        (3, "report failed authentication")
    ]
    failed_decrypt = (3, "decrypt", ViewTag.OPAQUE_CIPHERTEXT, {"op": AEAD_DEC, "user": 4})
    assert any((e.round, e.direction, e.tag, e.meta) == failed_decrypt for e in recorder.view_logs["GW"])
    assert any(len(r.delivered) < len(r.roster) for r in result.rounds)
    assert any(phase == PHASE_MEMBERSHIP for phase in tally.op_totals()["FC"])
    assert {1, 2, 3} <= set(result.rounds[0].roster)
    assert_codec_conforms(recorder)


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
            st.sampled_from(list(ViewTag)),
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
