"""Transcript codec: byte format, round trip and pinned output hashes."""

import dataclasses
import hashlib
import io
import json

from hypothesis import given, settings, strategies as st

from lp3pss import sim as sim_module
from lp3pss.crypto import AeadCiphertext
from lp3pss.recording import AEAD_DEC, PHASE_MEMBERSHIP, Recorder, ViewTag, load_transcript
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


def reference_transcript(recorder: Recorder) -> list[str]:
    """The format's definition: json.dumps of each event's record, per sorted entity."""
    lines = []
    for entity in sorted(recorder.view_logs):
        for e in recorder.view_logs[entity].events:
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
    reloaded = load_transcript(io.StringIO(text))
    assert list(reloaded) == sorted(recorder.view_logs)
    for entity, log in reloaded.items():
        assert log.entity == entity
        assert log.events == recorder.view_logs[entity].events


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
    assert [(e["round"], e["reason"]) for e in recorder.errors] == [
        (3, "report failed authentication")
    ]
    failed_decrypt = (3, "decrypt", ViewTag.OPAQUE_CIPHERTEXT, {"op": AEAD_DEC, "user": 4})
    assert any((e.round, e.direction, e.tag, e.meta) == failed_decrypt for e in recorder.view_logs["GW"])
    assert any(len(r.delivered) < len(r.roster) for r in result.rounds)
    assert any(phase == PHASE_MEMBERSHIP for phase in recorder.ops.entity_totals()["FC"])
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
        recorder.log_for(entity).events[-1].size_bytes = size_bytes
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
