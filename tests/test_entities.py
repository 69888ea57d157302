"""Protocol state machines: init, sensing, decision, membership."""

import copy
import dataclasses

import pytest
from conftest import flip_tag_bit
from hypothesis import given, strategies as st

from lp3pss import entities
from lp3pss.crypto import (
    FC,
    GW,
    OpeKey,
    aead_decrypt,
    aead_encrypt,
    derive_pairwise_keys,
    ope_encrypt,
)
from lp3pss.entities import (
    MsgPhase,
    ProtocolError,
    ProtocolMessage,
    RoundAborted,
    fc_decide,
    fc_init,
    gw_compare,
    gw_init,
    gw_ingest_init,
    handle_membership,
    make_su_states,
    message_assoc,
    pack_decision_vector,
    su_sense_report,
    unpack_decision_vector,
)
from lp3pss.fusion import CHANNEL_BUSY, CHANNEL_FREE, DetectionProfile
from lp3pss.observability import require_complete
from lp3pss.recording import (
    AEAD_DEC,
    AEAD_ENC,
    FC_NAME,
    GW_NAME,
    OPE_ENC,
    PHASE_MEMBERSHIP,
    PHASE_SENSING,
    Recorder,
    ViewTag,
    user_name,
)

PROFILE = DetectionProfile(0.1, 0.1)
TAU = 3000


def setup_network(n: int, master_seed: bytes, tau: int = TAU):
    keys = derive_pairwise_keys(master_seed, [FC, GW, *range(1, n + 1)])
    recorder = Recorder()
    recorder.start_round(0)
    fc, msgs = fc_init(tau, PROFILE, keys, recorder)
    gw = gw_init(keys)
    gw_ingest_init(gw, msgs, recorder)
    sus = make_su_states(keys)
    return keys, fc, gw, sus, recorder, msgs


def run_round(fc, gw, sus, recorder, rss: dict[int, int], t: int = 1, drop: set[int] = frozenset()):
    recorder.start_round(t)
    recorder.set_phase(PHASE_SENSING)
    reports = [
        su_sense_report(sus[uid], rss[uid], recorder)
        for uid in sorted(rss)
        if uid not in drop
    ]
    zeta, _ = gw_compare(gw, reports, recorder)
    return fc_decide(fc, zeta, recorder)


class TestInit:
    def test_one_wrapped_threshold_per_user(self, master_seed):
        _, _, _, _, _, msgs = setup_network(3, master_seed)
        assert len(msgs) == 3
        assert all(m.phase is MsgPhase.INIT_C and m.receiver == GW_NAME for m in msgs)

    def test_gw_cache_matches_recomputed_threshold(self, master_seed):
        # white-box: a harness holding the per-user OPE key re-encrypts tau
        keys, _, gw, _, _, _ = setup_network(3, master_seed)
        for uid in (1, 2, 3):
            assert gw.tau_cache[uid] == ope_encrypt(keys.ope_user[uid], TAU)

    def test_inner_ciphertexts_differ_across_users_for_equal_tau(self, master_seed):
        keys, _, _, _, _, _ = setup_network(2, master_seed)
        assert ope_encrypt(keys.ope_user[1], TAU) != ope_encrypt(keys.ope_user[2], TAU)

    def test_tau_out_of_domain_rejected(self, master_seed):
        keys = derive_pairwise_keys(master_seed, [FC, GW, 1])
        with pytest.raises(ValueError):
            fc_init(1 << 16, PROFILE, keys, Recorder())

    def test_initial_lambda_and_weights(self, master_seed):
        _, fc, gw, sus, recorder, _ = setup_network(10, master_seed)
        assert all(rec.weight == 1.0 for rec in fc.records.values())
        result = run_round(fc, gw, sus, recorder, {u: 4000 for u in range(1, 11)})
        assert result.outcome.lam == 5  # symmetric profile, majority rule

    def test_view_discipline_is_structural(self, master_seed):
        # the gateway's state can hold OPE ciphertexts but never OPE keys;
        # the threshold lives only at the fusion center
        _, fc, gw, sus, _, _ = setup_network(3, master_seed)
        assert all(type(v) is int for v in gw.tau_cache.values())
        assert not any(isinstance(v, OpeKey) for v in vars(gw).values())
        for su in sus.values():
            assert not hasattr(su, "tau") and not hasattr(su, "lam")
        assert hasattr(fc, "tau")


class TestSensing:
    def test_report_costs_one_ope_and_one_aead(self, master_seed):
        _, _, _, sus, recorder, _ = setup_network(2, master_seed)
        recorder.start_round(1)
        recorder.set_phase(PHASE_SENSING)
        su_sense_report(sus[1], 100, recorder)
        name = user_name(1)
        ops = recorder.tally.ops
        assert ops[1, name, PHASE_SENSING, OPE_ENC] == 1
        assert ops[1, name, PHASE_SENSING, AEAD_ENC] == 1

    def test_same_reading_same_inner_different_outer(self, master_seed):
        keys, _, _, sus, recorder, _ = setup_network(1, master_seed)
        recorder.start_round(1)
        recorder.set_phase(PHASE_SENSING)
        m1 = su_sense_report(sus[1], 1234, recorder)
        recorder.start_round(2)
        m2 = su_sense_report(sus[1], 1234, recorder)
        inner1 = aead_decrypt(keys.gw_user[1], m1.body, message_assoc(MsgPhase.REPORT, 1, 1))
        inner2 = aead_decrypt(keys.gw_user[1], m2.body, message_assoc(MsgPhase.REPORT, 1, 2))
        assert inner1 == inner2  # deterministic OPE layer
        assert m1.body != m2.body  # fresh nonce outside

    def test_out_of_domain_reading_rejected(self, master_seed):
        _, _, _, sus, recorder, _ = setup_network(1, master_seed)
        with pytest.raises(ValueError):
            su_sense_report(sus[1], 1 << 16, recorder)

    def test_comparison_bits(self, master_seed):
        # tau=120 on plaintexts (100,130,120,119): equality votes busy
        keys = derive_pairwise_keys(master_seed, [FC, GW, 1, 2, 3, 4])
        recorder = Recorder()
        fc, msgs = fc_init(120, PROFILE, keys, recorder)
        gw = gw_init(keys)
        gw_ingest_init(gw, msgs, recorder)
        sus = make_su_states(keys)
        rss = {1: 100, 2: 130, 3: 120, 4: 119}
        result = run_round(fc, gw, sus, recorder, rss)
        assert [result.bits[u] for u in (1, 2, 3, 4)] == [0, 1, 1, 0]

    def test_all_below_threshold_all_zero(self, master_seed):
        _, fc, gw, sus, recorder, _ = setup_network(4, master_seed)
        result = run_round(fc, gw, sus, recorder, {u: 10 * u for u in (1, 2, 3, 4)})
        assert set(result.bits.values()) == {0}
        assert result.outcome.decision == CHANNEL_FREE

    def test_missing_report_still_decides(self, master_seed):
        _, fc, gw, sus, recorder, _ = setup_network(5, master_seed)
        rss = {u: 4000 for u in range(1, 6)}
        result = run_round(fc, gw, sus, recorder, rss, drop={3})
        assert result.present == (1, 2, 4, 5)
        assert 3 not in result.bits
        assert result.outcome.decision == CHANNEL_BUSY
        assert result.outcome.lam == 2  # recomputed over the 4 present users

    def test_unknown_sender_skipped(self, master_seed):
        keys, fc, gw, sus, recorder, _ = setup_network(2, master_seed)
        stranger_keys = derive_pairwise_keys(bytes(32), [FC, GW, 9])
        stranger = make_su_states(stranger_keys)[9]
        recorder.start_round(1)
        recorder.set_phase(PHASE_SENSING)
        reports = [
            su_sense_report(sus[1], 4000, recorder),
            su_sense_report(sus[2], 4000, recorder),
            su_sense_report(stranger, 4000, recorder),
        ]
        zeta, delivered = gw_compare(gw, reports, recorder)
        assert delivered == [1, 2]  # the stranger's report is refused before delivery
        result = fc_decide(fc, zeta, recorder)
        assert result.present == (1, 2)
        assert any(e["reason"] == "report from unknown user" for e in recorder.tally.protocol_errors)

    def test_duplicate_report_refused_before_delivery(self, master_seed):
        _, fc, gw, sus, recorder, _ = setup_network(2, master_seed)
        recorder.start_round(1)
        recorder.set_phase(PHASE_SENSING)
        first = su_sense_report(sus[1], 4000, recorder)
        reports = [first, su_sense_report(sus[2], 4000, recorder), first]
        zeta, delivered = gw_compare(gw, reports, recorder)
        assert delivered == [1, 2]
        assert recorder.tally.messages["U1->GW"] == 1
        assert recorder.tally.protocol_errors == [
            {"round": 1, "entity": GW_NAME, "reason": "duplicate report", "user": 1}
        ]
        assert fc_decide(fc, zeta, recorder).present == (1, 2)

    def test_tampered_report_skipped(self, master_seed):
        _, fc, gw, sus, recorder, _ = setup_network(2, master_seed)
        recorder.start_round(1)
        recorder.set_phase(PHASE_SENSING)
        stale = su_sense_report(sus[2], 4000, recorder)
        recorder.start_round(2)
        good = su_sense_report(sus[1], 4000, recorder)
        # U2's round-1 report replayed in round 2
        zeta, delivered = gw_compare(gw, [good, stale], recorder)
        assert delivered == [1, 2]  # delivered, then refused by its decryption
        result = fc_decide(fc, zeta, recorder)
        assert result.present == (1,)
        assert [e["reason"] for e in recorder.tally.protocol_errors] == ["report failed authentication"]

    def test_entities_never_write_a_message(self, master_seed, monkeypatch):
        sealed = []
        real_seal = entities.seal

        def recording_seal(*args, **kwargs):
            msg = real_seal(*args, **kwargs)
            sealed.append((msg, copy.deepcopy(msg)))
            return msg

        monkeypatch.setattr(entities, "seal", recording_seal)
        _, fc, gw, sus, recorder, _ = setup_network(4, master_seed)
        recorder.start_round(1)
        recorder.set_phase(PHASE_SENSING)
        reports = [su_sense_report(sus[uid], 4000, recorder) for uid in (1, 3, 4)]  # U2's is lost
        reports[1] = dataclasses.replace(reports[1], body=flip_tag_bit(reports[1].body))
        tampered = copy.deepcopy(reports[1])
        zeta, _ = gw_compare(gw, reports, recorder)
        assert fc_decide(fc, zeta, recorder).present == (1, 4)
        assert len(sealed) == 4 + 3 + 1  # init messages, reports, decision vector
        for msg, at_seal in sealed:
            assert msg == at_seal
        assert reports[1] == tampered

    def test_init_message_replayed_in_a_later_round_refused(self, master_seed):
        _, _, gw, _, recorder, msgs = setup_network(2, master_seed)
        del gw.tau_cache[1]  # as after a leave: the replay is no duplicate, so it is delivered
        cached = dict(gw.tau_cache)
        recorder.start_round(3)
        gw_ingest_init(gw, msgs[:1], recorder)
        assert gw.tau_cache == cached
        assert recorder.tally.protocol_errors == [
            {"round": 3, "entity": GW_NAME, "reason": "init message failed authentication", "user": 1}
        ]

    def test_init_message_for_a_cached_user_refused_before_delivery(self, master_seed):
        _, _, gw, _, recorder, msgs = setup_network(2, master_seed)
        cached, events = dict(gw.tau_cache), len(recorder.events)
        gw_ingest_init(gw, msgs[:1], recorder)
        assert gw.tau_cache == cached
        assert recorder.tally.protocol_errors == [
            {"round": 0, "entity": GW_NAME, "reason": "duplicate init message", "user": 1}
        ]
        assert len(recorder.events) == events + 1  # the error alone: not received, not decrypted

    def test_malformed_init_message_leaves_its_user_uncached(self, master_seed):
        keys = derive_pairwise_keys(master_seed, [FC, GW, 1, 2, 3])
        recorder = Recorder()
        _, msgs = fc_init(TAU, PROFILE, keys, recorder)
        msgs[1] = dataclasses.replace(msgs[1], body=msgs[1].body[:-1])
        gw = gw_init(keys)
        gw_ingest_init(gw, msgs, recorder)
        assert set(gw.tau_cache) == {1, 3}
        assert [e["reason"] for e in recorder.tally.protocol_errors] == ["init message is malformed"]
        failed = [e for e in recorder.view_logs[GW_NAME] if e.meta == {"op": AEAD_DEC, "user": 2}]
        assert [(e.tag, e.size_bytes) for e in failed] == [(ViewTag.OPAQUE_CIPHERTEXT, len(msgs[1].body))]


class TestDecision:
    def test_threshold_three_of_five(self, master_seed):
        _, fc, gw, sus, recorder, _ = setup_network(5, master_seed)
        rss = {1: 4000, 2: 4000, 3: 4000, 4: 100, 5: 100}
        result = run_round(fc, gw, sus, recorder, rss)
        assert result.outcome.lam == 3
        assert result.outcome.vote_sum == 3
        assert result.outcome.decision == CHANNEL_BUSY

    def test_or_rule_single_vote(self, master_seed):
        keys = derive_pairwise_keys(master_seed, [FC, GW, *range(1, 6)])
        recorder = Recorder()
        # p_f << p_m pushes alpha high enough that lambda = 1 (OR rule)
        fc, msgs = fc_init(TAU, DetectionProfile(0.01, 0.55), keys, recorder)
        gw = gw_init(keys)
        gw_ingest_init(gw, msgs, recorder)
        sus = make_su_states(keys)
        result = run_round(fc, gw, sus, recorder, {1: 4000, 2: 100, 3: 100, 4: 100, 5: 100})
        assert result.outcome.lam == 1
        assert result.outcome.decision == CHANNEL_BUSY

    def test_aborted_round_leaves_reputation_unchanged(self, master_seed):
        keys, fc, gw, sus, recorder, _ = setup_network(2, master_seed)
        records_before = copy.deepcopy(fc.records)
        recorder.start_round(1)
        recorder.set_phase(PHASE_SENSING)
        assoc = message_assoc(MsgPhase.DECISION_VEC, None, 1, [1, 2])
        forged_body = aead_encrypt(keys.gw_user[1], b"\x03\x03", assoc)  # wrong key entirely
        forged = ProtocolMessage(GW_NAME, FC_NAME, MsgPhase.DECISION_VEC, None, forged_body)
        with pytest.raises(RoundAborted):
            fc_decide(fc, forged, recorder)
        assert fc.records == records_before

    def test_failed_decision_vector_is_logged_and_decides_nothing(self, master_seed):
        _, fc, gw, sus, recorder, _ = setup_network(2, master_seed)
        recorder.start_round(1)
        recorder.set_phase(PHASE_SENSING)
        zeta, _ = gw_compare(gw, [su_sense_report(sus[1], 4000, recorder)], recorder)
        forged = dataclasses.replace(zeta, body=flip_tag_bit(zeta.body))
        with pytest.raises(RoundAborted):
            fc_decide(fc, forged, recorder)
        failed = [e for e in recorder.view_logs[FC_NAME] if e.meta.get("op") == AEAD_DEC]
        assert len(failed) == recorder.tally.ops[1, FC_NAME, PHASE_SENSING, AEAD_DEC] == 1
        assert failed[0].tag == ViewTag.OPAQUE_CIPHERTEXT
        with pytest.raises(ValueError, match="no decided round"):
            require_complete(recorder.events)

    def test_decision_vector_replayed_next_round_aborts(self, master_seed):
        _, fc, gw, sus, recorder, _ = setup_network(3, master_seed)
        recorder.start_round(1)
        recorder.set_phase(PHASE_SENSING)
        stale, _ = gw_compare(gw, [su_sense_report(sus[u], 4000, recorder) for u in (1, 2, 3)], recorder)
        fc_decide(fc, stale, recorder)
        records_after_round_1 = copy.deepcopy(fc.records)
        recorder.start_round(2)
        with pytest.raises(RoundAborted):
            fc_decide(fc, stale, recorder)
        assert fc.records == records_after_round_1

    def test_roster_mismatch_aborts_instead_of_misattributing(self, master_seed):
        # same size, one id swapped: GW packs over [2, 3, 4], the FC reads [1, 2, 3],
        # which would credit U2's busy vote to U1
        _, fc, gw, sus, recorder, _ = setup_network(4, master_seed)
        fc.live.discard(4)
        del gw.tau_cache[1]
        records_before = copy.deepcopy(fc.records)
        recorder.start_round(1)
        recorder.set_phase(PHASE_SENSING)
        reports = [su_sense_report(sus[u], rss, recorder) for u, rss in ((2, 4000), (3, 100), (4, 100))]
        zeta, _ = gw_compare(gw, reports, recorder)
        with pytest.raises(RoundAborted):
            fc_decide(fc, zeta, recorder)
        assert fc.records == records_before
        assert [e["reason"] for e in recorder.tally.protocol_errors] == [
            "decision vector failed authentication"
        ]

    def test_reputation_updates_after_round(self, master_seed):
        _, fc, gw, sus, recorder, _ = setup_network(3, master_seed)
        result = run_round(fc, gw, sus, recorder, {1: 4000, 2: 4000, 3: 100})
        assert result.outcome.decision == CHANNEL_BUSY
        assert fc.records[1].rho == 1 and fc.records[3].eta == 1
        assert fc.records[1].weight > fc.records[3].weight


class TestMembership:
    def test_no_two_users_share_a_record(self, master_seed):
        keys, fc, gw, sus, recorder, _ = setup_network(4, master_seed)

        def assert_unshared():
            assert len({id(record) for record in fc.records.values()}) == len(fc.records)

        assert_unshared()
        recorder.start_round(1)
        recorder.set_phase(PHASE_MEMBERSHIP)
        sus.update(handle_membership(fc, gw, [5, 6], [1], keys, recorder))
        assert_unshared()
        for t, drop in ((2, {5, 6}), (3, {2}), (4, set())):
            run_round(fc, gw, sus, recorder, {u: 4000 if u % 2 else 100 for u in fc.live}, t, drop)
            assert_unshared()
        # fc_decide writes weights in place: a write must reach its own user only
        others = {uid: record.weight for uid, record in fc.records.items() if uid != 5}
        fc.records[5].weight = 0.25
        assert {uid: record.weight for uid, record in fc.records.items() if uid != 5} == others

    def test_joins_charge_fc_and_leave_existing_users_alone(self, master_seed):
        keys, fc, gw, sus, recorder, _ = setup_network(10, master_seed)
        su_snapshot = copy.deepcopy(sus)
        recorder.start_round(1)
        recorder.set_phase(PHASE_MEMBERSHIP)
        new_states = handle_membership(fc, gw, [11, 12], [], keys, recorder)
        assert set(new_states) == {11, 12}
        ops = recorder.tally.ops
        assert ops[1, FC_NAME, PHASE_MEMBERSHIP, OPE_ENC] == 2
        assert ops[1, FC_NAME, PHASE_MEMBERSHIP, AEAD_ENC] == 2
        assert ops[1, GW_NAME, PHASE_MEMBERSHIP, AEAD_DEC] == 2
        # no traffic to any existing user, and their states are untouched
        for uid, snap in su_snapshot.items():
            assert sus[uid] == snap
        for log in recorder.view_logs.values():
            for event in log:
                if event.direction == "received" and event.round == 1:
                    assert event.entity == GW_NAME

    def test_leave_recomputes_lambda(self, master_seed):
        keys, fc, gw, sus, recorder, _ = setup_network(10, master_seed)
        handle_membership(fc, gw, [], [7], keys, recorder)
        assert 7 not in fc.live and 7 not in set(gw.tau_cache)
        assert 7 not in keys.gw_user and 7 not in keys.ope_user
        result = run_round(fc, gw, sus, recorder, {u: 4000 for u in fc.live})
        assert result.outcome.lam == 5  # ceil(9/2) with symmetric profile

    def test_simultaneous_join_and_leave(self, master_seed):
        keys, fc, gw, sus, recorder, _ = setup_network(5, master_seed)
        new_states = handle_membership(fc, gw, [6, 7], [1], keys, recorder)
        assert fc.live == {2, 3, 4, 5, 6, 7}
        assert set(gw.tau_cache) == fc.live
        sus.update(new_states)
        del sus[1]
        result = run_round(fc, gw, sus, recorder, {u: 4000 for u in fc.live})
        assert result.outcome.lam == 3  # computed over the n=6 present users
        assert result.outcome.decision == CHANNEL_BUSY

    def test_join_of_existing_id_rejected(self, master_seed):
        keys, fc, gw, _, recorder, _ = setup_network(3, master_seed)
        with pytest.raises(ProtocolError):
            handle_membership(fc, gw, [2], [], keys, recorder)

    @pytest.mark.parametrize(
        "joins, leaves, reason",
        [
            ([5, 3], [1], "user 3 already issued keys"),  # U3 left before
            ([5, 5], [], "repeated"),
            ([], [2, 2], "repeated"),
            ([], [1, 2, 4], "emptied the network"),
            # a join id KeyTable.add_user refuses, alongside a valid leave
            ([-1], [2], "non-negative int, got -1"),
            (["5"], [2], "non-negative int, got '5'"),
        ],
        ids=["rejoin", "repeated-join", "repeated-leave", "emptied", "negative-join", "str-join"],
    )
    def test_refused_change_leaves_every_state_alone(self, master_seed, joins, leaves, reason):
        keys, fc, gw, _, recorder, _ = setup_network(4, master_seed)
        handle_membership(fc, gw, [], [3], keys, recorder)
        snapshot = copy.deepcopy((fc, gw, keys))
        events_before = list(recorder.events)
        with pytest.raises(ProtocolError, match=reason):
            handle_membership(fc, gw, joins, leaves, keys, recorder)
        assert (fc, gw, keys) == snapshot
        assert keys.issued == {1, 2, 3, 4}
        assert recorder.events == events_before

    def test_leave_of_unknown_id_rejected(self, master_seed):
        keys, fc, gw, _, recorder, _ = setup_network(3, master_seed)
        with pytest.raises(ProtocolError):
            handle_membership(fc, gw, [], [9], keys, recorder)

    def test_join_and_leave_overlap_rejected(self, master_seed):
        keys, fc, gw, _, recorder, _ = setup_network(3, master_seed)
        with pytest.raises(ProtocolError):
            handle_membership(fc, gw, [5], [5], keys, recorder)

    def test_joiner_can_report_next_round(self, master_seed):
        keys, fc, gw, sus, recorder, _ = setup_network(2, master_seed)
        sus.update(handle_membership(fc, gw, [3], [], keys, recorder))
        result = run_round(fc, gw, sus, recorder, {1: 100, 2: 100, 3: 4000})
        assert result.bits[3] == 1


class TestPacking:
    @given(st.integers(1, 64), st.data())
    def test_roundtrip(self, n, data):
        roster = sorted(data.draw(st.sets(st.integers(1, 500), min_size=n, max_size=n)))
        present = data.draw(st.sets(st.sampled_from(roster), max_size=len(roster)))
        bits = {uid: data.draw(st.integers(0, 1), label=f"b{uid}") for uid in sorted(present)}
        payload = pack_decision_vector(roster, bits)
        assert len(payload) == 2 * ((len(roster) + 7) // 8)
        unpacked = unpack_decision_vector(roster, payload)
        assert unpacked == bits
        assert list(unpacked) == [uid for uid in roster if uid in bits]

    def test_wrong_size_rejected(self):
        with pytest.raises(ProtocolError):
            unpack_decision_vector([1, 2, 3], b"\x00")
