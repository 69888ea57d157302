"""Driver behavior: determinism, counters, error rates, config parsing."""

import contextlib
import dataclasses
import gc
import io
import json
import weakref
from collections import Counter

import pytest
from conftest import collection, flip_tag_bit, reported_rss, young_count
from hypothesis import event, given, settings, strategies as st

from lp3pss import crypto as crypto_module
from lp3pss import entities as entities_module
from lp3pss import sim as sim_module
from lp3pss.costs import (
    LP3PSS as COST_LP3PSS,
    SU,
    AnalyticalCostParams,
    analytical_cost,
    lp3pss_round_ops,
    round_wire_bits,
)
from lp3pss.entities import ProtocolError, unpack_decision_vector
from lp3pss.recording import (
    AEAD_DEC,
    AEAD_ENC,
    FC_NAME,
    GW_NAME,
    OPE_ENC,
    PHASE_INIT,
    PHASE_MEMBERSHIP,
    PHASE_SENSING,
    ViewTag,
    user_name,
)
from lp3pss.scenario import (
    ALWAYS_FLIP,
    HONEST,
    RANDOM_FLIP,
    STUCK_AT,
    AdversaryProfile,
    Behavior,
    ChurnConfig,
    CountRange,
)
from lp3pss.sim import (
    MAX_POPULATION,
    ChannelSpec,
    ConfigError,
    CryptoParams,
    SensingConfig,
    SimulationConfig,
    config_from_dict,
    estimate_error_rates,
    run_simulation,
    verify_communication_counts,
    verify_computation_counts,
    wilson_interval,
)


def small_run(**kwargs):
    defaults = dict(n=10, rounds=5, seed=42)
    defaults.update(kwargs)
    return run_simulation(SimulationConfig(SensingConfig(**defaults)))


def tamper_reports(patch, tamper, round_, uid=None):
    """Make the report of ``uid`` (of every user if None) sent in round
    ``round_`` reach the gateway as ``tamper(body)``."""

    def report(su, rss_q, recorder):
        msg = entities_module.su_sense_report(su, rss_q, recorder)
        if recorder.round == round_ and uid in (None, su.uid):
            msg = dataclasses.replace(msg, body=tamper(msg.body))
        return msg

    patch.setattr(sim_module, "su_sense_report", report)


def tamper_decision_vector(patch, tamper, round_=None):
    """Make the gateway's decision vector of round ``round_`` (of every
    round if None) reach the fusion center as ``tamper(body)``."""

    def compare(gw, reports, recorder):
        msg, delivered = entities_module.gw_compare(gw, reports, recorder)
        if round_ in (None, recorder.round):
            msg = dataclasses.replace(msg, body=tamper(msg.body))
        return msg, delivered

    patch.setattr(sim_module, "gw_compare", compare)


def tamper_init_messages(patch, round_, uid=None):
    """Make the wrapped threshold of ``uid`` (of every user if None) sent
    in round ``round_`` (0 is initialization; later, a join) reach the
    gateway with a flipped tag bit."""
    honest_ingest = entities_module.gw_ingest_init

    def ingest(gw, messages, recorder):
        if recorder.round == round_:
            messages = [
                dataclasses.replace(m, body=flip_tag_bit(m.body)) if uid in (None, m.subject) else m
                for m in messages
            ]
        honest_ingest(gw, messages, recorder)

    patch.setattr(entities_module, "gw_ingest_init", ingest)
    patch.setattr(sim_module, "gw_ingest_init", ingest)


class TestDriver:
    def test_single_round_has_n_plus_one_ciphertexts(self):
        result = small_run(rounds=1)
        assert result.recorder.tally.logical_per_round() == {1: 11}

    @pytest.mark.parametrize("n, rounds", [(1, 1), (3, 2), (12, 5)])
    def test_honest_run_appends_4n_plus_5nR_plus_3R_events(self, n, rounds):
        # init: 4 per user; each round: 5 per user, 3 for the decision vector
        result = small_run(n=n, rounds=rounds)
        assert len(result.recorder.events) == 4 * n + 5 * n * rounds + 3 * rounds

    def test_report_determinism(self):
        config = SimulationConfig(
            SensingConfig(n=8, rounds=10, seed=9, report_loss_prob=0.1),
            churn=ChurnConfig(mu=0.4, join_count=CountRange(1, 2), leave_count=CountRange(0, 1)),
        )
        a, b = run_simulation(config), run_simulation(config)
        assert a.report_json() == b.report_json()
        ta, tb = io.StringIO(), io.StringIO()
        a.recorder.dump_transcript(ta)
        b.recorder.dump_transcript(tb)
        assert ta.getvalue() == tb.getvalue()

    def test_different_seeds_differ(self):
        assert small_run(seed=1).report_json() != small_run(seed=2).report_json()

    def test_whitebox_bits_match_plaintext_comparison(self):
        result = small_run(n=20, rounds=10)
        reported = reported_rss(result.recorder.events)
        for record in result.rounds:
            for uid in record.result.present:
                expected = 1 if reported[record.t, uid] >= result.tau else 0
                assert record.result.bits[uid] == expected

    def test_adversary_reputation_collapses(self):
        config = SimulationConfig(
            SensingConfig(n=10, rounds=100, seed=17),
            adversary=AdversaryProfile({1: Behavior(ALWAYS_FLIP)}),
        )
        result = run_simulation(config)
        records = result.fc.records
        assert records[1].phi < 0.2
        assert all(records[u].phi > 0.5 for u in range(2, 11))
        assert records[1].weight == min(r.weight for r in records.values())

    def test_leakage_checked_inline(self):
        assert small_run().leakage.conforms

    def test_round_records_track_membership(self):
        config = SimulationConfig(
            SensingConfig(n=5, rounds=8, seed=3),
            churn=ChurnConfig(mu=1.0, join_count=CountRange(1, 1), leave_count=CountRange(0, 0)),
        )
        result = run_simulation(config)
        assert [r.beta for r in result.rounds] == [0] + [1] * 7
        assert result.rounds[-1].result.n_live == 12

    def test_each_joiner_is_minted_above_every_id_before_it(self):
        config = SimulationConfig(
            SensingConfig(n=3, rounds=12, seed=5),
            churn=ChurnConfig(mu=0.8, join_count=CountRange(0, 2), leave_count=CountRange(0, 3)),
        )
        result = run_simulation(config)
        roster, highest = [1, 2, 3], 3
        for record in result.rounds:
            assert list(record.joins) == list(range(highest + 1, highest + 1 + record.beta))
            highest += record.beta
            roster = sorted(set(roster) - set(record.leaves) | set(record.joins))
            assert list(record.roster) == roster
        assert any(r.joins for r in result.rounds) and any(r.leaves for r in result.rounds)
        assert sorted(result.fc.records) == roster

    def test_a_departed_users_keys_are_freed_while_the_run_goes_on(self, monkeypatch):
        # each key lives only in the copies of the parties that use it, so a
        # leaver's are freed within the round it leaves in; a check after the
        # run would miss a list the driver kept, since its locals are gone then
        refs: dict[int, list[weakref.ref]] = {}
        honest_add_user = crypto_module.KeyTable.add_user

        def add_user(table):
            issued = honest_add_user(table)
            refs[issued[0]] = [weakref.ref(key) for key in issued[1:]]
            return issued

        departed, alive = [], []
        honest_end_round = sim_module.RunFold.end_round

        def end_round(fold, record, fc):
            gone = [ref for uid, keys in refs.items() if uid not in fc.records for ref in keys]
            departed.append(len(gone))
            alive.append(sum(ref() is not None for ref in gone))
            honest_end_round(fold, record, fc)

        monkeypatch.setattr(crypto_module.KeyTable, "add_user", add_user)
        monkeypatch.setattr(sim_module.RunFold, "end_round", end_round)
        config = SimulationConfig(
            SensingConfig(n=20, rounds=8, seed=4),
            churn=ChurnConfig(mu=1.0, join_count=CountRange(2, 2), leave_count=CountRange(2, 2)),
        )
        run_simulation(config)
        assert departed == [0, 4, 8, 12, 16, 20, 24, 28]  # two keys for each leaver so far
        assert alive == [0] * 8

    def test_the_reputation_table_is_one_dict_updated_in_place(self, monkeypatch):
        tables, record_of = [], {}
        honest_end_round = sim_module.RunFold.end_round

        def end_round(fold, record, fc):
            tables.append(fc.records)
            for uid, rec in fc.records.items():
                assert record_of.setdefault(uid, rec) is rec  # one record from join to leave
            honest_end_round(fold, record, fc)

        monkeypatch.setattr(sim_module.RunFold, "end_round", end_round)
        config = SimulationConfig(
            SensingConfig(n=6, rounds=10, seed=2, report_loss_prob=0.2),
            churn=ChurnConfig(mu=0.8, join_count=CountRange(0, 2), leave_count=CountRange(0, 2)),
        )
        result = run_simulation(config)
        assert len(tables) == 10 and all(records is result.fc.records for records in tables)
        assert len(record_of) > 6  # users joined during the run


# One count raised by one at round 1 of a run of 3 users with no churn, and
# the one mismatch line it must give: first each term of the model, user U2
# standing for SU, then operations the model does not predict.
MODEL_MISCOUNTS = [
    ((0, FC_NAME, PHASE_INIT, OPE_ENC), "init FC ope_enc: measured 4, expected 3"),
    ((0, FC_NAME, PHASE_INIT, AEAD_ENC), "init FC aead_enc: measured 4, expected 3"),
    ((0, GW_NAME, PHASE_INIT, AEAD_DEC), "init GW aead_dec: measured 4, expected 3"),
    ((1, FC_NAME, PHASE_SENSING, AEAD_DEC), "round 1 FC aead_dec: measured 2, expected 1"),
    ((1, FC_NAME, PHASE_MEMBERSHIP, AEAD_ENC), "round 1 FC membership aead_enc: measured 1, expected 0"),
    ((1, FC_NAME, PHASE_MEMBERSHIP, OPE_ENC), "round 1 FC membership ope_enc: measured 1, expected 0"),
    ((1, GW_NAME, PHASE_SENSING, AEAD_DEC), "round 1 GW aead_dec: measured 4, expected 3"),
    ((1, GW_NAME, PHASE_SENSING, AEAD_ENC), "round 1 GW aead_enc: measured 2, expected 1"),
    ((1, GW_NAME, PHASE_MEMBERSHIP, AEAD_DEC), "round 1 GW membership aead_dec: measured 1, expected 0"),
    ((1, "U2", PHASE_SENSING, OPE_ENC), "round 1 U2 ope_enc: measured 2, expected 1"),
    ((1, "U2", PHASE_SENSING, AEAD_ENC), "round 1 U2 aead_enc: measured 2, expected 1"),
]
UNPREDICTED_MISCOUNTS = [
    ((1, FC_NAME, PHASE_SENSING, AEAD_ENC), "round 1 FC aead_enc: measured 1, expected 0"),
    ((1, GW_NAME, PHASE_MEMBERSHIP, AEAD_ENC), "round 1 GW membership aead_enc: measured 1, expected 0"),
    ((1, "U9", PHASE_SENSING, OPE_ENC), "round 1 U9 ope_enc: measured 1, expected 0"),  # not on the roster
]


class TestConformance:
    def test_fc_counts_without_churn(self, round_ops):
        result = small_run(n=50, rounds=3)
        (ops,) = round_ops
        for t in (1, 2, 3):
            assert ops[t, FC_NAME, PHASE_SENSING, AEAD_DEC] == 1
            assert ops[t, FC_NAME, PHASE_SENSING, AEAD_ENC] == 0
            assert ops[t, FC_NAME, PHASE_SENSING, OPE_ENC] == 0
        assert verify_computation_counts(result).ok

    def test_fc_counts_with_five_joins(self, round_ops):
        config = SimulationConfig(
            SensingConfig(n=10, rounds=3, seed=1),
            churn=ChurnConfig(mu=1.0, join_count=CountRange(5, 5), leave_count=CountRange(0, 0)),
        )
        result = run_simulation(config)
        (ops,) = round_ops
        assert ops[2, FC_NAME, "membership", AEAD_ENC] == 5
        assert ops[2, FC_NAME, "membership", OPE_ENC] == 5
        assert verify_computation_counts(result).ok

    def test_gw_counts_scale_with_population(self, round_ops):
        small_run(n=100, rounds=2)
        (ops,) = round_ops
        assert ops[1, GW_NAME, PHASE_SENSING, AEAD_DEC] == 100
        assert ops[1, GW_NAME, PHASE_SENSING, AEAD_ENC] == 1

    def test_traffic_matches_framing_model(self):
        result = small_run(n=25, rounds=4)
        assert verify_communication_counts(result).ok
        measured = 8 * result.recorder.tally.sensing_bytes[1]
        assert measured == round_wire_bits(25, 25, 32)

    def test_counter_totals_match_transcript_events(self, monkeypatch, round_ops):
        # audit: one logged event per counted crypto operation, in an honest
        # run and in one where a report fails authentication at the gateway;
        # a message's send is the event of its encryption
        def audit(result):
            ops = round_ops[-1]
            for op in (OPE_ENC, AEAD_ENC, AEAD_DEC):
                counted = sum(c for (_, _, _, o), c in ops.items() if o == op)
                logged = sum(
                    1
                    for log in result.recorder.view_logs.values()
                    for event in log
                    if event.meta.get("op") == op or (op == AEAD_ENC and event.direction == "sent")
                )
                assert counted == logged, op

        audit(small_run(n=12, rounds=6))

        tamper_reports(monkeypatch, flip_tag_bit, 2, uid=3)
        result = small_run(n=12, rounds=6)
        assert [(e["round"], e["reason"]) for e in result.recorder.tally.protocol_errors] == [
            (2, "report failed authentication")
        ]
        audit(result)

    def test_failed_decision_vector_aborts_only_its_round(self, monkeypatch):
        # a flipped tag bit fails authentication; a vector one byte short is
        # malformed and also one byte off the framing model
        for tamper, reason, off_model in (
            (flip_tag_bit, "decision vector failed authentication", []),
            (lambda wire: wire[:-1], "decision vector is malformed", ["round 2"]),
        ):
            tamper_decision_vector(monkeypatch, tamper, 2)
            result = small_run(rounds=4)
            report = json.loads(result.report_json())
            aborted = report["rounds"][1]
            assert aborted["t"] == 2
            assert (aborted["decision"], aborted["vote_sum"], aborted["lambda"]) == (None, None, None)
            assert aborted["present"] == [] and aborted["bits"] == {}
            assert aborted["n_live"] == 10
            assert all(r["decision"] is not None for i, r in enumerate(report["rounds"]) if i != 1)
            # reputation and weights untouched: the round's phi row repeats round 1's
            phi = report["reputation"]["phi_trajectory"]
            assert phi[1] == phi[0] and phi[2] != phi[1]
            assert [(e["round"], e["entity"], e["reason"]) for e in result.recorder.tally.protocol_errors] == [
                (2, FC_NAME, reason)
            ]
            assert verify_computation_counts(result).ok
            mismatches = verify_communication_counts(result).mismatches
            assert [line.split(":")[0] for line in mismatches] == off_model
            assert result.leakage.conforms
            # Q_f and Q_m count the three decided rounds only
            rates = estimate_error_rates(result.rounds)
            assert sum(q.trials for q in (rates.q_f, rates.q_m) if q is not None) == 3

    def test_fusion_centers_vector_decryption_holds_the_rounds_votes(self, monkeypatch):
        # churn, lost reports, all three adversary kinds and one tampered
        # vector: the fusion center's view of each round's votes is its one
        # decryption of the vector, whose value unpacks to the round's bits
        tamper_decision_vector(monkeypatch, flip_tag_bit, 3)
        config = SimulationConfig(
            SensingConfig(n=9, rounds=6, seed=11, report_loss_prob=0.1),
            churn=ChurnConfig(mu=0.8, join_count=CountRange(1, 2), leave_count=CountRange(0, 1)),
            adversary=AdversaryProfile(
                {1: Behavior(STUCK_AT, stuck_bit=1), 2: Behavior(ALWAYS_FLIP), 3: Behavior(RANDOM_FLIP, flip_prob=0.5)}
            ),
        )
        result = run_simulation(config)
        events = result.recorder.events
        assert any(r.joins or r.leaves for r in result.rounds)
        assert any(len(r.delivered) < len(r.roster) for r in result.rounds)
        decryptions = [e for e in events if e.entity == FC_NAME and e.direction == "decrypt"]
        assert [e.round for e in decryptions] == [r.t for r in result.rounds]
        for r, e in zip(result.rounds, decryptions):
            if r.t == 3:
                assert r.result.outcome is None
                assert (e.tag, e.meta) == (ViewTag.OPAQUE_CIPHERTEXT, {"op": AEAD_DEC})
                continue
            assert e.tag == ViewTag.PLAINTEXT_BIT and e.meta["kind"] == "vote_vector"
            roster = list(r.roster)
            payload = bytes.fromhex(e.meta["value"])
            assert len(payload) == 2 * ((len(roster) + 7) // 8)
            assert list(unpack_decision_vector(roster, payload).items()) == list(r.result.bits.items())
        assert {b for r in result.rounds for b in r.result.bits.values()} == {0, 1}
        # the fusion center logs no vote of its own
        assert not any(e.entity == FC_NAME and e.meta.get("kind") == "vote" for e in events)
        assert result.leakage.conforms

    def test_truncated_report_is_malformed_and_skipped(self, monkeypatch):
        tamper_reports(monkeypatch, lambda wire: wire[:-1], 2, uid=2)
        result = small_run(n=5, rounds=3)
        assert [(e["round"], e["entity"], e["reason"], e["user"]) for e in result.recorder.tally.protocol_errors] == [
            (2, GW_NAME, "report is malformed", 2)
        ]
        assert [r.result.present for r in result.rounds] == [(1, 2, 3, 4, 5), (1, 3, 4, 5), (1, 2, 3, 4, 5)]
        assert all(r.result.outcome is not None for r in result.rounds)
        assert verify_computation_counts(result).ok
        # the delivered report is one byte short of the framing model, in round 2 only
        mismatches = verify_communication_counts(result).mismatches
        assert [line.split(":")[0] for line in mismatches] == ["round 2"]
        assert result.leakage.conforms

    def test_message_sizes_are_body_lengths(self, monkeypatch):
        # each message is logged as sent right after its encryption and as
        # received right before its decryption, so the recorded sizes must
        # equal the lengths of those bytes, one for one and in order
        encrypted: list[bytes] = []
        decrypted: list[bytes] = []
        honest_encrypt = entities_module.aead_encrypt
        honest_decrypt = entities_module.aead_decrypt

        def encrypt(key, payload, assoc=b""):
            wire = honest_encrypt(key, payload, assoc)
            encrypted.append(wire)
            return wire

        def decrypt(key, wire, assoc=b""):
            decrypted.append(wire)
            return honest_decrypt(key, wire, assoc)

        monkeypatch.setattr(entities_module, "aead_encrypt", encrypt)
        monkeypatch.setattr(entities_module, "aead_decrypt", decrypt)
        # sent whole, shortened on the link: received counts what arrived
        tamper_reports(monkeypatch, lambda wire: wire[:-2], 3)
        config = SimulationConfig(
            SensingConfig(n=6, rounds=5, seed=4, report_loss_prob=0.2),
            churn=ChurnConfig(mu=1.0, join_count=CountRange(0, 2), leave_count=CountRange(0, 1)),
        )
        result = run_simulation(config)
        events = result.recorder.events
        assert [e.size_bytes for e in events if e.direction == "sent"] == [len(w) for w in encrypted]
        assert [e.size_bytes for e in events if e.direction == "received"] == [len(w) for w in decrypted]
        # the run has joins, lost reports and malformed ones
        assert any(r.beta for r in result.rounds)
        assert any(len(r.delivered) < len(r.roster) for r in result.rounds)
        assert {e["reason"] for e in result.recorder.tally.protocol_errors} == {"report is malformed"}

    def test_tampered_join_init_message_is_recorded(self, monkeypatch):
        # U6 joins in round 2 and its wrapped threshold arrives tampered: the
        # gateway records the error and never caches U6, so each of U6's
        # reports is refused before delivery; both parties still pack over
        # the same roster, so every round decides without U6
        tamper_init_messages(monkeypatch, 2)
        config = SimulationConfig(
            SensingConfig(n=5, rounds=4, seed=3),
            churn=ChurnConfig(mu=1.0, join_count=CountRange(1, 1), leave_count=CountRange(0, 0)),
        )
        result = run_simulation(config)
        assert [r.joins for r in result.rounds] == [(), (6,), (7,), (8,)]
        errors = [(e["round"], e["entity"], e["reason"]) for e in result.recorder.tally.protocol_errors]
        assert errors == [
            (2, GW_NAME, "init message failed authentication"),
            (2, GW_NAME, "report from user with no threshold"),
            (3, GW_NAME, "report from user with no threshold"),
            (4, GW_NAME, "report from user with no threshold"),
        ]
        assert [r.result.outcome is None for r in result.rounds] == [False, False, False, False]
        # U6's reports are refused before delivery, so the counts still conform
        assert [r.delivered for r in result.rounds] == [
            (1, 2, 3, 4, 5), (1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 7), (1, 2, 3, 4, 5, 7, 8)
        ]
        assert verify_computation_counts(result).ok
        assert verify_communication_counts(result).ok
        assert result.leakage.conforms

    def test_leaver_whose_threshold_was_refused_leaves_cleanly(self, monkeypatch):
        # the user joining in round 2 has its wrapped threshold arrive
        # tampered, so the gateway never caches it and refuses its reports
        # until it leaves, with no cache entry to drop, and no round aborts
        tamper_init_messages(monkeypatch, 2)
        config = SimulationConfig(
            SensingConfig(n=4, rounds=30, seed=3),
            churn=ChurnConfig(mu=1.0, join_count=CountRange(1, 1), leave_count=CountRange(1, 1)),
        )
        result = run_simulation(config)
        assert all((len(r.joins), len(r.leaves)) == (1, 1) for r in result.rounds[1:])
        (newcomer,) = result.rounds[1].joins
        left = next(r.t for r in result.rounds if newcomer in r.leaves)
        assert [r.t for r in result.rounds if newcomer in r.roster] == list(range(2, left))
        errors = [(e["round"], e["entity"], e["reason"]) for e in result.recorder.tally.protocol_errors]
        assert errors == [(2, GW_NAME, "init message failed authentication")] + [
            (t, GW_NAME, "report from user with no threshold") for t in range(2, left)
        ]
        assert [r.result.outcome is None for r in result.rounds] == [False] * 30
        assert verify_computation_counts(result).ok
        assert verify_communication_counts(result).ok
        assert result.leakage.conforms

    def test_threshold_refused_at_initialization_costs_only_its_users_votes(self, monkeypatch):
        # U2's wrapped threshold arrives tampered at initialization, and a
        # user joins each round: both parties pack over the same roster, so
        # every round decides, without U2, whose reports are refused
        tamper_init_messages(monkeypatch, 0, uid=2)
        config = SimulationConfig(
            SensingConfig(n=4, rounds=8, seed=3),
            churn=ChurnConfig(mu=1.0, join_count=CountRange(1, 1), leave_count=CountRange(0, 0)),
        )
        result = run_simulation(config)
        assert all(r.result.outcome is not None for r in result.rounds)
        assert all(2 in r.roster and 2 not in r.result.present for r in result.rounds)
        errors = [(e["round"], e["entity"], e["reason"], e["user"]) for e in result.recorder.tally.protocol_errors]
        assert errors == [(0, GW_NAME, "init message failed authentication", 2)] + [
            (t, GW_NAME, "report from user with no threshold", 2) for t in range(1, 9)
        ]
        assert verify_computation_counts(result).ok
        assert verify_communication_counts(result).ok
        assert result.leakage.conforms

    def test_duplicated_init_message_is_refused(self, monkeypatch):
        # the first wrapped threshold arrives twice, same nonce and round: the
        # second copy is refused before delivery, so it is neither decrypted
        # nor counted as traffic
        def ingest(gw, messages, recorder):
            entities_module.gw_ingest_init(gw, [*messages, messages[0]], recorder)

        monkeypatch.setattr(sim_module, "gw_ingest_init", ingest)
        result = small_run(n=4, rounds=3, seed=3)
        assert verify_computation_counts(result).mismatches == []
        assert verify_communication_counts(result).ok
        errors = [(e["round"], e["entity"], e["reason"], e["user"]) for e in result.recorder.tally.protocol_errors]
        assert errors == [(0, GW_NAME, "duplicate init message", 1)]
        assert result.leakage.conforms
        assert all(r.result.outcome is not None for r in result.rounds)

    def test_wrong_length_decision_vector_aborts_only_its_round(self, monkeypatch):
        # the gateway packs once a round; in round 2 it sends an authenticated
        # vector one byte long for 3 users, which needs two
        honest_pack = entities_module.pack_decision_vector
        packed = []

        def short_in_round_2(roster, bits):
            packed.append(roster)
            payload = honest_pack(roster, bits)
            return payload[:1] if len(packed) == 2 else payload

        monkeypatch.setattr(entities_module, "pack_decision_vector", short_in_round_2)
        result = small_run(n=3, rounds=3)
        report = json.loads(result.report_json())
        assert [r["decision"] is None for r in report["rounds"]] == [False, True, False]
        assert [(e["round"], e["entity"], e["reason"]) for e in result.recorder.tally.protocol_errors] == [
            (2, FC_NAME, "decision vector has the wrong length")
        ]
        assert verify_computation_counts(result).ok
        # the short vector is one byte off the framing model, in round 2 only
        assert [line.split(":")[0] for line in verify_communication_counts(result).mismatches] == [
            "round 2"
        ]
        assert result.leakage.conforms

    def test_run_with_every_round_aborted_finishes(self, monkeypatch):
        tamper_decision_vector(monkeypatch, flip_tag_bit)
        result = small_run(n=3, rounds=2)
        report = json.loads(result.report_json())
        assert [r["decision"] for r in report["rounds"]] == [None, None]
        assert report["error_rates"] == {"q_f": None, "q_m": None}
        assert report["leakage"]["verdict"] == "conforms"
        assert [e["reason"] for e in result.recorder.tally.protocol_errors] == [
            "decision vector failed authentication"
        ] * 2

    def test_mismatch_is_reported_not_hidden(self, monkeypatch):
        # the count is bogus in round 1 only, and must still be reported once
        # later rounds have folded their counts in
        honest_end_round = sim_module.RunFold.end_round

        def end_round(fold, record, fc):
            if record.t == 1:
                fold.tally.ops[1, FC_NAME, PHASE_SENSING, AEAD_DEC] += 1  # inject a bogus count
                fold.tally.ops[0, GW_NAME, PHASE_INIT, AEAD_DEC] += 1  # and one in initialization's
            honest_end_round(fold, record, fc)

        monkeypatch.setattr(sim_module.RunFold, "end_round", end_round)
        result = small_run(rounds=3)
        verdict = verify_computation_counts(result)
        assert not verdict.ok
        assert any("FC aead_dec" in line for line in verdict.mismatches)
        assert verdict.mismatches == [
            "init GW aead_dec: measured 11, expected 10",
            "round 1 FC aead_dec: measured 2, expected 1",
        ]

    @pytest.mark.parametrize(
        "key, line",
        MODEL_MISCOUNTS + UNPREDICTED_MISCOUNTS,
        ids=[line.split(":")[0].replace(" ", "-") for _, line in MODEL_MISCOUNTS + UNPREDICTED_MISCOUNTS],
    )
    def test_each_miscounted_op_gives_one_mismatch_line(self, monkeypatch, key, line):
        honest_end_round = sim_module.RunFold.end_round

        def end_round(fold, record, fc):
            if record.t == 1:
                fold.tally.ops[key] += 1
            honest_end_round(fold, record, fc)

        monkeypatch.setattr(sim_module.RunFold, "end_round", end_round)
        assert verify_computation_counts(small_run(n=3, rounds=2)).mismatches == [line]

    def test_miscount_cases_cover_every_model_term(self):
        covered = {(SU if entity == "U2" else entity, phase, op) for (_, entity, phase, op), _ in MODEL_MISCOUNTS}
        assert covered == set(lp3pss_round_ops(3, 0, 3))

    def test_eventful_run_counts_nothing_outside_the_model(self):
        # the check flags any counted op without a model term, so both
        # verdicts being ok means the model leaves no op of this run out
        config = SimulationConfig(
            SensingConfig(n=40, rounds=15, seed=11, report_loss_prob=0.2),
            churn=ChurnConfig(mu=1.0, join_count=CountRange(0, 3), leave_count=CountRange(0, 3)),
            adversary=AdversaryProfile({1: Behavior(ALWAYS_FLIP), 2: Behavior(STUCK_AT, stuck_bit=0)}),
        )
        result = run_simulation(config)
        assert any(r.joins for r in result.rounds) and any(r.leaves for r in result.rounds)
        assert any(len(r.delivered) < len(r.roster) for r in result.rounds)
        assert verify_computation_counts(result).ok
        assert verify_communication_counts(result).ok

    def test_analytical_counts_equal_measured_counts(self, round_ops):
        # the cost-model row and the instrumented run must agree exactly
        beta, n = 3, 20
        config = SimulationConfig(
            SensingConfig(n=n, rounds=3, seed=6),
            churn=ChurnConfig(mu=1.0, join_count=CountRange(beta, beta), leave_count=CountRange(0, 0)),
        )
        result = run_simulation(config)
        record = result.rounds[1]  # a round with beta joins
        model = analytical_cost(
            COST_LP3PSS, len(record.roster), AnalyticalCostParams(beta=float(beta))
        ).computation
        (ops,) = round_ops
        t = record.t
        assert ops[t, FC_NAME, PHASE_SENSING, AEAD_DEC] == model["FC"]["D"]
        assert ops[t, FC_NAME, "membership", AEAD_ENC] == model["FC"]["E"]
        assert ops[t, FC_NAME, "membership", OPE_ENC] == model["FC"]["OPE_E"]
        assert ops[t, GW_NAME, PHASE_SENSING, AEAD_DEC] == model["GW"]["D"]
        assert ops[t, GW_NAME, PHASE_SENSING, AEAD_ENC] == model["GW"]["E"]
        for uid in record.roster:
            name = user_name(uid)
            assert ops[t, name, PHASE_SENSING, OPE_ENC] == model["SU"]["OPE_E"]
            assert ops[t, name, PHASE_SENSING, AEAD_ENC] == model["SU"]["E"]


def reference_report(result, phi_rows: list[dict[int, float]], ops: Counter) -> dict:
    """The report as a dict, built the way the report used to be built in full.

    ``phi_rows`` holds each round's credibilities as the round ended and
    ``ops`` the run's ``Tally.ops`` over all rounds, both seen through the
    driver's round-end step; op counts are totalled here, not by the tally.
    """
    config = result.config
    churn = config.churn
    tally = result.recorder.tally
    totals: dict[tuple[str, str, str], int] = {}
    for (_, entity, phase, op), c in ops.items():
        totals[entity, phase, op] = totals.get((entity, phase, op), 0) + c
    op_counts: dict = {}
    for (entity, phase, op), c in sorted(totals.items()):
        op_counts.setdefault(entity, {}).setdefault(phase, {})[op] = c

    def outcome_fields(outcome):
        if outcome is None:  # aborted round
            return {"decision": None, "vote_sum": None, "lambda": None}
        return {"decision": outcome.decision, "vote_sum": outcome.vote_sum, "lambda": outcome.lam}

    return {
        "config": {
            "sensing": {**dataclasses.asdict(config.sensing), "tau": result.tau},
            "channel": {**dataclasses.asdict(config.channel), "sigma": result.model.sigma},
            "churn": {
                "mu": churn.mu,
                "join": [churn.join_count.lo, churn.join_count.hi],
                "leave": [churn.leave_count.lo, churn.leave_count.hi],
            },
            "adversary": {str(u): dataclasses.asdict(b) for u, b in sorted(config.adversary.behaviors.items())},
            "crypto": dataclasses.asdict(config.crypto),
        },
        "rounds": [
            {
                "t": r.t,
                "truth": r.truth,
                **outcome_fields(r.result.outcome),
                "n_live": r.result.n_live,
                "beta": r.beta,
                "joins": list(r.joins),
                "leaves": list(r.leaves),
                "present": list(r.result.present),
                "bits": {str(u): b for u, b in sorted(r.result.bits.items())},
            }
            for r in result.rounds
        ],
        "reputation": {
            "final": {
                str(u): {"rho": rec.rho, "eta": rec.eta, "phi": rec.phi, "weight": rec.weight}
                for u, rec in sorted(result.fc.records.items())
            },
            "phi_trajectory": [{str(u): phi for u, phi in sorted(row.items())} for row in phi_rows],
        },
        "error_rates": estimate_error_rates(result.rounds).to_dict(),
        "op_counts": op_counts,
        "comm": {
            "links": tally.link_totals(),
            "logical_per_round": {str(t): c for t, c in tally.logical_per_round().items()},
        },
        "leakage": {
            "verdict": "conforms" if result.leakage.conforms else "violates",
            "entities": dict(sorted(result.leakage.verdicts.items())),
        },
        "protocol_errors": tally.protocol_errors,
    }


def run_watching_rounds(config, aborted_round):
    """Run ``config``, aborting ``aborted_round`` by a tampered decision vector.

    Returns the result, each round's credibilities and the run's op counts
    as each round ended, before the driver folded them.
    """
    phi_rows: list[dict[int, float]] = []
    ops: Counter = Counter()
    honest_end_round = sim_module.RunFold.end_round

    def end_round(fold, record, fc):
        phi_rows.append({u: rec.phi for u, rec in fc.records.items()})
        ops.update(fold.tally.ops)
        honest_end_round(fold, record, fc)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim_module.RunFold, "end_round", end_round)
        tamper_decision_vector(patch, flip_tag_bit, aborted_round)
        result = run_simulation(config)
    return result, phi_rows, ops


behaviors = st.one_of(
    st.builds(Behavior, st.just(ALWAYS_FLIP)),
    st.builds(Behavior, st.just(RANDOM_FLIP), flip_prob=st.floats(0.0, 1.0)),
    st.builds(Behavior, st.just(STUCK_AT), stuck_bit=st.sampled_from([0, 1])),
)


@st.composite
def small_configs(draw, max_n=6, max_rounds=6):
    n = draw(st.integers(1, max_n))
    rounds = draw(st.integers(1, max_rounds))
    join_lo = draw(st.integers(0, 2))
    leave_lo = draw(st.integers(0, 2))
    return SimulationConfig(
        SensingConfig(
            n=n,
            rounds=rounds,
            seed=draw(st.integers(0, 2**63 - 1)),
            busy_prob=draw(st.sampled_from([0.0, 0.5, 1.0])),
            report_loss_prob=draw(st.sampled_from([0.0, 0.3])),
        ),
        churn=ChurnConfig(
            mu=draw(st.floats(0.0, 1.0)),
            join_count=CountRange(join_lo, join_lo + draw(st.integers(0, 2))),
            leave_count=CountRange(leave_lo, leave_lo + draw(st.integers(0, 2))),
        ),
        adversary=AdversaryProfile(draw(st.dictionaries(st.integers(1, n + 3), behaviors, max_size=3))),
    )


@settings(max_examples=40)
@given(config=small_configs(max_n=8, max_rounds=4))
def test_small_random_runs_conform_to_the_model(config):
    result = run_simulation(config)
    assert verify_computation_counts(result).ok, result.fold.computation[:3]
    assert verify_communication_counts(result).ok, result.fold.communication[:3]


# one field each, set to a value outside its range or of the wrong type
_BAD_FIELDS = [
    ("sensing", "n", 0),
    ("sensing", "n", True),
    ("sensing", "rounds", 0),
    ("sensing", "rounds", 2.0),
    ("sensing", "seed", -1),
    ("sensing", "seed", 2**63),
    ("sensing", "p_f", 0.0),
    ("sensing", "p_f", 1e-320),
    ("sensing", "p_m", 1.0),
    ("sensing", "tau", -1),
    ("sensing", "tau", 65536),
    ("sensing", "busy_prob", 1.5),
    ("sensing", "report_loss_prob", 1.0),
    ("churn", "mu", 1.5),
    ("churn", "join", [3, 1]),
    ("churn", "leave", [0]),
    ("channel", "mu1", 70000),
    ("channel", "sigma", 0.0),
    ("channel", "step_dbm", 0),
    ("crypto", "domain_bits", 33),
    ("crypto", "range_bits", 64),
    ("adversary", "0", {"kind": HONEST}),
    ("adversary", "2", {"kind": RANDOM_FLIP, "flip_prob": 2.0}),
]


@st.composite
def small_raw_configs(draw):
    """A JSON config document of at most 6 users and 4 rounds. Each field is
    left out or drawn from its range, with leaves past ``n``, adversaries on
    ids that may never be keyed and every behaviour, OPE widths and
    channels that do not fit together among them; half of the documents
    then get one field from ``_BAD_FIELDS``."""
    pair = st.tuples(st.integers(0, 4), st.integers(0, 4)).map(sorted)
    behavior = st.fixed_dictionaries(
        {"kind": st.sampled_from([HONEST, ALWAYS_FLIP, RANDOM_FLIP, STUCK_AT])},
        optional={"flip_prob": st.sampled_from([0.0, 0.5, 1.0]), "stuck_bit": st.sampled_from([0, 1])},
    )
    domain_bits = draw(st.sampled_from([8, 12, 16, 32]))
    raw = {
        "sensing": draw(st.fixed_dictionaries(
            {"n": st.integers(1, 6), "rounds": st.integers(1, 4), "seed": st.sampled_from([0, 7, 2**63 - 1])},
            optional={
                "p_f": st.sampled_from([0.01, 0.1, 0.3]),
                "p_m": st.sampled_from([0.1, 0.45, 0.6]),
                "tau": st.sampled_from([0, 1500, 3000, 4095, None]),
                "busy_prob": st.sampled_from([0.0, 0.5, 1.0]),
                "report_loss_prob": st.sampled_from([0.0, 0.3, 0.99]),
            },
        )),
        "churn": draw(st.fixed_dictionaries(
            {}, optional={"mu": st.sampled_from([0.0, 0.5, 1.0]), "join": pair, "leave": pair.map(lambda p: [p[0], 2 * p[1]])}
        )),
        "channel": draw(st.fixed_dictionaries(
            {}, optional={"mu0": st.just(100), "mu1": st.just(4000), "sigma": st.sampled_from([None, 5.0, 800.0, 1e300])}
        )),
        "crypto": draw(st.fixed_dictionaries(
            {}, optional={"domain_bits": st.just(domain_bits), "range_bits": st.integers(domain_bits + 8, 63)}
        )),
        "adversary": draw(st.dictionaries(st.sampled_from(["1", "2", "5", "9"]), behavior, max_size=3)),
    }
    if draw(st.booleans()):
        section, key, value = draw(st.sampled_from(_BAD_FIELDS))
        raw[section][key] = value
    return raw


@settings(max_examples=50)
@given(raw=small_raw_configs())
def test_every_small_config_is_refused_or_runs_to_its_end(raw):
    try:
        config = config_from_dict(raw)
        config.resolve_channel()  # run_simulation's first step, where the channel is checked
    except ConfigError as exc:
        event(f"refused: {str(exc).split(':')[0]}")
        return
    event("ran")
    result = run_simulation(config)
    assert len(result.rounds) == config.sensing.rounds
    assert verify_computation_counts(result).ok, result.fold.computation[:3]
    assert verify_communication_counts(result).ok, result.fold.communication[:3]


class TestReport:
    @settings(max_examples=100)
    @given(config=small_configs(), data=st.data())
    def test_written_report_equals_the_reference_encoding(self, config, data):
        # churn, loss and adversaries as drawn, and one round aborted
        aborted = data.draw(st.integers(1, config.sensing.rounds))
        result, phi_rows, ops = run_watching_rounds(config, aborted)
        assert result.rounds[aborted - 1].result.outcome is None
        reference = reference_report(result, phi_rows, ops)
        expected = json.dumps(reference, sort_keys=True, separators=(",", ":")) + "\n"
        assert result.report_json() == expected
        assert json.loads(result.report_json()) == reference

    def test_ended_rounds_leave_no_op_counts_behind(self, monkeypatch):
        # the tally keeps one round's operation counts: as each round ends it
        # folds them, so a run of 30 rounds ends with as many keys as one of 3
        kept: list[set[int]] = []
        honest_end_round = sim_module.RunFold.end_round

        def end_round(fold, record, fc):
            honest_end_round(fold, record, fc)
            kept.append({key[0] for key in fold.tally.ops})

        monkeypatch.setattr(sim_module.RunFold, "end_round", end_round)
        short, long = small_run(n=8, rounds=3), small_run(n=8, rounds=30)
        assert len(short.recorder.tally.ops) == len(long.recorder.tally.ops)
        assert all(not rounds for rounds in kept)
        for result in (short, long):
            assert not any(t <= result.rounds[-1].t for t, _, _, _ in result.recorder.tally.ops)
            totals = result.recorder.tally.op_totals()
            assert totals[GW_NAME][PHASE_SENSING][AEAD_DEC] == 8 * len(result.rounds)


class TestCollectorPause:
    # run_simulation pauses automatic collection for the whole run, on the
    # premise that a run makes no reference cycles
    @pytest.mark.parametrize("faulty", [False, True], ids=["honest", "tampered"])
    def test_a_run_makes_no_reference_cycles(self, monkeypatch, faulty):
        config = SimulationConfig(
            SensingConfig(n=30, rounds=12, seed=5, report_loss_prob=0.1 if faulty else 0.0),
            churn=ChurnConfig(mu=1.0, join_count=CountRange(0, 3), leave_count=CountRange(0, 3)),
            adversary=AdversaryProfile(
                {1: Behavior(ALWAYS_FLIP), 2: Behavior(STUCK_AT, stuck_bit=1)} if faulty else {}
            ),
        )
        if faulty:
            tamper_reports(monkeypatch, flip_tag_bit, 3, uid=4)
            tamper_decision_vector(monkeypatch, flip_tag_bit, 5)
        with collection(False):
            gc.collect()
            result = run_simulation(config)
            unreachable = gc.collect()
        assert unreachable == 0
        assert any(r.beta and r.leaves for r in result.rounds)
        reasons = {e["reason"] for e in result.recorder.tally.protocol_errors}
        assert reasons == ({"report failed authentication", "decision vector failed authentication"} if faulty else set())

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
    def test_run_pauses_collection_and_restores_the_callers_setting(self, monkeypatch, raises, enabled):
        seen: list[bool] = []

        def decide(fc, zeta, recorder):
            seen.append(gc.isenabled())
            if raises:
                raise ProtocolError("injected")
            return entities_module.fc_decide(fc, zeta, recorder)

        monkeypatch.setattr(sim_module, "fc_decide", decide)
        with collection(enabled):
            with pytest.raises(ProtocolError, match="injected") if raises else contextlib.nullcontext():
                small_run(rounds=3)
            assert gc.isenabled() is enabled
        assert seen == [False] * (1 if raises else 3)

    def test_run_hands_what_it_keeps_to_the_oldest_generation(self):
        with collection(True):
            assert gc.get_freeze_count() == 0
            result = small_run(rounds=3)
            assert young_count(result.recorder.events) == 0
            assert young_count([result, *result.rounds]) == 0

    def test_run_leaves_the_callers_frozen_objects_frozen(self):
        with collection(True):
            gc.freeze()
            try:
                frozen = gc.get_freeze_count()
                assert frozen > 0
                small_run(rounds=3)
                assert gc.get_freeze_count() == frozen
            finally:
                gc.unfreeze()


class TestErrorRates:
    def test_perfect_detector(self):
        config = SimulationConfig(
            SensingConfig(n=5, rounds=40, seed=2, tau=3000),
            channel=ChannelSpec(sigma=1.0),
        )
        rates = estimate_error_rates(run_simulation(config).rounds)
        assert rates.q_f.estimate == 0.0
        assert rates.q_m.estimate == 0.0

    def test_single_user_degenerates_to_local_test(self):
        config = SimulationConfig(SensingConfig(n=1, rounds=4000, seed=8, p_f=0.1, p_m=0.1))
        rates = estimate_error_rates(run_simulation(config).rounds)
        assert rates.q_f.ci_low <= 0.1 <= rates.q_f.ci_high
        assert rates.q_m.ci_low <= 0.1 <= rates.q_m.ci_high

    def test_unseen_hypothesis_unavailable(self):
        result = small_run(busy_prob=0.0, rounds=20)
        rates = estimate_error_rates(result.rounds)
        assert rates.q_m is None
        assert rates.q_f is not None

    def test_wilson_interval_known_value(self):
        est = wilson_interval(5, 100)
        assert est.estimate == 0.05
        assert est.ci_low == pytest.approx(0.0215, abs=2e-3)
        assert est.ci_high == pytest.approx(0.1125, abs=2e-3)

    def test_wilson_endpoints_are_exact_at_none_and_all(self):
        # the report writes these bounds: no float residue such as 5.55e-17
        for trials in range(1, 501):
            none, every = wilson_interval(0, trials), wilson_interval(trials, trials)
            assert none.ci_low == 0.0 and 0.0 < none.ci_high < 1.0, trials
            assert every.ci_high == 1.0 and 0.0 < every.ci_low < 1.0, trials

    def test_fused_error_beats_local_error(self):
        # with ten symmetric users and the optimal threshold the fused
        # Q_f + Q_m must land far below the per-user 0.2
        config = SimulationConfig(SensingConfig(n=10, rounds=2000, seed=31, p_f=0.1, p_m=0.1))
        rates = estimate_error_rates(run_simulation(config).rounds)
        assert rates.q_f.estimate + rates.q_m.estimate < 0.05


class TestConfigParsing:
    def test_full_document(self):
        raw = {
            "sensing": {"n": 4, "rounds": 2, "seed": 1, "p_f": 0.05, "p_m": 0.1},
            "channel": {"mu0": 1000, "mu1": 5000},
            "churn": {"mu": 0.3, "join": [1, 2], "leave": [0, 1]},
            "adversary": {"2": {"kind": "random-flip", "flip_prob": 0.4}},
            "crypto": {"domain_bits": 16, "range_bits": 32},
        }
        config = config_from_dict(raw)
        assert config.sensing.n == 4
        assert config.churn.join_count == CountRange(1, 2)
        assert config.adversary.behavior_of(2).flip_prob == 0.4
        run_simulation(config)  # must be executable as-is

    @pytest.mark.parametrize(
        "raw, fragment",
        [
            ({}, "sensing"),
            ({"sensing": {"n": 0, "rounds": 1, "seed": 1}}, "sensing.n"),
            ({"sensing": {"n": 1, "rounds": 1, "seed": 1}, "bogus": {}}, "bogus"),
            ({"sensing": {"n": 1, "rounds": 1, "seed": 1, "extra": 2}}, "sensing.extra"),
            ({"sensing": {"n": 1, "rounds": 1, "seed": 1}, "churn": {"join": [2]}}, "churn.join"),
            (
                {"sensing": {"n": 1, "rounds": 1, "seed": 1}, "adversary": {"x": {"kind": "honest"}}},
                "adversary.x",
            ),
            (
                {"sensing": {"n": 1, "rounds": 1, "seed": 1}, "adversary": {"1": {"kind": "evil"}}},
                "adversary.1",
            ),
            ({"sensing": {"n": 1, "rounds": 1, "seed": 1}, "crypto": {"domain_bits": 40}}, "crypto"),
            ({"sensing": {"n": 1, "rounds": 1, "seed": 1}, "churn": "x"}, "churn"),
        ],
    )
    def test_field_level_diagnostics(self, raw, fragment):
        with pytest.raises(ConfigError) as err:
            config_from_dict(raw)
        assert fragment in str(err.value)

    @pytest.mark.parametrize("step", [0, 0.0, -0.0, -5, -1e-300])
    def test_a_non_positive_dbm_step_is_refused(self, step):
        raw = {"sensing": {"n": 1, "rounds": 1, "seed": 1}, "channel": {"step_dbm": step}}
        with pytest.raises(ConfigError) as err:
            config_from_dict(raw)
        assert str(err.value) == "channel.step_dbm: must be > 0"
        config_from_dict({**raw, "channel": {"step_dbm": 5e-324}})  # the least positive step is a grid

    def test_tau_must_fit_domain(self):
        config = SimulationConfig(
            SensingConfig(n=1, rounds=1, seed=1, tau=300),
            channel=ChannelSpec(mu0=100.0, mu1=200.0, sigma=5.0),
            crypto=CryptoParams(8, 16),
        )
        with pytest.raises(ConfigError):
            config.resolve_channel()

    @pytest.mark.parametrize(
        "n, rounds, mu, join_hi",
        [
            (MAX_POPULATION, 1, 0.0, 0),
            (MAX_POPULATION - 9 * 7, 10, 0.5, 7),
            (1, MAX_POPULATION, 1.0, 1),
            (3, 50, 0.0, 2**63 - 1),  # no change event ever fires: nobody joins
        ],
    )
    def test_a_worst_case_population_at_the_cap_is_accepted(self, n, rounds, mu, join_hi):
        churn = ChurnConfig(mu=mu, join_count=CountRange(0, join_hi))
        SimulationConfig(SensingConfig(n=n, rounds=rounds, seed=1), churn=churn)

    @pytest.mark.parametrize(
        "n, rounds, mu, join_hi",
        [
            (MAX_POPULATION + 1, 1, 0.0, 0),
            (MAX_POPULATION - 9 * 7 + 1, 10, 0.5, 7),
            (1, MAX_POPULATION + 1, 1.0, 1),
            (3, 2, 1.0, 10**11),
        ],
    )
    def test_a_worst_case_population_past_the_cap_is_refused(self, n, rounds, mu, join_hi):
        churn = ChurnConfig(mu=mu, join_count=CountRange(0, join_hi))
        with pytest.raises(ConfigError) as err:
            SimulationConfig(SensingConfig(n=n, rounds=rounds, seed=1), churn=churn)
        assert str(err.value).startswith("sensing.n, sensing.rounds, churn.join: ")
        assert f"= {n + (rounds - 1) * join_hi} users" in str(err.value)
