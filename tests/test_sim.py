"""Driver behavior: determinism, counters, error rates, config parsing."""

import dataclasses
import io
import json

import pytest

from lp3pss import entities as entities_module
from lp3pss import sim as sim_module
from lp3pss.costs import (
    LP3PSS as COST_LP3PSS,
    AnalyticalCostParams,
    analytical_cost,
    measured_round_bits_model,
)
from lp3pss.crypto import AeadCiphertext
from lp3pss.recording import (
    AEAD_DEC,
    AEAD_ENC,
    FC_NAME,
    GW_NAME,
    OPE_ENC,
    PHASE_SENSING,
    user_name,
)
from lp3pss.scenario import ALWAYS_FLIP, AdversaryProfile, Behavior, ChurnConfig, CountRange
from lp3pss.sim import (
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


class TestDriver:
    def test_single_round_has_n_plus_one_ciphertexts(self):
        result = small_run(rounds=1)
        assert result.tally.logical_per_round() == {1: 11}

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
        for record in result.rounds:
            for uid in record.result.present:
                expected = 1 if record.reported_rss[uid] >= result.tau else 0
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


class TestConformance:
    def test_fc_counts_without_churn(self):
        result = small_run(n=50, rounds=3)
        ops = result.tally.ops
        for t in (1, 2, 3):
            assert ops[t, FC_NAME, PHASE_SENSING, AEAD_DEC] == 1
            assert ops[t, FC_NAME, PHASE_SENSING, AEAD_ENC] == 0
            assert ops[t, FC_NAME, PHASE_SENSING, OPE_ENC] == 0
        assert verify_computation_counts(result).ok

    def test_fc_counts_with_five_joins(self):
        config = SimulationConfig(
            SensingConfig(n=10, rounds=3, seed=1),
            churn=ChurnConfig(mu=1.0, join_count=CountRange(5, 5), leave_count=CountRange(0, 0)),
        )
        result = run_simulation(config)
        ops = result.tally.ops
        assert ops[2, FC_NAME, "membership", AEAD_ENC] == 5
        assert ops[2, FC_NAME, "membership", OPE_ENC] == 5
        assert verify_computation_counts(result).ok

    def test_gw_counts_scale_with_population(self):
        result = small_run(n=100, rounds=2)
        ops = result.tally.ops
        assert ops[1, GW_NAME, PHASE_SENSING, AEAD_DEC] == 100
        assert ops[1, GW_NAME, PHASE_SENSING, AEAD_ENC] == 1

    def test_traffic_matches_framing_model(self):
        result = small_run(n=25, rounds=4)
        assert verify_communication_counts(result).ok
        measured = 8 * result.tally.phase_bytes[1, PHASE_SENSING]
        assert measured == measured_round_bits_model(25, 32)

    def test_counter_totals_match_transcript_events(self, monkeypatch):
        # audit: one logged event per counted crypto operation, in an honest
        # run and in one where a report fails authentication at the gateway
        def audit(result):
            ops = result.tally.ops
            for op in (OPE_ENC, AEAD_ENC, AEAD_DEC):
                counted = sum(c for (_, _, _, o), c in ops.items() if o == op)
                logged = sum(
                    1
                    for log in result.recorder.view_logs.values()
                    for event in log
                    if event.meta.get("op") == op
                )
                assert counted == logged, op

        audit(small_run(n=12, rounds=6))

        honest_report = sim_module.su_sense_report

        def tampered_report(su, rss_q, recorder):
            msg = honest_report(su, rss_q, recorder)
            if su.uid == 3 and recorder.round == 2:
                body = msg.body
                flipped = AeadCiphertext(body.nonce, body.body, bytes([body.tag[0] ^ 1]) + body.tag[1:])
                msg = dataclasses.replace(msg, body=flipped)
            return msg

        monkeypatch.setattr(sim_module, "su_sense_report", tampered_report)
        result = small_run(n=12, rounds=6)
        assert [(e["round"], e["reason"]) for e in result.tally.protocol_errors] == [
            (2, "report failed authentication")
        ]
        audit(result)

    def test_failed_decision_vector_aborts_only_its_round(self, monkeypatch):
        honest_compare = sim_module.gw_compare

        def tampered_compare(gw, reports, recorder):
            msg = honest_compare(gw, reports, recorder)
            if recorder.round == 2:
                body = msg.body
                flipped = AeadCiphertext(body.nonce, body.body, bytes([body.tag[0] ^ 1]) + body.tag[1:])
                msg = dataclasses.replace(msg, body=flipped)
            return msg

        monkeypatch.setattr(sim_module, "gw_compare", tampered_compare)
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
        assert [(e["round"], e["entity"], e["reason"]) for e in result.tally.protocol_errors] == [
            (2, FC_NAME, "decision vector failed authentication")
        ]
        assert verify_computation_counts(result).ok
        assert verify_communication_counts(result).ok
        assert result.leakage.conforms
        # Q_f and Q_m count the three decided rounds only
        rates = estimate_error_rates(result.rounds)
        assert sum(q.trials for q in (rates.q_f, rates.q_m) if q is not None) == 3

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
        assert [(e["round"], e["entity"], e["reason"]) for e in result.tally.protocol_errors] == [
            (2, FC_NAME, "decision vector has the wrong length")
        ]
        assert verify_computation_counts(result).ok
        # the short vector is one byte off the framing model, in round 2 only
        assert [line.split(":")[0] for line in verify_communication_counts(result).mismatches] == [
            "round 2"
        ]
        assert result.leakage.conforms

    def test_run_with_every_round_aborted_finishes(self, monkeypatch):
        honest_compare = sim_module.gw_compare

        def tampered_compare(gw, reports, recorder):
            msg = honest_compare(gw, reports, recorder)
            body = msg.body
            flipped = AeadCiphertext(body.nonce, body.body, bytes([body.tag[0] ^ 1]) + body.tag[1:])
            return dataclasses.replace(msg, body=flipped)

        monkeypatch.setattr(sim_module, "gw_compare", tampered_compare)
        result = small_run(n=3, rounds=2)
        report = json.loads(result.report_json())
        assert [r["decision"] for r in report["rounds"]] == [None, None]
        assert report["error_rates"] == {"q_f": None, "q_m": None}
        assert report["leakage"]["verdict"] == "conforms"
        assert [e["reason"] for e in result.tally.protocol_errors] == [
            "decision vector failed authentication"
        ] * 2

    def test_mismatch_is_reported_not_hidden(self):
        result = small_run(rounds=1)
        result.tally.ops[1, FC_NAME, PHASE_SENSING, AEAD_DEC] += 1  # inject a bogus count
        verdict = verify_computation_counts(result)
        assert not verdict.ok
        assert any("FC aead_dec" in line for line in verdict.mismatches)

    def test_analytical_counts_equal_measured_counts(self):
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
        ops = result.tally.ops
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

    def test_tau_must_fit_domain(self):
        config = SimulationConfig(
            SensingConfig(n=1, rounds=1, seed=1, tau=300),
            channel=ChannelSpec(mu0=100.0, mu1=200.0, sigma=5.0),
            crypto=CryptoParams(8, 16),
        )
        with pytest.raises(ConfigError):
            config.resolve_channel()
