"""Leakage verdicts, injected-violation mutants, and attack oracles."""

import pytest

from lp3pss.observability import (
    BASELINE,
    LP3PSS,
    agg_view_from_logs,
    AggView,
    build_dlp_scenario,
    check_leakage,
    dlp_attack_oracle,
    inject_event,
    require_complete,
    run_baseline,
    srlp_exposure,
)
from lp3pss.recording import FC_NAME, GW_NAME, ViewTag, user_name
from lp3pss.scenario import ChurnConfig, CountRange
from lp3pss.sim import SensingConfig, SimulationConfig, run_simulation


def honest_events(n=10, rounds=20, seed=5, churn=ChurnConfig()):
    config = SimulationConfig(SensingConfig(n=n, rounds=rounds, seed=seed), churn=churn)
    return run_simulation(config).recorder.events


class TestCheckLeakage:
    def test_honest_run_conforms_everywhere(self):
        report = check_leakage(honest_events())
        assert report.conforms
        assert set(report.verdicts.values()) == {"conforms"}

    def test_honest_run_with_churn_conforms(self):
        churn = ChurnConfig(mu=0.5, join_count=CountRange(1, 2), leave_count=CountRange(0, 2))
        report = check_leakage(honest_events(rounds=15, churn=churn))
        assert report.conforms

    def test_ope_ciphertext_forwarded_to_fc_violates(self):
        events = inject_event(
            honest_events(), FC_NAME, ViewTag.OPE_ORDER_PAIR, {"kind": "rss_ope", "user": 3}
        )
        report = check_leakage(events)
        assert not report.conforms
        assert report.verdicts[FC_NAME] == "violates"

    def test_plaintext_tau_at_gateway_violates(self):
        events = inject_event(
            honest_events(), GW_NAME, ViewTag.PLAINTEXT_VALUE, {"kind": "tau", "value": 3000}
        )
        report = check_leakage(events)
        assert report.verdicts[GW_NAME] == "violates"

    def test_foreign_rss_at_fc_violates(self):
        events = inject_event(
            honest_events(), FC_NAME, ViewTag.PLAINTEXT_VALUE, {"kind": "rss", "user": 2, "value": 999}
        )
        assert check_leakage(events).verdicts[FC_NAME] == "violates"

    def test_foreign_rss_at_other_user_violates(self):
        events = inject_event(
            honest_events(), user_name(1), ViewTag.PLAINTEXT_VALUE, {"kind": "rss", "user": 2, "value": 7}
        )
        assert check_leakage(events).verdicts[user_name(1)] == "violates"

    def test_foreign_key_material_violates(self):
        events = inject_event(
            honest_events(), user_name(4), ViewTag.KEY_MATERIAL, {"parties": [FC_NAME, GW_NAME]}
        )
        assert check_leakage(events).verdicts[user_name(4)] == "violates"

    def test_vote_bit_at_user_violates(self):
        events = inject_event(
            honest_events(), user_name(2), ViewTag.PLAINTEXT_BIT, {"kind": "vote", "user": 5, "bit": 1}
        )
        assert check_leakage(events).verdicts[user_name(2)] == "violates"

    def test_incomplete_transcript_rejected(self):
        events = honest_events()
        require_complete(events)
        for missing in (FC_NAME, GW_NAME):
            partial = [e for e in events if e.entity != missing]
            with pytest.raises(ValueError):
                require_complete(partial)
        users_only = [e for e in events if e.entity.startswith("U")]
        with pytest.raises(ValueError):
            require_complete(users_only)

    def test_violation_carries_offending_event(self):
        events = inject_event(
            honest_events(), FC_NAME, ViewTag.PLAINTEXT_VALUE, {"kind": "rss", "user": 1, "value": 1}
        )
        report = check_leakage(events)
        assert report.violations
        violation = report.violations[0]
        assert violation.entity == FC_NAME
        assert violation.event.meta["user"] == 1

    def test_violations_grouped_by_entity_in_event_order(self):
        events = honest_events(n=10, rounds=2)  # U10 sorts before U2
        for entity, user in ((user_name(3), 1), (FC_NAME, 2), (user_name(3), 4)):
            events = inject_event(
                events, entity, ViewTag.PLAINTEXT_VALUE, {"kind": "rss", "user": user, "value": 1}
            )
        report = check_leakage(events)
        assert [(v.entity, v.event.meta["user"]) for v in report.violations] == [
            (FC_NAME, 2), (user_name(3), 1), (user_name(3), 4)
        ]
        assert list(report.verdicts) == sorted(report.verdicts)


class TestSrlp:
    def test_baseline_exposes_every_reporter(self):
        result = run_baseline(3000, [({1, 2, 3, 4, 5}, {u: 2500 for u in range(1, 6)})], bytes(32))
        assert srlp_exposure(result.recorder.events, BASELINE) == {1, 2, 3, 4, 5}

    def test_protocol_exposes_nobody(self):
        assert srlp_exposure(honest_events(n=5), LP3PSS) == set()

    def test_detector_sees_injected_exposure(self):
        events = inject_event(
            honest_events(n=5), GW_NAME, ViewTag.PLAINTEXT_VALUE, {"kind": "rss", "user": 4, "value": 1}
        )
        assert srlp_exposure(events, LP3PSS) == {4}

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            srlp_exposure(honest_events(n=3), "both")


class TestDlp:
    def test_recovers_exact_rss_of_leaver(self):
        model, tau = SimulationConfig(SensingConfig(n=6, rounds=1, seed=0)).resolve_channel()
        baseline, true_rss = build_dlp_scenario(6, target=4, seed=13, model=model, tau=tau)
        outcome = dlp_attack_oracle(baseline.round_view(1), baseline.round_view(2), 4)
        assert outcome.recovered == true_rss

    def test_recovers_exact_rss_of_joiner(self):
        model, tau = SimulationConfig(SensingConfig(n=6, rounds=1, seed=0)).resolve_channel()
        baseline, true_rss = build_dlp_scenario(6, target=2, seed=8, model=model, tau=tau, leave=False)
        outcome = dlp_attack_oracle(baseline.round_view(1), baseline.round_view(2), 2)
        assert outcome.recovered == true_rss

    def test_two_simultaneous_leavers_underdetermined(self):
        rss = {1: 100, 2: 200, 3: 300, 4: 400}
        result = run_baseline(250, [({1, 2, 3, 4}, rss), ({1, 2}, rss)], bytes(32))
        outcome = dlp_attack_oracle(result.round_view(1), result.round_view(2), 3)
        assert outcome.recovered is None
        assert outcome.aggregate_delta == 300 + 400  # only the pair sum

    def test_target_not_in_roster_diff_rejected(self):
        rss = {1: 10, 2: 20, 3: 30}
        result = run_baseline(15, [({1, 2, 3}, rss), ({1, 2}, rss)], bytes(32))
        with pytest.raises(ValueError):
            dlp_attack_oracle(result.round_view(1), result.round_view(2), target=1)

    def test_voting_protocol_yields_bottom(self):
        config = SimulationConfig(SensingConfig(n=6, rounds=2, seed=3))
        result = run_simulation(config)
        events = result.recorder.events
        roster = set(result.fc.live)
        before = agg_view_from_logs(events, 1, roster)
        after = agg_view_from_logs(events, 2, roster - {1})
        outcome = dlp_attack_oracle(before, after, 1)
        assert outcome.recovered is None
        assert "no RSS aggregate" in outcome.reason


class TestBaseline:
    def test_average_rule(self):
        rounds = [({1, 2}, {1: 100, 2: 200})]
        assert run_baseline(150, rounds, bytes(32)).rounds[0].decision == 1
        assert run_baseline(151, rounds, bytes(32)).rounds[0].decision == 0

    def test_transcript_records_sums_and_roster(self):
        result = run_baseline(50, [({1, 2, 3}, {1: 10, 2: 20, 3: 30})], bytes(32))
        row = result.rounds[0]
        assert row.rss_sum == 60 and row.roster == (1, 2, 3)

    def test_round_view_exposes_aggregate(self):
        result = run_baseline(50, [({1, 2}, {1: 10, 2: 20})], bytes(32))
        assert result.round_view(1) == AggView(frozenset({1, 2}), 30)


class TestCompleteness:
    def test_every_message_logged_at_both_ends(self):
        config = SimulationConfig(SensingConfig(n=4, rounds=6, seed=2))
        logs = run_simulation(config).recorder.view_logs
        sent = [(e.round, e.meta["link"]) for log in logs.values() for e in log if e.direction == "sent"]
        received = [
            (e.round, e.meta["link"]) for log in logs.values() for e in log if e.direction == "received"
        ]
        assert sorted(sent) == sorted(received)  # lossless run

    def test_gw_view_depends_only_on_comparison_outcomes(self):
        # two RSS assignments inducing identical per-user comparisons give
        # the gateway the same tag sequence and the same bit vector
        def gw_trace(rss_by_user):
            from lp3pss.crypto import derive_pairwise_keys, FC, GW
            from lp3pss.entities import fc_init, gw_init, gw_ingest_init, make_su_states, su_sense_report, gw_compare
            from lp3pss.recording import Recorder
            from lp3pss.fusion import DetectionProfile

            keys = derive_pairwise_keys(bytes(32), [FC, GW, 1, 2, 3])
            recorder = Recorder()
            fc, msgs = fc_init(3000, DetectionProfile(0.1, 0.1), keys, recorder)
            gw = gw_init(keys)
            gw_ingest_init(gw, msgs, recorder)
            sus = make_su_states(keys)
            recorder.start_round(1)
            recorder.set_phase("sensing")
            reports = [su_sense_report(sus[u], rss_by_user[u], recorder) for u in (1, 2, 3)]
            gw_compare(gw, reports, recorder)
            tags = [e.tag for e in recorder.view_logs["GW"]]
            bits = [
                (e.meta["user"], e.meta["bit"])
                for e in recorder.view_logs["GW"]
                if e.meta.get("kind") == "vote"
            ]
            return tags, bits

        tags_a, bits_a = gw_trace({1: 100, 2: 4000, 3: 2999})
        tags_b, bits_b = gw_trace({1: 2000, 2: 3001, 3: 5})
        assert tags_a == tags_b
        assert bits_a == bits_b == [(1, 0), (2, 1), (3, 0)]
