"""Leakage verdicts, injected-violation mutants, and attack oracles."""

import pytest
from hypothesis import given, settings, strategies as st

from lp3pss.observability import (
    _violation_reason,
    agg_view_from_logs,
    AggView,
    build_dlp_scenario,
    check_leakage,
    CONFORMS,
    dlp_attack_oracle,
    inject_event,
    LeakageReport,
    require_complete,
    run_baseline,
    srlp_exposure,
    VIOLATES,
    Violation,
)
from lp3pss.recording import FC_NAME, GW_NAME, ViewEvent, ViewTag, user_name
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


    def test_verdicts_read_meta_where_the_rule_does(self):
        # in one call, events of the same entity and tag get different
        # verdicts when the rule reads meta, and repeat when it does not
        def event(entity, tag, meta):
            return ViewEvent(1, entity, "received", tag, 0, meta)

        events = [
            event(GW_NAME, ViewTag.KEY_MATERIAL, {"parties": [GW_NAME, user_name(1)]}),
            event(GW_NAME, ViewTag.KEY_MATERIAL, {"parties": [FC_NAME, user_name(1)]}),
            event(user_name(1), ViewTag.PLAINTEXT_VALUE, {"kind": "rss", "user": 1, "value": 5}),
            event(user_name(1), ViewTag.PLAINTEXT_VALUE, {"kind": "rss", "user": 2, "value": 5}),
            event(user_name(1), ViewTag.PLAINTEXT_BIT, {"kind": "vote", "user": 1, "bit": 0}),
            event(user_name(1), ViewTag.PLAINTEXT_BIT, {"kind": "vote", "user": 2, "bit": 1}),
            event(FC_NAME, ViewTag.PLAINTEXT_BIT, {"kind": "vote", "user": 1, "bit": 0}),
            event(FC_NAME, ViewTag.PLAINTEXT_BIT, {"kind": "vote", "user": 2, "bit": 1}),
        ]
        report = check_leakage(events)
        assert [(v.entity, v.event) for v in report.violations] == [
            (GW_NAME, events[1]), (user_name(1), events[3]), (user_name(1), events[4]), (user_name(1), events[5])
        ]
        assert report.verdicts == {FC_NAME: "conforms", GW_NAME: "violates", user_name(1): "violates"}


def reference_leakage(events) -> LeakageReport:
    """``check_leakage`` without memos: ``_violation_reason`` on every event."""
    verdicts, violations = {}, []
    for event in events:
        reason = _violation_reason(event)
        if reason is None:
            verdicts.setdefault(event.entity, CONFORMS)
        else:
            verdicts[event.entity] = VIOLATES
            violations.append(Violation(event.entity, event, reason))
    violations.sort(key=lambda v: v.entity)
    return LeakageReport(dict(sorted(verdicts.items())), tuple(violations))


_MISSING = object()


@st.composite
def leakage_events(draw):
    entity = draw(st.sampled_from([FC_NAME, GW_NAME, "U1", "U2", "U3", "RELAY"]))
    tag = draw(st.sampled_from([
        ViewTag.OPAQUE_CIPHERTEXT,
        ViewTag.OPE_ORDER_PAIR,
        ViewTag.PLAINTEXT_BIT,
        ViewTag.PLAINTEXT_VALUE,
        ViewTag.KEY_MATERIAL,
    ]))
    meta = {"value": draw(st.integers(0, 9))}
    for key, values in (
        ("kind", ["rss", "tau", "rss_sum", "vote", _MISSING]),
        ("user", [1, 2, True, 1.0, [1], _MISSING]),
    ):
        value = draw(st.sampled_from(values))
        if value is not _MISSING:
            meta[key] = value
    if tag == ViewTag.KEY_MATERIAL:
        meta["parties"] = draw(st.sampled_from([[FC_NAME, GW_NAME], [entity, GW_NAME]]))
    return ViewEvent(draw(st.integers(0, 3)), entity, "received", tag, 0, meta)


@settings(max_examples=300, deadline=None)
@given(events=st.lists(leakage_events(), max_size=40))
def test_memoised_verdicts_equal_a_verdict_per_event(events):
    # equal kinds and users (1, True and 1.0) share a memo entry, as they
    # compare equal in the rule; an unhashable user ([1]) is judged alone
    assert check_leakage(events) == reference_leakage(events)


def baseline_views(events, rosters):
    """The attacker's view of each round of a baseline run, from its stream."""
    return [agg_view_from_logs(events, t, roster) for t, roster in enumerate(rosters, start=1)]


class TestSrlp:
    def test_baseline_exposes_every_reporter(self):
        recorder = run_baseline([({1, 2, 3, 4, 5}, {u: 2500 for u in range(1, 6)})], bytes(32))
        assert srlp_exposure(recorder.events) == {1, 2, 3, 4, 5}

    def test_protocol_exposes_nobody(self):
        assert srlp_exposure(honest_events(n=5)) == set()

    def test_detector_sees_injected_exposure(self):
        events = inject_event(
            honest_events(n=5), GW_NAME, ViewTag.PLAINTEXT_VALUE, {"kind": "rss", "user": 4, "value": 1}
        )
        assert srlp_exposure(events) == {4}


class TestDlp:
    def test_recovers_exact_rss_of_leaver(self):
        model, _ = SimulationConfig(SensingConfig(n=6, rounds=1, seed=0)).resolve_channel()
        events, rosters, true_rss = build_dlp_scenario(6, target=4, seed=13, model=model)
        assert rosters == ({1, 2, 3, 4, 5, 6}, {1, 2, 3, 5, 6})
        outcome = dlp_attack_oracle(*baseline_views(events, rosters), 4)
        assert outcome.recovered == true_rss

    def test_recovers_exact_rss_of_joiner(self):
        model, _ = SimulationConfig(SensingConfig(n=6, rounds=1, seed=0)).resolve_channel()
        events, rosters, true_rss = build_dlp_scenario(6, target=2, seed=8, model=model, leave=False)
        assert rosters == ({1, 3, 4, 5, 6}, {1, 2, 3, 4, 5, 6})
        outcome = dlp_attack_oracle(*baseline_views(events, rosters), 2)
        assert outcome.recovered == true_rss

    def test_two_simultaneous_leavers_underdetermined(self):
        rss = {1: 100, 2: 200, 3: 300, 4: 400}
        rosters = ({1, 2, 3, 4}, {1, 2})
        events = run_baseline([(roster, rss) for roster in rosters], bytes(32)).events
        outcome = dlp_attack_oracle(*baseline_views(events, rosters), 3)
        assert outcome.recovered is None
        assert outcome.aggregate_delta == 300 + 400  # only the pair sum

    def test_target_not_in_roster_diff_rejected(self):
        rss = {1: 10, 2: 20, 3: 30}
        rosters = ({1, 2, 3}, {1, 2})
        events = run_baseline([(roster, rss) for roster in rosters], bytes(32)).events
        with pytest.raises(ValueError):
            dlp_attack_oracle(*baseline_views(events, rosters), target=1)

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
    def test_transcript_records_sums_and_roster(self):
        events = run_baseline([({1, 2, 3}, {1: 10, 2: 20, 3: 30})], bytes(32)).events
        sums = [
            (e.round, e.entity, e.tag, e.meta)
            for e in events
            if e.meta.get("kind") == "rss_sum"
        ]
        assert sums == [(1, FC_NAME, ViewTag.PLAINTEXT_VALUE, {"kind": "rss_sum", "value": 60})]
        assert {e.entity for e in events} == {FC_NAME, user_name(1), user_name(2), user_name(3)}

    def test_agg_view_exposes_aggregate(self):
        events = run_baseline([({1, 2}, {1: 10, 2: 20})], bytes(32)).events
        assert agg_view_from_logs(events, 1, {1, 2}) == AggView(frozenset({1, 2}), 30)

    def test_attack_needs_the_fusion_centers_own_aggregate(self):
        # the DLP view reads the rss_sum the fusion center computed, and
        # nothing else of the run: without that one event there is no attack
        model, _ = SimulationConfig(SensingConfig(n=5, rounds=1, seed=0)).resolve_channel()
        events, rosters, true_rss = build_dlp_scenario(5, target=3, seed=21, model=model)
        sums = [e for e in events if e.meta.get("kind") == "rss_sum"]
        assert [(e.round, e.entity) for e in sums] == [(1, FC_NAME), (2, FC_NAME)]
        assert sums[0].meta["value"] - sums[1].meta["value"] == true_rss
        assert dlp_attack_oracle(*baseline_views(events, rosters), 3).recovered == true_rss
        without_sums = [e for e in events if e.meta.get("kind") != "rss_sum"]
        outcome = dlp_attack_oracle(*baseline_views(without_sums, rosters), 3)
        assert outcome.recovered is None


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
