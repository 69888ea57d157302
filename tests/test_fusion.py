"""Voting threshold, weighted fusion, and beta reputation arithmetic."""

import itertools
import math

import pytest
from hypothesis import example, given, strategies as st

from lp3pss.fusion import (
    CHANNEL_BUSY,
    CHANNEL_FREE,
    DetectionProfile,
    ReputationRecord,
    compute_alpha,
    compute_lambda,
    compute_weights,
    fuse_votes,
    update_reputation,
)

profiles = st.tuples(
    st.floats(0.01, 0.6), st.floats(0.01, 0.6)
).filter(lambda pm: pm[0] + pm[1] < 0.99).map(lambda pm: DetectionProfile(*pm))


class TestAlpha:
    def test_symmetric_profile_gives_one(self):
        assert compute_alpha(DetectionProfile(0.1, 0.1)) == pytest.approx(1.0)
        assert compute_alpha(DetectionProfile(0.01, 0.01)) == pytest.approx(1.0)

    def test_asymmetric_value(self):
        # independent evaluation: ln(0.1/0.8) / ln(0.2/0.9)
        expected = math.log(0.1 / 0.8) / math.log(0.2 / 0.9)
        assert expected == pytest.approx(1.38253, abs=1e-5)
        assert compute_alpha(DetectionProfile(0.1, 0.2)) == pytest.approx(expected)

    def test_degenerate_profile_rejected_at_construction(self):
        with pytest.raises(ValueError):
            DetectionProfile(0.3, 0.7)  # p_m == 1 - p_f

    @given(profiles)
    def test_alpha_positive(self, profile):
        assert compute_alpha(profile) > 0


class TestLambda:
    def test_majority_case(self):
        assert compute_lambda(10, 1.0) == 5

    def test_asymmetric_case(self):
        alpha = compute_alpha(DetectionProfile(0.1, 0.2))
        assert compute_lambda(10, alpha) == 5  # ceil(10 / 2.38253) = ceil(4.197)

    def test_single_user_is_or_rule(self):
        for alpha in (0.2, 1.0, 7.5):
            assert compute_lambda(1, alpha) == 1

    def test_rejects_empty_network(self):
        with pytest.raises(ValueError):
            compute_lambda(0, 1.0)

    @given(st.integers(1, 500), st.floats(0.05, 20.0))
    def test_bounds(self, n, alpha):
        lam = compute_lambda(n, alpha)
        assert 1 <= lam <= n

    @given(st.integers(1, 200), st.floats(0.05, 10.0), st.floats(0.0, 5.0))
    def test_monotone_nonincreasing_in_alpha(self, n, alpha, bump):
        assert compute_lambda(n, alpha + bump) <= compute_lambda(n, alpha)

    @given(st.integers(1, 200), st.integers(0, 50), st.floats(0.05, 10.0))
    def test_monotone_nondecreasing_in_n(self, n, extra, alpha):
        assert compute_lambda(n + extra, alpha) >= compute_lambda(n, alpha)


class TestFuseVotes:
    def test_threshold_reached(self):
        outcome = fuse_votes([1, 1, 1, 1], [1, 1, 0, 0], 2)
        assert outcome.decision == CHANNEL_BUSY
        assert outcome.vote_sum == 2

    def test_all_zero_is_free(self):
        assert fuse_votes([1] * 5, [0] * 5, 1).decision == CHANNEL_FREE

    def test_weighted_votes(self):
        outcome = fuse_votes([2, 0.5, 0.5, 1], [1, 0, 0, 0], 2)
        assert outcome.decision == CHANNEL_BUSY
        assert outcome.vote_sum == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fuse_votes([1, 1], [1], 1)

    def test_unit_weights_reduce_to_vote_counting(self):
        # exhaustive over a small population; the acceptance suite goes to n=12
        n = 6
        for bits in itertools.product((0, 1), repeat=n):
            for lam in range(1, n + 1):
                expected = CHANNEL_BUSY if sum(bits) >= lam else CHANNEL_FREE
                assert fuse_votes([1] * n, list(bits), lam).decision == expected


def reference_update(
    counts: dict[int, tuple[int, int]], bits: dict[int, int], decision: int
) -> dict[int, tuple[int, int]]:
    """Each user's (rho, eta) after one round, by the arithmetic that built
    a new record for each present user: rho + 1 on agreement, eta + 1 on
    disagreement, and an absent user's counts as they were."""
    updated = {}
    for uid, (rho, eta) in counts.items():
        bit = bits.get(uid)
        if bit is None:
            updated[uid] = (rho, eta)
        elif bit == decision:
            updated[uid] = (rho + 1, eta)
        else:
            updated[uid] = (rho, eta + 1)
    return updated


class TestReputation:
    def test_agreement_credits(self):
        records = {1: ReputationRecord()}
        assert update_reputation(records, {1: 1}, 1) is None
        assert records[1].rho == 1 and records[1].eta == 0
        assert records[1].phi == pytest.approx(2 / 3)

    def test_phi_arithmetic(self):
        assert ReputationRecord(rho=3, eta=1).phi == pytest.approx(4 / 6)

    def test_fresh_record_phi_is_half(self):
        assert ReputationRecord().phi == 0.5

    def test_absent_user_untouched(self):
        absent = ReputationRecord(rho=3, eta=1, weight=0.5)
        records = {1: absent, 2: ReputationRecord()}
        update_reputation(records, {2: 0}, 0)
        assert records[1] is absent and records[1] == ReputationRecord(3, 1, 0.5)
        assert records[2].rho == 1

    def test_disagreement_debits(self):
        records = {1: ReputationRecord()}
        update_reputation(records, {1: 0}, 1)
        assert records[1].eta == 1 and records[1].rho == 0

    @given(
        st.dictionaries(
            st.integers(1, 30),
            st.tuples(st.integers(0, 40), st.integers(0, 40), st.floats(0.0, 4.0)),
            min_size=1,
        ),
        st.data(),
    )
    def test_in_place_update_matches_the_reference(self, fields, data):
        records = {u: ReputationRecord(*f) for u, f in fields.items()}
        present = data.draw(st.sets(st.sampled_from(sorted(records)), max_size=len(records)))
        bits = {u: data.draw(st.integers(0, 1), label=f"bit{u}") for u in sorted(present)}
        decision = data.draw(st.integers(0, 1))
        objects = dict(records)
        counts = {u: (r.rho, r.eta) for u, r in records.items()}
        assert update_reputation(records, bits, decision) is None
        assert list(records) == list(objects)  # the same keys, in the same order
        expected = reference_update(counts, bits, decision)
        for uid, record in records.items():
            assert record is objects[uid]  # updated in place, never rebuilt
            assert (record.rho, record.eta) == expected[uid]
            assert record.weight == fields[uid][2]
            gained = record.rho + record.eta - sum(counts[uid])
            assert gained == (1 if uid in bits else 0)

    @given(
        st.dictionaries(st.integers(1, 30), st.tuples(st.integers(0, 40), st.integers(0, 40)), min_size=1),
        st.data(),
    )
    def test_conservation(self, counts, data):
        records = {u: ReputationRecord(r, e) for u, (r, e) in counts.items()}
        present = data.draw(st.sets(st.sampled_from(sorted(records)), max_size=len(records)))
        bits = {u: data.draw(st.integers(0, 1), label=f"bit{u}") for u in sorted(present)}
        decision = data.draw(st.integers(0, 1))
        before = sum(r.rho + r.eta for r in records.values())
        update_reputation(records, bits, decision)
        after = sum(r.rho + r.eta for r in records.values())
        assert after == before + len(present)

    @given(st.integers(0, 1000), st.integers(0, 1000))
    def test_phi_bounds_and_monotonicity(self, rho, eta):
        record = ReputationRecord(rho, eta)
        assert 0 < record.phi < 1
        assert ReputationRecord(rho + 1, eta).phi > record.phi
        assert ReputationRecord(rho, eta + 1).phi < record.phi


class TestWeights:
    def test_uniform_credibility_gives_unit_weights(self):
        assert compute_weights([0.5, 0.5, 0.5]) == pytest.approx([1, 1, 1])

    def test_scaled_values(self):
        assert compute_weights([0.8, 0.2]) == pytest.approx([1.6, 0.4])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_weights([])

    # Rounding is monotone, so n * phi / total never reverses an order, but
    # two scores one ulp apart can round to the same weight. Strict order is
    # required only when the scores differ by more than this relative gap.
    ORDER_REL_TOL = 1e-12

    @given(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=40))
    @example([0.5, 0.9899999999999999, 0.99])
    def test_sum_and_order_preserved(self, phis):
        weights = compute_weights(phis)
        assert sum(weights) == pytest.approx(len(phis), rel=1e-9)
        for (p1, w1), (p2, w2) in itertools.combinations(zip(phis, weights), 2):
            if p1 < p2:
                assert w1 <= w2
                if p2 - p1 > self.ORDER_REL_TOL * p2:
                    assert w1 < w2
            elif p1 == p2:
                assert w1 == pytest.approx(w2)

    def test_argmax_preserved(self):
        phis = [0.3, 0.9, 0.5, 0.7]
        weights = compute_weights(phis)
        assert weights.index(max(weights)) == phis.index(max(phis))
