"""Signal model, churn process, and adversary behaviors."""

import math
from random import Random
from statistics import NormalDist

import pytest
from hypothesis import example, given, settings, strategies as st

from lp3pss.scenario import (
    ALWAYS_FLIP,
    HONEST,
    PU_ABSENT,
    PU_PRESENT,
    RANDOM_FLIP,
    STUCK_AT,
    AdversaryProfile,
    Behavior,
    ChannelModel,
    ChurnConfig,
    CountRange,
    Quantization,
    apply_malice,
    calibrate_channel,
    churn_step,
    generate_rss,
    spawn_rngs,
)


def model_with(sigma: float = 500.0) -> ChannelModel:
    return ChannelModel(mu0=2000.0, mu1=4000.0, sigma=sigma)


class TestGenerateRss:
    def test_degenerate_sigma_collapses_to_mean(self):
        model = model_with(sigma=1e-9)
        values = generate_rss(model, PU_PRESENT, Random(0), 100)
        assert values == [round(model.mu1)] * 100

    def test_gaussian_tail_calibration(self):
        # oracle: with tau at the midpoint and sigma = (tau - mu0) / z(0.9),
        # a draw under the absent hypothesis exceeds tau with prob 0.1
        z = NormalDist().inv_cdf(0.9)
        tau = 3000.0
        model = model_with(sigma=(tau - 2000.0) / z)
        values = generate_rss(model, PU_ABSENT, Random(1), 100_000)
        p_f = sum(v >= tau for v in values) / len(values)
        assert p_f == pytest.approx(0.1, abs=0.01)

    def test_seed_determinism(self):
        model = model_with()
        a = generate_rss(model, PU_PRESENT, Random(7), 50)
        b = generate_rss(model, PU_PRESENT, Random(7), 50)
        assert a == b

    @given(st.integers(0, 2**32 - 1), st.sampled_from([PU_ABSENT, PU_PRESENT]))
    @settings(max_examples=25)
    def test_clamped_to_domain(self, seed, truth):
        model = ChannelModel(10.0, 50.0, 2000.0, Quantization(domain_bits=8))
        values = generate_rss(model, truth, Random(seed), 64)
        assert all(0 <= v <= 255 for v in values)

    def test_overflowed_draws_clamp_to_the_domain_ends(self):
        # a sigma near the float maximum overflows some draws to +-inf,
        # which round() cannot take
        model = ChannelModel(10.0, 50.0, 1.7e308, Quantization(domain_bits=8))
        rng = Random(3)
        draws = [rng.gauss(model.mu0, model.sigma) for _ in range(64)]
        assert math.inf in draws and -math.inf in draws
        values = generate_rss(model, PU_ABSENT, Random(3), 64)
        assert values == [255 if x > 0 else 0 for x in draws]

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(-0.0)
    @example(-0.5)
    @example(0.5)
    @example(254.5)
    @example(255.49)
    @example(255.5)
    @example(255.51)
    @example(-1e308)
    @example(1e308)
    def test_finite_draws_give_what_rounding_first_gave(self, x):
        model = ChannelModel(10.0, 50.0, 1.0, Quantization(domain_bits=8))

        class Draws:
            def gauss(self, mean, sigma):
                return x

        rounded_first = min(max(round(x), 0), 255)
        values = generate_rss(model, PU_PRESENT, Draws(), 1)
        assert values == [rounded_first]
        assert type(values[0]) is int

    @pytest.mark.parametrize("mu1, expected", [(2000.5, 2000), (2001.5, 2002), (70000.5, 65535)])
    def test_generate_rss_rounds_halves_to_even(self, mu1, expected):
        # sigma so small that every draw is exactly mu1
        model = ChannelModel(-0.5, mu1, 1e-300)
        assert generate_rss(model, PU_PRESENT, Random(1), 3) == [expected] * 3
        assert generate_rss(model, PU_ABSENT, Random(1), 2) == [0, 0]

    @given(st.integers(0, 2**63 - 1))
    @settings(max_examples=20, deadline=None)
    def test_mean_and_variance_match_the_model(self, seed):
        # 6 standard errors each way: a false alarm is rarer than 1 in 10^8
        n, model = 20_000, model_with(sigma=500.0)
        values = generate_rss(model, PU_ABSENT, Random(seed), n)
        mean = sum(values) / n
        variance = sum((v - mean) ** 2 for v in values) / (n - 1)
        assert abs(mean - model.mu0) < 6 * model.sigma / math.sqrt(n)
        assert abs(variance / model.sigma**2 - 1) < 6 * math.sqrt(2 / (n - 1))

    def test_model_invariants(self):
        with pytest.raises(ValueError):
            ChannelModel(mu0=5.0, mu1=5.0, sigma=1.0)
        with pytest.raises(ValueError):
            ChannelModel(mu0=1.0, mu1=5.0, sigma=0.0)


class TestCalibration:
    def test_symmetric_rates_put_tau_at_midpoint(self):
        model, tau = calibrate_channel(0.1, 0.1)
        assert tau == 3000
        assert model.sigma == pytest.approx(2000 / (2 * NormalDist().inv_cdf(0.9)))

    def test_empirical_rates_match_request(self):
        model, tau = calibrate_channel(0.05, 0.15)
        rng = Random(3)
        absent = generate_rss(model, PU_ABSENT, rng, 200_000)
        present = generate_rss(model, PU_PRESENT, rng, 200_000)
        assert sum(v >= tau for v in absent) / len(absent) == pytest.approx(0.05, abs=0.005)
        assert sum(v < tau for v in present) / len(present) == pytest.approx(0.15, abs=0.005)


class TestChurn:
    def test_zero_mu_never_changes(self):
        cfg = ChurnConfig(mu=0.0, join_count=CountRange(1, 3), leave_count=CountRange(1, 3))
        rng = Random(0)
        for _ in range(1000):
            assert churn_step(cfg, rng, {1, 2, 3}) == (0, [])

    def test_forced_joins_give_constant_beta(self):
        cfg = ChurnConfig(mu=1.0, join_count=CountRange(5, 5), leave_count=CountRange(0, 0))
        rng = Random(0)
        for _ in range(20):
            assert churn_step(cfg, rng, {1, 2}) == (5, [])

    def test_event_rate_matches_mu(self):
        cfg = ChurnConfig(mu=0.2, join_count=CountRange(1, 3), leave_count=CountRange(0, 2))
        rng = Random(11)
        live = set(range(1, 30))
        next_id = 30
        events = 0
        for _ in range(10_000):
            n_join, leaves = churn_step(cfg, rng, live)
            if n_join or leaves:
                events += 1
            live |= set(range(next_id, next_id + n_join))
            next_id += n_join
            live -= set(leaves)
        assert events / 10_000 == pytest.approx(0.2, abs=0.02)

    def test_never_empties_network(self):
        cfg = ChurnConfig(mu=1.0, join_count=CountRange(0, 0), leave_count=CountRange(5, 5))
        rng = Random(2)
        assert churn_step(cfg, rng, {4}) == (0, [])
        n_join, leaves = churn_step(cfg, rng, {4, 9})
        assert n_join == 0 and len(leaves) == 1

    def test_leavers_come_from_live_set(self):
        cfg = ChurnConfig(mu=1.0, join_count=CountRange(0, 0), leave_count=CountRange(2, 2))
        rng = Random(9)
        live = {3, 8, 12, 20}
        _, leaves = churn_step(cfg, rng, live)
        assert set(leaves) <= live and len(leaves) == 2 and leaves == sorted(leaves)


class TestAdversaries:
    def test_honest_is_identity(self):
        profile = AdversaryProfile()
        assert apply_malice(profile, 1, 3123, model_with(), Random(0)) == 3123

    def test_always_flip_reflects_about_midpoint(self):
        profile = AdversaryProfile({1: Behavior(ALWAYS_FLIP)})
        model = model_with()
        reported = apply_malice(profile, 1, int(model.mu1), model, Random(0))
        assert reported < model.midpoint
        assert reported == 2 * model.midpoint - model.mu1

    def test_random_flip_rate(self):
        profile = AdversaryProfile({1: Behavior(RANDOM_FLIP, flip_prob=0.5)})
        model = model_with()
        rng = Random(4)
        flips = sum(
            apply_malice(profile, 1, 3600, model, rng) != 3600 for _ in range(10_000)
        )
        assert flips / 10_000 == pytest.approx(0.5, abs=0.02)

    def test_stuck_at_extremes(self):
        model = model_with()
        rng = Random(0)
        high = AdversaryProfile({1: Behavior(STUCK_AT, stuck_bit=1)})
        low = AdversaryProfile({1: Behavior(STUCK_AT, stuck_bit=0)})
        assert apply_malice(high, 1, 3000, model, rng) == model.quant.domain_max
        assert apply_malice(low, 1, 3000, model, rng) == 0

    def test_flip_output_stays_in_domain(self):
        profile = AdversaryProfile({1: Behavior(ALWAYS_FLIP)})
        model = ChannelModel(10.0, 250.0, 5.0, Quantization(domain_bits=8))
        assert 0 <= apply_malice(profile, 1, 0, model, Random(0)) <= 255

    def test_bad_behavior_rejected(self):
        with pytest.raises(ValueError):
            Behavior("collude")
        with pytest.raises(ValueError):
            Behavior(RANDOM_FLIP, flip_prob=1.5)


seeds = st.integers(0, 2**63 - 1)
stream_names = st.text(min_size=1, max_size=12)


def draws(rng: Random) -> list:
    """One of each kind of draw a run makes."""
    return [rng.random(), rng.gauss(0.0, 1.0), rng.randint(0, 2**62), rng.sample(range(250), 4)]


class TestRngStreams:
    def test_named_streams_deterministic_and_independent(self):
        a = spawn_rngs(99, ["x", "y"])
        b = spawn_rngs(99, ["x", "y"])
        assert a["x"].random() == b["x"].random()
        assert a["y"].random() == b["y"].random()
        c = spawn_rngs(100, ["x", "y"])
        assert c["x"].random() != spawn_rngs(99, ["x", "y"])["x"].random()

    @given(seeds, stream_names)
    @settings(max_examples=50)
    def test_the_same_seed_and_name_give_the_same_draws(self, seed, name):
        assert draws(spawn_rngs(seed, [name])[name]) == draws(spawn_rngs(seed, [name])[name])

    @given(seeds, st.lists(stream_names, min_size=1, max_size=6, unique=True), stream_names)
    @settings(max_examples=50)
    def test_adding_a_stream_leaves_the_others_draws_unchanged(self, seed, names, extra):
        before = spawn_rngs(seed, names)
        after = spawn_rngs(seed, [extra, *reversed(names)])
        for name in names:
            if name != extra:
                assert draws(after[name]) == draws(before[name]), name

    @given(seeds, seeds, stream_names, stream_names)
    @settings(max_examples=50)
    def test_different_seeds_or_names_give_different_draws(self, seed, other_seed, name, other_name):
        if (seed, name) != (other_seed, other_name):
            first = spawn_rngs(seed, [name])[name]
            second = spawn_rngs(other_seed, [other_name])[other_name]
            assert [first.random() for _ in range(4)] != [second.random() for _ in range(4)]
