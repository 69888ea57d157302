"""The package's generator against numpy's ``Generator(PCG64)``: every value
compared by ``==``, doubles included, and numpy kept out of the package."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lp3pss.rng import Generator, SeedSequence, default_rng
from lp3pss.scenario import PU_ABSENT, PU_PRESENT, ChannelModel, Quantization, generate_rss

ROOT = Path(__file__).resolve().parents[1]

seeds = st.integers(0, 2**63 - 1)


@given(seeds, st.integers(0, 6), st.integers(0, 6))
@settings(max_examples=60)
def test_spawned_children_and_seeded_state_match_numpy(seed, first, second):
    ours, theirs = SeedSequence(seed), np.random.SeedSequence(seed)
    assert ours.pool == theirs.pool.tolist()
    assert default_rng(seed).state == np.random.PCG64(seed).state["state"]
    # a second spawn continues the positions of the first
    children = ours.spawn(first) + ours.spawn(second)
    numpy_children = theirs.spawn(first) + theirs.spawn(second)
    assert ours.n_children_spawned == theirs.n_children_spawned == first + second
    for child, numpy_child in zip(children, numpy_children, strict=True):
        assert child.spawn_key == numpy_child.spawn_key
        assert child.pool == numpy_child.pool.tolist()
        assert child.generate_state(4) == numpy_child.generate_state(4, np.uint64).tolist()
        assert Generator(child).state == np.random.PCG64(numpy_child).state["state"]


# Spans high - low where rng = span - 1 lies just below, at and above
# 2**32 - 1, or is 2**64 - 1; at 2**31 + 1 and 2**63 + 1 Lemire's method
# rejects about half of its draws.
BOUNDARY_SPANS = [2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**62, 2**63 + 1, 2**64]


def integer_ranges(spans):
    """(low, high) int64 bounds whose difference is drawn from ``spans``."""
    return spans.flatmap(
        lambda span: st.integers(-(2**63), 2**63 - span).map(lambda low: (low, low + span))
    )


@st.composite
def samples(draw):
    n = draw(st.integers(1, 300))
    return n, draw(st.integers(0, n))


calls = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("normal"), st.floats(-1e4, 1e4), st.floats(0.0, 1e3), st.integers(0, 8)),
    st.tuples(
        st.just("integers"),
        integer_ranges(st.one_of(st.integers(1, 1000), st.sampled_from(BOUNDARY_SPANS), st.integers(1, 2**64))),
    ),
    st.tuples(st.just("choice"), samples()),
)


def call(gen, op):
    name, *args = op
    if name == "integers":
        return gen.integers(*args[0])
    if name == "choice":
        n, size = args[0]
        return list(gen.choice(n, size=size, replace=False))
    if name == "normal":
        return list(gen.normal(*args))
    return gen.random()


@given(seeds, st.lists(calls, max_size=40))
@settings(max_examples=150)
def test_interleaved_calls_match_numpy(seed, ops):
    ours, theirs = default_rng(seed), np.random.default_rng(seed)
    for op in ops:
        assert call(ours, op) == call(theirs, op), op
    # the same 32-bit half, if one is buffered, and the same state follow
    assert ours.integers(0, 7) == theirs.integers(0, 7)
    assert ours.random() == theirs.random()


@given(seeds, integer_ranges(st.sampled_from(BOUNDARY_SPANS)))
@settings(max_examples=80)
def test_integers_near_the_32_bit_limit_and_up_to_2_63(seed, low_high):
    ours, theirs = default_rng(seed), np.random.default_rng(seed)
    for _ in range(5):
        assert ours.integers(*low_high) == theirs.integers(*low_high)
        assert ours.integers(0, 5) == theirs.integers(0, 5)  # through the 32-bit half buffer


# Floyd's algorithm at n = 20000, size = 400; the tail shuffle from size 401
@pytest.mark.parametrize("n, size", [(20000, 400), (20000, 401), (10001, 10001), (30000, 2000)])
@given(seeds)
@settings(max_examples=3)
def test_choice_floyd_and_tail_shuffle_branches_match_numpy(n, size, seed):
    ours, theirs = default_rng(seed), np.random.default_rng(seed)
    assert ours.choice(n, size=size) == theirs.choice(n, size=size, replace=False).tolist()
    assert ours.integers(0, 7) == theirs.integers(0, 7)
    assert ours.random() == theirs.random()


def test_normals_match_numpy_on_every_layer_and_both_rare_paths():
    seed = 20260810
    gen = default_rng(seed)
    log: list[int | None] = []  # each 64-bit draw; None marks a uniform, whose draw follows
    next64, uniform = gen._next64, gen.random

    def logged_next64():
        log.append(next64())
        return log[-1]

    def logged_uniform():
        log.append(None)
        return uniform()

    gen._next64, gen.random = logged_next64, logged_uniform
    draws = gen.normal(1.5, 2.0, 100_000)
    assert draws == np.random.default_rng(seed).normal(1.5, 2.0, 100_000).tolist()

    layers, rare = Counter(), Counter()
    i = 0
    while i < len(log):
        if log[i] is None:  # a uniform drawn after a rejected layer-``layer`` draw
            rare["tail" if layer == 0 else "wedge"] += 1
            i += 2
        else:
            layer = log[i] & 0xFF
            layers[layer] += 1
            i += 1
    assert set(layers) == set(range(256))
    assert rare["tail"] > 0 and rare["wedge"] > 0


@given(seeds, st.sampled_from([PU_ABSENT, PU_PRESENT]), st.sampled_from([8, 16]), st.integers(0, 64))
@settings(max_examples=40)
def test_generate_rss_rounds_and_clamps_as_numpy_did(seed, truth, bits, n):
    # the previous numpy formula is the reference: rint (half to even), then clip
    model = ChannelModel(10.0, 250.0, 3000.0, Quantization(domain_bits=bits))
    mean = model.mu1 if truth == PU_PRESENT else model.mu0
    expected = np.clip(np.rint(np.random.default_rng(seed).normal(mean, model.sigma, n)), 0, 2**bits - 1)
    assert generate_rss(model, truth, default_rng(seed), n) == [int(v) for v in expected]


@pytest.mark.parametrize("mu1, expected", [(2000.5, 2000), (2001.5, 2002), (70000.5, 65535)])
def test_generate_rss_rounds_halves_to_even(mu1, expected):
    # sigma so small that every draw is exactly mu1
    model = ChannelModel(-0.5, mu1, 1e-300)
    assert generate_rss(model, PU_PRESENT, default_rng(1), 3) == [expected] * 3
    assert generate_rss(model, PU_ABSENT, default_rng(1), 2) == [0, 0]


def test_calls_outside_their_domain_raise():
    gen = default_rng(0)
    for low, high in [(5, 5), (0, 2**63 + 1), (-(2**63) - 1, 0)]:
        with pytest.raises(ValueError):
            gen.integers(low, high)
    with pytest.raises(ValueError):
        gen.choice(3, size=4)
    with pytest.raises(ValueError):
        gen.choice(3, size=2, replace=True)
    with pytest.raises(ValueError):
        gen.normal(0.0, -1.0, 1)
    with pytest.raises(ValueError):
        SeedSequence(-1)


# Every draw a run makes: churn with joins and leaves, three adversary
# kinds, lost reports, and the baseline attack's scenario.
NO_NUMPY_RUN = """
import json, sys
from pathlib import Path
from lp3pss.cli import main

out = Path(sys.argv[1])
config = out / "cfg.json"
config.write_text(json.dumps({
    "sensing": {"n": 8, "rounds": 6, "report_loss_prob": 0.2},
    "churn": {"mu": 1.0, "join": [0, 2], "leave": [1, 2]},
    "adversary": {"1": {"kind": "always-flip"}, "2": {"kind": "random-flip", "flip_prob": 0.5},
                  "3": {"kind": "stuck-at", "stuck_bit": 0}},
}))
assert main(["simulate", "--config", str(config), "--seed", "3",
             "--out", str(out / "r.json"), "--transcript", str(out / "t.jsonl")]) == 0
assert main(["verify", "--transcript", str(out / "t.jsonl")]) == 0
assert main(["attack", "--scheme", "baseline", "--n", "5", "--seed", "4"]) == 0
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "numpy")))
"""


def test_a_run_never_imports_numpy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_RUN, str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
    report = json.loads((tmp_path / "r.json").read_text())
    assert report and (tmp_path / "t.jsonl").stat().st_size > 0
