import contextlib
import gc
from collections import Counter

import pytest
from hypothesis import HealthCheck, settings

from lp3pss import sim
from lp3pss.crypto import derive_pairwise_keys
from lp3pss.entities import fc_init, gw_init, gw_ingest_init, make_su_states
from lp3pss.fusion import DetectionProfile
from lp3pss.recording import Recorder, ViewEvent

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def master_seed() -> bytes:
    return bytes(range(32))


PROFILE = DetectionProfile(0.1, 0.1)
TAU = 3000


def setup_network(
    n: int, master_seed: bytes, tau: int = TAU, profile: DetectionProfile = PROFILE, ingest: bool = True
):
    """A keyed network of users 1..``n`` after initialization, built by the
    entity functions alone: returns ``(keys, fc, gw, sus, recorder, msgs)``,
    where ``msgs`` are the fusion center's wrapped thresholds. With
    ``ingest=False`` the gateway has not read them yet."""
    keys, users = derive_pairwise_keys(master_seed, n)
    recorder = Recorder()
    recorder.start_round(0)
    fc, msgs = fc_init(tau, profile, keys, users, recorder)
    gw = gw_init(keys, users)
    if ingest:
        gw_ingest_init(gw, msgs, recorder)
    return keys, fc, gw, make_su_states(users), recorder, msgs


def inject_event(events, entity: str, tag: str, meta: dict, round_: int = 1) -> list[ViewEvent]:
    """Copy the stream and append one foreign observation at ``entity``:
    a mutant the leakage checker must catch."""
    return [*events, ViewEvent(round_, entity, "received", tag, 0, meta)]


def reported_rss(events) -> dict[tuple[int, int], int]:
    """Each (round, user)'s reported RSS, after the adversary step: the
    value of the user's OPE encryption, the ``encrypt`` event of kind ``rss``."""
    return {
        (e.round, e.meta["user"]): e.meta["value"]
        for e in events
        if e.direction == "encrypt" and e.meta.get("kind") == "rss"
    }


def flip_tag_bit(wire: bytes) -> bytes:
    """A framed AEAD ciphertext with one bit of its tag (the last byte) flipped."""
    return wire[:-1] + bytes([wire[-1] ^ 1])


@pytest.fixture
def round_ops(monkeypatch) -> list[Counter]:
    """Per run made in the test, its ``Tally.ops`` over every round.

    The driver folds each round's operation counts away as the round ends;
    this wraps that step and adds each round's counts, as they stand just
    before the fold, into the run's ``Counter``. Those hold the same keys
    and counts as an unfolded ``Tally.ops`` of the whole run.
    """
    runs: list[Counter] = []
    honest_end_round = sim.RunFold.end_round

    def end_round(fold, record, fc):
        if record.t == 1:
            runs.append(Counter())
        runs[-1].update(fold.tally.ops)
        honest_end_round(fold, record, fc)

    monkeypatch.setattr(sim.RunFold, "end_round", end_round)
    return runs


@contextlib.contextmanager
def collection(enabled: bool):
    """Automatic garbage collection switched on or off for the block, then
    put back as it was."""
    was = gc.isenabled()
    if enabled:
        gc.enable()
    else:
        gc.disable()
    try:
        yield
    finally:
        if was:
            gc.enable()
        else:
            gc.disable()


def young_count(objects) -> int:
    """How many of ``objects`` the collector holds in generation 0 or 1."""
    young = {id(o) for generation in (0, 1) for o in gc.get_objects(generation=generation)}
    return sum(id(o) in young for o in objects)
