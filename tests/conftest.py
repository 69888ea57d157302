import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def master_seed() -> bytes:
    return bytes(range(32))


def flip_tag_bit(wire: bytes) -> bytes:
    """A framed AEAD ciphertext with one bit of its tag (the last byte) flipped."""
    return wire[:-1] + bytes([wire[-1] ^ 1])
