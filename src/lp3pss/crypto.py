"""Symmetric crypto primitives for the sensing protocol.

Three pieces live here:

* a keyed order-preserving encryption (OPE) over a fixed integer domain:
  a stateless recursive split of the ciphertext range along the bits of
  the plaintext, each split point drawn uniformly by AES under the key
  (after Boldyreva et al., "Order-Preserving Symmetric Encryption",
  EUROCRYPT 2009, with a uniform split in place of the hypergeometric
  one), so that ``m1 < m2  =>  enc(m1) < enc(m2)`` under the same key;
* an authenticated channel cipher (AES-GCM) with a deterministic per-key
  nonce counter, so simulation runs are reproducible byte-for-byte;
* pairwise key derivation from a single master seed, standing in for the
  key-establishment handshake of a real deployment.

An authenticated ciphertext exists only as its framed wire bytes,
``u32 total_len (big endian) || nonce (12B) || ciphertext || tag (16B)``:
``aead_encrypt`` returns them and ``aead_decrypt`` parses them, so a
message's traffic is the length of the bytes it carries.
An OPE ciphertext is a plain ``int``, sent as ``ceil(range_bits / 8)`` big-endian bytes.

Each key builds its cipher context once, when it is made: an ``OpeKey``
its AES-ECB encryptor, an ``AeadKey`` its ``AESGCM``. Encryption and
decryption reuse that context, and a copied or unpickled key rebuilds it
from the key bytes.
"""

from __future__ import annotations

import functools
import hmac
import struct
from dataclasses import dataclass, field
from typing import Callable

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers import Cipher
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
# Imported by name: an attribute read through the ``algorithms`` or
# ``modes`` module goes through cryptography's deprecation shim, a few
# microseconds a read, twice per key set-up.
from cryptography.hazmat.primitives.ciphers.algorithms import AES
from cryptography.hazmat.primitives.ciphers.modes import ECB

NONCE_LEN = 12
TAG_LEN = 16
KEY_LEN = 16  # AES-128
_ECB = ECB()  # a mode holds no state: every OPE key's encryptor shares this one

FC = "FC"
GW = "GW"


class CryptoError(Exception):
    """Base class for protocol crypto failures."""


class AuthenticationFailure(CryptoError):
    """AEAD tag did not verify: wrong key, tampered bytes, or wrong context."""


class MalformedCiphertext(CryptoError):
    """Ciphertext bytes do not parse as the expected wire framing."""


# ---------------------------------------------------------------------------
# Order-preserving encryption
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OpeKey:
    """Key for the order-preserving cipher.

    ``domain_bits`` is the plaintext width d (messages are integers in
    [0, 2^d)); ``range_bits`` is the ciphertext width. The codomain needs
    at least 8 bits of headroom: with none, every split of the range is
    forced and the cipher is the identity; each extra bit doubles the
    mean number of range values left to each plaintext.

    The key owns the AES-ECB encryptor that ``ope_encrypt`` draws from,
    built once here and freed with the key, and refers to the walk of
    its width (``_ope_walk``), which all keys of that width share.
    """

    key_bytes: bytes
    domain_bits: int = 16
    range_bits: int = 32

    def __post_init__(self) -> None:
        if len(self.key_bytes) != KEY_LEN:
            raise ValueError(f"OPE key must be {KEY_LEN} bytes, got {len(self.key_bytes)}")
        if self.domain_bits < 1:
            raise ValueError("domain_bits must be >= 1")
        if self.range_bits < self.domain_bits + 8:
            raise ValueError("range_bits must be >= domain_bits + 8")
        if self.range_bits > 63:
            raise ValueError("range_bits must be <= 63")
        ecb = Cipher(AES(self.key_bytes), _ECB).encryptor()
        object.__setattr__(self, "_ecb", ecb)
        object.__setattr__(self, "_walk", _ope_walk(self.domain_bits))

    def __reduce__(self):
        # the encryptor cannot be copied or pickled; rebuild both from the key
        return (OpeKey, (self.key_bytes, self.domain_bits, self.range_bits))

    @property
    def domain_size(self) -> int:
        return 1 << self.domain_bits


_BLOCK_MASK = (1 << 128) - 1


@functools.cache  # one entry per domain width, and OpeKey admits at most 55
def _ope_walk(domain_bits: int) -> Callable[[Callable[[bytes], bytes], int, int], int]:
    """The body of ``ope_encrypt`` for one domain width d, as straight-line code.

    The function returned takes the key's AES-ECB ``update``, a plaintext
    ``m`` in the domain and the size of the ciphertext range. It packs the
    d + 1 node labels, each as one 16-byte big-endian AES block (8 zero
    bytes, then the label as a u64), draws their blocks in one call and
    walks the d levels. Each level is written out with its constants:
    ``half``, the bit offset of its block in the draws and ``n - 1``.
    """
    d = domain_bits
    labels = ", ".join(f"top >> {s}" for s in range(d, 0, -1))
    lines = [
        "def walk(update, m, size):",
        f"    top = m | {1 << d}",
        f"    draws = from_bytes(update(pack({labels}, top)), 'big')",
        "    lo = 0",
    ]
    for level in range(d, 0, -1):  # n = 2^level plaintexts under the node
        half = 1 << (level - 1)
        lines += [
            f"    left = {half} + (draws >> {128 * level} & {_BLOCK_MASK}) % (size - {2 * half - 1})",
            f"    if m & {half}:",
            "        lo += left",
            "        size -= left",
            "    else:",
            "        size = left",
        ]
    lines.append(f"    return lo + (draws & {_BLOCK_MASK}) % size")
    namespace = {"pack": struct.Struct(">" + "8xQ" * (d + 1)).pack, "from_bytes": int.from_bytes}
    exec("\n".join(lines), namespace)
    return namespace["walk"]


def ope_encrypt(key: OpeKey, m: int) -> int:
    """Encrypt integer ``m`` preserving strict order.

    Walks the binary tree over the domain from the root to the leaf of
    ``m``. The node at depth i, labelled by its heap index
    ``(m | 2^d) >> (d - i)``, holds 2^(d-i) plaintexts and a ciphertext
    range of at least as many values; its split point is drawn uniformly
    from those that leave each child at least one value per plaintext,
    and the leaf picks its ciphertext uniformly from what is left. Each
    draw is one AES block of the node label under the key, reduced
    modulo a count below 2^63, so its bias is below 2^-64. Cost is
    d + 1 blocks and O(d) integer steps; nothing is stored.

    Deterministic: the same (key, m) always yields the same ciphertext.
    Raises ValueError if ``m`` lies outside [0, 2^domain_bits).
    """
    if not 0 <= m < 1 << key.domain_bits:
        raise ValueError(f"plaintext {m} outside OPE domain [0, {key.domain_size})")
    return key._walk(key._ecb.update, m, 1 << key.range_bits)  # type: ignore[attr-defined]


# ---------------------------------------------------------------------------
# Authenticated channel cipher
# ---------------------------------------------------------------------------


@dataclass
class AeadKey:
    """Pairwise channel key with a role label such as ``"GW|3"``.

    The nonce counter makes encryption deterministic for a fixed call
    sequence; both ends of a pair share the same key object inside one
    simulation, so counters never collide.

    The key owns the ``AESGCM`` context that ``aead_encrypt`` and
    ``aead_decrypt`` use, built once here and freed with the key (about
    2.3 KB outside the Python heap each). A copy or an unpickled key
    builds its own, and continues the nonce counter where it was.
    """

    key_bytes: bytes
    label: str
    _nonce_counter: int = field(default=0, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.key_bytes) != KEY_LEN:
            raise ValueError(f"AEAD key must be {KEY_LEN} bytes, got {len(self.key_bytes)}")
        self._aesgcm = AESGCM(self.key_bytes)

    def __reduce__(self):
        # the AESGCM context cannot be copied or pickled; rebuild it from the key
        return (AeadKey, (self.key_bytes, self.label, self._nonce_counter))

    def _next_nonce(self) -> bytes:
        nonce = self._nonce_counter.to_bytes(NONCE_LEN, "big")
        self._nonce_counter += 1
        return nonce


def aead_encrypt(key: AeadKey, payload: bytes, assoc: bytes = b"") -> bytes:
    """Encrypt-and-authenticate ``payload`` binding ``assoc`` as context;
    returns the framed wire bytes ``u32 len || nonce || ciphertext || tag``.

    Each call consumes a fresh nonce, so equal payloads never produce
    equal ciphertexts under the same key.
    """
    if not payload:
        raise ValueError("payload must be non-empty")
    nonce = key._next_nonce()
    blob = nonce + key._aesgcm.encrypt(nonce, payload, assoc)
    return len(blob).to_bytes(4, "big") + blob


def aead_decrypt(key: AeadKey, wire: bytes, assoc: bytes = b"") -> bytes:
    """Recover the payload from framed wire bytes. A frame that is short,
    truncated or overlong raises ``MalformedCiphertext``; one that parses
    fails with ``AuthenticationFailure`` unless key, bytes and assoc match."""
    if len(wire) < 4:
        raise MalformedCiphertext("missing length prefix")
    total = int.from_bytes(wire[:4], "big")
    if len(wire) - 4 != total or total < NONCE_LEN + TAG_LEN:
        raise MalformedCiphertext(
            f"declared {total} bytes, got {len(wire) - 4} (minimum {NONCE_LEN + TAG_LEN})"
        )
    try:
        return key._aesgcm.decrypt(wire[4 : 4 + NONCE_LEN], wire[4 + NONCE_LEN :], assoc)
    except InvalidTag as exc:
        raise AuthenticationFailure(f"tag verification failed for {key.label}") from exc


# ---------------------------------------------------------------------------
# Pairwise key derivation
# ---------------------------------------------------------------------------


def _kdf(secret: bytes, label: str) -> bytes:
    return hmac.digest(secret, label.encode(), "sha256")


def _rank(x: str | int) -> tuple[int, int]:
    if type(x) is int and x >= 0:  # not a bool: True would label a user "True"
        return (2, x)
    if x == FC:
        return (0, 0)
    if x == GW:
        return (1, 0)
    raise ValueError(f"unknown entity id {x!r}")


def pair_label(a: str | int, b: str | int) -> str:
    """Canonical ordered label for an entity pair: FC < GW < user ids."""
    return f"{a}|{b}" if _rank(a) <= _rank(b) else f"{b}|{a}"


def pair_channel_key(master_seed: bytes, a: str | int, b: str | int) -> AeadKey:
    """The AEAD channel key of the pair (a, b), labelled ``pair_label(a, b)``."""
    label = pair_label(a, b)
    return AeadKey(_kdf(_kdf(master_seed, f"pair|{label}"), "aead")[:KEY_LEN], label)


# A user's keys as ``KeyTable.add_user`` hands them out: its id, its
# GW<->user channel key and its OPE subkey. Each party keeps its own part.
UserKeys = tuple[int, AeadKey, OpeKey]


@dataclass
class KeyTable:
    """The key source of one deployment: it holds the FC<->GW channel key
    and hands out each user's keys, the GW<->user channel key and the OPE
    subkey shared between the fusion center and the user, keeping none of
    them. Each party keeps the keys it is handed, so a departed user's keys
    are freed with the parties' copies.

    The OPE subkey is expanded from the FC<->user pair secret. The master
    seed is retained so joining users can be keyed later. The table is the
    one place that chooses user ids: ``add_user`` mints ``last_uid + 1``.
    Keys are a pure function of (seed, id), and a fresh key restarts its
    nonce counter, so keying an id twice would reuse AES-GCM nonces; ids
    only grow, so none is keyed twice, a departed one included.
    """

    master_seed: bytes
    domain_bits: int = 16
    range_bits: int = 32
    fc_gw: AeadKey = field(init=False)
    last_uid: int = field(default=0, init=False)  # the highest id ever keyed

    def __post_init__(self) -> None:
        if len(self.master_seed) != 32:
            raise ValueError("master seed must be 32 bytes")
        self.fc_gw = pair_channel_key(self.master_seed, FC, GW)

    def add_user(self) -> UserKeys:
        """Key a new user, one above every id ever keyed, and return its id,
        its gateway channel key and its OPE subkey."""
        uid = self.last_uid = self.last_uid + 1
        fc_secret = _kdf(self.master_seed, f"pair|{pair_label(FC, uid)}")
        ope_key = OpeKey(_kdf(fc_secret, "ope")[:KEY_LEN], self.domain_bits, self.range_bits)
        return uid, pair_channel_key(self.master_seed, GW, uid), ope_key


def derive_pairwise_keys(
    master_seed: bytes, n_users: int, domain_bits: int = 16, range_bits: int = 32
) -> tuple[KeyTable, list[UserKeys]]:
    """Derive the key table of a deployment from one 32-byte master seed,
    and key users 1..``n_users`` from it: returns the table and each user's
    ``add_user`` tuple, in id order. Deterministic: the same seed and count
    give byte-identical keys.
    """
    table = KeyTable(master_seed, domain_bits, range_bits)
    return table, [table.add_user() for _ in range(n_users)]
