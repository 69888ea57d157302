"""Order preservation, AEAD contracts, and key-table derivation."""

import copy
import hashlib
import pickle
import tracemalloc

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, settings, strategies as st

from lp3pss.crypto import (
    FC,
    NONCE_LEN,
    TAG_LEN,
    AeadKey,
    AuthenticationFailure,
    MalformedCiphertext,
    OpeKey,
    aead_decrypt,
    aead_encrypt,
    derive_pairwise_keys,
    ope_encrypt,
    pair_channel_key,
)

KEY16 = bytes(range(16))


def ope_key(raw: bytes = KEY16, domain_bits: int = 16, range_bits: int = 32) -> OpeKey:
    return OpeKey(raw, domain_bits, range_bits)


def reference_ope_encrypt(key: OpeKey, m: int) -> int:
    """The recursive split, with each node label encoded on its own as a
    16-byte big-endian block, under an encryptor of the test's own."""
    d = key.domain_bits
    top = m | 1 << d
    labels = b"".join([(top >> s).to_bytes(16, "big") for s in range(d, -1, -1)])
    ecb = Cipher(algorithms.AES(key.key_bytes), modes.ECB()).encryptor()
    draws = int.from_bytes(ecb.update(labels), "big")
    mask = (1 << 128) - 1
    lo, size, n, shift = 0, 1 << key.range_bits, 1 << d, 128 * d
    while n > 1:
        half = n >> 1
        left = half + (draws >> shift & mask) % (size - n + 1)
        if m & half:
            lo += left
            size -= left
        else:
            size = left
        n = half
        shift -= 128
    return lo + (draws & mask) % size


class TestOpe:
    def test_orders_strictly(self):
        key = ope_key()
        assert ope_encrypt(key, 5) < ope_encrypt(key, 9)

    def test_deterministic(self):
        key = ope_key()
        assert ope_encrypt(key, 7) == ope_encrypt(key, 7)

    def test_full_domain_sweep_is_strictly_increasing(self):
        # brute-force oracle: the whole 8-bit domain under one key
        key = ope_key(domain_bits=8, range_bits=16)
        values = [ope_encrypt(key, m) for m in range(256)]
        assert values == sorted(set(values))
        assert values[-1] < 2**16

    @pytest.mark.parametrize("bad", [-1, 2**16, 2**20])
    def test_rejects_out_of_domain(self, bad):
        with pytest.raises(ValueError):
            ope_encrypt(ope_key(), bad)

    @given(st.binary(min_size=16, max_size=16), st.data())
    def test_random_key_pairs_preserve_order(self, raw, data):
        key = ope_key(raw, domain_bits=10, range_bits=20)
        m1 = data.draw(st.integers(0, 2**10 - 1))
        m2 = data.draw(st.integers(0, 2**10 - 1))
        c1, c2 = ope_encrypt(key, m1), ope_encrypt(key, m2)
        if m1 < m2:
            assert c1 < c2
        elif m1 == m2:
            assert c1 == c2
        else:
            assert c1 > c2

    def test_top_of_32_bit_domain_in_bounded_memory(self):
        # cost is O(domain_bits): no per-key table covering [0, m]
        tracemalloc.start()
        try:
            key = ope_key(domain_bits=32, range_bits=63)
            value = ope_encrypt(key, 2**32 - 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert 0 <= value < 2**63

    @pytest.mark.parametrize("d", [1, 16, 32])
    def test_domain_ends_under_tightest_headroom(self, d):
        key = ope_key(domain_bits=d, range_bits=d + 8)
        top = 2**d - 1
        values = [ope_encrypt(key, m) for m in sorted({0, 1, top - 1, top})]
        assert values == sorted(set(values))
        assert 0 <= values[0] and values[-1] < 2 ** (d + 8)

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_matches_reference_at_every_width(self, data):
        for d in range(1, 33):
            for range_bits in (d + 8, 63):
                key = ope_key(hashlib.sha256(b"%d|%d" % (d, range_bits)).digest()[:16], d, range_bits)
                top = 2**d - 1
                for m in (0, 1, top, data.draw(st.integers(0, top))):
                    assert ope_encrypt(key, m) == reference_ope_encrypt(key, m)

    def test_key_copies_encrypt_alike(self):
        key = ope_key()
        for twin in (copy.deepcopy(key), pickle.loads(pickle.dumps(key))):
            assert twin == key
            assert ope_encrypt(twin, 4321) == ope_encrypt(key, 4321)

    def test_ciphertext_serialization_roundtrip(self):
        ct = ope_encrypt(ope_key(), 12345)
        assert type(ct) is int
        assert int.from_bytes(ct.to_bytes(4, "big"), "big") == ct

    def test_key_invariants(self):
        with pytest.raises(ValueError):
            OpeKey(KEY16, domain_bits=0)
        with pytest.raises(ValueError):
            OpeKey(KEY16, domain_bits=16, range_bits=20)  # not enough headroom
        with pytest.raises(ValueError):
            OpeKey(b"short", 16, 32)


class TestAead:
    def test_roundtrip(self):
        key = AeadKey(KEY16, "FC|GW")
        ct = aead_encrypt(key, b"payload", b"assoc")
        assert aead_decrypt(key, ct, b"assoc") == b"payload"

    def test_wrong_key_fails(self):
        ct = aead_encrypt(AeadKey(KEY16, "a"), b"payload", b"")
        with pytest.raises(AuthenticationFailure):
            aead_decrypt(AeadKey(bytes(16), "b"), ct, b"")

    def test_nonce_freshness(self):
        key = AeadKey(KEY16, "a")
        assert aead_encrypt(key, b"same", b"") != aead_encrypt(key, b"same", b"")

    def test_wrong_assoc_fails(self):
        key = AeadKey(KEY16, "a")
        ct = aead_encrypt(key, b"payload", b"phase-1")
        with pytest.raises(AuthenticationFailure):
            aead_decrypt(key, ct, b"phase-2")

    def test_tamper_detection_at_every_byte(self):
        key = AeadKey(KEY16, "a")
        wire = aead_encrypt(key, b"sixteen byte msg", b"ctx")
        for pos in range(4, len(wire)):  # skip the length prefix: that is framing
            tampered = bytearray(wire)
            tampered[pos] ^= 0x01
            with pytest.raises(AuthenticationFailure):
                aead_decrypt(key, bytes(tampered), b"ctx")

    def test_truncated_wire_is_malformed(self):
        key = AeadKey(KEY16, "a")
        wire = aead_encrypt(key, b"payload", b"")
        declared_longer = (len(wire) - 3).to_bytes(4, "big") + wire[4:]
        declared_too_short = (NONCE_LEN + TAG_LEN - 1).to_bytes(4, "big") + bytes(NONCE_LEN + TAG_LEN - 1)
        for bad in (
            wire[:-1],
            wire[:-3],
            wire + b"\x00",
            b"\x00\x00",
            b"",
            declared_longer,
            declared_too_short,
        ):
            with pytest.raises(MalformedCiphertext):
                aead_decrypt(key, bad, b"")

    def test_empty_payload_rejected(self):
        with pytest.raises(ValueError):
            aead_encrypt(AeadKey(KEY16, "a"), b"", b"")

    def test_wire_roundtrip(self):
        # u32 len || nonce || ciphertext || tag; the nonce is the key's counter
        key = AeadKey(KEY16, "a")
        aead_encrypt(key, b"first", b"")
        wire = aead_encrypt(key, b"payload", b"")
        assert len(wire) == 4 + NONCE_LEN + len(b"payload") + TAG_LEN
        assert int.from_bytes(wire[:4], "big") == len(wire) - 4
        assert wire[4 : 4 + NONCE_LEN] == (1).to_bytes(NONCE_LEN, "big")
        assert aead_decrypt(key, wire, b"") == b"payload"

    def test_wire_bytes_are_pinned(self):
        # two consecutive calls under one key: nonces 0 and 1
        key = AeadKey(KEY16, "GW|1")
        wires = [aead_encrypt(key, b"vote bit", b"round 1").hex() for _ in range(2)]
        assert wires == [
            "00000024" "000000000000000000000000" "3fb9f336b9f9cff8" "bcfc8b0fd04bec46d5b47705d6cd968b",
            "00000024" "000000000000000000000001" "ccbadb06ed8ba35a" "2405fc2f9bf29564ee3605f14069b8a4",
        ]

    def test_key_copies_continue_its_nonces(self):
        key = AeadKey(KEY16, "GW|1")
        wire = aead_encrypt(key, b"sent before the copy", b"ctx")
        twins = [copy.deepcopy(key), pickle.loads(pickle.dumps(key))]
        following = aead_encrypt(key, b"next", b"")
        assert following[4 : 4 + NONCE_LEN] == (1).to_bytes(NONCE_LEN, "big")
        for twin in twins:
            assert twin == key and twin.label == key.label
            assert aead_decrypt(twin, wire, b"ctx") == b"sent before the copy"
            assert aead_encrypt(twin, b"next", b"") == following

    @given(st.binary(min_size=1, max_size=200), st.binary(max_size=32))
    @settings(max_examples=50)
    def test_roundtrip_property(self, payload, assoc):
        key = AeadKey(KEY16, "p")
        assert aead_decrypt(key, aead_encrypt(key, payload, assoc), assoc) == payload


class TestKeyTable:
    def test_single_user_yields_three_pairs(self, master_seed):
        # FC<->GW and GW<->U1 channels, and the FC<->U1 OPE subkey
        table = derive_pairwise_keys(master_seed, 1)
        assert 1 + len(table.gw_user) + len(table.ope_user) == 3
        assert set(table.gw_user) == set(table.ope_user) == {1}
        assert table.user_ids() == [1]

    def test_deterministic(self, master_seed):
        t1 = derive_pairwise_keys(master_seed, 3)
        t2 = derive_pairwise_keys(master_seed, 3)
        assert t1.fc_gw.key_bytes == t2.fc_gw.key_bytes
        assert all(t1.gw_user[u].key_bytes == t2.gw_user[u].key_bytes for u in (1, 2, 3))
        assert all(t1.ope_user[u].key_bytes == t2.ope_user[u].key_bytes for u in (1, 2, 3))

    def test_fifty_users_yield_101_pairs(self, master_seed):
        table = derive_pairwise_keys(master_seed, 50)
        assert 1 + len(table.gw_user) + len(table.ope_user) == 2 * 50 + 1

    def test_users_are_minted_in_order_from_one(self, master_seed):
        table = derive_pairwise_keys(master_seed, 3)
        assert table.user_ids() == [1, 2, 3] and table.last_uid == 3
        assert [table.add_user(), table.add_user()] == [4, 5]
        assert table.user_ids() == [1, 2, 3, 4, 5] and table.gw_user[4].label == "GW|4"
        # a user keyed later holds the keys derivation gives its id
        assert table.ope_user[5].key_bytes == derive_pairwise_keys(master_seed, 5).ope_user[5].key_bytes

    @pytest.mark.parametrize("uid", [True, False, -1, 1.0, "1"], ids=["true", "false", "negative", "float", "str"])
    def test_only_plain_non_negative_ints_are_keyed_as_users(self, master_seed, uid):
        # True equals 1 but would remove user 1, or label a pair "GW|True"
        table = derive_pairwise_keys(master_seed, 2)
        with pytest.raises(ValueError, match="not keyed"):
            table.remove_user(uid)
        assert table.user_ids() == [1, 2]
        with pytest.raises(ValueError, match="unknown entity id"):
            pair_channel_key(master_seed, FC, uid)

    def test_all_keys_distinct(self, master_seed):
        table = derive_pairwise_keys(master_seed, 19)
        raws = [table.fc_gw.key_bytes]
        raws += [pair_channel_key(master_seed, FC, u).key_bytes for u in range(1, 20)]
        raws += [k.key_bytes for k in table.gw_user.values()]
        raws += [k.key_bytes for k in table.ope_user.values()]
        assert len(set(raws)) == len(raws)

    def test_key_separation_between_users(self, master_seed):
        table = derive_pairwise_keys(master_seed, 2)
        ct = aead_encrypt(table.gw_user[1], b"for user 1 channel", b"")
        with pytest.raises(AuthenticationFailure):
            aead_decrypt(table.gw_user[2], ct, b"")

    def test_departed_user_keys_removed(self, master_seed):
        table = derive_pairwise_keys(master_seed, 2)
        table.remove_user(1)
        assert 1 not in table.gw_user and 1 not in table.ope_user
        assert table.user_ids() == [2]
        assert 1 + len(table.gw_user) + len(table.ope_user) == 3
        with pytest.raises(ValueError):
            table.remove_user(1)

    def test_departed_user_id_is_never_keyed_again(self, master_seed):
        # derivation is a pure function of (seed, id) and a fresh key starts
        # its nonce counter at 0, so re-keying an id would reuse its nonces
        table = derive_pairwise_keys(master_seed, 2)
        table.remove_user(1)
        assert table.add_user() == 3
        table.remove_user(3)  # the highest id ever keyed leaves too
        table.remove_user(2)
        assert [table.add_user(), table.add_user()] == [4, 5]
        assert table.user_ids() == [4, 5] and table.last_uid == 5

    def test_derived_key_bytes_are_pinned(self, master_seed):
        # the FC<->GW, GW<->user and OPE keys and the baseline's FC<->user
        # channel keys, as derived since the key table was introduced
        table = derive_pairwise_keys(master_seed, 3)
        raws = [table.fc_gw.key_bytes]
        raws += [table.gw_user[u].key_bytes for u in (1, 2, 3)]
        raws += [table.ope_user[u].key_bytes for u in (1, 2, 3)]
        raws += [pair_channel_key(master_seed, FC, u).key_bytes for u in (1, 2, 3)]
        assert hashlib.sha256(b"".join(raws)).hexdigest() == (
            "7ba85cfecd52b847be55cb42c2983f58a29bf2ed84e1d1f331b0f8e79a5f1460"
        )
        assert [table.fc_gw.label, table.gw_user[2].label, pair_channel_key(master_seed, 2, FC).label] == [
            "FC|GW", "GW|2", "FC|2"
        ]
