"""Protocol state machines for the three parties.

One sensing period works like this:

* initialization (once): the fusion center OPE-encrypts its detection
  threshold under each user's shared OPE subkey, wraps every result for
  the gateway, and sends the bundle; the gateway caches the decrypted
  OPE thresholds, one per user;
* sensing (each period): every user OPE-encrypts its quantized RSS under
  its own OPE subkey and wraps it for the gateway; the gateway unwraps,
  compares against the cached OPE threshold for that user (same key, so
  ciphertext order matches plaintext order), packs the resulting bit
  vector with a presence mask, and sends it to the fusion center, which
  fuses the weighted votes against the voting threshold and updates the
  reputation table;
* membership update: joiners get fresh pairwise keys and one new wrapped
  OPE threshold; leavers have their keys and cache entries purged; the
  voting threshold follows the new population, since the fusion center
  computes it each period over the users present. Existing users are
  untouched.

The fusion center never sees an OPE encryption of any RSS; the gateway
never sees the threshold in plaintext nor any OPE key; users never see
the threshold or the voting threshold in any form.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum

from lp3pss import crypto
from lp3pss.crypto import (
    AeadKey,
    AuthenticationFailure,
    KeyTable,
    OpeCiphertext,
    OpeKey,
    aead_decrypt,
    aead_encrypt,
    ope_encrypt,
)
from lp3pss.fusion import (
    DetectionProfile,
    FusionOutcome,
    ReputationRecord,
    compute_alpha,
    compute_lambda,
    compute_weights,
    fuse_votes,
    update_reputation,
)
from lp3pss.recording import (
    AEAD_DEC,
    AEAD_ENC,
    COMPARE,
    FC_NAME,
    GW_NAME,
    OPE_ENC,
    Recorder,
    ViewTag,
    user_name,
)


class ProtocolError(Exception):
    """Protocol-level failure (bad membership change, unknown sender, ...)."""


class RoundAborted(ProtocolError):
    """The decision vector failed authentication or has the wrong length; no decision."""


class MsgPhase(str, Enum):
    INIT_C = "INIT_C"
    REPORT = "REPORT"
    DECISION_VEC = "DECISION_VEC"


def message_assoc(
    phase: MsgPhase, subject: int | None, round_: int, roster: list[int] | None = None
) -> bytes:
    """Associated data binding phase, subject and round against replay.

    Sender and receiver each build it from their own state, never from
    the message. A decision vector also binds a digest of the sorted
    roster it is packed over, so a vector packed over another roster
    fails authentication instead of crediting votes to the wrong users.
    """
    assoc = f"{phase.value}|{subject}|{round_}".encode()
    if roster is not None:
        assoc += b"|" + hashlib.sha256(",".join(map(str, roster)).encode()).digest()
    return assoc


@dataclass(frozen=True)
class ProtocolMessage:
    sender: str
    receiver: str
    phase: MsgPhase
    subject: int | None  # user the payload concerns; None for decision vectors
    body: crypto.AeadCiphertext

    @property
    def wire_size(self) -> int:
        return self.body.wire_size


@dataclass
class FcState:
    tau: int
    alpha: float
    gw_key: AeadKey
    ope_keys: dict[int, OpeKey]
    records: dict[int, ReputationRecord]
    live: set[int]
    range_bits: int


@dataclass
class SuState:
    uid: int
    ope_key: OpeKey
    gw_key: AeadKey
    range_bits: int


@dataclass
class GwState:
    fc_key: AeadKey
    user_keys: dict[int, AeadKey]
    tau_cache: dict[int, OpeCiphertext] = field(default_factory=dict)  # keyed by live user


@dataclass(frozen=True)
class RoundResult:
    outcome: FusionOutcome | None  # None: the round was aborted
    present: tuple[int, ...]
    bits: dict[int, int]
    n_live: int


# ---------------------------------------------------------------------------
# decision-vector packing: presence mask || vote bits, both over the sorted
# live roster, each ceil(n/8) bytes, big endian with user j at bit position j
# ---------------------------------------------------------------------------


def pack_decision_vector(roster: list[int], bits: dict[int, int]) -> bytes:
    width = (len(roster) + 7) // 8
    presence = 0
    values = 0
    for pos, uid in enumerate(roster):
        if uid in bits:
            presence |= 1 << pos
            if bits[uid]:
                values |= 1 << pos
    return presence.to_bytes(width, "big") + values.to_bytes(width, "big")


def unpack_decision_vector(roster: list[int], payload: bytes) -> dict[int, int]:
    width = (len(roster) + 7) // 8
    if len(payload) != 2 * width:
        raise ProtocolError(
            f"decision vector is {len(payload)} bytes, expected {2 * width} for {len(roster)} users"
        )
    presence = int.from_bytes(payload[:width], "big")
    values = int.from_bytes(payload[width:], "big")
    return {
        uid: (values >> pos) & 1
        for pos, uid in enumerate(roster)
        if (presence >> pos) & 1
    }


# ---------------------------------------------------------------------------
# entity construction
# ---------------------------------------------------------------------------


def make_su_state(keys: KeyTable, uid: int) -> SuState:
    return SuState(uid, keys.ope_user[uid], keys.gw_user[uid], keys.range_bits)


def make_su_states(keys: KeyTable) -> dict[int, SuState]:
    return {uid: make_su_state(keys, uid) for uid in keys.user_ids()}


def gw_init(keys: KeyTable) -> GwState:
    return GwState(fc_key=keys.fc_gw, user_keys=dict(keys.gw_user))


def fc_init(
    tau: int,
    profile: DetectionProfile,
    keys: KeyTable,
    recorder: Recorder,
) -> tuple[FcState, list[ProtocolMessage]]:
    """Set thresholds and produce the per-user wrapped OPE thresholds."""
    users = keys.user_ids()
    if not users:
        raise ValueError("need at least one user")
    if not 0 <= tau < (1 << keys.domain_bits):
        raise ValueError(f"tau {tau} outside OPE domain")
    fc = FcState(
        tau=tau,
        alpha=compute_alpha(profile),
        gw_key=keys.fc_gw,
        ope_keys=dict(keys.ope_user),
        records={uid: ReputationRecord() for uid in users},
        live=set(users),
        range_bits=keys.range_bits,
    )
    messages = [_wrap_tau(fc, uid, recorder) for uid in users]
    return fc, messages


def _wrap_tau(fc: FcState, uid: int, recorder: Recorder) -> ProtocolMessage:
    inner = ope_encrypt(fc.ope_keys[uid], fc.tau)
    recorder.crypto_op(FC_NAME, OPE_ENC, ViewTag.OPAQUE_CIPHERTEXT, meta={"user": uid})
    assoc = message_assoc(MsgPhase.INIT_C, uid, recorder.round)
    body = aead_encrypt(fc.gw_key, inner.to_bytes(fc.range_bits), assoc)
    msg = ProtocolMessage(FC_NAME, GW_NAME, MsgPhase.INIT_C, uid, body)
    recorder.crypto_op(FC_NAME, AEAD_ENC, ViewTag.OPAQUE_CIPHERTEXT, body.wire_size, {"user": uid})
    recorder.message_sent(FC_NAME, GW_NAME, body.wire_size, {"phase": msg.phase.value, "subject": uid})
    return msg


def gw_ingest_init(gw: GwState, messages: list[ProtocolMessage], recorder: Recorder) -> None:
    """Cache the decrypted OPE threshold for each user the FC wrapped."""
    for msg in messages:
        if msg.phase is not MsgPhase.INIT_C or msg.subject is None:
            raise ProtocolError(f"not an init message: {msg.phase}")
        recorder.message_delivered(
            msg.sender, msg.receiver, msg.wire_size, {"phase": msg.phase.value, "subject": msg.subject}
        )
        assoc = message_assoc(MsgPhase.INIT_C, msg.subject, recorder.round)
        payload = aead_decrypt(gw.fc_key, msg.body, assoc)
        tau_ope = OpeCiphertext.from_bytes(payload)
        recorder.crypto_op(
            GW_NAME,
            AEAD_DEC,
            ViewTag.OPE_ORDER_PAIR,
            msg.wire_size,
            {"kind": "tau_ope", "user": msg.subject, "value": tau_ope.value},
        )
        gw.tau_cache[msg.subject] = tau_ope


# ---------------------------------------------------------------------------
# private sensing
# ---------------------------------------------------------------------------


def su_sense_report(su: SuState, rss_q: int, recorder: Recorder) -> ProtocolMessage:
    """Encrypt the user's quantized RSS for the gateway.

    Exactly one OPE encryption plus one channel encryption per report.
    """
    if not 0 <= rss_q < su.ope_key.domain_size:
        raise ValueError(f"RSS {rss_q} outside OPE domain")
    me = user_name(su.uid)
    recorder.observe(
        me, ViewTag.PLAINTEXT_VALUE, "local", {"kind": "rss", "user": su.uid, "value": rss_q}
    )
    inner = ope_encrypt(su.ope_key, rss_q)
    recorder.crypto_op(me, OPE_ENC, ViewTag.OPAQUE_CIPHERTEXT, meta={"user": su.uid})
    assoc = message_assoc(MsgPhase.REPORT, su.uid, recorder.round)
    body = aead_encrypt(su.gw_key, inner.to_bytes(su.range_bits), assoc)
    msg = ProtocolMessage(me, GW_NAME, MsgPhase.REPORT, su.uid, body)
    recorder.crypto_op(me, AEAD_ENC, ViewTag.OPAQUE_CIPHERTEXT, body.wire_size, {"user": su.uid})
    recorder.message_sent(me, GW_NAME, body.wire_size, {"phase": msg.phase.value, "subject": su.uid})
    return msg


def gw_compare(gw: GwState, reports: list[ProtocolMessage], recorder: Recorder) -> ProtocolMessage:
    """Compare each report against the cached OPE threshold and pack votes.

    A report votes busy (bit 1) whenever its OPE value is not below the
    user's OPE threshold; equal plaintexts encrypt identically, so a
    reading exactly at the threshold votes busy. Reports from unknown
    users or failing authentication (a report replayed from another round
    among them) are skipped and marked absent.
    """
    roster = sorted(gw.tau_cache)
    bits: dict[int, int] = {}
    for msg in reports:
        uid = msg.subject
        if msg.phase is not MsgPhase.REPORT or uid not in gw.tau_cache:
            recorder.protocol_error(GW_NAME, "report from unknown user", {"user": uid})
            continue
        if uid in bits:
            recorder.protocol_error(GW_NAME, "duplicate report", {"user": uid})
            continue
        recorder.message_delivered(
            msg.sender, msg.receiver, msg.wire_size, {"phase": msg.phase.value, "subject": uid}
        )
        try:
            payload = aead_decrypt(
                gw.user_keys[uid], msg.body, message_assoc(MsgPhase.REPORT, uid, recorder.round)
            )
        except AuthenticationFailure:
            recorder.crypto_op(GW_NAME, AEAD_DEC, ViewTag.OPAQUE_CIPHERTEXT, msg.wire_size, {"user": uid})
            recorder.protocol_error(GW_NAME, "report failed authentication", {"user": uid})
            continue
        rss_ope = OpeCiphertext.from_bytes(payload)
        recorder.crypto_op(
            GW_NAME,
            AEAD_DEC,
            ViewTag.OPE_ORDER_PAIR,
            msg.wire_size,
            {"kind": "rss_ope", "user": uid, "value": rss_ope.value},
        )
        bit = 0 if rss_ope < gw.tau_cache[uid] else 1
        bits[uid] = bit
        recorder.crypto_op(
            GW_NAME,
            COMPARE,
            ViewTag.OPE_ORDER_PAIR,
            meta={"user": uid, "pair": [rss_ope.value, gw.tau_cache[uid].value]},
        )
        recorder.observe(GW_NAME, ViewTag.PLAINTEXT_BIT, "computed", {"kind": "vote", "user": uid, "bit": bit})
    assoc = message_assoc(MsgPhase.DECISION_VEC, None, recorder.round, roster)
    body = aead_encrypt(gw.fc_key, pack_decision_vector(roster, bits), assoc)
    msg = ProtocolMessage(GW_NAME, FC_NAME, MsgPhase.DECISION_VEC, None, body)
    recorder.crypto_op(GW_NAME, AEAD_ENC, ViewTag.OPAQUE_CIPHERTEXT, body.wire_size)
    recorder.message_sent(GW_NAME, FC_NAME, body.wire_size, {"phase": msg.phase.value})
    return msg


def fc_decide(fc: FcState, msg: ProtocolMessage, recorder: Recorder) -> RoundResult:
    """Fuse the decision vector, then update reputation and weights.

    Absent users contribute nothing to the vote sum, keep their record
    untouched, and the voting threshold is recomputed over the number of
    users actually present this round. A vector that fails authentication
    (tampered, replayed, or packed over another roster) or has the wrong
    length yields no votes: the decryption is logged as an opaque
    ciphertext, a protocol error is recorded and ``RoundAborted`` raised.
    """
    if msg.phase is not MsgPhase.DECISION_VEC:
        raise ProtocolError(f"not a decision vector: {msg.phase}")
    recorder.message_delivered(msg.sender, msg.receiver, msg.wire_size, {"phase": msg.phase.value})
    roster = sorted(fc.live)
    assoc = message_assoc(MsgPhase.DECISION_VEC, None, recorder.round, roster)
    try:
        bits = unpack_decision_vector(roster, aead_decrypt(fc.gw_key, msg.body, assoc))
    except (AuthenticationFailure, ProtocolError) as exc:
        if isinstance(exc, AuthenticationFailure):
            reason = "decision vector failed authentication"
        else:
            reason = "decision vector has the wrong length"
        recorder.crypto_op(FC_NAME, AEAD_DEC, ViewTag.OPAQUE_CIPHERTEXT, msg.wire_size)
        recorder.protocol_error(FC_NAME, reason)
        raise RoundAborted(reason) from exc
    recorder.crypto_op(
        FC_NAME, AEAD_DEC, ViewTag.PLAINTEXT_BIT, msg.wire_size, {"kind": "vote_vector"}
    )
    present = tuple(sorted(bits))
    for uid in present:
        recorder.observe(
            FC_NAME, ViewTag.PLAINTEXT_BIT, "observed", {"kind": "vote", "user": uid, "bit": bits[uid]}
        )
    if present:
        lam_round = compute_lambda(len(present), fc.alpha)
        outcome = fuse_votes(
            [fc.records[uid].weight for uid in present], [bits[uid] for uid in present], lam_round
        )
    else:
        outcome = fuse_votes([], [], 1)
    fc.records = update_reputation(fc.records, bits, outcome.decision)
    phis = [fc.records[uid].phi for uid in roster]
    weights = compute_weights(phis, len(roster))
    for uid, weight in zip(roster, weights):
        record = fc.records[uid]
        fc.records[uid] = ReputationRecord(record.rho, record.eta, weight)
    return RoundResult(outcome, present, bits, n_live=len(roster))


# ---------------------------------------------------------------------------
# membership update
# ---------------------------------------------------------------------------


def handle_membership(
    fc: FcState,
    gw: GwState,
    joins: list[int],
    leaves: list[int],
    keys: KeyTable,
    recorder: Recorder,
) -> dict[int, SuState]:
    """Apply joins and leaves and rekey the joiners.

    Joins and leaves may arrive in the same period. No stored state of
    any remaining user changes. Returns states for the joining users.
    """
    if set(joins) & set(leaves):
        raise ProtocolError("a user cannot both join and leave in one period")
    for uid in joins:
        if uid in fc.live:
            raise ProtocolError(f"user {uid} already live")
    for uid in leaves:
        if uid not in fc.live:
            raise ProtocolError(f"user {uid} not live")
    for uid in leaves:
        keys.remove_user(uid)
        fc.live.discard(uid)
        del fc.ope_keys[uid]
        del fc.records[uid]
        del gw.user_keys[uid]
        del gw.tau_cache[uid]
    new_states: dict[int, SuState] = {}
    for uid in joins:
        keys.add_user(uid)
        fc.live.add(uid)
        fc.ope_keys[uid] = keys.ope_user[uid]
        fc.records[uid] = ReputationRecord()
        gw.user_keys[uid] = keys.gw_user[uid]
        msg = _wrap_tau(fc, uid, recorder)
        gw_ingest_init(gw, [msg], recorder)
        new_states[uid] = make_su_state(keys, uid)
    if not fc.live:
        raise ProtocolError("membership change emptied the network")
    return new_states
