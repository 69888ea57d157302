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

``seal`` and ``unseal`` are the one place where a message is bound to its
phase, subject and round, framed with AES-GCM, and logged.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from lp3pss.crypto import (
    AeadKey,
    CryptoError,
    KeyTable,
    MalformedCiphertext,
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


class MessageRefused(ProtocolError):
    """``unseal`` refused a message and recorded why; the reason is the text."""


class RoundAborted(ProtocolError):
    """The decision vector was refused (see ``MessageRefused``); no decision."""


class MsgPhase:
    """The kinds of protocol message, each a plain string: a message's
    ``phase``, its associated data and its events' ``meta`` all carry it
    as is."""

    INIT_C = "INIT_C"
    REPORT = "REPORT"
    DECISION_VEC = "DECISION_VEC"
    BASELINE_REPORT = "BASELINE_REPORT"  # observability.run_baseline's report


# what a protocol error calls a refused message of each phase
_NOUN = {
    MsgPhase.INIT_C: "init message",
    MsgPhase.REPORT: "report",
    MsgPhase.DECISION_VEC: "decision vector",
    MsgPhase.BASELINE_REPORT: "baseline report",
}


def message_assoc(
    phase: str, subject: int | None, round_: int, roster: list[int] | None = None
) -> bytes:
    """Associated data binding phase, subject and round against replay.

    Sender and receiver each take the round and roster from their own
    state, never from the message. A decision vector binds a digest of the
    sorted roster it is packed over, so one packed over another roster
    fails authentication instead of crediting votes to the wrong users.
    """
    assoc = f"{phase}|{subject}|{round_}".encode()
    if roster is not None:
        assoc += b"|" + hashlib.sha256(",".join(map(str, roster)).encode()).digest()
    return assoc


@dataclass(slots=True)
class ProtocolMessage:
    """One message on a link. ``body`` is the framed AEAD ciphertext exactly
    as it travels (see ``crypto.aead_encrypt``); its length is the traffic
    the recorder counts for the message. The protocol makes one only with
    ``seal``, opens one only with ``unseal`` and never writes one after
    ``seal``. Not frozen, so cheap to build, and not hashable."""

    sender: str
    receiver: str
    phase: str  # a MsgPhase
    subject: int | None  # user the payload concerns; None for decision vectors
    body: bytes


# fresh event meta of a refused message (the recorder takes it over)
def _user_meta(subject: int | None) -> dict | None:
    return None if subject is None else {"user": subject}


def seal(
    key: AeadKey,
    sender: str,
    receiver: str,
    phase: str,
    subject: int | None,
    payload: bytes,
    recorder: Recorder,
    roster: list[int] | None = None,
) -> ProtocolMessage:
    """Encrypt ``payload`` bound to its phase, subject, the current round
    and ``roster``; log the sender's encryption and the message as sent."""
    body = aead_encrypt(key, payload, message_assoc(phase, subject, recorder.round, roster))
    size = len(body)
    recorder.user_op(sender, AEAD_ENC, ViewTag.OPAQUE_CIPHERTEXT, size, subject)
    recorder.message_sent(sender, receiver, size, phase, subject)
    return ProtocolMessage(sender, receiver, phase, subject, body)


def unseal(
    key: AeadKey,
    msg: ProtocolMessage,
    recorder: Recorder,
    roster: list[int] | None = None,
    length: int | None = None,
) -> bytes:
    """Log ``msg`` as received and return its payload; the caller has
    checked its phase and subject and logs what the payload taught it.

    A body that is malformed or fails authentication, or a payload whose
    length is not ``length`` (when given), is refused: the decryption is
    logged as opaque, a protocol error recorded and ``MessageRefused`` raised.
    """
    phase, subject, receiver = msg.phase, msg.subject, msg.receiver
    size = len(msg.body)
    recorder.message_delivered(msg.sender, receiver, size, phase, subject)
    try:
        payload = aead_decrypt(key, msg.body, message_assoc(phase, subject, recorder.round, roster))
    except CryptoError as exc:
        problem = "is malformed" if isinstance(exc, MalformedCiphertext) else "failed authentication"
    else:
        if length is None or len(payload) == length:
            return payload
        problem = "has the wrong length"
    reason = f"{_NOUN[phase]} {problem}"
    recorder.crypto_op(receiver, AEAD_DEC, ViewTag.OPAQUE_CIPHERTEXT, size, _user_meta(subject))
    recorder.protocol_error(receiver, reason, _user_meta(subject))
    raise MessageRefused(reason)


@dataclass
class FcState:
    tau: int
    alpha: float
    gw_key: AeadKey
    ope_keys: dict[int, OpeKey]
    records: dict[int, ReputationRecord]
    live: set[int]


@dataclass
class SuState:
    uid: int
    name: str  # user_name(uid)
    ope_key: OpeKey
    gw_key: AeadKey


@dataclass
class GwState:
    fc_key: AeadKey
    user_keys: dict[int, AeadKey]
    tau_cache: dict[int, int] = field(default_factory=dict)  # OPE threshold per live user


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
    """The present users' vote bits, keyed in the order of ``roster``."""
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
    return SuState(uid, user_name(uid), keys.ope_user[uid], keys.gw_user[uid])


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
    )
    messages = [_wrap_tau(fc, uid, recorder) for uid in users]
    return fc, messages


def _wrap_tau(fc: FcState, uid: int, recorder: Recorder) -> ProtocolMessage:
    key = fc.ope_keys[uid]
    inner = ope_encrypt(key, fc.tau).to_bytes((key.range_bits + 7) // 8, "big")
    recorder.user_op(FC_NAME, OPE_ENC, ViewTag.OPAQUE_CIPHERTEXT, 0, uid)
    return seal(fc.gw_key, FC_NAME, GW_NAME, MsgPhase.INIT_C, uid, inner, recorder)


def gw_ingest_init(gw: GwState, messages: list[ProtocolMessage], recorder: Recorder) -> None:
    """Cache the decrypted OPE threshold for each user the FC wrapped. A
    message for a user whose threshold is already cached is refused before
    delivery. A malformed or unauthentic message (tampered, or replayed
    from another round) is delivered, then refused. Each refusal is a
    protocol error and caches nothing."""
    for msg in messages:
        uid = msg.subject
        if msg.phase != MsgPhase.INIT_C or uid is None:
            raise ProtocolError(f"not an init message: {msg.phase}")
        if uid in gw.tau_cache:
            recorder.protocol_error(GW_NAME, "duplicate init message", {"user": uid})
            continue
        try:
            tau_ope = int.from_bytes(unseal(gw.fc_key, msg, recorder), "big")
        except MessageRefused:
            continue
        meta = {"kind": "tau_ope", "user": uid, "value": tau_ope}
        recorder.crypto_op(GW_NAME, AEAD_DEC, ViewTag.OPE_ORDER_PAIR, len(msg.body), meta)
        gw.tau_cache[uid] = tau_ope


# ---------------------------------------------------------------------------
# private sensing
# ---------------------------------------------------------------------------


def su_sense_report(su: SuState, rss_q: int, recorder: Recorder) -> ProtocolMessage:
    """Encrypt the user's quantized RSS for the gateway.

    Exactly one OPE encryption plus one channel encryption per report.
    """
    if not 0 <= rss_q < su.ope_key.domain_size:
        raise ValueError(f"RSS {rss_q} outside OPE domain")
    me = su.name
    recorder.observe(
        me, ViewTag.PLAINTEXT_VALUE, "local", {"kind": "rss", "user": su.uid, "value": rss_q}
    )
    inner = ope_encrypt(su.ope_key, rss_q).to_bytes((su.ope_key.range_bits + 7) // 8, "big")
    recorder.user_op(me, OPE_ENC, ViewTag.OPAQUE_CIPHERTEXT, 0, su.uid)
    return seal(su.gw_key, me, GW_NAME, MsgPhase.REPORT, su.uid, inner, recorder)


def gw_compare(
    gw: GwState, reports: list[ProtocolMessage], recorder: Recorder
) -> tuple[ProtocolMessage, list[int]]:
    """Compare each report against the cached OPE threshold and pack votes.

    A report votes busy (bit 1) whenever its OPE value is not below the
    user's OPE threshold; equal plaintexts encrypt identically, so a
    reading exactly at the threshold votes busy. A report from an
    unknown user, or a second one from the same user, is refused before
    delivery; one that is malformed or fails authentication (a report
    replayed from another round among them) is delivered, then skipped.
    Both leave the user absent. Returns the decision vector and the
    subjects of the delivered reports, in order.
    """
    roster = sorted(gw.tau_cache)
    bits: dict[int, int] = {}
    delivered: list[int] = []
    for msg in reports:
        uid = msg.subject
        if msg.phase != MsgPhase.REPORT or uid not in gw.tau_cache:
            recorder.protocol_error(GW_NAME, "report from unknown user", {"user": uid})
            continue
        if uid in bits:
            recorder.protocol_error(GW_NAME, "duplicate report", {"user": uid})
            continue
        delivered.append(uid)
        try:
            rss_ope = int.from_bytes(unseal(gw.user_keys[uid], msg, recorder), "big")
        except MessageRefused:
            continue
        meta = {"kind": "rss_ope", "user": uid, "value": rss_ope}
        recorder.crypto_op(GW_NAME, AEAD_DEC, ViewTag.OPE_ORDER_PAIR, len(msg.body), meta)
        tau_ope = gw.tau_cache[uid]
        bit = 0 if rss_ope < tau_ope else 1
        bits[uid] = bit
        pair = [rss_ope, tau_ope]
        recorder.crypto_op(GW_NAME, COMPARE, ViewTag.OPE_ORDER_PAIR, meta={"user": uid, "pair": pair})
        recorder.vote(GW_NAME, "computed", uid, bit)
    vector = pack_decision_vector(roster, bits)
    msg = seal(gw.fc_key, GW_NAME, FC_NAME, MsgPhase.DECISION_VEC, None, vector, recorder, roster)
    return msg, delivered


def fc_decide(fc: FcState, msg: ProtocolMessage, recorder: Recorder) -> RoundResult:
    """Fuse the decision vector, then update reputation and weights.

    Absent users contribute nothing to the vote sum, keep their counts,
    and the voting threshold is recomputed over the number of users
    actually present this round. Every live user's new weight is written
    into its record in place. A vector that is malformed, fails
    authentication (tampered, replayed, or packed over another roster) or
    has the wrong length is refused by ``unseal`` and yields no votes:
    ``RoundAborted`` is raised with the recorded reason.
    """
    if msg.phase != MsgPhase.DECISION_VEC:
        raise ProtocolError(f"not a decision vector: {msg.phase}")
    roster = sorted(fc.live)
    try:
        payload = unseal(fc.gw_key, msg, recorder, roster, 2 * ((len(roster) + 7) // 8))
    except MessageRefused as exc:
        raise RoundAborted(str(exc)) from exc
    bits = unpack_decision_vector(roster, payload)
    recorder.crypto_op(FC_NAME, AEAD_DEC, ViewTag.PLAINTEXT_BIT, len(msg.body), {"kind": "vote_vector"})
    present = tuple(bits)
    for uid in present:
        recorder.vote(FC_NAME, "observed", uid, bits[uid])
    lam_round = compute_lambda(len(present), fc.alpha) if present else 1
    outcome = fuse_votes([fc.records[uid].weight for uid in present], list(bits.values()), lam_round)
    records = fc.records = update_reputation(fc.records, bits, outcome.decision)
    weights = compute_weights([records[uid].phi for uid in roster], len(roster))
    for uid, weight in zip(roster, weights):
        records[uid].weight = weight
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

    Joins and leaves may arrive in the same period. A joiner's id must be
    a non-negative int that was never keyed, since re-keying a departed id
    would reuse its nonces; every check runs before any state changes, and
    a refused change raises ``ProtocolError``. No stored state of any
    remaining user changes. Returns states for the joining users.
    """
    for uid in joins:  # what KeyTable.add_user requires, checked before any change
        if not isinstance(uid, int) or uid < 0:
            raise ProtocolError(f"user id must be a non-negative int, got {uid!r}")
    if set(joins) & set(leaves):
        raise ProtocolError("a user cannot both join and leave in one period")
    if len(set(joins)) != len(joins) or len(set(leaves)) != len(leaves):
        raise ProtocolError("a user id is repeated in one membership change")
    for uid in joins:
        if uid in keys.issued:
            raise ProtocolError(f"user {uid} already issued keys")
    for uid in leaves:
        if uid not in fc.live:
            raise ProtocolError(f"user {uid} not live")
    if len(fc.live) - len(leaves) + len(joins) == 0:
        raise ProtocolError("membership change emptied the network")
    for uid in leaves:
        keys.remove_user(uid)
        fc.live.discard(uid)
        del fc.ope_keys[uid]
        del fc.records[uid]
        del gw.user_keys[uid]
        gw.tau_cache.pop(uid, None)  # absent if the leaver's wrapped threshold was refused
    new_states: dict[int, SuState] = {}
    for uid in joins:
        keys.add_user(uid)
        fc.live.add(uid)
        fc.ope_keys[uid] = keys.ope_user[uid]
        fc.records[uid] = ReputationRecord()
        gw.user_keys[uid] = keys.gw_user[uid]
        gw_ingest_init(gw, [_wrap_tau(fc, uid, recorder)], recorder)
        new_states[uid] = make_su_state(keys, uid)
    return new_states
