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
  OPE threshold; each party drops its copy of a leaver's keys and its
  cache entry, and no copy is kept anywhere else; the
  voting threshold follows the new population, since the fusion center
  computes it each period over the users present. Existing users are
  untouched.

The fusion center never sees an OPE encryption of any RSS; the gateway
never sees the threshold in plaintext nor any OPE key; users never see
the threshold or the voting threshold in any form.

``seal`` and ``unseal`` are the one place where a message is bound to its
phase, subject and round, framed with AES-GCM, and logged: every event of
a message is appended there, and callers log none of them. The sender's
event is the send, which counts its encryption; the receiver's are the
receipt and the decryption, which holds the payload. Each OPE encryption
is one event of its own: a user's carries the reading it encrypted, and
the fusion center's for a user's threshold is opaque.
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
    UserKeys,
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
    and ``roster``, and log the message as sent: one event, the sender's,
    with the message's shared header as its meta. It counts the sender's
    ``AEAD_ENC`` (``Recorder.message_sent``), which has no event of its own."""
    body = aead_encrypt(key, payload, message_assoc(phase, subject, recorder.round, roster))
    recorder.message_sent(sender, receiver, len(body), phase, subject)
    return ProtocolMessage(sender, receiver, phase, subject, body)


def unseal(
    key: AeadKey,
    msg: ProtocolMessage,
    recorder: Recorder,
    tag: str,
    kind: str,
    roster: list[int] | None = None,
    length: int | None = None,
) -> bytes:
    """Log ``msg`` as received, then the receiver's decryption, and return
    the payload; the caller has checked its phase and subject.

    The decryption event carries ``tag`` and the meta ``{"kind": kind,
    "user": subject, "value": value}``, where ``value`` is the payload read
    as one big-endian integer: the payload of every message with a subject
    (``INIT_C``, ``REPORT`` and ``BASELINE_REPORT``) is one. A decision
    vector has no subject, and its meta is ``{"kind": kind, "value":
    value}``, where ``value`` is the payload in hex: the packed presence
    mask and vote bits that ``unpack_decision_vector`` reads from
    ``bytes.fromhex(value)``. Hex, not an integer: a vector over more than
    about 7 100 users has more decimal digits than ``int`` converts to or
    from text. Callers log no decryption of their own.

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
            if subject is None:
                meta = {"kind": kind, "value": payload.hex()}
            else:
                meta = {"kind": kind, "user": subject, "value": int.from_bytes(payload, "big")}
            recorder.crypto_op(receiver, AEAD_DEC, tag, size, meta)
            return payload
        problem = "has the wrong length"
    reason = f"{_NOUN[phase]} {problem}"
    user = {} if subject is None else {"user": subject}
    # each event takes over its meta, so each gets its own dict
    recorder.crypto_op(receiver, AEAD_DEC, ViewTag.OPAQUE_CIPHERTEXT, size, dict(user))
    recorder.protocol_error(receiver, reason, user)
    raise MessageRefused(reason)


@dataclass
class FcState:
    """The fusion center's state. ``records`` is also its roster: its keys
    are the live users, each with its reputation, in the order they were
    keyed. It is one dict for the whole run, and each record is updated in
    place. ``ope_keys`` holds the only copy the fusion center keeps of each
    live user's OPE subkey."""

    tau: int
    alpha: float
    gw_key: AeadKey
    ope_keys: dict[int, OpeKey]
    records: dict[int, ReputationRecord]


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
    # the OPE threshold of each user whose wrapped threshold was accepted
    tau_cache: dict[int, int] = field(default_factory=dict)


@dataclass(frozen=True)
class RoundResult:
    outcome: FusionOutcome | None  # None: the round was aborted
    bits: dict[int, int]  # the present users' votes, in roster order
    n_live: int

    @property
    def present(self) -> tuple[int, ...]:
        return tuple(self.bits)


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


def make_su_states(users: list[UserKeys]) -> dict[int, SuState]:
    return {uid: SuState(uid, user_name(uid), ope_key, gw_key) for uid, gw_key, ope_key in users}


def gw_init(keys: KeyTable, users: list[UserKeys]) -> GwState:
    """The gateway's state: its key with the fusion center and each user's
    channel key, taken from ``users``."""
    return GwState(fc_key=keys.fc_gw, user_keys={uid: gw_key for uid, gw_key, _ in users})


def fc_init(
    tau: int,
    profile: DetectionProfile,
    keys: KeyTable,
    users: list[UserKeys],
    recorder: Recorder,
) -> tuple[FcState, list[ProtocolMessage]]:
    """Set thresholds and produce the per-user wrapped OPE thresholds. The
    fusion center keeps each user's OPE key from ``users`` and its
    channel key with the gateway from ``keys``."""
    if not users:
        raise ValueError("need at least one user")
    if not 0 <= tau < (1 << keys.domain_bits):
        raise ValueError(f"tau {tau} outside OPE domain")
    fc = FcState(
        tau=tau,
        alpha=compute_alpha(profile),
        gw_key=keys.fc_gw,
        ope_keys={uid: ope_key for uid, _, ope_key in users},
        records={uid: ReputationRecord() for uid, _, _ in users},
    )
    messages = [_wrap_tau(fc, uid, recorder) for uid in fc.records]
    return fc, messages


def _wrap_tau(fc: FcState, uid: int, recorder: Recorder) -> ProtocolMessage:
    key = fc.ope_keys[uid]
    inner = ope_encrypt(key, fc.tau).to_bytes((key.range_bits + 7) // 8, "big")
    recorder.crypto_op(FC_NAME, OPE_ENC, ViewTag.OPAQUE_CIPHERTEXT, 0, {"user": uid})
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
            payload = unseal(gw.fc_key, msg, recorder, ViewTag.OPE_ORDER_PAIR, "tau_ope")
        except MessageRefused:
            continue
        gw.tau_cache[uid] = int.from_bytes(payload, "big")


# ---------------------------------------------------------------------------
# private sensing
# ---------------------------------------------------------------------------


def su_sense_report(su: SuState, rss_q: int, recorder: Recorder) -> ProtocolMessage:
    """Encrypt the user's quantized RSS for the gateway.

    Exactly one OPE encryption plus one channel encryption per report, and
    two events: the OPE encryption, which carries the reading it encrypted
    (a ``PLAINTEXT_VALUE`` of kind ``rss`` that only this user may see),
    and the report as sent.
    """
    if not 0 <= rss_q < su.ope_key.domain_size:
        raise ValueError(f"RSS {rss_q} outside OPE domain")
    me = su.name
    inner = ope_encrypt(su.ope_key, rss_q).to_bytes((su.ope_key.range_bits + 7) // 8, "big")
    recorder.crypto_op(
        me, OPE_ENC, ViewTag.PLAINTEXT_VALUE, 0, {"kind": "rss", "user": su.uid, "value": rss_q}
    )
    return seal(su.gw_key, me, GW_NAME, MsgPhase.REPORT, su.uid, inner, recorder)


def gw_compare(
    gw: GwState, reports: list[ProtocolMessage], recorder: Recorder
) -> tuple[ProtocolMessage, list[int]]:
    """Compare each report against the cached OPE threshold and pack votes.

    A report votes busy (bit 1) whenever its OPE value is not below the
    user's OPE threshold; equal plaintexts encrypt identically, so a
    reading exactly at the threshold votes busy. A report from an
    unknown user, from a user whose wrapped threshold was refused (so
    none is cached), or a second one from the same user, is refused
    before delivery; one that is malformed or fails authentication (a
    report replayed from another round among them) is delivered, then
    skipped. Each leaves the user absent. The vector is packed over every
    keyed user, the fusion center's roster (the keys of its ``records``,
    which ``handle_membership`` keeps equal to the gateway's keyed users),
    so a lost threshold costs only its user's votes.
    Returns the decision vector and the subjects of the delivered
    reports, in order.
    """
    roster = sorted(gw.user_keys)
    bits: dict[int, int] = {}
    delivered: list[int] = []
    for msg in reports:
        uid = msg.subject
        if msg.phase != MsgPhase.REPORT or uid not in gw.user_keys:
            recorder.protocol_error(GW_NAME, "report from unknown user", {"user": uid})
            continue
        if uid not in gw.tau_cache:
            recorder.protocol_error(GW_NAME, "report from user with no threshold", {"user": uid})
            continue
        if uid in bits:
            recorder.protocol_error(GW_NAME, "duplicate report", {"user": uid})
            continue
        delivered.append(uid)
        try:
            payload = unseal(gw.user_keys[uid], msg, recorder, ViewTag.OPE_ORDER_PAIR, "rss_ope")
        except MessageRefused:
            continue
        bit = bits[uid] = 0 if int.from_bytes(payload, "big") < gw.tau_cache[uid] else 1
        recorder.vote(uid, bit)  # counts the comparison
    vector = pack_decision_vector(roster, bits)
    msg = seal(gw.fc_key, GW_NAME, FC_NAME, MsgPhase.DECISION_VEC, None, vector, recorder, roster)
    return msg, delivered


def fc_decide(fc: FcState, msg: ProtocolMessage, recorder: Recorder) -> RoundResult:
    """Fuse the decision vector, then update reputation and weights.

    Absent users contribute nothing to the vote sum, keep their counts,
    and the voting threshold is recomputed over the number of users
    actually present this round. Each present user's counts and every
    live user's new weight are written into its record in place. A vector
    that is malformed, fails authentication (tampered, replayed, or packed
    over another roster) or has the wrong length is refused by ``unseal``,
    which records why and raises ``MessageRefused``: the round has no
    votes, and no record changes. A message of another phase raises
    ``ProtocolError``.

    The fusion center's view of the votes is its decryption of the vector,
    whose meta ``unseal`` gives the payload as ``value``: it logs no event
    per vote.
    """
    if msg.phase != MsgPhase.DECISION_VEC:
        raise ProtocolError(f"not a decision vector: {msg.phase}")
    roster = sorted(fc.records)
    length = 2 * ((len(roster) + 7) // 8)
    payload = unseal(fc.gw_key, msg, recorder, ViewTag.PLAINTEXT_BIT, "vote_vector", roster, length)
    bits = unpack_decision_vector(roster, payload)
    lam_round = compute_lambda(len(bits), fc.alpha) if bits else 1
    records = fc.records
    outcome = fuse_votes([records[uid].weight for uid in bits], list(bits.values()), lam_round)
    update_reputation(records, bits, outcome.decision)
    weights = compute_weights([records[uid].phi for uid in roster])
    for uid, weight in zip(roster, weights):
        records[uid].weight = weight
    return RoundResult(outcome, bits, n_live=len(roster))


# ---------------------------------------------------------------------------
# membership update
# ---------------------------------------------------------------------------


def handle_membership(
    fc: FcState,
    gw: GwState,
    n_join: int,
    leaves: list[int],
    keys: KeyTable,
    recorder: Recorder,
) -> dict[int, SuState]:
    """Remove the leavers, then key ``n_join`` new users and wrap a
    threshold for each.

    Each joiner's keys come from ``keys.add_user``, which mints its id, so
    none was keyed before; they go straight to the fusion center, the
    gateway and the joiner's state, and the key table keeps none. A
    leaver's keys go with the parties' copies. ``n_join`` must be a plain
    int >= 0 (a bool is not one). Each leaving id must be a live user's,
    given once, as a plain int (``True`` would remove user 1), and a change
    may not empty the network. Every check runs before any state changes,
    and a refused change raises ``ProtocolError``. No stored state of any
    remaining user changes. Returns states for the joining users, in the
    order their ids were minted.
    """
    if type(n_join) is not int or n_join < 0:
        raise ProtocolError(f"join count must be an int >= 0, got {n_join!r}")
    for uid in leaves:
        if type(uid) is not int:
            raise ProtocolError(f"user id must be an int, got {uid!r}")
    if len(set(leaves)) != len(leaves):
        raise ProtocolError("a user id is repeated in one membership change")
    for uid in leaves:
        if uid not in fc.records:
            raise ProtocolError(f"user {uid} not live")
    if len(leaves) == len(fc.records) and n_join < 1:
        raise ProtocolError("membership change emptied the network")
    for uid in leaves:
        del fc.ope_keys[uid]
        del fc.records[uid]
        del gw.user_keys[uid]
        gw.tau_cache.pop(uid, None)  # absent if the leaver's wrapped threshold was refused
    new_states: dict[int, SuState] = {}
    for _ in range(n_join):
        uid, gw_key, ope_key = keys.add_user()
        fc.ope_keys[uid] = ope_key
        fc.records[uid] = ReputationRecord()
        gw.user_keys[uid] = gw_key
        gw_ingest_init(gw, [_wrap_tau(fc, uid, recorder)], recorder)
        new_states[uid] = SuState(uid, user_name(uid), ope_key, gw_key)
    return new_states
