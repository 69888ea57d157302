"""Deterministic round-based simulation driver and conformance checks.

A run executes initialization once, then a fixed number of sensing
periods; membership churn is applied between periods. Everything an
entity does or observes lands in the run's event stream, counted as it
is appended, so the resulting report carries operation counts,
per-link traffic, reputation trajectories, empirical error rates, the
protocol errors and the leakage verdict, and is a pure function of
(config, seed): two runs with the same config produce byte-identical
reports and transcripts.

The round fold: each round folds as soon as its decision is in
(``RunFold.end_round``), on that round's counts only (at round 1, on
initialization's too). The driver

1. runs both count checks, the round's operation counts against the
   analytical model and its traffic against the framing model, and
   keeps their mismatch lines for ``verify_computation_counts`` and
   ``verify_communication_counts``;
2. encodes the round's rows of the report's ``rounds`` and
   ``phi_trajectory`` as JSON text;
3. adds the round's operation counts into the run totals per (entity,
   phase, operation) that the report's ``op_counts`` holds, and drops the
   round's own.

So neither the per-round counts nor the report rows are held as objects
after their round, and ``report_json`` writes the document around the
encoded rows, with the same bytes as encoding the whole report at once.

A round whose decision vector the fusion center cannot use (it is
malformed, fails authentication, was packed over another roster or has
the wrong length) is aborted, not fatal: it is recorded with no outcome
and nobody present, leaves reputation and weights untouched, and is left
out of Q_f and Q_m. A run in which every round is aborted still finishes, with
null decisions and a leakage verdict.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Any

from lp3pss import costs
from lp3pss.entities import (
    FcState,
    ProtocolMessage,
    RoundAborted,
    RoundResult,
    fc_decide,
    fc_init,
    gw_compare,
    gw_init,
    gw_ingest_init,
    handle_membership,
    make_su_states,
    su_sense_report,
)
from lp3pss.crypto import derive_pairwise_keys
from lp3pss.fusion import DetectionProfile
from lp3pss.observability import LeakageReport, check_leakage
from lp3pss.recording import (
    AEAD_DEC,
    AEAD_ENC,
    FC_NAME,
    GW_NAME,
    OPE_ENC,
    PHASE_INIT,
    PHASE_MEMBERSHIP,
    PHASE_SENSING,
    Recorder,
    Tally,
    collection_paused,
    compact_json,
    user_name,
)
from lp3pss.scenario import (
    AdversaryProfile,
    Behavior,
    ChannelModel,
    ChurnConfig,
    CountRange,
    PU_PRESENT,
    Quantization,
    apply_malice,
    calibrate_channel,
    churn_step,
    generate_rss,
    spawn_rngs,
)


class ConfigError(ValueError):
    """Invalid simulation config; the message names the offending field."""


@dataclass(frozen=True)
class SensingConfig:
    n: int
    rounds: int
    seed: int
    p_f: float = 0.1
    p_m: float = 0.1
    tau: int | None = None  # None: calibrated from the channel model
    busy_prob: float = 0.5
    report_loss_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError("sensing.n: must be >= 1")
        if self.rounds < 1:
            raise ConfigError("sensing.rounds: must be >= 1")
        if not 0 <= self.seed < 2**63:
            raise ConfigError("sensing.seed: must lie in [0, 2^63)")
        if not 0.0 <= self.busy_prob <= 1.0:
            raise ConfigError("sensing.busy_prob: must lie in [0, 1]")
        if not 0.0 <= self.report_loss_prob < 1.0:
            raise ConfigError("sensing.report_loss_prob: must lie in [0, 1)")

    @property
    def profile(self) -> DetectionProfile:
        try:
            return DetectionProfile(self.p_f, self.p_m)
        except ValueError as exc:
            raise ConfigError(f"sensing.p_f/p_m: {exc}") from exc


@dataclass(frozen=True)
class CryptoParams:
    domain_bits: int = 16
    range_bits: int = 32

    def __post_init__(self) -> None:
        if not 1 <= self.domain_bits <= 32:
            raise ConfigError("crypto.domain_bits: must lie in [1, 32]")
        if self.range_bits < self.domain_bits + 8 or self.range_bits > 63:
            raise ConfigError("crypto.range_bits: must lie in [domain_bits + 8, 63]")


@dataclass(frozen=True)
class ChannelSpec:
    """Raw channel section; sigma/tau may be left for calibration."""

    mu0: float = 2000.0
    mu1: float = 4000.0
    sigma: float | None = None
    min_dbm: float = -110.0
    step_dbm: float = 0.01


@dataclass(frozen=True)
class SimulationConfig:
    sensing: SensingConfig
    channel: ChannelSpec = ChannelSpec()
    churn: ChurnConfig = ChurnConfig()
    adversary: AdversaryProfile = AdversaryProfile()
    crypto: CryptoParams = CryptoParams()

    def resolve_channel(self) -> tuple[ChannelModel, int]:
        """Concrete channel model and threshold, calibrating as needed."""
        channel = self.channel
        quant = Quantization(channel.min_dbm, channel.step_dbm, self.crypto.domain_bits)
        for name, value in (("channel.mu0", channel.mu0), ("channel.mu1", channel.mu1)):
            if not 0 <= value <= quant.domain_max:
                raise ConfigError(f"{name}: {value} outside the {quant.domain_bits}-bit grid")
        profile = self.sensing.profile  # unusable rates fail here, naming sensing.p_f/p_m
        try:
            if channel.sigma is None:
                model, tau_cal = calibrate_channel(
                    profile.p_f, profile.p_m, channel.mu0, channel.mu1, quant
                )
            else:
                model = ChannelModel(channel.mu0, channel.mu1, channel.sigma, quant)
                tau_cal = round(model.midpoint)
        except ValueError as exc:
            raise ConfigError(f"channel: {exc}") from exc
        tau = self.sensing.tau if self.sensing.tau is not None else tau_cal
        if not 0 <= tau <= quant.domain_max:
            raise ConfigError(f"sensing.tau: {tau} outside the {quant.domain_bits}-bit grid")
        return model, tau


def _require_keys(section: dict, allowed: set[str], path: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}: unknown field")


def _check_type(path: str, value: Any, kind: str) -> None:
    """Reject a JSON value that does not fit a field annotated ``kind``
    (``int``, ``float`` or ``str``, maybe ``| None``; other kinds pass):
    a bool or a float is no int, a string no number, and a number must
    be finite."""
    if value is None and kind.endswith("| None"):
        return
    base = kind.split(" |")[0]
    got = repr(value) if type(value) is float else type(value).__name__
    if base == "int" and type(value) is not int:
        raise ConfigError(f"{path}: expected an integer, got {got}")
    if base == "float" and not (type(value) in (int, float) and math.isfinite(value)):
        raise ConfigError(f"{path}: expected a finite number, got {got}")
    if base == "str" and type(value) is not str:
        raise ConfigError(f"{path}: expected a string, got {got}")


def config_from_dict(raw: dict) -> SimulationConfig:
    """Parse the JSON config structure, naming the field on any problem.

    Sections: sensing (required), channel, churn, adversary, crypto,
    output (output holds file paths and is consumed by the CLI; it is
    checked here, and builds nothing).
    """
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object")
    _require_keys(raw, {"sensing", "channel", "churn", "adversary", "crypto", "output"}, "config")
    if "sensing" not in raw:
        raise ConfigError("sensing: section is required")

    def build(cls, section: Any, path: str):
        if not isinstance(section, dict):
            raise ConfigError(f"{path}: expected an object")
        fields = cls.__dataclass_fields__
        _require_keys(section, set(fields), path)
        for name, value in section.items():
            _check_type(f"{path}.{name}", value, fields[name].type)
        try:
            return cls(**section)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    sensing = build(SensingConfig, raw["sensing"], "sensing")
    channel = build(ChannelSpec, raw.get("channel", {}), "channel")
    crypto_params = build(CryptoParams, raw.get("crypto", {}), "crypto")

    if not isinstance(raw.get("churn", {}), dict):
        raise ConfigError("churn: expected an object")
    churn_raw = dict(raw.get("churn", {}))
    _require_keys(churn_raw, {"mu", "join", "leave"}, "churn")
    for key in ("join", "leave"):
        if key in churn_raw:
            bounds = churn_raw.pop(key)
            if not (isinstance(bounds, (list, tuple)) and len(bounds) == 2):
                raise ConfigError(f"churn.{key}: expected [lo, hi]")
            lo_hi = dict(zip(("lo", "hi"), bounds))
            churn_raw[f"{key}_count"] = build(CountRange, lo_hi, f"churn.{key}")
    churn = build(ChurnConfig, churn_raw, "churn")

    adversary_raw = raw.get("adversary", {})
    if not isinstance(adversary_raw, dict):
        raise ConfigError("adversary: expected an object mapping user id to behavior")
    behaviors: dict[int, Behavior] = {}
    for uid_str, spec in adversary_raw.items():
        path = f"adversary.{uid_str}"
        try:
            uid = int(uid_str)
        except ValueError:
            uid = 0
        if uid < 1 or str(uid) != uid_str:  # int() also reads "01", " 2" and "1_0"
            raise ConfigError(f"{path}: user id must be a positive integer in plain digits, such as 3")
        if not isinstance(spec, dict) or "kind" not in spec:
            raise ConfigError(f"{path}: expected an object with a 'kind' field")
        behaviors[uid] = build(Behavior, spec, path)

    output = raw.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("output: expected an object")
    _require_keys(output, {"transcript"}, "output")
    if not isinstance(output.get("transcript", ""), str):
        raise ConfigError("output.transcript: expected a path string")
    if output.get("transcript") == "":  # it would name the working directory, found only after the run
        raise ConfigError("output.transcript: expected a path string, got an empty string")

    return SimulationConfig(sensing, channel, churn, AdversaryProfile(behaviors), crypto_params)


def master_seed_bytes(seed: int) -> bytes:
    return hashlib.sha256(b"lp3pss-master-key|" + seed.to_bytes(8, "big")).digest()


# ---------------------------------------------------------------------------
# run records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundRecord:
    t: int
    truth: int
    joins: tuple[int, ...]
    leaves: tuple[int, ...]
    roster: tuple[int, ...]
    reported_rss: dict[int, int]  # post-adversary values, keyed by user
    delivered: tuple[int, ...]  # users whose report the gateway accepted for decryption
    result: RoundResult

    @property
    def beta(self) -> int:
        return len(self.joins)


class RunFold:
    """What a run keeps of each round once it has ended: the mismatch
    lines of both count checks, and the round's two report rows as JSON
    text, each but the first led by a comma. ``end_round`` is the round
    fold that the module docstring describes.
    """

    def __init__(self, config: SimulationConfig, tally: Tally) -> None:
        self.n0 = config.sensing.n
        self.range_bits = config.crypto.range_bits
        self.tally = tally
        self.computation: list[str] = []
        self.communication: list[str] = []
        self.round_rows: list[str] = []
        self.phi_rows: list[str] = []

    def end_round(self, record: RoundRecord, fc: FcState) -> None:
        tally = self.tally
        self.computation += _round_op_mismatches(tally.ops, record, self.n0)
        self.communication += _round_traffic_mismatches(tally, record, self.range_bits)
        result = record.result
        row = compact_json(
            {
                "t": record.t,
                "truth": record.truth,
                **_outcome_fields(result),
                "n_live": result.n_live,
                "beta": record.beta,
                "joins": record.joins,
                "leaves": record.leaves,
                "present": result.present,
                "bits": {str(u): b for u, b in result.bits.items()},
            }
        )
        phi = compact_json({str(u): rec.phi for u, rec in fc.records.items()})
        if self.round_rows:
            row, phi = "," + row, "," + phi
        self.round_rows.append(row)
        self.phi_rows.append(phi)
        tally.fold_ops()


@dataclass
class SimulationResult:
    config: SimulationConfig
    model: ChannelModel
    tau: int
    rounds: list[RoundRecord]
    fc: FcState
    recorder: Recorder
    leakage: LeakageReport
    fold: RunFold

    def report_json(self) -> str:
        """The report: ``json.dumps(report, sort_keys=True, separators=(",", ":"))``
        and a newline, written around the rows the rounds left in ``fold``."""
        config = self.config
        churn = config.churn
        tally = self.recorder.tally
        # every key here sorts before "reputation" and "rounds", written after it
        head = compact_json(
            {
                "comm": {
                    "links": tally.link_totals(),
                    "logical_per_round": {str(t): c for t, c in tally.logical_per_round().items()},
                },
                "config": {
                    # tau and sigma as resolved, which may be calibrated
                    "sensing": {**asdict(config.sensing), "tau": self.tau},
                    "channel": {**asdict(config.channel), "sigma": self.model.sigma},
                    "churn": {
                        "mu": churn.mu,
                        "join": [churn.join_count.lo, churn.join_count.hi],
                        "leave": [churn.leave_count.lo, churn.leave_count.hi],
                    },
                    "adversary": {str(u): asdict(b) for u, b in config.adversary.behaviors.items()},
                    "crypto": asdict(config.crypto),
                },
                "error_rates": estimate_error_rates(self.rounds).to_dict(),
                "leakage": {
                    "verdict": "conforms" if self.leakage.conforms else "violates",
                    "entities": self.leakage.verdicts,
                },
                "op_counts": tally.op_totals(),
                "protocol_errors": tally.protocol_errors,
            }
        )
        final = compact_json(
            {
                str(u): {"rho": rec.rho, "eta": rec.eta, "phi": rec.phi, "weight": rec.weight}
                for u, rec in self.fc.records.items()
            }
        )
        fold = self.fold
        return "".join(
            [
                head[:-1],
                ',"reputation":{"final":',
                final,
                ',"phi_trajectory":[',
                *fold.phi_rows,
                ']},"rounds":[',
                *fold.round_rows,
                "]}\n",
            ]
        )


def _outcome_fields(result: RoundResult) -> dict:
    outcome = result.outcome
    if outcome is None:  # aborted round
        return {"decision": None, "vote_sum": None, "lambda": None}
    return {"decision": outcome.decision, "vote_sum": outcome.vote_sum, "lambda": outcome.lam}


# ---------------------------------------------------------------------------
# error-rate estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateEstimate:
    estimate: float
    ci_low: float
    ci_high: float
    trials: int

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "ci95": [self.ci_low, self.ci_high],
            "trials": self.trials,
        }


@dataclass(frozen=True)
class ErrorRates:
    q_f: RateEstimate | None
    q_m: RateEstimate | None

    def to_dict(self) -> dict:
        return {
            "q_f": self.q_f.to_dict() if self.q_f else None,
            "q_m": self.q_m.to_dict() if self.q_m else None,
        }


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054) -> RateEstimate:
    """The Wilson score interval; its bound is exactly 0 with no successes
    and exactly 1 with all, where ``center -/+ half`` leaves float residue."""
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    low = center - half if successes else 0.0
    high = center + half if successes < trials else 1.0
    return RateEstimate(p, low, high, trials)


def estimate_error_rates(rounds: list[RoundRecord]) -> ErrorRates:
    """Empirical conditional error frequencies with Wilson 95% intervals.

    Aborted rounds decided nothing and are left out. An estimate is
    unavailable (None) when its conditioning hypothesis never occurred
    in a decided round.
    """
    decided = [r for r in rounds if r.result.outcome is not None]
    busy_truth = [r for r in decided if r.truth == PU_PRESENT]
    free_truth = [r for r in decided if r.truth != PU_PRESENT]
    q_f = None
    q_m = None
    if free_truth:
        false_alarms = sum(1 for r in free_truth if r.result.outcome.decision == 1)
        q_f = wilson_interval(false_alarms, len(free_truth))
    if busy_truth:
        misses = sum(1 for r in busy_truth if r.result.outcome.decision == 0)
        q_m = wilson_interval(misses, len(busy_truth))
    return ErrorRates(q_f, q_m)


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------


def run_simulation(config: SimulationConfig) -> SimulationResult:
    """Execute one full run; see the module docstring for the shape.

    The run executes under ``recording.collection_paused``: automatic
    garbage collection is paused for the whole run and the caller's
    setting is put back on every exit, by return or by raise. With
    collection on and nothing frozen, everything the run keeps, and every
    other object the process tracks, is then handed to the collector's
    oldest generation. The premise: a run creates no reference cycles
    (a test pins this), so the collector has nothing to free in what it
    keeps, and each pass over it, during the run or in the young
    generations after it, would only rescan it. The side effects are
    process-wide: cycles that other threads make meanwhile, and the
    caller's young cyclic garbage, wait for the next full collection.
    """
    with collection_paused():
        return _run(config)


def _run(config: SimulationConfig) -> SimulationResult:
    sensing = config.sensing
    model, tau = config.resolve_channel()
    profile = sensing.profile
    rngs = spawn_rngs(sensing.seed, ["truth", "rss", "churn", "malice", "loss"])

    keys = derive_pairwise_keys(
        master_seed_bytes(sensing.seed),
        [FC_NAME, GW_NAME, *range(1, sensing.n + 1)],
        config.crypto.domain_bits,
        config.crypto.range_bits,
    )
    recorder = Recorder()
    recorder.start_round(0)
    recorder.set_phase(PHASE_INIT)
    fc, init_msgs = fc_init(tau, profile, keys, recorder)
    gw = gw_init(keys)
    gw_ingest_init(gw, init_msgs, recorder)
    sus = make_su_states(keys)

    fold = RunFold(config, recorder.tally)
    records: list[RoundRecord] = []
    for t in range(1, sensing.rounds + 1):
        recorder.start_round(t)
        joins: list[int] = []
        leaves: list[int] = []
        if t > 1:
            recorder.set_phase(PHASE_MEMBERSHIP)
            joins, leaves = churn_step(config.churn, rngs["churn"], t, fc.live, keys.issued)
            if joins or leaves:
                new_sus = handle_membership(fc, gw, joins, leaves, keys, recorder)
                for uid in leaves:
                    del sus[uid]
                sus.update(new_sus)

        recorder.set_phase(PHASE_SENSING)
        truth = PU_PRESENT if rngs["truth"].random() < sensing.busy_prob else 0
        roster = sorted(fc.live)
        draws = generate_rss(model, truth, rngs["rss"], len(roster))
        reported: dict[int, int] = {}
        reports: list[ProtocolMessage] = []
        for uid, rss_q in zip(roster, draws):
            value = apply_malice(config.adversary, uid, rss_q, model, rngs["malice"])
            reported[uid] = value
            reports.append(su_sense_report(sus[uid], value, recorder))
        if sensing.report_loss_prob > 0.0:
            arrived = [m for m in reports if rngs["loss"].random() >= sensing.report_loss_prob]
        else:
            arrived = reports
        zeta, delivered = gw_compare(gw, arrived, recorder)
        try:
            result = fc_decide(fc, zeta, recorder)
        except RoundAborted:
            result = RoundResult(None, (), {}, n_live=len(roster))
        record = RoundRecord(
            t=t,
            truth=truth,
            joins=tuple(joins),
            leaves=tuple(leaves),
            roster=tuple(roster),
            reported_rss=reported,
            delivered=tuple(sorted(delivered)),
            result=result,
        )
        records.append(record)
        fold.end_round(record, fc)

    leakage = check_leakage(recorder.events)
    return SimulationResult(config, model, tau, records, fc, recorder, leakage, fold)


# ---------------------------------------------------------------------------
# conformance of measured counts against the analytical model
# ---------------------------------------------------------------------------


@dataclass
class ConformanceVerdict:
    mismatches: list[str]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify_computation_counts(result: SimulationResult) -> ConformanceVerdict:
    """Exact per-round operation-count check for every entity.

    Per sensing round with b joins and d delivered reports: the fusion
    center performs 1 decryption plus b (encryption + OPE encryption);
    every reporting user 1 OPE encryption + 1 encryption; the gateway d
    decryptions + 1 encryption, with the b cache refreshes charged to the
    membership phase. Initialization is checked separately: n wrapped
    thresholds cost the fusion center n (OPE + encryption) and the
    gateway n decryptions.

    The driver checks each round as it ends, before its counts are
    folded into the run totals; this returns what it found.
    """
    return ConformanceVerdict(list(result.fold.computation))


def verify_communication_counts(result: SimulationResult) -> ConformanceVerdict:
    """Exact per-round traffic check against the wire-framing model.

    Logical ciphertexts per sensing round must equal delivered + 1; the
    sensing-phase bytes must equal the framing model exactly. The driver
    checks each round as it ends; this returns what it found.
    """
    return ConformanceVerdict(list(result.fold.communication))


def _round_op_mismatches(ops: Counter[tuple[int, str, str, str]], r: RoundRecord, n0: int) -> list[str]:
    """One round's part of ``verify_computation_counts``; at round 1, initialization's too."""
    t, beta, delivered = r.t, r.beta, len(r.delivered)
    checks = [
        # (what, round, entity, phase, op, wanted); what names a line only on a mismatch
        ("FC aead_dec", t, FC_NAME, PHASE_SENSING, AEAD_DEC, 1),
        ("FC sensing aead_enc", t, FC_NAME, PHASE_SENSING, AEAD_ENC, 0),
        ("FC sensing ope_enc", t, FC_NAME, PHASE_SENSING, OPE_ENC, 0),
        ("FC membership aead_enc", t, FC_NAME, PHASE_MEMBERSHIP, AEAD_ENC, beta),
        ("FC membership ope_enc", t, FC_NAME, PHASE_MEMBERSHIP, OPE_ENC, beta),
        ("GW aead_dec", t, GW_NAME, PHASE_SENSING, AEAD_DEC, delivered),
        ("GW aead_enc", t, GW_NAME, PHASE_SENSING, AEAD_ENC, 1),
        ("GW membership aead_dec", t, GW_NAME, PHASE_MEMBERSHIP, AEAD_DEC, beta),
    ]
    if t == 1:
        checks[:0] = [
            ("FC ope_enc", 0, FC_NAME, PHASE_INIT, OPE_ENC, n0),
            ("FC aead_enc", 0, FC_NAME, PHASE_INIT, AEAD_ENC, n0),
            ("GW aead_dec", 0, GW_NAME, PHASE_INIT, AEAD_DEC, n0),
        ]
    get = ops.get  # most wanted zeros are missing keys: skip Counter.__missing__
    bad = []
    for what, round_, entity, phase, op, wanted in checks:
        if (actual := get((round_, entity, phase, op), 0)) != wanted:
            where = f"round {t}" if round_ else "init"
            bad.append(f"{where} {what}: measured {actual}, expected {wanted}")
    for uid in r.roster:  # a message only on a mismatch: n checks per round
        su = user_name(uid)
        for op in (OPE_ENC, AEAD_ENC):
            if (actual := get((t, su, PHASE_SENSING, op), 0)) != 1:
                bad.append(f"round {t} {su} {op}: measured {actual}, expected 1")
    return bad


def _round_traffic_mismatches(tally: Tally, r: RoundRecord, range_bits: int) -> list[str]:
    """One round's part of ``verify_communication_counts``."""
    bad = []
    delivered = len(r.delivered)
    logical = tally.logical[r.t]
    if logical != delivered + 1:
        bad.append(f"round {r.t}: {logical} logical ciphertexts, expected {delivered + 1}")
    measured = 8 * tally.sensing_bytes[r.t]
    expected = delivered * costs.report_wire_bits(range_bits) + costs.decision_vector_wire_bits(
        len(r.roster)
    )
    if measured != expected:
        bad.append(f"round {r.t}: {measured} sensing bits, framing model expects {expected}")
    return bad
