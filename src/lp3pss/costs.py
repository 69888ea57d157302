"""Analytical per-sensing-period cost models for the four schemes.

Computation is reported as counts of named primitives per entity; no
timing is claimed. Communication is reported in bits. The non-voting
schemes (LPOS, PPSS, PDAFT) are evaluated symbolically only, from their
published per-period formulas.

LP3PSS has one model of a round, ``lp3pss_round_ops`` for the operation
counts and ``round_ciphertexts`` and ``round_wire_bits`` for the traffic.
The table's LP3PSS rows are that model at full presence, and the
simulation driver holds every measured round to the same model
(``sim.verify_computation_counts`` and ``sim.verify_communication_counts``).
The paper's table, and so the rows, leave out one term: the gateway's
beta membership decryptions of the joiners' thresholds, which a run
performs and the check expects.

Primitive names: E / D are one block-cipher authenticated encryption /
decryption, OPE_E one order-preserving encryption, H a cryptographic
hash, Mul_u / Exp_u / Inv_u modular multiplication / exponentiation /
inversion over modulus u, PMul_Q an elliptic point multiplication of
order Q.

The group sizes are fixed at the usual 80-bit-security choices:
|p| = |N| = 1024, |Q| = 192; the OPE ciphertext is capped at 128 bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from lp3pss.recording import (
    AEAD_DEC, AEAD_ENC, FC_NAME, GW_NAME, OPE_ENC, PHASE_INIT, PHASE_MEMBERSHIP, PHASE_SENSING
)

LP3PSS = "lp3pss"
LPOS = "lpos"
PPSS = "ppss"
PDAFT = "pdaft"

SCHEMES = (LP3PSS, LPOS, PPSS, PDAFT)

# |p|, |N|, |Q| and the OPE ciphertext cap, in bits
P_BITS = 1024
N_MODULUS_BITS = 1024
Q_BITS = 192
EPS_OPE_BITS = 128


@dataclass(frozen=True)
class AnalyticalCostParams:
    """Free parameters of the cost formulas.

    ``blck`` is the size of one logical channel ciphertext; ``gamma``
    the plaintext bit-length parameter of the PPSS/LPOS formulas; ``y``
    the number of decryption servers in PDAFT; ``mu`` the membership-
    change rate and ``beta`` the average join count per period.
    """

    blck_bits: int = 256
    gamma: int = 10
    y: int = 3
    mu: float = 0.2
    beta: float = 5.0

    def __post_init__(self) -> None:
        for name in ("blck_bits", "gamma", "y"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError("mu must lie in [0, 1]")
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError("beta must be finite and non-negative")


@dataclass(frozen=True)
class CostReport:
    scheme: str
    n: int
    computation: dict[str, dict[str, float]] = field(default_factory=dict)  # entity -> primitive -> count
    comm_bits: float = 0.0


SU = "SU"  # in a model term: each live user

_PRIMITIVES = {AEAD_DEC: "D", AEAD_ENC: "E", OPE_ENC: "OPE_E"}


def lp3pss_round_ops(delivered: int, beta: float, initial: int = 0) -> dict[tuple[str, str, str], float]:
    """The LP3PSS model of one sensing round's operation counts.

    ``delivered`` is the number of reports the gateway took for
    decryption and ``beta`` the number of joins. Round 1 also carries
    initialization's terms: pass ``initial``, the population keyed at
    initialization, for round 1 only. Maps (entity, phase, op) to the
    expected count, where the entity ``SU`` stands for each live user.
    An operation with no term is expected zero times.

    The fusion center decrypts the decision vector and wraps each
    joiner's threshold (one OPE and one channel encryption); each user
    OPE-encrypts and encrypts its report; the gateway decrypts every
    delivered report, encrypts the vector and unwraps each joiner's
    threshold. Initialization wraps and unwraps every initial user's.
    The paper's table omits the gateway's membership decryptions.
    """
    init = (FC_NAME, PHASE_INIT, OPE_ENC), (FC_NAME, PHASE_INIT, AEAD_ENC), (GW_NAME, PHASE_INIT, AEAD_DEC)
    return {
        **dict.fromkeys(init if initial else (), initial),
        (FC_NAME, PHASE_SENSING, AEAD_DEC): 1,
        (FC_NAME, PHASE_MEMBERSHIP, AEAD_ENC): beta,
        (FC_NAME, PHASE_MEMBERSHIP, OPE_ENC): beta,
        (GW_NAME, PHASE_SENSING, AEAD_DEC): delivered,
        (GW_NAME, PHASE_SENSING, AEAD_ENC): 1,
        (GW_NAME, PHASE_MEMBERSHIP, AEAD_DEC): beta,
        (SU, PHASE_SENSING, OPE_ENC): 1,
        (SU, PHASE_SENSING, AEAD_ENC): 1,
    }


def round_ciphertexts(delivered: int) -> int:
    """Logical ciphertexts of one sensing round: the delivered reports
    and the decision vector."""
    return delivered + 1


def _lp3pss(n: int, p: AnalyticalCostParams) -> CostReport:
    """The round model at full presence: its sensing terms and the fusion
    center's membership terms, which is the paper's table."""
    comp: dict[str, dict[str, float]] = {}
    for (entity, phase, op), count in lp3pss_round_ops(n, p.beta).items():
        if phase == PHASE_SENSING or (entity == FC_NAME and phase == PHASE_MEMBERSHIP):
            comp.setdefault(entity, {})[_PRIMITIVES[op]] = float(count)
    return CostReport(LP3PSS, n, comp, round_ciphertexts(n) * p.blck_bits)


def _lpos(n: int, p: AnalyticalCostParams) -> CostReport:
    log_n = math.log2(n)
    comp = {
        "FC": {"Mul_p": 0.5 * (2 + log_n) * p.gamma * P_BITS},
        "SU": {
            "Mul_p": 2 * p.gamma * P_BITS + 2 * p.gamma,
            "OPE_E": 1.0,
            "PMul_Q": 2 * p.mu * log_n,
        },
    }
    comm = 2 * p.gamma * P_BITS * (2 + log_n) + n * EPS_OPE_BITS + p.mu * Q_BITS * log_n
    return CostReport(LPOS, n, comp, comm)


def _ppss(n: int, p: AnalyticalCostParams) -> CostReport:
    comp = {
        "FC": {"H": 1.0, "Mul_p": float(n + 2), "Exp_p": 2.0 ** (p.gamma - 1) * n + 2},
        "SU": {"H": 1.0, "Exp_p": 2.0, "Mul_p": 1.0},
    }
    comm = P_BITS * n + p.beta * p.mu * P_BITS * n
    return CostReport(PPSS, n, comp, comm)


def _pdaft(n: int, p: AnalyticalCostParams) -> CostReport:
    comp = {
        "FC": {"Exp_N2": 2.0, "Inv_N2": 1.0, "Mul_N2": float(p.y)},
        "SU": {"Exp_N2": 2.0, "Mul_N2": 1.0},
        "GW": {"Mul_N2": float(n)},
    }
    return CostReport(PDAFT, n, comp, N_MODULUS_BITS * (2 * (n + 1) + p.beta))


_EVALUATORS = {LP3PSS: _lp3pss, LPOS: _lpos, PPSS: _ppss, PDAFT: _pdaft}


def analytical_cost(scheme: str, n: int, params: AnalyticalCostParams | None = None) -> CostReport:
    """Evaluate one scheme's per-period cost formulas at population n.

    Raises ``ValueError`` when a formula overflows a float or gives a
    count or ``comm_bits`` that is not finite; an exact int of any size
    is kept.
    """
    if scheme not in _EVALUATORS:
        raise ValueError(f"unknown scheme {scheme!r}; pick one of {SCHEMES}")
    if n < 1:
        raise ValueError("n must be >= 1")
    try:
        report = _EVALUATORS[scheme](n, params or AnalyticalCostParams())
        counts = [c for primitives in report.computation.values() for c in primitives.values()]
        # a comparison, unlike math.isfinite, takes an int of any size
        if all(-math.inf < c < math.inf for c in [report.comm_bits, *counts]):
            return report
    except OverflowError:
        pass
    raise ValueError(f"{scheme} cost formulas overflow at n={n}")


COST_COLUMNS = ("scheme", "n", "entity", "primitive", "count", "comm_bits")


def cost_rows(
    schemes: list[str], populations: list[int], params: AnalyticalCostParams | None = None
) -> list[dict[str, object]]:
    """Long-format rows for the costs CSV, keyed by ``COST_COLUMNS``.

    Every row repeats the scheme's total communication bits so each
    (scheme, n) block is self-contained.
    """
    rows: list[dict[str, object]] = []
    for scheme in schemes:
        for n in populations:
            report = analytical_cost(scheme, n, params)
            for entity in sorted(report.computation):
                for primitive, count in sorted(report.computation[entity].items()):
                    cells = (scheme, n, entity, primitive, count, report.comm_bits)
                    rows.append(dict(zip(COST_COLUMNS, cells)))
    return rows


# ---------------------------------------------------------------------------
# wire-framing model of the measured implementation; written apart from
# lp3pss.crypto on purpose, as the reference the traffic check holds the
# real message bytes to
# ---------------------------------------------------------------------------

LENGTH_PREFIX_BYTES = 4
NONCE_BYTES = 12
TAG_BYTES = 16


def report_wire_bits(range_bits: int) -> int:
    """Exact wire size of one sensing report: framing plus the
    fixed-width OPE ciphertext as AEAD payload."""
    payload = (range_bits + 7) // 8
    return 8 * (LENGTH_PREFIX_BYTES + NONCE_BYTES + payload + TAG_BYTES)


def decision_vector_wire_bits(n: int) -> int:
    """Exact wire size of the packed decision vector for n users:
    presence mask plus vote bits, each ceil(n/8) bytes, AEAD-framed."""
    payload = 2 * ((n + 7) // 8)
    return 8 * (LENGTH_PREFIX_BYTES + NONCE_BYTES + payload + TAG_BYTES)


def round_wire_bits(delivered: int, live: int, range_bits: int) -> int:
    """Exact wire bits of one sensing round: the delivered reports plus
    the decision vector over the live users."""
    return delivered * report_wire_bits(range_bits) + decision_vector_wire_bits(live)
