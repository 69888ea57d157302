"""Analytical per-sensing-period cost models for the four schemes.

Computation is reported as counts of named primitives per entity; no
timing is claimed. Communication is reported in bits. The non-voting
schemes (LPOS, PPSS, PDAFT) are evaluated symbolically only, from their
published per-period formulas; LP3PSS counts are additionally checkable
against a measured run (see ``sim.verify_computation_counts``).

Primitive names: E / D are one block-cipher authenticated encryption /
decryption, OPE_E one order-preserving encryption, H a cryptographic
hash, Mul_u / Exp_u / Inv_u modular multiplication / exponentiation /
inversion over modulus u, PMul_Q an elliptic point multiplication of
order Q.

Default parameter sizes follow the usual 80-bit-security choices:
|p| = |N| = 1024, |Q| = 192; the OPE ciphertext is capped at 128 bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

LP3PSS = "lp3pss"
LPOS = "lpos"
PPSS = "ppss"
PDAFT = "pdaft"

SCHEMES = (LP3PSS, LPOS, PPSS, PDAFT)


@dataclass(frozen=True)
class AnalyticalCostParams:
    """Free parameters of the cost formulas.

    ``blck`` is the size of one logical channel ciphertext; ``gamma``
    the plaintext bit-length parameter of the PPSS/LPOS formulas; ``y``
    the number of decryption servers in PDAFT; ``mu`` the membership-
    change rate and ``beta`` the average join count per period.
    """

    p_bits: int = 1024
    n_modulus_bits: int = 1024
    q_bits: int = 192
    eps_ope_bits: int = 128
    blck_bits: int = 256
    gamma: int = 10
    y: int = 3
    mu: float = 0.2
    beta: float = 5.0

    def __post_init__(self) -> None:
        for name in ("p_bits", "n_modulus_bits", "q_bits", "eps_ope_bits", "blck_bits", "gamma", "y"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError("mu must lie in [0, 1]")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")


@dataclass(frozen=True)
class CostReport:
    scheme: str
    n: int
    computation: dict[str, dict[str, float]] = field(default_factory=dict)  # entity -> primitive -> count
    comm_bits: float = 0.0


def _lp3pss(n: int, p: AnalyticalCostParams) -> CostReport:
    comp = {
        "FC": {"D": 1.0, "E": p.beta, "OPE_E": p.beta},
        "SU": {"OPE_E": 1.0, "E": 1.0},
        "GW": {"D": float(n), "E": 1.0},
    }
    return CostReport(LP3PSS, n, comp, (n + 1) * p.blck_bits)


def _lpos(n: int, p: AnalyticalCostParams) -> CostReport:
    log_n = math.log2(n)
    comp = {
        "FC": {"Mul_p": 0.5 * (2 + log_n) * p.gamma * p.p_bits},
        "SU": {
            "Mul_p": 2 * p.gamma * p.p_bits + 2 * p.gamma,
            "OPE_E": 1.0,
            "PMul_Q": 2 * p.mu * log_n,
        },
    }
    comm = 2 * p.gamma * p.p_bits * (2 + log_n) + n * p.eps_ope_bits + p.mu * p.q_bits * log_n
    return CostReport(LPOS, n, comp, comm)


def _ppss(n: int, p: AnalyticalCostParams) -> CostReport:
    comp = {
        "FC": {"H": 1.0, "Mul_p": float(n + 2), "Exp_p": 2.0 ** (p.gamma - 1) * n + 2},
        "SU": {"H": 1.0, "Exp_p": 2.0, "Mul_p": 1.0},
    }
    comm = p.p_bits * n + p.beta * p.mu * p.p_bits * n
    return CostReport(PPSS, n, comp, comm)


def _pdaft(n: int, p: AnalyticalCostParams) -> CostReport:
    comp = {
        "FC": {"Exp_N2": 2.0, "Inv_N2": 1.0, "Mul_N2": float(p.y)},
        "SU": {"Exp_N2": 2.0, "Mul_N2": 1.0},
        "GW": {"Mul_N2": float(n)},
    }
    return CostReport(PDAFT, n, comp, p.n_modulus_bits * (2 * (n + 1) + p.beta))


_EVALUATORS = {LP3PSS: _lp3pss, LPOS: _lpos, PPSS: _ppss, PDAFT: _pdaft}


def analytical_cost(scheme: str, n: int, params: AnalyticalCostParams | None = None) -> CostReport:
    """Evaluate one scheme's per-period cost formulas at population n."""
    if scheme not in _EVALUATORS:
        raise ValueError(f"unknown scheme {scheme!r}; pick one of {SCHEMES}")
    if n < 1:
        raise ValueError("n must be >= 1")
    return _EVALUATORS[scheme](n, params or AnalyticalCostParams())


def cost_rows(
    schemes: list[str], populations: list[int], params: AnalyticalCostParams | None = None
) -> list[dict[str, object]]:
    """Long-format rows for the costs CSV.

    Columns: scheme, n, entity, primitive, count, comm_bits. Every row
    repeats the scheme's total communication bits so each (scheme, n)
    block is self-contained.
    """
    rows: list[dict[str, object]] = []
    for scheme in schemes:
        for n in populations:
            report = analytical_cost(scheme, n, params)
            for entity in sorted(report.computation):
                for primitive, count in sorted(report.computation[entity].items()):
                    rows.append(
                        {
                            "scheme": scheme,
                            "n": n,
                            "entity": entity,
                            "primitive": primitive,
                            "count": count,
                            "comm_bits": report.comm_bits,
                        }
                    )
    return rows


# ---------------------------------------------------------------------------
# wire-framing model of the measured implementation
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


def measured_round_bits_model(n: int, range_bits: int) -> int:
    """Exact wire bits of one full-presence sensing round: n reports
    plus one decision vector."""
    return n * report_wire_bits(range_bits) + decision_vector_wire_bits(n)
