"""Analytical cost formulas and the wire-framing model."""

import math

import pytest
from hypothesis import given, strategies as st

from lp3pss.costs import (
    LP3PSS,
    LPOS,
    PDAFT,
    PPSS,
    AnalyticalCostParams,
    analytical_cost,
    cost_rows,
    decision_vector_wire_bits,
    lp3pss_round_ops,
    report_wire_bits,
    round_wire_bits,
)
from lp3pss.recording import AEAD_DEC, AEAD_ENC, GW_NAME, OPE_ENC, PHASE_MEMBERSHIP

DEFAULTS = AnalyticalCostParams()


class TestCommunicationFormulas:
    def test_lp3pss_is_np1_blocks(self):
        assert analytical_cost(LP3PSS, 50).comm_bits == 51 * 256 == 13056

    def test_pdaft(self):
        assert analytical_cost(PDAFT, 50).comm_bits == 1024 * (2 * 51 + 5) == 109568

    def test_ppss(self):
        assert analytical_cost(PPSS, 50).comm_bits == 1024 * 50 + 5 * 0.2 * 1024 * 50 == 102400

    def test_lpos(self):
        log_n = math.log2(50)
        expected = 2 * 10 * 1024 * (2 + log_n) + 50 * 128 + 0.2 * 192 * log_n
        assert analytical_cost(LPOS, 50).comm_bits == pytest.approx(expected)

    def test_lp3pss_smallest_for_all_n(self):
        for n in range(2, 601):
            ours = analytical_cost(LP3PSS, n).comm_bits
            assert ours < analytical_cost(PPSS, n).comm_bits
            assert ours < analytical_cost(PDAFT, n).comm_bits


class TestComputationFormulas:
    def test_lp3pss_counts(self):
        comp = analytical_cost(LP3PSS, 100).computation
        assert comp["FC"] == {"D": 1.0, "E": 5.0, "OPE_E": 5.0}
        assert comp["SU"] == {"OPE_E": 1.0, "E": 1.0}
        assert comp["GW"] == {"D": 100.0, "E": 1.0}

    def test_lp3pss_beta_zero(self):
        comp = analytical_cost(LP3PSS, 10, AnalyticalCostParams(beta=0.0)).computation
        assert comp["FC"] == {"D": 1.0, "E": 0.0, "OPE_E": 0.0}

    def test_ppss_exponential_term(self):
        comp = analytical_cost(PPSS, 10).computation
        assert comp["FC"]["Exp_p"] == 2.0 ** 9 * 10 + 2
        assert comp["SU"] == {"H": 1.0, "Exp_p": 2.0, "Mul_p": 1.0}

    def test_pdaft_counts(self):
        comp = analytical_cost(PDAFT, 7).computation
        assert comp["FC"] == {"Exp_N2": 2.0, "Inv_N2": 1.0, "Mul_N2": 3.0}
        assert comp["GW"] == {"Mul_N2": 7.0}

    def test_lpos_counts(self):
        comp = analytical_cost(LPOS, 16).computation
        assert comp["FC"]["Mul_p"] == 0.5 * (2 + 4) * 10 * 1024
        assert comp["SU"]["PMul_Q"] == pytest.approx(2 * 0.2 * 4)
        assert comp["SU"]["OPE_E"] == 1.0

    def test_overflow_rejected_but_an_exact_int_kept(self):
        with pytest.raises(ValueError, match="^ppss cost formulas overflow at n=10$"):
            analytical_cost(PPSS, 10, AnalyticalCostParams(gamma=1100))
        with pytest.raises(ValueError, match="^pdaft cost formulas overflow at n=7$"):
            analytical_cost(PDAFT, 7, AnalyticalCostParams(beta=1e308))
        assert analytical_cost(LP3PSS, 3, AnalyticalCostParams(blck_bits=10**400)).comm_bits == 4 * 10**400

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            analytical_cost("paillier", 10)
        with pytest.raises(ValueError):
            analytical_cost(LP3PSS, 0)


class TestCostRows:
    def test_rows_cover_every_scheme_and_size(self):
        rows = cost_rows([LP3PSS, PPSS], [10, 100])
        cells = {(r["scheme"], r["n"]) for r in rows}
        assert cells == {(LP3PSS, 10), (LP3PSS, 100), (PPSS, 10), (PPSS, 100)}
        assert all(
            set(r) == {"scheme", "n", "entity", "primitive", "count", "comm_bits"} for r in rows
        )

    def test_params_validated(self):
        with pytest.raises(ValueError):
            AnalyticalCostParams(mu=1.5)
        with pytest.raises(ValueError):
            AnalyticalCostParams(gamma=0)


OP_OF_PRIMITIVE = {"D": AEAD_DEC, "E": AEAD_ENC, "OPE_E": OPE_ENC}


@given(n=st.integers(1, 10**6), beta=st.floats(0.0, 1e6))
def test_lp3pss_rows_are_the_round_model_at_full_presence(n, beta):
    # each row is the one term of its entity and op; the paper's table
    # leaves out the gateway's membership decryptions
    table = lp3pss_round_ops(n, beta)
    del table[GW_NAME, PHASE_MEMBERSHIP, AEAD_DEC]
    printed = {}
    for row in cost_rows([LP3PSS], [n], AnalyticalCostParams(beta=beta)):
        op = OP_OF_PRIMITIVE[row["primitive"]]
        (term,) = [key for key in table if key[0] == row["entity"] and key[2] == op]
        printed[term] = row["count"]
        assert row["comm_bits"] == (n + 1) * 256
    assert printed == table


class TestFramingModel:
    def test_report_wire_is_framing_plus_ope_width(self):
        assert report_wire_bits(32) == 8 * (4 + 12 + 4 + 16) == 288

    def test_decision_vector_grows_with_population(self):
        assert decision_vector_wire_bits(10) == 8 * (4 + 12 + 4 + 16)
        assert decision_vector_wire_bits(100) == 8 * (4 + 12 + 26 + 16)

    def test_round_model_composition(self):
        assert round_wire_bits(10, 10, 32) == 10 * 288 + decision_vector_wire_bits(10)
        assert round_wire_bits(7, 10, 32) == 7 * 288 + decision_vector_wire_bits(10)
