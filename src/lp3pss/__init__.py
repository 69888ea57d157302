"""Privacy-preserving cooperative spectrum sensing: protocol library and
deterministic round-based simulator for the 3-party OPE voting scheme
(secondary users, gateway, fusion center), with leakage verification,
attack oracles against a naive aggregation baseline, and analytical cost
conformance checks.
"""

from lp3pss.crypto import (
    AeadKey,
    AuthenticationFailure,
    KeyTable,
    MalformedCiphertext,
    OpeKey,
    aead_decrypt,
    aead_encrypt,
    derive_pairwise_keys,
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
from lp3pss.observability import check_leakage, dlp_attack_oracle, srlp_exposure
from lp3pss.sim import (
    SensingConfig,
    SimulationConfig,
    config_from_dict,
    run_simulation,
    verify_communication_counts,
    verify_computation_counts,
)

__version__ = "0.1.0"
