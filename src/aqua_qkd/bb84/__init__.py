"""BB84 session engine: preparation, detection, sifting, reconciliation,
privacy amplification, and the classical-channel plumbing they need."""

from ..characterization import BASIS_DIAGONAL, BASIS_RECTILINEAR, STATE_MAP
from .cascade import ProtocolError, cascade_reconcile, reconcile_with_oracle, serve_parity_queries
from .classical_channel import (
    MSG_PARITY_REQUEST,
    MSG_PARITY_RESPONSE,
    MSG_PERMUTATION_SEED,
    MSG_VERIFICATION,
    ChannelEndpoint,
    FrameDecoder,
    FramedStreamChannel,
    FramingError,
    encode_frame,
)
from .privacy import privacy_amplify, toeplitz_hash
from .session import (
    InsufficientKeyError,
    KeyMaterial,
    SessionConfig,
    SessionStats,
    compute_qber,
    detect_pulses,
    estimate_qber_disclosed,
    run_session,
    sifted_key_rate,
)

__all__ = [
    "BASIS_DIAGONAL",
    "BASIS_RECTILINEAR",
    "STATE_MAP",
    "ChannelEndpoint",
    "FrameDecoder",
    "FramedStreamChannel",
    "FramingError",
    "InsufficientKeyError",
    "KeyMaterial",
    "MSG_PARITY_REQUEST",
    "MSG_PARITY_RESPONSE",
    "MSG_PERMUTATION_SEED",
    "MSG_VERIFICATION",
    "ProtocolError",
    "SessionConfig",
    "SessionStats",
    "cascade_reconcile",
    "compute_qber",
    "detect_pulses",
    "encode_frame",
    "estimate_qber_disclosed",
    "privacy_amplify",
    "reconcile_with_oracle",
    "run_session",
    "serve_parity_queries",
    "sifted_key_rate",
    "toeplitz_hash",
]
