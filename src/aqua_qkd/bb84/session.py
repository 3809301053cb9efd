"""End-to-end BB84 session engine.

Alice prepares polarization qubits in two conjugate bases; the channel is a
loss factor plus a Mueller matrix; Bob's receiver picks a basis per pulse and
resolves clicks on two analyzer arms with Poissonian signal statistics, dark
counts, and background light.  Sifting, error estimation, CASCADE
reconciliation, and Toeplitz privacy amplification complete the pipeline.

The detection stage draws its per-pulse uniforms in a fixed order that does
not depend on outcomes, so runs at different channel transmissions but the
same seed use common random numbers and vary smoothly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from ..characterization import arm0_probabilities
from ..polarization import MuellerMatrix
from .cascade import cascade_reconcile
from .classical_channel import InProcessChannelPair
from .privacy import privacy_amplify

MIN_SIFTED_BITS = 256


class InsufficientKeyError(RuntimeError):
    """Sifted key too short to post-process; carries the partial stats."""

    def __init__(self, message: str, stats: "SessionStats"):
        super().__init__(message)
        self.stats = stats


@dataclass(frozen=True)
class SessionConfig:
    """Source, channel, receiver and post-processing parameters of one session.

    ``sifting_factor`` enters only the analytic :func:`sifted_key_rate`; the
    simulated sifting is Bob's random basis choice, which matches Alice's
    with probability 1/2.  ``channel_mueller`` must send every BB84 state to
    a physical output (see :func:`~aqua_qkd.characterization.arm0_probabilities`);
    each state's output intensity s0 scales its mean photon number, and
    ``channel_transmission`` applies on top.
    """

    pulse_rate: float = 1e6
    mean_photon_number: float = 0.1
    channel_transmission: float = 1.0
    channel_mueller: MuellerMatrix = field(default_factory=MuellerMatrix.identity)
    detector_efficiency: float = 0.077
    dark_count_prob: float = 0.0
    background_prob: float = 0.0
    intrinsic_error: float = 0.0
    sifting_factor: float = 0.5
    n_pulses: int = 1_000_000
    extraction_ratio: float = 0.11
    qber_estimation_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.pulse_rate <= 0:
            raise ValueError("pulse_rate must be positive")
        if self.n_pulses < 1:
            raise ValueError("n_pulses must be >= 1")
        if self.mean_photon_number < 0:
            raise ValueError("mean_photon_number must be non-negative")
        for name in (
            "channel_transmission",
            "detector_efficiency",
            "dark_count_prob",
            "background_prob",
            "extraction_ratio",
            "qber_estimation_fraction",
        ):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if not 0.0 <= self.intrinsic_error <= 0.5:
            raise ValueError("intrinsic_error must lie in [0, 0.5]")
        if self.sifting_factor <= 0:
            raise ValueError("sifting_factor must be positive")
        arm0_probabilities(self.channel_mueller)


@dataclass(frozen=True)
class SessionStats:
    qber: float
    sifted_rate: float
    secure_rate: float
    detected_pulses: int
    sifted_bits: int
    wrong_bits: int
    leaked_bits: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class KeyMaterial:
    sifted_alice: np.ndarray
    sifted_bob: np.ndarray
    reconciled: np.ndarray
    secret: np.ndarray


def compute_qber(sifted_alice, sifted_bob) -> float:
    """Fraction of sifted positions where the two keys disagree."""
    a = np.asarray(sifted_alice)
    b = np.asarray(sifted_bob)
    if len(a) != len(b):
        raise ValueError("sifted keys must have equal length")
    if len(a) == 0:
        raise ValueError("QBER is undefined for empty keys")
    return float(np.mean(a != b))


def sifted_key_rate(cfg: SessionConfig) -> float:
    """Analytic sifted-key rate: f * mu * T * q * eta / 2."""
    return (
        cfg.pulse_rate
        * cfg.mean_photon_number
        * cfg.channel_transmission
        * cfg.sifting_factor
        * cfg.detector_efficiency
        / 2.0
    )


def estimate_qber_disclosed(sifted_alice, sifted_bob, fraction: float, rng):
    """Protocol-realistic QBER estimator: disclose and discard a random sample.

    Returns (estimate, remaining_alice, remaining_bob, disclosed_count).
    """
    a = np.asarray(sifted_alice, dtype=np.uint8)
    b = np.asarray(sifted_bob, dtype=np.uint8)
    n = len(a)
    sample = rng.random(n) < fraction
    n_sample = int(np.count_nonzero(sample))
    if n_sample == 0:
        raise ValueError("disclosed sample is empty; increase the fraction")
    estimate = float(np.mean(a[sample] != b[sample]))
    return estimate, a[~sample], b[~sample], n_sample


# Pulses are processed in fixed-size chunks so memory stays bounded for
# large sessions without changing the draw schedule for a given seed.
_DETECT_CHUNK = 1 << 21


def _detect_chunk(rng, n: int, pc0_table: np.ndarray, pc1_table: np.ndarray):
    bits = rng.integers(0, 2, size=n, dtype=np.uint8)
    bases = rng.integers(0, 2, size=n, dtype=np.uint8)
    bob_bases = rng.integers(0, 2, size=n, dtype=np.uint8)
    u0 = rng.random(n)
    u1 = rng.random(n)
    u_double = rng.random(n)

    c0 = u0 < pc0_table[bases, bits, bob_bases]
    c1 = u1 < pc1_table[bases, bits, bob_bases]
    detected = c0 | c1
    double = c0 & c1
    bob_bits = np.where(double, (u_double < 0.5).astype(np.uint8), c1.astype(np.uint8))
    return bits, bases, bob_bases, detected, bob_bits


def detect_pulses(cfg: SessionConfig, rng):
    """Prepare, transmit and detect all ``cfg.n_pulses`` pulses with a fixed draw schedule.

    Yields per-pulse arrays (alice_bits, alice_bases, bob_bases, detected,
    bob_bits) for each chunk of at most ``_DETECT_CHUNK`` pulses, in pulse
    order; ``bob_bits`` is meaningful only where ``detected``, and a double
    click is squashed to a uniformly random bit.  Each chunk draws from
    ``rng`` as it is produced.
    """
    # Arm-0 probability for the 4 states x 2 measurement bases, after the
    # receiver's intrinsic error e flips a photon between the arms.
    e = cfg.intrinsic_error
    p0_table, s0 = arm0_probabilities(cfg.channel_mueller)
    p0_table = p0_table * (1 - 2 * e) + e
    # Click probability of each arm, one entry per (basis, bit, bob_basis).
    # Each state's detected mean photon number is scaled by its channel
    # output intensity s0, on top of the loss factor.
    mu_eff = cfg.mean_photon_number * cfg.channel_transmission * cfg.detector_efficiency
    mu_eff = mu_eff * s0[:, :, None]
    p_noise = cfg.dark_count_prob + cfg.background_prob
    pc0_table = 1.0 - np.exp(-mu_eff * p0_table) * (1.0 - p_noise)
    pc1_table = 1.0 - np.exp(-mu_eff * (1.0 - p0_table)) * (1.0 - p_noise)

    remaining = cfg.n_pulses
    while remaining > 0:
        n = min(remaining, _DETECT_CHUNK)
        yield _detect_chunk(rng, n, pc0_table, pc1_table)
        remaining -= n


def run_session(cfg: SessionConfig) -> tuple[SessionStats, KeyMaterial]:
    """Run a full BB84 session: prepare, detect, sift, reconcile, amplify."""
    rng = np.random.default_rng(cfg.seed)
    alice_parts, bob_parts = [], []
    detected_pulses = 0
    for bits, bases, bob_bases, detected, bob_bits in detect_pulses(cfg, rng):
        keep = detected & (bases == bob_bases)
        alice_parts.append(bits[keep])
        bob_parts.append(bob_bits[keep])
        detected_pulses += int(np.count_nonzero(detected))
    sifted_alice = np.concatenate(alice_parts)
    sifted_bob = np.concatenate(bob_parts)

    duration = cfg.n_pulses / cfg.pulse_rate
    sifted_bits = len(sifted_alice)
    wrong_bits = int(np.count_nonzero(sifted_alice != sifted_bob))
    stats = SessionStats(
        qber=wrong_bits / sifted_bits if sifted_bits else 0.0,
        sifted_rate=sifted_bits / duration,
        secure_rate=0.0,
        detected_pulses=detected_pulses,
        sifted_bits=sifted_bits,
        wrong_bits=wrong_bits,
        leaked_bits=0,
    )
    if sifted_bits < MIN_SIFTED_BITS:
        raise InsufficientKeyError(
            f"sifted key of {sifted_bits} bits is below the {MIN_SIFTED_BITS}-bit minimum",
            stats,
        )

    leak_from_estimation = 0
    cascade_alice, cascade_bob = sifted_alice, sifted_bob
    if cfg.qber_estimation_fraction > 0:
        qber_est, cascade_alice, cascade_bob, leak_from_estimation = estimate_qber_disclosed(
            sifted_alice, sifted_bob, cfg.qber_estimation_fraction, rng
        )
    else:
        qber_est = stats.qber
    qber_est = min(0.49, max(qber_est, 1.0 / len(cascade_alice)))

    chan = InProcessChannelPair()
    reconciled, leaked = cascade_reconcile(cascade_alice, cascade_bob, qber_est, chan, rng)
    secret = privacy_amplify(reconciled, rng, extraction_ratio=cfg.extraction_ratio)

    stats = replace(
        stats, secure_rate=len(secret) / duration, leaked_bits=leaked + leak_from_estimation
    )
    return stats, KeyMaterial(sifted_alice, sifted_bob, reconciled, secret)
