"""End-to-end BB84 session engine.

Alice prepares polarization qubits in two conjugate bases; the channel is a
loss factor plus a Mueller matrix; Bob's receiver picks a basis per pulse and
resolves clicks on two analyzer arms with Poissonian signal statistics, dark
counts, and background light.  Sifting, error estimation, CASCADE
reconciliation, and Toeplitz privacy amplification complete the pipeline.

Detection draws only the pulses that can click at unit transmission, the
candidates, so its work and memory are O(detections), not O(pulses).  These
draws do not depend on the channel transmission: sessions with the same seed
share them (common random numbers), and a pulse detected at one transmission
is detected at every higher one, so a sweep varies smoothly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from ..characterization import arm0_probabilities
from ..polarization import PHYSICALITY_TOL, MuellerMatrix, PhysicalityError
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
    a physical output (see :func:`~aqua_qkd.characterization.arm0_probabilities`)
    and be passive: each state's output intensity s0, at most 1, scales its
    mean photon number, and ``channel_transmission`` applies on top.
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
        if self.dark_count_prob + self.background_prob > 1.0:
            raise ValueError("dark_count_prob + background_prob must not exceed 1")
        if not 0.0 <= self.intrinsic_error <= 0.5:
            raise ValueError("intrinsic_error must lie in [0, 0.5]")
        if self.sifting_factor <= 0:
            raise ValueError("sifting_factor must be positive")
        _, s0 = arm0_probabilities(self.channel_mueller)
        if s0.max() > 1.0 + PHYSICALITY_TOL:
            raise PhysicalityError(f"channel amplifies a signal state (s0 = {s0.ravel()})")


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
    return compute_qber(a[sample], b[sample]), a[~sample], b[~sample], n_sample


def detect_pulses(cfg: SessionConfig, rng):
    """Prepare, transmit and detect ``cfg.n_pulses`` pulses, drawing only the candidates.

    Returns the detected pulses' (alice_bits, alice_bases, bob_bases,
    bob_bits) in pulse order; a double click is squashed to a fair coin.  A
    pulse falls into one of 8 equally likely ``[basis, bit, bob_basis]``
    cells and clicks arm i when its uniform u_i is below the cell's click
    probability pc_i, which grows with the transmission T <= 1.  The
    candidates (some u_i below its value b_i at T = 1) are drawn as one
    multinomial of cell counts, one uniform permutation (they are
    exchangeable) and their u_i conditioned on the bounds, then thresholded
    at the session's T: exactly the law of drawing every pulse.
    """
    # Arm-0 probability per cell after the intrinsic error e, and each
    # state's channel output intensity s0, which scales its photon number.
    e = cfg.intrinsic_error
    p0_table, s0 = arm0_probabilities(cfg.channel_mueller)
    p0 = (p0_table * (1 - 2 * e) + e).ravel()
    mu_eta = cfg.mean_photon_number * cfg.detector_efficiency * np.repeat(s0.ravel(), 2)
    no_noise = 1.0 - cfg.dark_count_prob - cfg.background_prob

    def click_tables(t):
        return [1.0 - np.exp(-mu_eta * t * p) * no_noise for p in (p0, 1.0 - p0)]

    b0, b1 = click_tables(1.0)
    pc0, pc1 = click_tables(cfg.channel_transmission)
    q = 1.0 - (1.0 - b0) * (1.0 - b1)
    counts = rng.multinomial(cfg.n_pulses, np.append(q / 8, 1.0 - q.mean()))[:8]
    cell = rng.permutation(np.repeat(np.arange(8, dtype=np.uint8), counts))
    # One uniform v on [0, q) picks the arms below their bounds: arm 0 only
    # with weight b0(1 - b1), both with b0 b1, arm 1 only with (1 - b0) b1.
    v = rng.random(cell.size) * q[cell]
    c0 = (v < b0[cell]) & (rng.random(cell.size) * b0[cell] < pc0[cell])
    c1 = (v >= (b0 * (1.0 - b1))[cell]) & (rng.random(cell.size) * b1[cell] < pc1[cell])
    coin = rng.integers(0, 2, cell.size, dtype=np.uint8)
    detected = c0 | c1
    cell = cell[detected]
    return (cell >> 1) & 1, cell >> 2, cell & 1, np.where(c0 & c1, coin, c1)[detected]


def run_session(cfg: SessionConfig) -> tuple[SessionStats, KeyMaterial]:
    """Run a full BB84 session: prepare, detect, sift, reconcile, amplify."""
    rng = np.random.default_rng(cfg.seed)
    bits, bases, bob_bases, bob_bits = detect_pulses(cfg, rng)
    sifted = bases == bob_bases
    sifted_alice, sifted_bob = bits[sifted], bob_bits[sifted]
    detected_pulses = len(bits)

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
