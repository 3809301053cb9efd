"""End-to-end BB84 session engine.

Alice prepares polarization qubits in two conjugate bases; the channel is a
loss factor plus a Mueller matrix; Bob's receiver picks a basis per pulse and
resolves clicks on two analyzer arms with Poissonian signal statistics, dark
counts, and background light.  Sifting, error estimation, CASCADE
reconciliation, and Toeplitz privacy amplification complete the pipeline.

Detection is a thinning sampler: it draws only the pulses that could click
at unit transmission, the candidates, with one uniform each that picks the
pulse's cell, which arms are below their unit-transmission bounds and
whether they click; only a candidate with both arms below draws again.  Its
work and memory are O(detections), not O(pulses).  No draw depends on the
channel transmission: sessions with the same seed share them (common random
numbers), and a pulse detected at one transmission is detected at every
higher one, so a sweep varies smoothly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from ..characterization import arm0_probabilities
from ..polarization import PHYSICALITY_TOL, MuellerMatrix, PhysicalityError
from ..rngstream import check_seed
from .cascade import cascade_reconcile
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

    ``channel_mueller`` must send every BB84 state to a physical output (see
    :func:`~aqua_qkd.characterization.arm0_probabilities`) and be passive:
    each state's output intensity s0, at most 1, scales its mean photon
    number, and ``channel_transmission`` applies on top.
    ``seed`` must be an integer in [0, 2^64), as everywhere in the package.
    """

    pulse_rate: float = 1e6
    mean_photon_number: float = 0.1
    channel_transmission: float = 1.0
    channel_mueller: MuellerMatrix = field(default_factory=MuellerMatrix.identity)
    detector_efficiency: float = 0.077
    dark_count_prob: float = 0.0
    background_prob: float = 0.0
    intrinsic_error: float = 0.0
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
        ):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if not 0.0 <= self.qber_estimation_fraction < 1.0:
            # At 1 the estimate discloses every sifted bit and leaves no key.
            raise ValueError(
                f"qber_estimation_fraction must lie in [0, 1), got {self.qber_estimation_fraction}"
            )
        if self.dark_count_prob + self.background_prob > 1.0:
            raise ValueError("dark_count_prob + background_prob must not exceed 1")
        if not 0.0 <= self.intrinsic_error <= 0.5:
            raise ValueError("intrinsic_error must lie in [0, 0.5]")
        check_seed(self.seed)
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


def sifted_key_rate(cfg: SessionConfig, sifting_factor: float = 0.5) -> float:
    """Analytic sifted-key rate f * mu * T * q * eta / 2, where q is the
    probability that the bases match; Bob's simulated choice is fair, q = 1/2."""
    return (
        cfg.pulse_rate
        * cfg.mean_photon_number
        * cfg.channel_transmission
        * sifting_factor
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
    cells, and arm i clicks with the cell's probability pc_i, which grows
    with the transmission T <= 1 up to its value b_i at T = 1.

    Candidates are thinned (Lewis & Shedler 1979): N ~ Bin(n_pulses, q_max)
    pulses are candidates, with one uniform u each.  x = 8u gives the cell
    floor(x) and v = (x - cell) q_max, uniform on [0, q_max), so a candidate
    lands in a part of width w of its cell with probability w / 8 per pulse.
    Per pulse of a cell, arm 0 alone is below its bound with probability
    b0 (1 - b1), both arms with b0 b1 and arm 1 alone with (1 - b0) b1, and
    an arm below its bound clicks with probability pc_i / b_i.  So
    v >= q = 1 - (1 - b0)(1 - b1) rejects, and below q:

    - [0, b0(1 - b1)): arm 0 alone; it clicks iff v < pc0 (1 - b1);
    - [b0(1 - b1), b0): both; arm 0 clicks iff v < b0(1 - b1) + b1 pc0,
      arm 1 iff a second uniform is below pc1 / b1, and a coin squashes the
      double click;
    - [b0, q): arm 1 alone; it clicks iff v < b0 + (1 - b0) pc1.

    Every outcome has its exact probability and the candidates are i.i.d.
    in pulse order: the law of drawing every pulse.  No draw depends on T:
    q_max, the region edges and so the count of both-arms draws come from
    the T = 1 bounds, and the generator's state after this call is the same
    at every T.  Each click threshold rises with T from its region's fixed
    start, so an arm that clicks at one transmission clicks at every higher
    one, and a pulse detected at one transmission is detected at every
    higher one.
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
    q_max = (1.0 - (1.0 - b0) * (1.0 - b1)).max()
    # The docstring's thresholds as per-cell edges of x: v < t reads
    # x < cell + t / q_max.  With q_max = 0 no candidate is drawn and the
    # edges go unread.
    scale = 1.0 / q_max if q_max > 0 else 0.0
    lo = b0 * (1.0 - b1)
    x0, x_lo, x_both0, x_hi, x1 = (
        np.arange(8) + t * scale
        for t in (pc0 * (1.0 - b1), lo, lo + b1 * pc0, b0, b0 + (1.0 - b0) * pc1)
    )

    x = rng.random(rng.binomial(cfg.n_pulses, q_max))
    x *= 8.0
    cell = x.astype(np.intp)
    # mode="clip" (cell is in range): "raise" would buffer the output.
    edge = np.take(x_hi, cell, mode="clip")
    c1 = x >= edge  # arm 1 alone, or rejected
    both = x >= np.take(x_lo, cell, out=edge, mode="clip")
    both &= ~c1
    c1 &= x < np.take(x1, cell, out=edge, mode="clip")
    c0 = x < np.take(x0, cell, out=edge, mode="clip")
    del edge

    both = np.flatnonzero(both)
    both_cell = cell[both]
    c0_both = x[both] < x_both0[both_cell]
    c1_both = rng.random(both.size) * b1[both_cell] < pc1[both_cell]
    coin = rng.integers(0, 2, both.size, dtype=bool)
    c0[both] = c0_both
    # Bob's bit: arm 1 alone, or a double click's coin.
    c1[both] = c1_both & (coin | ~c0_both)
    del x

    code = cell.astype(np.uint8)
    del cell
    code |= c1.view(np.uint8) << 3
    code = np.compress(c0 | c1, code)
    return (code >> 1) & 1, (code >> 2) & 1, code & 1, code >> 3


def run_session(cfg: SessionConfig) -> tuple[SessionStats, KeyMaterial]:
    """Run a full BB84 session: prepare, detect, sift, reconcile, amplify."""
    rng = np.random.default_rng(cfg.seed)
    bits, bases, bob_bases, bob_bits = detect_pulses(cfg, rng)
    # np.compress: boolean indexing is several times slower on a mask that
    # is true for a random half of the entries.
    sifted = bases == bob_bases
    sifted_alice, sifted_bob = np.compress(sifted, bits), np.compress(sifted, bob_bits)
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
        if len(cascade_alice) < MIN_SIFTED_BITS:
            raise InsufficientKeyError(
                f"key of {len(cascade_alice)} bits left after the QBER estimate is below "
                f"the {MIN_SIFTED_BITS}-bit minimum",
                replace(stats, leaked_bits=leak_from_estimation),
            )
    else:
        qber_est = stats.qber
    qber_est = min(0.49, max(qber_est, 1.0 / len(cascade_alice)))

    reconciled, leaked = cascade_reconcile(cascade_alice, cascade_bob, qber_est, rng)
    secret = privacy_amplify(reconciled, rng, extraction_ratio=cfg.extraction_ratio)

    stats = replace(
        stats, secure_rate=len(secret) / duration, leaked_bits=leaked + leak_from_estimation
    )
    return stats, KeyMaterial(sifted_alice, sifted_bob, reconciled, secret)
