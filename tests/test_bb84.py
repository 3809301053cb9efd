import math
import tracemalloc

import numpy as np
import pytest

from aqua_qkd.bb84 import BASIS_DIAGONAL, BASIS_RECTILINEAR, STATE_MAP, session
from aqua_qkd.bb84.session import (
    MIN_SIFTED_BITS,
    InsufficientKeyError,
    SessionConfig,
    compute_qber,
    detect_pulses,
    estimate_qber_disclosed,
    run_session,
    sifted_key_rate,
)
from aqua_qkd.characterization import qber_from_mueller
from aqua_qkd.polarization import (
    MuellerMatrix,
    PhysicalityError,
    StokesVector,
    WaveplateSpec,
    rotation_mueller,
    waveplate_mueller,
)


def quiet_config(**overrides) -> SessionConfig:
    base = dict(
        pulse_rate=1e6,
        mean_photon_number=0.1,
        channel_transmission=1.0,
        detector_efficiency=0.077,
        dark_count_prob=0.0,
        background_prob=0.0,
        intrinsic_error=0.0,
        n_pulses=2_000_000,
        seed=0,
    )
    base.update(overrides)
    return SessionConfig(**base)


class TestStateMap:
    def test_four_states(self):
        assert STATE_MAP[(BASIS_RECTILINEAR, 0)] == StokesVector(1, 1, 0, 0)
        assert STATE_MAP[(BASIS_RECTILINEAR, 1)] == StokesVector(1, -1, 0, 0)
        assert STATE_MAP[(BASIS_DIAGONAL, 0)] == StokesVector(1, 0, 1, 0)
        assert STATE_MAP[(BASIS_DIAGONAL, 1)] == StokesVector(1, 0, -1, 0)

    def test_states_within_a_basis_are_orthogonal(self):
        for basis in (BASIS_RECTILINEAR, BASIS_DIAGONAL):
            a = STATE_MAP[(basis, 0)].as_array()
            b = STATE_MAP[(basis, 1)].as_array()
            assert np.dot(a[1:], b[1:]) == -1.0


def detect(cfg: SessionConfig):
    """All of ``detect_pulses``'s chunks, joined into per-pulse arrays."""
    chunks = detect_pulses(cfg, np.random.default_rng(cfg.seed))
    return tuple(np.concatenate(parts) for parts in zip(*chunks))


class TestAlicePrepare:
    def test_shapes_and_marginals(self):
        bits, bases, bob_bases, detected, bob_bits = detect(quiet_config(n_pulses=20_000))
        for a in (bits, bases, bob_bases, detected, bob_bits):
            assert a.shape == (20_000,)
        assert abs(bits.mean() - 0.5) < 0.02
        assert abs(bases.mean() - 0.5) < 0.02
        assert abs(bob_bases.mean() - 0.5) < 0.02

    def test_states_follow_the_map(self):
        # Noiseless matched-basis detections reproduce Alice's bit in both
        # bases, so every (basis, bit) maps to the state Bob's arms resolve.
        cfg = quiet_config(mean_photon_number=1.0, detector_efficiency=1.0, n_pulses=20_000, seed=1)
        bits, bases, bob_bases, detected, bob_bits = detect(cfg)
        matched = detected & (bases == bob_bases)
        for basis in (BASIS_RECTILINEAR, BASIS_DIAGONAL):
            for bit in (0, 1):
                sel = matched & (bases == basis) & (bits == bit)
                assert np.count_nonzero(sel) > 1_000
                assert np.all(bob_bits[sel] == bit)


class TestDetectPulse:
    def test_click_probability_closed_form(self):
        # Matched basis, no noise: the correct arm clicks with
        # 1 - exp(-mu*T*eta) and the wrong arm never does.
        cfg = quiet_config(mean_photon_number=1.0, detector_efficiency=1.0, n_pulses=100_000, seed=2)
        bits, bases, bob_bases, detected, bob_bits = detect(cfg)
        matched = bases == bob_bases
        n = int(np.count_nonzero(matched))
        clicks = int(np.count_nonzero(detected[matched]))
        assert np.all(bob_bits[matched & detected] == bits[matched & detected])
        expected = 1.0 - math.exp(-1.0)
        assert clicks / n == pytest.approx(expected, abs=3 * math.sqrt(expected / n))

    def test_conjugate_basis_is_unbiased(self):
        cfg = quiet_config(mean_photon_number=1.0, detector_efficiency=1.0, n_pulses=100_000, seed=3)
        bits, bases, bob_bases, detected, bob_bits = detect(cfg)
        conjugate = detected & (bases != bob_bases)
        assert np.mean(bob_bits[conjugate] == bits[conjugate]) == pytest.approx(0.5, abs=0.02)

    def test_dark_counts_click_without_signal(self):
        # Two arms with p_dark = 0.3 each: P(click) = 1 - 0.7^2 = 0.51.
        cfg = quiet_config(mean_photon_number=0.0, dark_count_prob=0.3, n_pulses=10_000, seed=4)
        _, _, _, detected, _ = detect(cfg)
        assert detected.mean() == pytest.approx(0.51, abs=0.02)

    def test_chunk_peak_memory_per_pulse(self):
        # The six per-pulse draws take 27 B; click probabilities are looked up
        # per pulse, not computed per pulse, so a chunk needs no n-long float
        # temporaries beyond them.
        n = 1 << 18
        cfg = quiet_config(dark_count_prob=1e-3, n_pulses=n, seed=6)
        chunks = detect_pulses(cfg, np.random.default_rng(cfg.seed))
        tracemalloc.start()
        try:
            next(chunks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 50 * n, peak / n


class TestSift:
    def test_keeps_matching_bases_with_clicks(self):
        cfg = quiet_config(intrinsic_error=0.02, dark_count_prob=1e-3, n_pulses=400_000, seed=5)
        bits, bases, bob_bases, detected, bob_bits = detect(cfg)
        _, material = run_session(cfg)
        keep = detected & (bases == bob_bases)
        np.testing.assert_array_equal(material.sifted_alice, bits[keep])
        np.testing.assert_array_equal(material.sifted_bob, bob_bits[keep])

    def test_sifts_across_chunk_boundaries(self, monkeypatch):
        monkeypatch.setattr(session, "_DETECT_CHUNK", 1 << 15)
        cfg = quiet_config(intrinsic_error=0.02, dark_count_prob=1e-3, n_pulses=400_000, seed=5)
        chunks = list(detect_pulses(cfg, np.random.default_rng(cfg.seed)))
        assert [len(c[0]) for c in chunks] == [1 << 15] * 12 + [400_000 - 12 * (1 << 15)]
        bits, bases, bob_bases, detected, bob_bits = (np.concatenate(p) for p in zip(*chunks))
        _, material = run_session(cfg)
        keep = detected & (bases == bob_bases)
        np.testing.assert_array_equal(material.sifted_alice, bits[keep])
        np.testing.assert_array_equal(material.sifted_bob, bob_bits[keep])


class TestQberAndRate:
    def test_qber_is_a_direct_count(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(10, 2000))
            a = rng.integers(0, 2, n, dtype=np.uint8)
            b = rng.integers(0, 2, n, dtype=np.uint8)
            assert compute_qber(a, b) == np.count_nonzero(a != b) / n

    def test_qber_error_cases(self):
        with pytest.raises(ValueError):
            compute_qber([0, 1], [0])
        with pytest.raises(ValueError):
            compute_qber([], [])

    def test_sifted_rate_formula(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            f = float(rng.uniform(1e5, 1e7))
            mu = float(rng.uniform(0.01, 1.0))
            t = float(rng.uniform(0.01, 1.0))
            q = float(rng.choice([0.5, 1.0]))
            eta = float(rng.uniform(0.01, 1.0))
            cfg = quiet_config(
                pulse_rate=f,
                mean_photon_number=mu,
                channel_transmission=t,
                sifting_factor=q,
                detector_efficiency=eta,
            )
            assert sifted_key_rate(cfg) == f * mu * t * q * eta / 2

    def test_sifted_rate_linear_in_transmission(self):
        lo = quiet_config(channel_transmission=0.25)
        hi = quiet_config(channel_transmission=0.5)
        assert sifted_key_rate(hi) == 2 * sifted_key_rate(lo)

    def test_disclosed_estimator(self):
        rng = np.random.default_rng(8)
        a = rng.integers(0, 2, 10_000, dtype=np.uint8)
        b = a ^ (rng.random(10_000) < 0.05).astype(np.uint8)
        est, rest_a, rest_b, n_disclosed = estimate_qber_disclosed(a, b, 0.2, rng)
        assert est == pytest.approx(0.05, abs=0.02)
        assert len(rest_a) == len(rest_b) == 10_000 - n_disclosed
        assert 0 < n_disclosed < 10_000


class TestSessionConfig:
    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            quiet_config(detector_efficiency=1.5)
        with pytest.raises(ValueError):
            quiet_config(dark_count_prob=-0.1)
        with pytest.raises(ValueError):
            quiet_config(intrinsic_error=0.6)

    def test_counts(self):
        with pytest.raises(ValueError):
            quiet_config(n_pulses=0)
        with pytest.raises(ValueError):
            quiet_config(pulse_rate=0.0)

    @pytest.mark.parametrize("diag", [(1, 3, 3, 1), (1, -1.5, 0.2, 1), (0, 0, 0, 0)])
    def test_rejects_non_physical_channel(self, diag):
        # Arm-0 probabilities 2 and -0.25, and an extinguished state.
        with pytest.raises(PhysicalityError):
            quiet_config(channel_mueller=MuellerMatrix(np.diag(diag)))


class TestRunSession:
    def test_noiseless_session_has_zero_qber(self):
        for seed in (0, 1, 2):
            stats, material = run_session(quiet_config(seed=seed))
            assert stats.qber == 0.0
            assert stats.wrong_bits == 0
            assert np.array_equal(material.reconciled, material.sifted_alice)

    def test_rate_ordering_and_key_shapes(self):
        cfg = quiet_config(intrinsic_error=0.01, dark_count_prob=1e-5, seed=3)
        stats, material = run_session(cfg)
        assert 0 <= stats.secure_rate <= stats.sifted_rate <= cfg.pulse_rate
        assert len(material.sifted_alice) == len(material.sifted_bob) == stats.sifted_bits
        assert stats.sifted_bits <= stats.detected_pulses
        assert stats.qber == stats.wrong_bits / stats.sifted_bits
        assert len(material.secret) == int(cfg.extraction_ratio * len(material.reconciled))

    def test_reconciliation_recovers_alice_key(self):
        cfg = quiet_config(intrinsic_error=0.02, seed=4)
        stats, material = run_session(cfg)
        assert stats.qber > 0
        assert np.array_equal(material.reconciled, material.sifted_alice)
        assert stats.leaked_bits > 0

    def test_dark_counts_never_reduce_expected_qber(self):
        diffs = []
        for seed in range(20):
            lo, _ = run_session(
                quiet_config(intrinsic_error=0.01, n_pulses=400_000, seed=seed)
            )
            hi, _ = run_session(
                quiet_config(
                    intrinsic_error=0.01, dark_count_prob=5e-4, n_pulses=400_000, seed=seed
                )
            )
            diffs.append(hi.qber - lo.qber)
        assert np.mean(diffs) > 0

    def test_peak_memory_does_not_grow_with_pulses(self, monkeypatch):
        # Detection is streamed chunk by chunk, and only the ~0.4% of pulses
        # that are sifted are kept, so an 8x longer session at the same chunk
        # size needs about the same peak memory.
        monkeypatch.setattr(session, "_DETECT_CHUNK", 1 << 16)
        peaks = []
        for n in (1 << 18, 1 << 21):
            tracemalloc.start()
            try:
                run_session(SessionConfig(n_pulses=n, intrinsic_error=0.02, seed=3))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks

    def test_insufficient_key_raises_with_stats(self):
        cfg = quiet_config(n_pulses=20_000, seed=5)
        with pytest.raises(InsufficientKeyError) as excinfo:
            run_session(cfg)
        stats = excinfo.value.stats
        assert stats.sifted_bits < MIN_SIFTED_BITS
        assert stats.secure_rate == 0.0

    def test_depolarizing_channel_raises_qber(self):
        depolarizer = MuellerMatrix(np.diag([1.0, 0.9, 0.9, 0.9]))
        clean, _ = run_session(quiet_config(seed=6))
        noisy, _ = run_session(quiet_config(seed=6, channel_mueller=depolarizer))
        assert clean.qber == 0.0
        assert noisy.qber == pytest.approx(0.05, abs=0.01)

    @pytest.mark.parametrize(
        "channel",
        [
            rotation_mueller(0.2),
            waveplate_mueller(WaveplateSpec(theta=0.4, delta=0.25)),
            rotation_mueller(-0.03)
            @ waveplate_mueller(WaveplateSpec(theta=1.1, delta=0.15))
            @ MuellerMatrix(np.diag([1.0, 0.95, 0.9, 0.97])),
            MuellerMatrix(np.diag([1.0, 0.93, 0.97, 0.9]))
            @ rotation_mueller(0.04)
            @ waveplate_mueller(WaveplateSpec(theta=2.5, delta=0.3)),
            # A weak diattenuator: the output intensity s0 differs by state.
            MuellerMatrix(
                [[1, 0.1, 0, 0], [0.1, 1, 0, 0], [0, 0, 0.99**0.5, 0], [0, 0, 0, 0.99**0.5]]
            )
            @ rotation_mueller(0.15),
        ],
        ids=[
            "rotation",
            "retarder",
            "rotation-retarder-depolarizer",
            "depolarizer-rotation-retarder",
            "diattenuator-rotation",
        ],
    )
    def test_session_qber_matches_channel_qber(self, channel):
        # Independent Poisson arms: the first-order terms in mu*T*eta cancel,
        # so the sifted QBER of a noiseless session is the channel's
        # wrong-arm probability.
        expected = qber_from_mueller(channel)
        stats, _ = run_session(quiet_config(channel_mueller=channel, n_pulses=4_000_000, seed=9))
        sigma = math.sqrt(expected * (1 - expected) / stats.sifted_bits)
        assert abs(stats.qber - expected) <= 4 * sigma + 0.01 * expected, (stats.qber, expected)

    def test_channel_output_intensity_scales_detection(self):
        # Noiseless arms: a pulse of state (basis, bit) is detected with
        # 1 - exp(-mu*T*eta*s0), s0 being that state's channel output intensity.
        mu_eta = 0.1 * 0.077
        stats, _ = run_session(
            quiet_config(channel_mueller=MuellerMatrix(0.5 * np.eye(4)), n_pulses=1_000_000, seed=3)
        )
        p = 1.0 - math.exp(-mu_eta * 0.5)
        sigma = math.sqrt(1_000_000 * p * (1 - p))
        assert abs(stats.detected_pulses - 1_000_000 * p) <= 4 * sigma, stats.detected_pulses

        # A diattenuator passes H with s0 = 1.5 and V with s0 = 0.5.
        d = 0.5
        r = (1 - d * d) ** 0.5
        diattenuator = MuellerMatrix([[1, d, 0, 0], [d, 1, 0, 0], [0, 0, r, 0], [0, 0, 0, r]])
        bits, bases, _, detected, _ = detect(
            quiet_config(channel_mueller=diattenuator, n_pulses=1_000_000, seed=4)
        )
        clicks = []
        for bit, s0 in ((0, 1 + d), (1, 1 - d)):
            sent = (bases == BASIS_RECTILINEAR) & (bits == bit)
            n = int(np.count_nonzero(sent))
            p = 1.0 - math.exp(-mu_eta * s0)
            clicks.append(int(np.count_nonzero(detected[sent])))
            assert abs(clicks[-1] - n * p) <= 4 * math.sqrt(n * p * (1 - p)), (bit, clicks, n * p)
        assert clicks[0] > clicks[1]

    def test_qber_estimation_fraction_discloses_and_discards(self):
        cfg = quiet_config(intrinsic_error=0.02, seed=7, qber_estimation_fraction=0.1)
        stats, material = run_session(cfg)
        assert len(material.reconciled) < stats.sifted_bits
        assert np.array_equal(material.reconciled, material.reconciled & 1)

    def test_stats_dict_field_names(self):
        stats, _ = run_session(quiet_config(seed=8))
        assert set(stats.to_dict()) == {
            "qber",
            "sifted_rate",
            "secure_rate",
            "detected_pulses",
            "sifted_bits",
            "wrong_bits",
            "leaked_bits",
        }
