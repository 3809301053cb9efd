import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from aqua_qkd.bb84 import BASIS_DIAGONAL, BASIS_RECTILINEAR, STATE_MAP
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
from aqua_qkd.experiments import CALIBRATED_SESSION
from aqua_qkd.polarization import (
    MuellerMatrix,
    PhysicalityError,
    WaveplateSpec,
    polarizer_mueller,
    rotation_mueller,
    waveplate_mueller,
)


# Peak memory of detection per detected pulse, in bytes.
PEAK_BYTES_PER_DETECTION = 48


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
        assert np.array_equal(STATE_MAP[(BASIS_RECTILINEAR, 0)], [1, 1, 0, 0])
        assert np.array_equal(STATE_MAP[(BASIS_RECTILINEAR, 1)], [1, -1, 0, 0])
        assert np.array_equal(STATE_MAP[(BASIS_DIAGONAL, 0)], [1, 0, 1, 0])
        assert np.array_equal(STATE_MAP[(BASIS_DIAGONAL, 1)], [1, 0, -1, 0])

    def test_states_are_read_only_float_vectors(self):
        for state in STATE_MAP.values():
            assert state.dtype == np.float64 and state.shape == (4,)
            with pytest.raises(ValueError):
                state[1] = 0.0

    def test_states_within_a_basis_are_orthogonal(self):
        for basis in (BASIS_RECTILINEAR, BASIS_DIAGONAL):
            a = STATE_MAP[(basis, 0)]
            b = STATE_MAP[(basis, 1)]
            assert np.dot(a[1:], b[1:]) == -1.0


def detect(cfg: SessionConfig):
    """The detected pulses' (bits, bases, bob_bases, bob_bits) for the config's seed."""
    return detect_pulses(cfg, np.random.default_rng(cfg.seed))


def assert_binomial(count: int, n: int, p: float, z: float = 4.0):
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(count - n * p) <= z * sigma, (count, n * p, sigma)


class TestAlicePrepare:
    def test_shapes_and_marginals(self):
        # On the noiseless identity channel every (basis, bit, bob_basis)
        # cell is detected with 1 - exp(-mu*eta), so the detected pulses keep
        # the uniform marginals.
        n = 3_000_000
        out = detect(quiet_config(n_pulses=n))
        k = len(out[0])
        for a in out:
            assert a.shape == (k,)
            assert a.dtype == np.uint8
            assert np.all(a <= 1)
        assert k > 20_000
        assert_binomial(k, n, 1.0 - math.exp(-0.1 * 0.077))
        bits, bases, bob_bases, _ = out
        assert abs(bits.mean() - 0.5) < 0.02
        assert abs(bases.mean() - 0.5) < 0.02
        assert abs(bob_bases.mean() - 0.5) < 0.02

    def test_states_follow_the_map(self):
        # Noiseless matched-basis detections reproduce Alice's bit in both
        # bases, so every (basis, bit) maps to the state Bob's arms resolve.
        cfg = quiet_config(mean_photon_number=1.0, detector_efficiency=1.0, n_pulses=20_000, seed=1)
        bits, bases, bob_bases, bob_bits = detect(cfg)
        matched = bases == bob_bases
        for basis in (BASIS_RECTILINEAR, BASIS_DIAGONAL):
            for bit in (0, 1):
                sel = matched & (bases == basis) & (bits == bit)
                assert np.count_nonzero(sel) > 1_000
                assert np.all(bob_bits[sel] == bit)


class TestDetectPulse:
    def test_click_probability_closed_form(self):
        # Matched basis, no noise: the correct arm clicks with
        # 1 - exp(-mu*T*eta) and the wrong arm never does.  Bob matches
        # Alice's basis with probability 1/2, so the matched clicks are
        # Bin(n_pulses, (1 - exp(-mu*T*eta)) / 2).
        n = 100_000
        cfg = quiet_config(mean_photon_number=1.0, detector_efficiency=1.0, n_pulses=n, seed=2)
        bits, bases, bob_bases, bob_bits = detect(cfg)
        matched = bases == bob_bases
        assert np.all(bob_bits[matched] == bits[matched])
        assert_binomial(int(np.count_nonzero(matched)), n, (1.0 - math.exp(-1.0)) / 2, z=3)

    def test_conjugate_basis_is_unbiased(self):
        cfg = quiet_config(mean_photon_number=1.0, detector_efficiency=1.0, n_pulses=100_000, seed=3)
        bits, bases, bob_bases, bob_bits = detect(cfg)
        conjugate = bases != bob_bases
        assert np.mean(bob_bits[conjugate] == bits[conjugate]) == pytest.approx(0.5, abs=0.02)

    def test_dark_counts_click_without_signal(self):
        # Two arms with p_dark = 0.3 each: P(click) = 1 - 0.7^2 = 0.51.
        cfg = quiet_config(mean_photon_number=0.0, dark_count_prob=0.3, n_pulses=10_000, seed=4)
        bits, _, _, bob_bits = detect(cfg)
        assert len(bits) / 10_000 == pytest.approx(0.51, abs=0.02)
        assert bob_bits.mean() == pytest.approx(0.5, abs=0.03)

    def test_no_light_and_no_noise_detects_nothing(self):
        # No pulse can click, so no candidate is drawn, and nothing divides
        # by the zero candidate probability.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = detect(quiet_config(mean_photon_number=0.0, n_pulses=10_000))
        assert all(a.shape == (0,) for a in out)

    def test_peak_memory_per_detection(self):
        # Only pulses that can click are drawn, and at T = 1 each of them
        # clicks, so memory is a fixed number of bytes per detected pulse:
        # nothing is allocated per pulse sent.
        cfg = SessionConfig(**dict(CALIBRATED_SESSION, n_pulses=1 << 22, seed=6))
        rng = np.random.default_rng(cfg.seed)
        tracemalloc.start()
        try:
            bits, _, _, _ = detect_pulses(cfg, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(bits) > 30_000
        assert peak <= PEAK_BYTES_PER_DETECTION * len(bits), peak / len(bits)


class TestSift:
    def test_keeps_matching_bases_with_clicks(self):
        cfg = quiet_config(intrinsic_error=0.02, dark_count_prob=1e-3, n_pulses=400_000, seed=5)
        bits, bases, bob_bases, bob_bits = detect(cfg)
        stats, material = run_session(cfg)
        keep = bases == bob_bases
        assert stats.detected_pulses == len(bits)
        np.testing.assert_array_equal(material.sifted_alice, bits[keep])
        np.testing.assert_array_equal(material.sifted_bob, bob_bits[keep])

    def test_long_session_sifts_in_pulse_order(self):
        # A long session sifts exactly the matched-basis detections, and in
        # pulse order: neighbouring sifted bits share a basis (and a bit)
        # with probability 1/2, not in runs grouped by cell.
        cfg = quiet_config(intrinsic_error=0.02, dark_count_prob=1e-3, n_pulses=4_200_000, seed=5)
        bits, bases, bob_bases, bob_bits = detect(cfg)
        stats, material = run_session(cfg)
        keep = bases == bob_bases
        assert stats.detected_pulses == len(bits)
        np.testing.assert_array_equal(material.sifted_alice, bits[keep])
        np.testing.assert_array_equal(material.sifted_bob, bob_bits[keep])
        for a in (bases[keep], bits[keep]):
            assert_binomial(int(np.count_nonzero(a[1:] == a[:-1])), len(a) - 1, 0.5)


def session_stats(cfg: SessionConfig):
    """The stats of ``run_session``, also when the sifted key is too short to finish."""
    try:
        return run_session(cfg)[0]
    except InsufficientKeyError as exc:
        return exc.stats


def closed_form_probabilities(cfg: SessionConfig) -> dict:
    """Per-pulse probabilities of a detection, a sifted bit and a wrong sifted bit.

    The model criterion 06 uses, for the identity channel: each arm clicks
    with pc_i = 1 - exp(-mu*eta*T*p_i)(1 - p_dark - p_bg), a matched basis
    splits the light as p = (1 - e, e) and a conjugate one as (1/2, 1/2); a
    pulse is detected when either arm clicks, Bob picks Alice's basis with
    probability 1/2, and a double click is squashed to a fair coin.
    """
    mu_eta_t = cfg.mean_photon_number * cfg.detector_efficiency * cfg.channel_transmission
    no_noise = 1.0 - cfg.dark_count_prob - cfg.background_prob
    e = cfg.intrinsic_error

    def click(p):
        return 1.0 - math.exp(-mu_eta_t * p) * no_noise

    right, wrong, half = click(1.0 - e), click(e), click(0.5)
    matched = 1.0 - (1.0 - right) * (1.0 - wrong)
    conjugate = 1.0 - (1.0 - half) ** 2
    return {
        "detected_pulses": (matched + conjugate) / 2,
        "sifted_bits": matched / 2,
        "wrong_bits": (wrong * (1.0 - right) + right * wrong / 2) / 2,
    }


class TestDetectionLaw:
    @pytest.mark.parametrize(
        "cfg",
        [
            SessionConfig(**dict(CALIBRATED_SESSION, channel_transmission=1.0)),
            SessionConfig(**dict(CALIBRATED_SESSION, channel_transmission=0.1995)),
            quiet_config(
                mean_photon_number=0.5,
                dark_count_prob=0.01,
                background_prob=0.005,
                intrinsic_error=0.05,
                n_pulses=200_000,
            ),
            quiet_config(
                mean_photon_number=1.0,
                detector_efficiency=1.0,
                intrinsic_error=0.03,
                dark_count_prob=1e-3,
                n_pulses=50_000,
            ),
        ],
        ids=["calibrated-air", "calibrated-tank", "noisy", "mu1-eta1"],
    )
    def test_counts_match_closed_form(self, cfg):
        # Summed over seeds, each count is Bin(seeds * n_pulses, p) under the model.
        seeds = range(100, 112)
        totals = dict.fromkeys(("detected_pulses", "sifted_bits", "wrong_bits"), 0)
        for seed in seeds:
            stats = session_stats(replace(cfg, seed=seed))
            for name in totals:
                totals[name] += getattr(stats, name)
        for name, p in closed_form_probabilities(cfg).items():
            assert_binomial(totals[name], len(seeds) * cfg.n_pulses, p)

    def test_lower_transmission_detects_a_subsequence(self):
        # Common random numbers: every pulse detected at T1 < T2 is detected
        # at T2 too, so the detections at T1 are a subsequence of those at
        # T2, in the same order.  A sequence over 8 symbols would need about
        # 8x its length to contain an unrelated one, not the 1.3x here.
        cfg = quiet_config(
            mean_photon_number=1.0,
            detector_efficiency=1.0,
            intrinsic_error=0.03,
            dark_count_prob=1e-3,
            n_pulses=20_000,
            seed=11,
        )
        lo, hi = (detect(replace(cfg, channel_transmission=t))[:3] for t in (0.3, 0.4))
        lo_cells = (4 * lo[0] + 2 * lo[1] + lo[2]).tolist()
        hi_cells = (4 * hi[0] + 2 * hi[1] + hi[2]).tolist()
        assert 1.2 * len(lo_cells) < len(hi_cells) < 1.4 * len(lo_cells)
        remaining = iter(hi_cells)
        assert all(cell in remaining for cell in lo_cells)

    def test_diattenuating_channel_counts_per_cell(self):
        # A diattenuator passing H with t_x = 0.9 and V with t_y = 0.5 gives
        # the states unequal output intensities s0, so the cells have unequal
        # candidate probabilities q and the sampler rejects candidates of the
        # cells below the largest q.  Each cell's detections, and those where
        # Bob's bit differs from Alice's (the wrong bits of a matched cell),
        # are Bin(n_pulses, p / 8) under the Malus law of the channel output.
        tx, ty = 0.9, 0.5
        r = 2.0 * math.sqrt(tx * ty)
        diattenuator = MuellerMatrix(
            0.5
            * np.array(
                [[tx + ty, tx - ty, 0, 0], [tx - ty, tx + ty, 0, 0], [0, 0, r, 0], [0, 0, 0, r]]
            )
        )
        cfg = quiet_config(
            mean_photon_number=1.0,
            detector_efficiency=1.0,
            intrinsic_error=0.03,
            dark_count_prob=1e-3,
            background_prob=5e-4,
            channel_mueller=diattenuator,
            channel_transmission=0.5,
            n_pulses=400_000,
            seed=13,
        )

        mu_eta = cfg.mean_photon_number * cfg.detector_efficiency
        no_noise = 1.0 - cfg.dark_count_prob - cfg.background_prob
        e = cfg.intrinsic_error

        def cell_probabilities(t):
            """[basis, bit, bob_basis] -> (detected, Bob's bit differs)."""
            out = {}
            for (basis, bit), state in STATE_MAP.items():
                s = diattenuator.m @ state
                for bob_basis in (BASIS_RECTILINEAR, BASIS_DIAGONAL):
                    p0 = (1.0 + s[1 + bob_basis] / s[0]) / 2.0 * (1.0 - 2.0 * e) + e
                    arm0, arm1 = (
                        1.0 - math.exp(-mu_eta * t * s[0] * p) * no_noise for p in (p0, 1.0 - p0)
                    )
                    detected = 1.0 - (1.0 - arm0) * (1.0 - arm1)
                    bob_one = arm1 * (1.0 - arm0) + arm0 * arm1 / 2.0
                    differs = bob_one if bit == 0 else detected - bob_one
                    out[basis, bit, bob_basis] = detected, differs
            return out

        q = [detected for detected, _ in cell_probabilities(1.0).values()]
        assert min(q) < 0.8 * max(q)
        bits, bases, bob_bases, bob_bits = detect(cfg)
        sifted = wrong = 0.0
        for (basis, bit, bob_basis), (p_det, p_differs) in cell_probabilities(0.5).items():
            cell = (bases == basis) & (bits == bit) & (bob_bases == bob_basis)
            assert_binomial(int(np.count_nonzero(cell)), cfg.n_pulses, p_det / 8)
            differs = int(np.count_nonzero(cell & (bob_bits != bits)))
            assert_binomial(differs, cfg.n_pulses, p_differs / 8)
            if basis == bob_basis:
                sifted += p_det / 8
                wrong += p_differs / 8
        matched = bases == bob_bases
        assert_binomial(int(np.count_nonzero(matched)), cfg.n_pulses, sifted)
        assert_binomial(int(np.count_nonzero(matched & (bob_bits != bits))), cfg.n_pulses, wrong)

    def test_generator_state_after_detection_does_not_depend_on_transmission(self):
        # CASCADE and privacy amplification draw from the generator after
        # detection, so their seeds are common random numbers across the
        # points of a sweep only if detection draws the same at every T.
        cfg = quiet_config(
            mean_photon_number=1.0,
            detector_efficiency=1.0,
            intrinsic_error=0.03,
            dark_count_prob=1e-3,
            n_pulses=50_000,
        )
        states = []
        for t in (0.3, 1.0):
            rng = np.random.default_rng(14)
            detect_pulses(replace(cfg, channel_transmission=t), rng)
            states.append(rng.bit_generator.state)
        assert states[0] == states[1]


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
                detector_efficiency=eta,
            )
            assert sifted_key_rate(cfg, sifting_factor=q) == f * mu * t * q * eta

    def test_sifted_rate_linear_in_transmission(self):
        lo = quiet_config(channel_transmission=0.25)
        hi = quiet_config(channel_transmission=0.5)
        assert sifted_key_rate(hi) == 2 * sifted_key_rate(lo)

    def test_sifted_rate_formula_matches_the_simulation(self):
        # Without noise every sifted bit is a matched-basis signal click, a
        # binomial count with p = q * (1 - exp(-mu * eta * T)); the formula,
        # its first-order term, lies 0.2% (0.3 sigma) above the mean here.
        cfg = quiet_config(channel_transmission=0.5, n_pulses=16_000_000, seed=3)
        stats, _ = run_session(cfg)
        mu_eta_t = cfg.mean_photon_number * cfg.detector_efficiency * cfg.channel_transmission
        p = -math.expm1(-mu_eta_t) / 2
        duration = cfg.n_pulses / cfg.pulse_rate
        sigma = math.sqrt(cfg.n_pulses * p * (1 - p)) / duration
        assert abs(stats.sifted_rate - sifted_key_rate(cfg)) < 4 * sigma

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

    @pytest.mark.parametrize(
        "axis, state", [(math.pi / 2, "H"), (0.0, "V")], ids=["vertical", "horizontal"]
    )
    def test_extinguished_state_is_named(self, axis, state):
        with pytest.raises(PhysicalityError, match=f"extinguishes the {state} signal state"):
            quiet_config(channel_mueller=polarizer_mueller(axis))

    def test_rejects_amplifying_channel(self):
        # A gain, and a diattenuator normalized to m00 = 1, which passes H
        # with s0 = 1.5.
        diattenuator = [[1, 0.5, 0, 0], [0.5, 1, 0, 0], [0, 0, 0.8, 0], [0, 0, 0, 0.8]]
        for m in (2.0 * np.eye(4), diattenuator):
            with pytest.raises(PhysicalityError, match="amplifies"):
                quiet_config(channel_mueller=MuellerMatrix(m))
        passive = MuellerMatrix(np.diag([0.5, 0.5, 0.5, 0.5]))
        assert quiet_config(channel_mueller=passive).channel_mueller is passive

    def test_rejects_noise_above_one(self):
        with pytest.raises(ValueError):
            quiet_config(dark_count_prob=0.6, background_prob=0.5)

    @pytest.mark.parametrize("fraction", [-0.1, 1.0])
    def test_estimation_fraction_leaves_a_key(self, fraction):
        # At 1 the QBER estimate would disclose every sifted bit.
        with pytest.raises(ValueError, match=r"qber_estimation_fraction must lie in \[0, 1\)"):
            quiet_config(qber_estimation_fraction=fraction)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.0, True])
    def test_rejects_seed_outside_64_bits(self, seed):
        with pytest.raises(ValueError, match="seed"):
            quiet_config(seed=seed)
        assert quiet_config(seed=2**64 - 1).seed == 2**64 - 1


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

    def test_peak_memory_does_not_grow_with_pulses(self):
        # Only detected pulses are drawn and kept, so a session with 8x the
        # pulses at 1/8 the mean photon number, which detects about as many,
        # needs about the same peak memory.
        peaks = []
        for n, mu in ((1 << 18, 0.8), (1 << 21, 0.1)):
            tracemalloc.start()
            try:
                run_session(
                    SessionConfig(n_pulses=n, mean_photon_number=mu, intrinsic_error=0.02, seed=3)
                )
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

    def test_no_key_left_after_estimation_raises_with_stats(self):
        # About 385 sifted bits, nearly all disclosed by the estimate.
        cfg = quiet_config(n_pulses=100_000, qber_estimation_fraction=0.9999, seed=5)
        with pytest.raises(InsufficientKeyError, match="left after the QBER estimate") as excinfo:
            run_session(cfg)
        stats = excinfo.value.stats
        assert stats.sifted_bits >= MIN_SIFTED_BITS
        assert 0 < stats.leaked_bits <= stats.sifted_bits
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
            # Passive diattenuators: the output intensity s0 differs by state.
            MuellerMatrix(
                np.array(
                    [[1, 0.1, 0, 0], [0.1, 1, 0, 0], [0, 0, 0.99**0.5, 0], [0, 0, 0, 0.99**0.5]]
                )
                / 1.1
            )
            @ rotation_mueller(0.15),
            MuellerMatrix(
                np.array([[1, 0.8, 0, 0], [0.8, 1, 0, 0], [0, 0, 0.6, 0], [0, 0, 0, 0.6]]) / 1.8
            )
            @ rotation_mueller(0.3),
        ],
        ids=[
            "rotation",
            "retarder",
            "rotation-retarder-depolarizer",
            "depolarizer-rotation-retarder",
            "diattenuator-rotation",
            "strong-diattenuator-rotation",
        ],
    )
    def test_session_qber_matches_channel_qber(self, channel):
        # Independent Poisson arms: the first-order terms in mu*T*eta cancel,
        # so the sifted QBER of a noiseless session is the channel's
        # wrong-arm probability, each state weighted by its output intensity.
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

        # A passive diattenuator passes H with s0 = 1 and V with s0 = 1/3.
        # Each pulse is that state with probability 1/4, so its detections
        # are Bin(n_pulses, p/4).
        d = 0.5
        r = (1 - d * d) ** 0.5
        diattenuator = MuellerMatrix(
            np.array([[1, d, 0, 0], [d, 1, 0, 0], [0, 0, r, 0], [0, 0, 0, r]]) / (1 + d)
        )
        bits, bases, _, _ = detect(
            quiet_config(channel_mueller=diattenuator, n_pulses=1_000_000, seed=4)
        )
        clicks = []
        for bit, s0 in ((0, 1.0), (1, (1 - d) / (1 + d))):
            p = 1.0 - math.exp(-mu_eta * s0)
            clicks.append(int(np.count_nonzero((bases == BASIS_RECTILINEAR) & (bits == bit))))
            assert_binomial(clicks[-1], 1_000_000, p / 4)
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
