"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line for its criterion (run with ``pytest -s``
to see all of them) and then asserts, so failures stay honest.
"""

import json
import math
import time

import numpy as np
import pytest

from aqua_qkd.bb84.cascade import cascade_reconcile
from aqua_qkd.bb84.session import SessionConfig, run_session, sifted_key_rate
from aqua_qkd.characterization import (
    estimate_mueller,
    measurement_grid,
    channel_fidelity_report,
    predict_intensity,
    qber_from_mueller,
    PolarimetricMeasurement,
)
from aqua_qkd.experiments import (
    CALIBRATED_SESSION,
    DEFAULT_CHANNEL_LENGTH_M,
    jerlov_extrapolate,
    load_config,
    run_scenario,
)
from aqua_qkd.polarization import MuellerMatrix
from aqua_qkd.transport import BeamParams, ChannelParams, run_transport

WATER_ATTENUATION = 0.683
WATER_ABSORPTION = 0.117
TANK_LENGTH = 2.37

SWEEP_GRID = (0.11, 0.25, 0.40, 0.55, 0.68)
ACCEPTANCE_SEED = 1
ACCEPTANCE_PULSES = 16_000_000


def report(criterion: int, label: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {criterion:02d} {label}: {status}{suffix}")
    return ok


@pytest.fixture(scope="module")
def calibrated_sweep():
    """Air baseline plus the attenuation sweep, shared by criteria 6 and 8."""
    params = dict(CALIBRATED_SESSION)
    params["n_pulses"] = ACCEPTANCE_PULSES

    def session(transmission):
        cfg = SessionConfig(
            channel_transmission=transmission, seed=ACCEPTANCE_SEED, **params
        )
        stats, _ = run_session(cfg)
        return stats

    start = time.monotonic()
    air = session(1.0)
    points = [session(math.exp(-c * TANK_LENGTH)) for c in SWEEP_GRID]
    elapsed = time.monotonic() - start
    return air, points, elapsed


def closed_form_secure_rate(transmission: float, n_pulses: int) -> tuple[float, float]:
    """Expected secure rate of a ``CALIBRATED_SESSION`` run, and its 1-sigma spread.

    Worked from the detection model's own statement, not from the session
    code: each arm clicks with pc_i = 1 - exp(-mu*eta*T*p_i)(1 - p_dark - p_bg),
    where a matched basis splits the light as p = (1 - e, e); a pulse is
    detected when either arm clicks, and half the detected pulses survive
    sifting (Bob picks Alice's basis with probability 1/2).  With no QBER
    sample disclosed the reconciled key is the sifted key, and the secret key
    keeps the fixed ratio of it.  The spread is binomial in the sifted count.
    """
    c = CALIBRATED_SESSION
    mu_eta_t = c["mean_photon_number"] * c["detector_efficiency"] * transmission
    no_noise = 1.0 - c["dark_count_prob"] - c["background_prob"]
    e = c["intrinsic_error"]
    pc0 = 1.0 - math.exp(-mu_eta_t * (1.0 - e)) * no_noise
    pc1 = 1.0 - math.exp(-mu_eta_t * e) * no_noise
    p_sift = (1.0 - (1.0 - pc0) * (1.0 - pc1)) / 2.0
    duration = n_pulses / c["pulse_rate"]
    rate = c["extraction_ratio"] * n_pulses * p_sift / duration
    sigma = c["extraction_ratio"] * math.sqrt(n_pulses * p_sift * (1.0 - p_sift)) / duration
    return rate, sigma


def test_criterion_01_beer_lambert_transmission():
    channel = ChannelParams(
        absorption=WATER_ABSORPTION, attenuation=WATER_ATTENUATION, length=TANK_LENGTH
    )
    n = 1_000_000
    start = time.monotonic()
    stats = run_transport(channel, BeamParams(), n, seed=ACCEPTANCE_SEED)
    elapsed = time.monotonic() - start
    expected = math.exp(-WATER_ATTENUATION * TANK_LENGTH)
    sigma = math.sqrt(expected * (1 - expected) / n)
    within = abs(stats.ballistic_transmission - expected) <= 3 * sigma
    fast = elapsed <= 60.0
    ok = report(
        1,
        "beer-lambert ballistic transmission",
        within and fast,
        f"measured {stats.ballistic_transmission:.5f}, expected {expected:.5f}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_02_scattered_fraction_bracket():
    channel = ChannelParams(
        absorption=WATER_ABSORPTION, attenuation=WATER_ATTENUATION, length=TANK_LENGTH
    )
    stats = run_transport(channel, BeamParams(), 1_000_000, seed=ACCEPTANCE_SEED)
    frac = stats.scattered_fraction_of_received
    ok = report(
        2,
        "scattered fraction of received photons",
        0.0005 <= frac <= 0.01,
        f"{frac:.4%} in [0.05%, 1.00%]",
    )
    assert ok


def test_criterion_03_mueller_roundtrip(random_mueller_factory):
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    grid = measurement_grid()
    worst = 0.0
    for _ in range(100):
        m = random_mueller_factory(rng)
        measurements = [
            PolarimetricMeasurement(t1, t2, predict_intensity(m, t1, t2)) for t1, t2 in grid
        ]
        est = estimate_mueller(measurements)
        worst = max(worst, float(np.max(np.abs(est.matrix.m - m.m / m.m[0, 0]))))
    ident = estimate_mueller(
        [
            PolarimetricMeasurement(t1, t2, predict_intensity(MuellerMatrix.identity(), t1, t2))
            for t1, t2 in grid
        ]
    )
    ident_err = float(np.max(np.abs(ident.matrix.m - np.eye(4))))
    ok = report(
        3,
        "mueller estimation round-trip",
        worst < 1e-9 and ident_err < 1e-9,
        f"worst element error {worst:.2e} over 100 random physical matrices",
    )
    assert ok


def test_criterion_04_depolarizer_closed_forms():
    worst = 0.0
    for d in (0.0, 0.5, 0.946, 1.0):
        m = MuellerMatrix(np.diag([1.0, d, d, d]))
        worst = max(worst, abs(qber_from_mueller(m) - (1 - d) / 2))
        for fid in channel_fidelity_report(m).per_state.values():
            worst = max(worst, abs(fid - (1 + d) / 2))
    benchmark = qber_from_mueller(MuellerMatrix(np.diag([1.0, 0.946, 0.946, 0.946])))
    ok = report(
        4,
        "isotropic depolarizer QBER and fidelity",
        worst < 1e-12 and abs(benchmark - 0.027) < 5e-4,
        f"max deviation {worst:.2e}, d=0.946 gives QBER {benchmark:.4f}",
    )
    assert ok


def test_criterion_05_qber_and_rate_formulas():
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    ok = True
    from aqua_qkd.bb84.session import compute_qber

    for _ in range(10):
        n = int(rng.integers(100, 5000))
        a = rng.integers(0, 2, n, dtype=np.uint8)
        b = rng.integers(0, 2, n, dtype=np.uint8)
        ok &= compute_qber(a, b) == np.count_nonzero(a != b) / n
    for _ in range(10):
        f = float(rng.uniform(1e5, 1e7))
        mu = float(rng.uniform(0.01, 1.0))
        t = float(rng.uniform(0.01, 1.0))
        q = float(rng.choice([0.5, 1.0]))
        eta = float(rng.uniform(0.01, 1.0))
        cfg = SessionConfig(
            pulse_rate=f,
            mean_photon_number=mu,
            channel_transmission=t,
            detector_efficiency=eta,
        )
        ok &= sifted_key_rate(cfg, sifting_factor=q) == f * mu * t * q * eta / 2
    ok = report(5, "error-rate and sifted-rate formulas", bool(ok))
    assert ok


def test_criterion_06_attenuation_sweep_trend(calibrated_sweep):
    air, points, elapsed = calibrated_sweep
    qbers = [s.qber for s in points]
    rates = [s.secure_rate for s in points]
    # Under the fixed-ratio key length the final rate is the air rate times
    # the ratio of sifted counts, at least T = exp(-0.68 * 2.37) ~ 0.2 since
    # detection is concave in T: no band below ~72 bits/s can hold beside the
    # air-rate check.  The endpoint is checked against the model instead,
    # within 4 sigma plus one floor() step of the key length.
    expected, sigma = closed_form_secure_rate(
        math.exp(-SWEEP_GRID[-1] * TANK_LENGTH), ACCEPTANCE_PULSES
    )
    duration = ACCEPTANCE_PULSES / CALIBRATED_SESSION["pulse_rate"]
    checks = {
        "air QBER in 1.58% +/- 0.3pp": 0.0128 <= air.qber <= 0.0188,
        "air secure rate within 15% of 422.96": abs(air.secure_rate - 422.96) <= 0.15 * 422.96,
        "QBER monotone non-decreasing": all(a <= b for a, b in zip(qbers, qbers[1:])),
        "final QBER in [3%, 4%]": 0.03 <= qbers[-1] <= 0.04,
        "secure rate monotone non-increasing": all(a >= b for a, b in zip(rates, rates[1:])),
        "final secure rate matches the model": abs(rates[-1] - expected)
        <= 4 * sigma + 1 / duration,
        "runtime budget": elapsed <= 180.0 * len(SWEEP_GRID),
    }
    failed = [name for name, passed in checks.items() if not passed]
    ok = report(
        6,
        "attenuation sweep trend",
        not failed,
        f"air {air.qber:.4%}/{air.secure_rate:.1f} bps, end {qbers[-1]:.4%}/{rates[-1]:.1f} bps"
        f", model {expected:.1f} +/- {sigma:.1f} bps"
        + (f"; failed: {', '.join(failed)}" if failed else ""),
    )
    assert ok, f"failed checks: {failed}"


def test_criterion_07_cascade_bsc_trials():
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    n = 10_000
    p = 0.03
    successes = 0
    leak_fractions = []
    for _ in range(100):
        alice = rng.integers(0, 2, n, dtype=np.uint8)
        bob = alice ^ (rng.random(n) < p).astype(np.uint8)
        reconciled, leaked = cascade_reconcile(alice, bob, p, rng)
        successes += int(np.array_equal(reconciled, alice))
        leak_fractions.append(leaked / n)
    h2 = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
    mean_leak = float(np.mean(leak_fractions))
    ok = report(
        7,
        "cascade reconciliation over BSC(0.03)",
        successes >= 99 and h2 <= mean_leak <= 1.6 * h2,
        f"{successes}/100 clean, leak {mean_leak / h2:.2f} x Shannon limit",
    )
    assert ok


def test_criterion_08_qber_below_security_bound(calibrated_sweep):
    air, points, _ = calibrated_sweep
    worst = max([air.qber] + [s.qber for s in points])
    ok = report(
        8,
        "all sweep QBERs below the 11% security bound",
        worst < 0.11,
        f"worst {worst:.4%}",
    )
    assert ok


def test_criterion_09_jerlov_extrapolation():
    length = jerlov_extrapolate(0.03, 0.68, DEFAULT_CHANNEL_LENGTH_M)
    ok = report(9, "clear-water range extrapolation", abs(length - 53.72) <= 0.1, f"{length:.3f} m")
    assert ok


def test_criterion_10_byte_identical_reruns(tmp_path):
    doc = {
        "scenario": "sweep",
        "output_format": "csv",
        "seed": 7,
        "sweep": {"attenuations_per_m": [0.05, 0.11]},
        "session": {"n_pulses": 400_000},
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(doc), encoding="utf-8")
    cfg = load_config(cfg_path)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    run_scenario(cfg, output_path=str(first))
    run_scenario(cfg, output_path=str(second))

    mc_doc = {
        "scenario": "mc-channel",
        "seed": 7,
        "channel": {"absorption": 0.117, "attenuation": 0.683, "length": 2.37},
        "n_photons": 50_000,
    }
    mc_path = tmp_path / "mc.json"
    mc_path.write_text(json.dumps(mc_doc), encoding="utf-8")
    mc_cfg = load_config(mc_path)
    mc_first, mc_second = tmp_path / "m1.json", tmp_path / "m2.json"
    run_scenario(mc_cfg, output_path=str(mc_first))
    run_scenario(mc_cfg, output_path=str(mc_second))

    ok = report(
        10,
        "re-runs are byte-identical",
        first.read_bytes() == second.read_bytes()
        and mc_first.read_bytes() == mc_second.read_bytes(),
    )
    assert ok
