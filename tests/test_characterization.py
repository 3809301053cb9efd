import math

import numpy as np
import pytest

from aqua_qkd.characterization import (
    CONDITION_LIMIT,
    MEASUREMENT_ANGLES,
    ChannelMuellerEstimate,
    IllConditionedError,
    PolarimetricMeasurement,
    channel_fidelity_report,
    estimate_mueller,
    measurement_grid,
    predict_intensity,
    qber_from_mueller,
    read_measurements_csv,
)
from aqua_qkd.polarization import MuellerMatrix

# Stokes vectors of the four BB84 states, by the names the fidelity report uses.
BB84_STOKES = {
    "H": np.array([1.0, 1.0, 0.0, 0.0]),
    "V": np.array([1.0, -1.0, 0.0, 0.0]),
    "+45": np.array([1.0, 0.0, 1.0, 0.0]),
    "-45": np.array([1.0, 0.0, -1.0, 0.0]),
}


def synth_measurements(m: MuellerMatrix) -> list[PolarimetricMeasurement]:
    return [
        PolarimetricMeasurement(t1, t2, predict_intensity(m, t1, t2))
        for t1, t2 in measurement_grid()
    ]


def depolarizer(d: float) -> MuellerMatrix:
    return MuellerMatrix(np.diag([1.0, d, d, d]))


def jozsa_fidelity(s_a: np.ndarray, s_b: np.ndarray) -> float:
    """Reference: Jozsa fidelity between the qubit states of two Stokes vectors.

    Each vector is normalized to unit intensity and mapped to the Bloch
    vector of rho = (I + bloch . sigma) / 2; for Bloch vectors a, b the
    fidelity is (1 + a.b + sqrt((1 - |a|^2)(1 - |b|^2))) / 2.
    """
    a, b = s_a[1:] / s_a[0], s_b[1:] / s_b[0]
    cross = max(0.0, (1.0 - a @ a) * (1.0 - b @ b))
    return 0.5 * (1.0 + a @ b + math.sqrt(cross))


class TestPredictIntensity:
    def test_identity_reference_values(self):
        ident = MuellerMatrix.identity()
        assert predict_intensity(ident, 0.0, 0.0) == pytest.approx(0.5, abs=1e-12)
        assert predict_intensity(ident, 0.0, math.pi / 4) == pytest.approx(0.25, abs=1e-12)

    def test_non_negative_for_physical_channels(self, random_mueller_factory):
        rng = np.random.default_rng(10)
        for _ in range(20):
            m = random_mueller_factory(rng)
            for t1, t2 in measurement_grid():
                assert predict_intensity(m, t1, t2) >= -1e-12

    def test_linearity_by_superposition(self, random_mueller_factory):
        rng = np.random.default_rng(11)
        m1 = random_mueller_factory(rng)
        m2 = random_mueller_factory(rng)
        both = MuellerMatrix(m1.m + m2.m)
        for t1, t2 in measurement_grid():
            assert predict_intensity(both, t1, t2) == pytest.approx(
                predict_intensity(m1, t1, t2) + predict_intensity(m2, t1, t2), abs=1e-12
            )


class TestEstimateMueller:
    def test_identity_roundtrip(self):
        est = estimate_mueller(synth_measurements(MuellerMatrix.identity()))
        np.testing.assert_allclose(est.matrix.m, np.eye(4), atol=1e-9)
        assert est.residual_norm < 1e-9
        assert est.condition_number < CONDITION_LIMIT

    def test_random_roundtrips(self, random_mueller_factory):
        rng = np.random.default_rng(12)
        for _ in range(20):
            m = random_mueller_factory(rng)
            est = estimate_mueller(synth_measurements(m))
            expected = m.m / m.m[0, 0]
            assert np.max(np.abs(est.matrix.m - expected)) < 1e-9

    def test_normalization(self, random_mueller_factory):
        rng = np.random.default_rng(13)
        m = random_mueller_factory(rng)
        scaled = MuellerMatrix(3.7 * m.m)
        est = estimate_mueller(synth_measurements(scaled))
        assert est.matrix.m[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_wrong_measurement_count(self):
        with pytest.raises(ValueError):
            estimate_mueller(synth_measurements(MuellerMatrix.identity())[:15])

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            PolarimetricMeasurement(0.0, 0.0, -0.1)

    def test_degenerate_angles_are_ill_conditioned(self):
        measurements = [PolarimetricMeasurement(0.0, 0.0, 0.5) for _ in range(16)]
        with pytest.raises(IllConditionedError):
            estimate_mueller(measurements)

    def test_estimate_serializes(self):
        est = estimate_mueller(synth_measurements(MuellerMatrix.identity()))
        d = est.to_dict()
        assert set(d) == {"matrix", "condition_number", "residual_norm"}
        assert isinstance(est, ChannelMuellerEstimate)


class TestQberFromMueller:
    def test_identity_channel_is_error_free(self):
        assert qber_from_mueller(MuellerMatrix.identity()) == 0.0

    def test_scale_invariance(self, random_mueller_factory):
        rng = np.random.default_rng(15)
        m = random_mueller_factory(rng)
        assert qber_from_mueller(MuellerMatrix(5.0 * m.m)) == pytest.approx(
            qber_from_mueller(m), abs=1e-12
        )

    @pytest.mark.parametrize("d", [0.0, 0.5, 0.946, 1.0])
    def test_isotropic_depolarizer_closed_form(self, d):
        assert qber_from_mueller(depolarizer(d)) == pytest.approx((1 - d) / 2, abs=1e-12)

    def test_depolarizer_fidelity_closed_form(self):
        for d in (0.0, 0.5, 0.946, 1.0):
            report = channel_fidelity_report(depolarizer(d))
            for fid in report.per_state.values():
                assert fid == pytest.approx((1 + d) / 2, abs=1e-12)
            assert report.mean == pytest.approx((1 + d) / 2, abs=1e-12)

    def test_fidelity_report_matches_jozsa_reference(self, random_mueller_factory):
        rng = np.random.default_rng(16)
        for _ in range(500):
            m = random_mueller_factory(rng)
            report = channel_fidelity_report(m)
            for name, s_in in BB84_STOKES.items():
                expected = jozsa_fidelity(s_in, m.m @ s_in)
                assert abs(report.per_state[name] - expected) <= 1e-15, (name, m.m)

    def test_fidelity_report_covers_all_states(self):
        report = channel_fidelity_report(MuellerMatrix.identity())
        assert set(report.per_state) == {"H", "V", "+45", "-45"}
        assert report.mean == pytest.approx(1.0, abs=1e-12)


class TestCsvInput:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "measurements.csv"
        lines = ["theta1_rad,theta2_rad,intensity"]
        for t1, t2 in measurement_grid():
            lines.append(f"{t1!r},{t2!r},{predict_intensity(MuellerMatrix.identity(), t1, t2)!r}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        measurements = read_measurements_csv(path)
        assert len(measurements) == 16
        est = estimate_mueller(measurements)
        np.testing.assert_allclose(est.matrix.m, np.eye(4), atol=1e-9)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("theta1_rad,intensity\n0.0,0.5\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_measurements_csv(path)


def test_measurement_grid_covers_all_angle_pairs():
    grid = measurement_grid()
    assert len(grid) == 16
    assert set(grid) == {(a, b) for a in MEASUREMENT_ANGLES for b in MEASUREMENT_ANGLES}
