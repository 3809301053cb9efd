import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqua_qkd.polarization import (
    MuellerMatrix,
    WaveplateSpec,
    polarizer_mueller,
    quarter_waveplate,
    rotation_mueller,
    waveplate_mueller,
)

H = np.array([1.0, 1.0, 0.0, 0.0])

angles = st.floats(0.0, math.pi - 1e-9, allow_nan=False)
retardances = st.floats(0.0, 2 * math.pi - 1e-9, allow_nan=False)


def stokes_state(s0, direction, dop) -> np.ndarray:
    """State of intensity ``s0`` and degree of polarization ``dop`` along ``direction``.

    The direction may have any length; a zero direction gives unpolarized
    light.  It is first divided by its largest component so that the norm is
    taken over numbers of order 1: for tiny components the squares, or the
    norm itself, fall below the normal float range and lose precision, and the
    "unit" direction can come out long enough to over-polarize the state.
    """
    largest = max(abs(c) for c in direction)
    if largest == 0:
        return np.array([s0, 0.0, 0.0, 0.0])
    scaled = [c / largest for c in direction]
    norm = math.hypot(*scaled)
    s1, s2, s3 = (s0 * dop * c / norm for c in scaled)
    return np.array([s0, s1, s2, s3])


@st.composite
def physical_stokes(draw):
    s0 = draw(st.floats(0.1, 10.0))
    direction = [draw(st.floats(-1.0, 1.0)) for _ in range(3)]
    dop = draw(st.floats(0.0, 1.0))
    return stokes_state(s0, direction, dop)


class TestMuellerMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MuellerMatrix(np.eye(3))

    def test_array_is_read_only(self):
        m = MuellerMatrix.identity()
        with pytest.raises(ValueError):
            m.m[0, 0] = 2.0

    @given(physical_stokes())
    def test_identity_apply_is_exact(self, s):
        out = MuellerMatrix.identity().m @ s
        assert np.array_equal(out, s)

    def test_compose_order(self):
        # outer @ inner: the rightmost factor acts first on the beam.
        pol = polarizer_mueller(0.0)
        rot = rotation_mueller(0.3)
        composed = pol @ rot
        np.testing.assert_allclose(composed.m, pol.m @ rot.m)
        s = np.array([1.0, 0.0, 1.0, 0.0])
        np.testing.assert_allclose(composed.m @ s, pol.m @ (rot.m @ s))


class TestRotation:
    @given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
    def test_rotations_compose_additively(self, a, b):
        lhs = (rotation_mueller(a) @ rotation_mueller(b)).m
        rhs = rotation_mueller(a + b).m
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_zero_rotation_is_identity(self):
        np.testing.assert_allclose(rotation_mueller(0.0).m, np.eye(4))


class TestPolarizer:
    def test_horizontal_matrix(self):
        expected = 0.5 * np.array(
            [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], dtype=float
        )
        np.testing.assert_allclose(polarizer_mueller(0.0).m, expected)

    @given(angles)
    @settings(max_examples=50)
    def test_idempotent(self, phi):
        p = polarizer_mueller(phi)
        np.testing.assert_allclose((p @ p).m, p.m, atol=1e-12)

    def test_malus_law(self):
        for phi in (0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2):
            out = polarizer_mueller(phi).m @ H
            assert out[0] == pytest.approx(math.cos(phi) ** 2, abs=1e-12)

    def test_crossed_polarizers_extinguish(self):
        out = (polarizer_mueller(math.pi / 2) @ polarizer_mueller(0.0)).m @ H
        assert out[0] == pytest.approx(0.0, abs=1e-12)


class TestWaveplate:
    @given(angles, retardances, physical_stokes())
    @settings(max_examples=100)
    def test_energy_preserving(self, theta, delta, s):
        out = waveplate_mueller(WaveplateSpec(theta, delta)).m @ s
        assert out[0] == pytest.approx(s[0], abs=1e-12)

    @given(angles, retardances, physical_stokes())
    @settings(max_examples=100)
    def test_degree_of_polarization_preserved(self, theta, delta, s):
        out = waveplate_mueller(WaveplateSpec(theta, delta)).m @ s
        assert np.linalg.norm(out[1:]) == pytest.approx(np.linalg.norm(s[1:]), abs=1e-12)

    @given(angles, retardances)
    @settings(max_examples=100)
    def test_opposite_retardance_inverts(self, theta, delta):
        fwd = waveplate_mueller(WaveplateSpec(theta, delta))
        back = waveplate_mueller(WaveplateSpec(theta, (2 * math.pi - delta) % (2 * math.pi)))
        np.testing.assert_allclose((back @ fwd).m, np.eye(4), atol=1e-12)

    def test_quarter_waveplate_makes_circular_light(self):
        out = quarter_waveplate(math.pi / 4).m @ H
        np.testing.assert_allclose(out, [1, 0, 0, -1], atol=1e-12)

    def test_fast_axis_eigenstate_unchanged(self):
        out = quarter_waveplate(0.0).m @ H
        np.testing.assert_allclose(out, H, atol=1e-12)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WaveplateSpec(theta=-0.1, delta=0.0)
        with pytest.raises(ValueError):
            WaveplateSpec(theta=0.0, delta=2 * math.pi)
