"""Mueller-matrix algebra for the optical train.

A Stokes vector is a plain ``(4,)`` float array ``[s0, s1, s2, s3]``, and a
Mueller matrix acts on it as ``m.m @ s``.  Conventions: angles are measured
from horizontal, positive counterclockwise looking toward the source; a
physical rotation by phi rotates the (s1, s2) Stokes components by 2*phi.
The retarder matrix preserves intensity (no global scalar prefactor), which
keeps waveplates lossless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PHYSICALITY_TOL = 1e-9


class PhysicalityError(ValueError):
    """Raised when a channel matrix is not physical for the states it carries."""


@dataclass(frozen=True)
class MuellerMatrix:
    """4x4 real matrix acting on Stokes vectors, row-major m[row][col]."""

    m: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.m, dtype=float)
        if a.shape != (4, 4):
            raise ValueError(f"Mueller matrix must be 4x4, got shape {a.shape}")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "m", a)

    @staticmethod
    def identity() -> "MuellerMatrix":
        return MuellerMatrix(np.eye(4))

    def __matmul__(self, other: "MuellerMatrix") -> "MuellerMatrix":
        return MuellerMatrix(self.m @ other.m)


@dataclass(frozen=True)
class WaveplateSpec:
    """Retarder: fast-axis angle theta and retardance delta, both radians."""

    theta: float
    delta: float

    def __post_init__(self):
        if not 0.0 <= self.theta < math.pi:
            raise ValueError(f"theta must lie in [0, pi), got {self.theta}")
        if not 0.0 <= self.delta < 2 * math.pi:
            raise ValueError(f"delta must lie in [0, 2*pi), got {self.delta}")


def rotation_mueller(phi: float) -> MuellerMatrix:
    """Stokes frame rotation by angle phi in the (s1, s2) plane."""
    c, s = math.cos(phi), math.sin(phi)
    return MuellerMatrix(
        [
            [1, 0, 0, 0],
            [0, c, s, 0],
            [0, -s, c, 0],
            [0, 0, 0, 1],
        ]
    )


def polarizer_mueller(axis_angle: float = 0.0) -> MuellerMatrix:
    """Ideal linear polarizer with transmission axis at ``axis_angle``."""
    horizontal = MuellerMatrix(
        0.5
        * np.array(
            [
                [1, 1, 0, 0],
                [1, 1, 0, 0],
                [0, 0, 0, 0],
                [0, 0, 0, 0],
            ],
            dtype=float,
        )
    )
    if axis_angle == 0.0:
        return horizontal
    return rotation_mueller(-2 * axis_angle) @ horizontal @ rotation_mueller(2 * axis_angle)


def waveplate_mueller(spec: WaveplateSpec) -> MuellerMatrix:
    """Lossless linear retarder with fast axis ``theta`` and retardance ``delta``."""
    c2 = math.cos(2 * spec.theta)
    s2 = math.sin(2 * spec.theta)
    cd = math.cos(spec.delta)
    sd = math.sin(spec.delta)
    a = c2 * c2 + cd * s2 * s2
    b = c2 * s2 * (1 - cd)
    c = cd * c2 * c2 + s2 * s2
    d = s2 * sd
    e = c2 * sd
    return MuellerMatrix(
        [
            [1, 0, 0, 0],
            [0, a, b, d],
            [0, b, c, -e],
            [0, -d, e, cd],
        ]
    )


def quarter_waveplate(theta: float) -> MuellerMatrix:
    return waveplate_mueller(WaveplateSpec(theta=theta, delta=math.pi / 2))
