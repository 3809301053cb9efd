"""Stokes-vector and Mueller-matrix algebra for the optical train.

Conventions: angles are measured from horizontal, positive counterclockwise
looking toward the source; a physical rotation by phi rotates the (s1, s2)
Stokes components by 2*phi.  The retarder matrix preserves intensity (no
global scalar prefactor), which keeps waveplates lossless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PHYSICALITY_TOL = 1e-9


class PhysicalityError(ValueError):
    """Raised when a Stokes vector or Mueller matrix violates physicality."""


@dataclass(frozen=True)
class StokesVector:
    """Polarization state: intensity s0 and polarization components s1..s3."""

    s0: float
    s1: float
    s2: float
    s3: float

    def as_array(self) -> np.ndarray:
        return np.array([self.s0, self.s1, self.s2, self.s3], dtype=float)

    @staticmethod
    def from_array(a) -> "StokesVector":
        a = np.asarray(a, dtype=float)
        if a.shape != (4,):
            raise ValueError(f"Stokes vector needs 4 components, got shape {a.shape}")
        return StokesVector(float(a[0]), float(a[1]), float(a[2]), float(a[3]))

    @property
    def polarized_magnitude(self) -> float:
        return math.sqrt(self.s1**2 + self.s2**2 + self.s3**2)

    def is_physical(self, tol: float = PHYSICALITY_TOL) -> bool:
        if self.s0 < -tol:
            return False
        scale = max(self.s0, 1.0)
        return self.polarized_magnitude**2 <= self.s0**2 + tol * scale**2

    def require_physical(self, tol: float = PHYSICALITY_TOL) -> None:
        if not self.is_physical(tol):
            raise PhysicalityError(f"non-physical Stokes vector {self}")

    def normalized(self) -> "StokesVector":
        """Scale to unit intensity; requires s0 > 0."""
        if self.s0 <= 0:
            raise PhysicalityError("cannot normalize a Stokes vector with s0 <= 0")
        return StokesVector(1.0, self.s1 / self.s0, self.s2 / self.s0, self.s3 / self.s0)


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

    def apply(self, s: StokesVector) -> StokesVector:
        return StokesVector.from_array(self.m @ s.as_array())


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


def _bloch(s: StokesVector) -> np.ndarray:
    s.require_physical()
    n = s.normalized()
    v = np.array([n.s1, n.s2, n.s3])
    mag = np.linalg.norm(v)
    if mag > 1.0:  # inside tolerance by the physicality check; clip the residue
        v = v / mag
    return v


def state_fidelity(sa: StokesVector, sb: StokesVector) -> float:
    """Jozsa fidelity between the qubit density matrices of two states.

    Each vector is normalized to unit intensity and mapped to
    rho = (I + bloch . sigma) / 2; for Bloch vectors a, b the fidelity is
    (1 + a.b + sqrt((1-|a|^2)(1-|b|^2))) / 2.
    """
    a = _bloch(sa)
    b = _bloch(sb)
    cross = max(0.0, (1.0 - float(a @ a)) * (1.0 - float(b @ b)))
    f = 0.5 * (1.0 + float(a @ b) + math.sqrt(cross))
    return min(1.0, max(0.0, f))
