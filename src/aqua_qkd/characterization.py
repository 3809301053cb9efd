"""Mueller-matrix estimation of the water channel from 16 intensity readings.

The measurement train is P2 . QWP(theta2) . channel . QWP(theta1) . P1 with
both polarizers horizontal and an unpolarized unit-intensity source entering
P1.  The recorded intensity is linear in the 16 channel-matrix elements, so
the full {0, pi/8, pi/4, 3pi/8}^2 angle grid yields a well-conditioned 16x16
linear system solved by least squares.

The module also owns the four BB84 states and :func:`arm0_probabilities`,
their Malus projection through a channel onto Bob's two analyzer arms: the
one place where a channel meets them.  The session's detection,
:func:`qber_from_mueller` and :func:`channel_fidelity_report` all read it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .polarization import (
    PHYSICALITY_TOL,
    MuellerMatrix,
    PhysicalityError,
    polarizer_mueller,
    quarter_waveplate,
)

MEASUREMENT_ANGLES = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8)
CONDITION_LIMIT = 1e8

BASIS_RECTILINEAR = 0
BASIS_DIAGONAL = 1

# (basis, bit) -> read-only Stokes vector of the prepared BB84 state: H, V,
# +45 and -45.  Bob's arm 0 analyzes bit 0's state of his basis (H or +45),
# arm 1 the orthogonal one.
_STOKES = np.array([[1, 1, 0, 0], [1, -1, 0, 0], [1, 0, 1, 0], [1, 0, -1, 0]], dtype=float)
_STOKES.flags.writeable = False
STATE_MAP = {(basis, bit): _STOKES[2 * basis + bit] for basis in (0, 1) for bit in (0, 1)}
_STATE_NAMES = dict(zip(STATE_MAP, ("H", "V", "+45", "-45")))


class IllConditionedError(ValueError):
    """The measurement angle set does not determine the channel matrix."""


@dataclass(frozen=True)
class PolarimetricMeasurement:
    theta1: float
    theta2: float
    intensity: float

    def __post_init__(self):
        if self.intensity < 0:
            raise ValueError(f"intensity must be non-negative, got {self.intensity}")


@dataclass(frozen=True)
class ChannelMuellerEstimate:
    matrix: MuellerMatrix
    condition_number: float
    residual_norm: float

    def to_dict(self) -> dict:
        return {
            "matrix": self.matrix.m.tolist(),
            "condition_number": self.condition_number,
            "residual_norm": self.residual_norm,
        }


def measurement_grid() -> list[tuple[float, float]]:
    """The full 4x4 (theta1, theta2) grid used by the estimation procedure."""
    return [(t1, t2) for t1 in MEASUREMENT_ANGLES for t2 in MEASUREMENT_ANGLES]


def _analyzer_row(theta2: float) -> np.ndarray:
    # First row of P2 . QWP(theta2).
    return (polarizer_mueller(0.0) @ quarter_waveplate(theta2)).m[0, :]


def _source_column(theta1: float) -> np.ndarray:
    # QWP(theta1) . P1 applied to an unpolarized unit-intensity source.
    s_in = np.array([1.0, 0.0, 0.0, 0.0])
    return (quarter_waveplate(theta1) @ polarizer_mueller(0.0)).m @ s_in


def predict_intensity(m_w: MuellerMatrix, theta1: float, theta2: float) -> float:
    """Detected intensity for one (theta1, theta2) setting of the train."""
    return float(_analyzer_row(theta2) @ m_w.m @ _source_column(theta1))


def _design_row(theta1: float, theta2: float) -> np.ndarray:
    # intensity = sum_ij analyzer[i] * M_w[i, j] * source[j]
    return np.outer(_analyzer_row(theta2), _source_column(theta1)).ravel()


def estimate_mueller(measurements) -> ChannelMuellerEstimate:
    """Least-squares recovery of the channel Mueller matrix.

    ``measurements`` is a sequence of 16 :class:`PolarimetricMeasurement`
    covering the full angle grid.  The result is normalized to m[0][0] = 1.
    """
    measurements = list(measurements)
    if len(measurements) != 16:
        raise ValueError(f"need 16 measurements, got {len(measurements)}")
    design = np.array([_design_row(m.theta1, m.theta2) for m in measurements])
    intensities = np.array([m.intensity for m in measurements])
    cond = float(np.linalg.cond(design))
    if cond > CONDITION_LIMIT:
        raise IllConditionedError(
            "the angle set does not determine the matrix "
            f"(condition number {cond:.3g} exceeds {CONDITION_LIMIT:.0e})"
        )
    # Least squares for the 16 row-major channel elements, normalized to m00 = 1.
    sol, _, _, _ = np.linalg.lstsq(design, intensities, rcond=None)
    residual = float(np.linalg.norm(design @ sol - intensities))
    matrix = sol.reshape(4, 4)
    if matrix[0, 0] == 0:
        raise ValueError("recovered matrix has zero total-intensity element")
    return ChannelMuellerEstimate(
        matrix=MuellerMatrix(matrix / matrix[0, 0]),
        condition_number=cond,
        residual_norm=residual,
    )


def arm0_probabilities(m_w: MuellerMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Malus projection of each BB84 state through the channel onto Bob's arm 0.

    Returns the ``[basis, bit, bob_basis]`` table of arm-0 probabilities
    (arm 1 gets the rest): p0 = (1 + s_k / s0) / 2 of the channel output,
    with k = 1 for the rectilinear analyzer and k = 2 for the diagonal one;
    and the ``[basis, bit]`` table of the output intensities s0 of the
    unit-intensity input states.  Raises :class:`PhysicalityError` if the
    channel extinguishes a state or a probability leaves [0, 1] by more than
    ``PHYSICALITY_TOL``.
    """
    table = np.empty((2, 2, 2))
    s0 = np.empty((2, 2))
    for (basis, bit), state in STATE_MAP.items():
        out = m_w.m @ state
        if out[0] <= 0:
            raise PhysicalityError(
                f"channel extinguishes the {_STATE_NAMES[basis, bit]} signal state"
            )
        s0[basis, bit] = out[0]
        table[basis, bit] = 0.5 * (1.0 + out[1:3] / out[0])
    if not np.all(np.abs(table - 0.5) <= 0.5 + PHYSICALITY_TOL):
        raise PhysicalityError(
            f"channel sends a signal state to a non-physical output "
            f"(arm-0 probabilities {table.ravel()})"
        )
    return table, s0


def _wrong_arm(m_w: MuellerMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Each BB84 state's wrong-arm probability in Bob's matching basis, and
    its output intensity s0, in ``STATE_MAP`` order."""
    p0, s0 = arm0_probabilities(m_w)
    wrong = [p0[b, bit, b] if bit else 1.0 - p0[b, bit, b] for b, bit in STATE_MAP]
    return np.array(wrong), s0.ravel()


def qber_from_mueller(m_w: MuellerMatrix) -> float:
    """Wrong-arm probability in Bob's matching basis, each BB84 state weighted
    by its output intensity s0 as the session's weak-pulse detection weights it."""
    wrong, s0 = _wrong_arm(m_w)
    return float(np.average(wrong, weights=s0))


@dataclass(frozen=True)
class FidelityReport:
    per_state: dict
    mean: float


def channel_fidelity_report(m_w: MuellerMatrix) -> FidelityReport:
    """Fidelity between each BB84 input state and its (normalized) output: for
    a pure input, the Jozsa fidelity (1 + a.b) / 2 of Bloch vectors a and b is
    the output's right-arm probability in Bob's matching basis."""
    wrong, _ = _wrong_arm(m_w)
    per_state = {name: float(1.0 - w) for name, w in zip(_STATE_NAMES.values(), wrong)}
    return FidelityReport(per_state=per_state, mean=float(np.mean(list(per_state.values()))))


def read_measurements_csv(path) -> list[PolarimetricMeasurement]:
    """Load measurements from CSV with columns theta1_rad, theta2_rad, intensity."""
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"theta1_rad", "theta2_rad", "intensity"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(f"CSV must have columns {sorted(required)}")
        for row in reader:
            out.append(
                PolarimetricMeasurement(
                    theta1=float(row["theta1_rad"]),
                    theta2=float(row["theta2_rad"]),
                    intensity=float(row["intensity"]),
                )
            )
    return out
