"""Configuration-driven experiment scenarios and their file outputs.

A scenario is described by a single JSON document; the same document plus the
same seed always produces byte-identical output files.  Floats are printed
with 6 significant digits, UTF-8, LF line endings.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .bb84 import SessionConfig, run_session
from .characterization import (
    PolarimetricMeasurement,
    estimate_mueller,
    read_measurements_csv,
)
from .polarization import MuellerMatrix
from .transport import BeamParams, ChannelParams, TTHGParams, run_transport

# The sweep's columns in output order, as (JSON key, CSV name).
SWEEP_COLUMNS = (
    ("attenuation", "attenuation_per_m"),
    ("absorption", "absorption_per_m"),
    ("transmission", "transmission"),
    ("qber", "qber"),
    ("sifted_rate", "sifted_rate_bps"),
    ("secure_rate", "secure_rate_bps"),
    ("leaked_bits", "leaked_bits"),
)
SWEEP_CSV_HEADER = ",".join(name for _, name in SWEEP_COLUMNS)

# Receiver/noise parameters tuned once against the in-air reference run
# (QBER 1.58%, secure rate 422.96 bits/s at unit transmission).
CALIBRATED_SESSION = {
    "pulse_rate": 1e6,
    "mean_photon_number": 0.1,
    "detector_efficiency": 0.077,
    "dark_count_prob": 1.5e-5,
    "background_prob": 2.6e-5,
    "intrinsic_error": 0.0107,
    "extraction_ratio": 0.11,
    "n_pulses": 1_000_000,
}

# Tank-experiment water: absorption/attenuation ratio held fixed in sweeps.
DEFAULT_ABSORPTION_FRACTION = 0.117 / 0.683
DEFAULT_CHANNEL_LENGTH_M = 2.37


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@contextmanager
def _reading(what: str):
    """Report a KeyError, OSError, TypeError or ValueError raised while
    building a scenario's inputs from ``what`` as a :class:`ConfigError`."""
    try:
        yield
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"invalid {what}: missing {exc}") from exc
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    parameters: dict = field(default_factory=dict)
    output_path: str | None = None
    output_format: str = "json"
    seed: int = 0

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}")
        if self.output_format not in ("csv", "json"):
            raise ConfigError(f"output_format must be 'csv' or 'json', got {self.output_format!r}")
        if self.output_format == "csv" and self.scenario != "sweep":
            raise ConfigError(f"scenario {self.scenario!r} only supports JSON output")
        with _reading("config"):
            object.__setattr__(self, "seed", _whole(self.seed, "seed", 0, 2**64))


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    doc = dict(doc)
    scenario = doc.pop("scenario", None)
    if scenario is None:
        raise ConfigError("config is missing the 'scenario' key")
    cfg = {
        "scenario": scenario,
        "output_path": doc.pop("output_path", None),
        "output_format": doc.pop("output_format", "json"),
        "seed": doc.pop("seed", 0),
        "parameters": doc,
    }
    for key, value in (overrides or {}).items():
        if value is not None:
            cfg[key] = value
    return ExperimentConfig(**cfg)


def jerlov_extrapolate(
    target_attenuation: float, reference_attenuation: float, reference_length: float
) -> float:
    """Channel length with the same optical depth at a different attenuation."""
    if target_attenuation <= 0:
        raise ValueError(f"target attenuation must be positive, got {target_attenuation}")
    return reference_attenuation * reference_length / target_attenuation


def _fmt(x) -> str:
    return f"{x:.6g}"


def _round_floats(obj):
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _whole(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` as an int; it must be a whole number in [low, high)."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int or value < low or (high is not None and value >= high):
        bound = f">= {low}" if high is None else f"in [{low}, {high})"
        raise ValueError(f"{name} must be a whole number {bound}, got {value!r}")
    return value


# A scenario's function takes the seed and the config's keys as keyword
# arguments, as do the helpers of nested blocks, so an unknown key raises
# TypeError.  It checks every input and returns the run as a function of no
# arguments, which ``run_scenario`` calls outside ``_reading``.


def _session_config(
    seed, /, *, attenuation=None, length=None, channel_mueller=None, **params
) -> SessionConfig:
    """A ``session`` block over ``CALIBRATED_SESSION``.  The channel is
    ``channel_transmission`` (default 1), or ``attenuation`` per metre over
    ``length`` metres (default the tank's)."""
    if attenuation is not None and "channel_transmission" not in params:
        length = DEFAULT_CHANNEL_LENGTH_M if length is None else length
        params["channel_transmission"] = math.exp(-attenuation * length)
    elif attenuation is not None or length is not None:
        raise ConfigError("session: channel_transmission or attenuation (with length), not both")
    params = dict(CALIBRATED_SESSION, **params)
    params["n_pulses"] = _whole(params["n_pulses"], "n_pulses", 1)
    if channel_mueller is not None:
        params["channel_mueller"] = MuellerMatrix(np.asarray(channel_mueller, dtype=float))
    return SessionConfig(seed=seed, **params)


def _channel(*, phase_fn={}, **params) -> ChannelParams:
    return ChannelParams(phase_fn=TTHGParams(**phase_fn), **params)


def _run_mc_channel(seed, /, *, channel, beam={}, n_photons=1_000_000, n_workers=1):
    channel = _channel(**channel)
    beam = BeamParams(**beam)
    n_photons = _whole(n_photons, "n_photons", 1)
    n_workers = _whole(n_workers, "n_workers", 1)
    return lambda: run_transport(
        channel, beam, n_photons=n_photons, seed=seed, n_workers=n_workers
    ).to_dict()


def _measurement(*, theta1_rad, theta2_rad, intensity) -> PolarimetricMeasurement:
    return PolarimetricMeasurement(theta1=theta1_rad, theta2=theta2_rad, intensity=intensity)


def _run_mueller_estimate(seed, /, *, measurements=None, measurements_csv=None):
    if (measurements is None) == (measurements_csv is None):
        raise ConfigError("mueller-estimate requires either 'measurements_csv' or 'measurements'")
    if measurements_csv is not None:
        measurements = read_measurements_csv(measurements_csv)
    else:
        measurements = [_measurement(**m) for m in measurements]
    return lambda: estimate_mueller(measurements).to_dict()


def _run_bb84(seed, /, *, session={}):
    session = _session_config(seed, **session)

    def run():
        stats, material = run_session(session)
        out = stats.to_dict()
        out["secret_bits"] = int(len(material.secret))
        out["channel_transmission"] = session.channel_transmission
        return out

    return run


def _sweep_points(
    *,
    attenuations_per_m,
    absorption_fraction=DEFAULT_ABSORPTION_FRACTION,
    length_m=DEFAULT_CHANNEL_LENGTH_M,
):
    """A ``sweep`` block's (attenuation, absorption, transmission) per point."""
    for value in (*attenuations_per_m, absorption_fraction, length_m):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"sweep values must be numbers, got {value!r}")
    if not attenuations_per_m:
        raise ConfigError("sweep scenario requires sweep.attenuations_per_m")
    if any(b <= a for a, b in zip(attenuations_per_m, attenuations_per_m[1:])):
        raise ConfigError("sweep attenuations must be strictly increasing")
    return [(a, a * absorption_fraction, math.exp(-a * length_m)) for a in attenuations_per_m]


def _run_sweep(seed, /, *, sweep, session={}):
    """One row per attenuation, keyed by the JSON keys of ``SWEEP_COLUMNS``."""
    points = _sweep_points(**sweep)
    channel = sorted({"channel_transmission", "attenuation", "length"}.intersection(session))
    if channel:
        raise ConfigError(f"a sweep's session may not set the channel, got {', '.join(channel)}")
    # The same seed at every point: common random numbers keep the
    # trend in T free of independent sampling noise.
    base = _session_config(seed, **session)
    sessions = [replace(base, channel_transmission=t) for _, _, t in points]

    def run():
        rows = []
        for point, session in zip(points, sessions):
            stats, _ = run_session(session)
            values = (*point, stats.qber, stats.sifted_rate, stats.secure_rate, stats.leaked_bits)
            rows.append(dict(zip((key for key, _ in SWEEP_COLUMNS), values)))
        return rows

    return run


def _run_jerlov(seed, /, *, target_attenuation, reference_attenuation, reference_length):
    payload = {
        "target_attenuation_per_m": target_attenuation,
        "reference_attenuation_per_m": reference_attenuation,
        "reference_length_m": reference_length,
        "equivalent_length_m": jerlov_extrapolate(
            target_attenuation, reference_attenuation, reference_length
        ),
    }
    return lambda: payload


_RUNNERS = {
    "mueller-estimate": _run_mueller_estimate,
    "mc-channel": _run_mc_channel,
    "bb84-run": _run_bb84,
    "sweep": _run_sweep,
    "jerlov-extrapolate": _run_jerlov,
}
SCENARIOS = tuple(_RUNNERS)


def _render_json(payload) -> str:
    return json.dumps(_round_floats(payload), indent=2) + "\n"


def _render_sweep_csv(rows: list[dict]) -> str:
    lines = [SWEEP_CSV_HEADER]
    for row in rows:
        cells = ((str if key == "leaked_bits" else _fmt)(row[key]) for key, _ in SWEEP_COLUMNS)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def run_scenario(cfg: ExperimentConfig, output_path=None) -> str:
    """Execute the configured scenario; returns the rendered output text.

    Writes the text to ``output_path`` (or cfg.output_path) when given.
    """
    with _reading(f"{cfg.scenario} parameters"):
        run = _RUNNERS[cfg.scenario](cfg.seed, **cfg.parameters)
    payload = run()

    render = _render_sweep_csv if cfg.output_format == "csv" else _render_json
    text = render(payload)

    target = output_path or cfg.output_path
    if target is not None:
        Path(target).write_bytes(text.encode("utf-8"))
    return text
