"""Configuration-driven experiment scenarios and their file outputs.

A scenario is described by a single JSON document; the same document plus the
same seed always produces byte-identical output files.  Floats are printed
with 6 significant digits, UTF-8, LF line endings.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
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
    """Report a KeyError, TypeError or ValueError raised while building a
    scenario's inputs from ``what`` as a :class:`ConfigError`."""
    try:
        yield
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"invalid {what}: missing {exc}") from exc
    except (TypeError, ValueError) as exc:
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


def _session_config(params: dict, seed: int, transmission: float | None = None) -> SessionConfig:
    with _reading("session parameters"):
        merged = dict(CALIBRATED_SESSION)
        merged.update(params)
        merged["n_pulses"] = _whole_count(merged, "n_pulses", CALIBRATED_SESSION["n_pulses"])
        mueller = merged.pop("channel_mueller", None)
        if transmission is None:
            if "channel_transmission" in merged:
                transmission = merged.pop("channel_transmission")
            elif "attenuation" in merged:
                length = merged.pop("length", DEFAULT_CHANNEL_LENGTH_M)
                transmission = math.exp(-merged.pop("attenuation") * length)
            else:
                transmission = 1.0
        else:
            merged.pop("channel_transmission", None)
            merged.pop("attenuation", None)
            merged.pop("length", None)
        return SessionConfig(
            channel_transmission=transmission,
            channel_mueller=(
                MuellerMatrix(np.asarray(mueller, dtype=float))
                if mueller is not None
                else MuellerMatrix.identity()
            ),
            seed=seed,
            **merged,
        )


def _whole(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` as an int; it must be a whole number in [low, high)."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int or value < low or (high is not None and value >= high):
        bound = f">= {low}" if high is None else f"in [{low}, {high})"
        raise ValueError(f"{name} must be a whole number {bound}, got {value!r}")
    return value


def _whole_count(params: dict, key: str, default: int) -> int:
    """``params[key]`` (or ``default``) as an int; it must be a whole number >= 1."""
    return _whole(params.get(key, default), key, 1)


def _run_mc_channel(cfg: ExperimentConfig) -> dict:
    p = cfg.parameters
    with _reading("mc-channel parameters"):
        ch = dict(p["channel"])
        phase_fn = TTHGParams(**ch.pop("phase_fn", {}))
        channel = ChannelParams(phase_fn=phase_fn, **ch)
        beam = BeamParams(**p.get("beam", {}))
        n_photons = _whole_count(p, "n_photons", 1_000_000)
        n_workers = _whole_count(p, "n_workers", 1)
    stats = run_transport(channel, beam, n_photons=n_photons, seed=cfg.seed, n_workers=n_workers)
    return stats.to_dict()


def _run_mueller_estimate(cfg: ExperimentConfig) -> dict:
    p = cfg.parameters
    with _reading("mueller-estimate parameters"):
        if "measurements_csv" in p:
            measurements = read_measurements_csv(p["measurements_csv"])
        elif "measurements" in p:
            measurements = [
                PolarimetricMeasurement(
                    theta1=m["theta1_rad"], theta2=m["theta2_rad"], intensity=m["intensity"]
                )
                for m in p["measurements"]
            ]
        else:
            raise ConfigError("mueller-estimate requires 'measurements_csv' or 'measurements'")
    return estimate_mueller(measurements).to_dict()


def _run_bb84(cfg: ExperimentConfig) -> dict:
    session = _session_config(dict(cfg.parameters.get("session", {})), cfg.seed)
    stats, material = run_session(session)
    out = stats.to_dict()
    out["secret_bits"] = int(len(material.secret))
    out["channel_transmission"] = session.channel_transmission
    return out


def _run_sweep(cfg: ExperimentConfig) -> list[dict]:
    """One row per attenuation, keyed by the JSON keys of ``SWEEP_COLUMNS``."""
    p = cfg.parameters
    with _reading("sweep parameters"):
        sweep = p.get("sweep", {})
        attenuations = sweep.get("attenuations_per_m")
        if not attenuations:
            raise ConfigError("sweep scenario requires sweep.attenuations_per_m")
        if any(b <= a for a, b in zip(attenuations, attenuations[1:])):
            raise ConfigError("sweep attenuations must be strictly increasing")
        fraction = sweep.get("absorption_fraction", DEFAULT_ABSORPTION_FRACTION)
        length = sweep.get("length_m", DEFAULT_CHANNEL_LENGTH_M)
        session_params = dict(p.get("session", {}))

    rows = []
    for attenuation in attenuations:
        transmission = math.exp(-attenuation * length)
        # The same seed at every point: common random numbers keep the
        # trend in T free of independent sampling noise.
        session = _session_config(dict(session_params), cfg.seed, transmission=transmission)
        stats, _ = run_session(session)
        values = (
            attenuation,
            attenuation * fraction,
            transmission,
            stats.qber,
            stats.sifted_rate,
            stats.secure_rate,
            stats.leaked_bits,
        )
        rows.append(dict(zip((key for key, _ in SWEEP_COLUMNS), values)))
    return rows


def _run_jerlov(cfg: ExperimentConfig) -> dict:
    p = cfg.parameters
    with _reading("jerlov-extrapolate parameters"):
        target = p["target_attenuation"]
        reference = p["reference_attenuation"]
        ref_length = p["reference_length"]
        equivalent = jerlov_extrapolate(target, reference, ref_length)
    return {
        "target_attenuation_per_m": target,
        "reference_attenuation_per_m": reference,
        "reference_length_m": ref_length,
        "equivalent_length_m": equivalent,
    }


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
    payload = _RUNNERS[cfg.scenario](cfg)

    render = _render_sweep_csv if cfg.output_format == "csv" else _render_json
    text = render(payload)

    target = output_path or cfg.output_path
    if target is not None:
        Path(target).write_bytes(text.encode("utf-8"))
    return text
