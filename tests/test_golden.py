"""Exact rendered scenario outputs at small sizes, and the keys of one
longer session.

A refactor that keeps these strings byte-identical keeps the random draw
schedule and every printed float.  A change that alters them on purpose
(a new draw schedule, a physics fix) updates them and says why.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aqua_qkd
from aqua_qkd import rngstream
from aqua_qkd.bb84.session import SessionConfig, run_session
from aqua_qkd.experiments import CALIBRATED_SESSION, ExperimentConfig, run_scenario

MC_CHANNEL = ExperimentConfig(
    scenario="mc-channel",
    seed=42,
    parameters={
        "channel": {
            "absorption": 0.117,
            "attenuation": 0.683,
            "length": 2.37,
            "aperture_diameter": 0.0254,
            "fov_half_angle": 0.0872665,
        },
        "beam": {"waist_radius": 0.0025, "divergence_half_angle": 0.001},
        "n_photons": 20_000,
    },
)
MC_CHANNEL_OUT = """\
{
  "launched": 20000,
  "received": 3946,
  "received_unscattered": 3934,
  "received_scattered": 12,
  "ballistic_transmission": 0.1967,
  "scattered_fraction_of_received": 0.00304105
}
"""

# Five transport batches, the last one ragged, on two worker processes.
MC_CHANNEL_POOLED = dataclasses.replace(
    MC_CHANNEL, parameters=dict(MC_CHANNEL.parameters, n_photons=300_000, n_workers=2)
)
MC_CHANNEL_POOLED_OUT = """\
{
  "launched": 300000,
  "received": 59288,
  "received_unscattered": 59058,
  "received_scattered": 230,
  "ballistic_transmission": 0.19686,
  "scattered_fraction_of_received": 0.00387937
}
"""

# The tank at a 45 degree FOV, with the lateral boundary at the default 1 m
# and at 2 cm.  At 2 cm photons cross it, so the lateral test's hypot runs,
# and scattered arrivals are lost.  (At the 5 degree FOV the 2 cm boundary
# changes no count.)
MC_CHANNEL_WIDE_FOV = dataclasses.replace(
    MC_CHANNEL,
    parameters=dict(
        MC_CHANNEL.parameters,
        channel=dict(MC_CHANNEL.parameters["channel"], fov_half_angle=0.785398),
    ),
)
MC_CHANNEL_NARROW = dataclasses.replace(
    MC_CHANNEL_WIDE_FOV,
    parameters=dict(
        MC_CHANNEL_WIDE_FOV.parameters,
        channel=dict(MC_CHANNEL_WIDE_FOV.parameters["channel"], lateral_bound=0.02),
    ),
)
MC_CHANNEL_NARROW_OUT = """\
{
  "launched": 20000,
  "received": 3997,
  "received_unscattered": 3934,
  "received_scattered": 63,
  "ballistic_transmission": 0.1967,
  "scattered_fraction_of_received": 0.0157618
}
"""

BB84_RUN = ExperimentConfig(
    scenario="bb84-run",
    seed=1,
    parameters={"session": {"attenuation": 0.683, "length": 2.37, "n_pulses": 1_000_000}},
)
BB84_RUN_OUT = """\
{
  "qber": 0.0279543,
  "sifted_rate": 787.0,
  "secure_rate": 86.0,
  "detected_pulses": 1598,
  "sifted_bits": 787,
  "wrong_bits": 22,
  "leaked_bits": 236,
  "secret_bits": 86,
  "channel_transmission": 0.198154
}
"""

SWEEP = ExperimentConfig(
    scenario="sweep",
    seed=1,
    output_format="csv",
    parameters={
        "sweep": {"attenuations_per_m": [0.11, 0.68], "length_m": 2.37},
        "session": {"n_pulses": 1_000_000},
    },
)
SWEEP_OUT = """\
attenuation_per_m,absorption_per_m,transmission,qber,sifted_rate_bps,secure_rate_bps,leaked_bits
0.11,0.0188433,0.770512,0.0173855,2991,329,492
0.68,0.116486,0.199568,0.0278834,789,86,239
"""


@pytest.mark.parametrize(
    "cfg, expected",
    [
        (MC_CHANNEL, MC_CHANNEL_OUT),
        (MC_CHANNEL_POOLED, MC_CHANNEL_POOLED_OUT),
        (BB84_RUN, BB84_RUN_OUT),
        (SWEEP, SWEEP_OUT),
    ],
    ids=["mc-channel", "mc-channel-pooled", "bb84-run", "sweep"],
)
def test_rendered_output_is_pinned(cfg, expected):
    assert run_scenario(cfg) == expected


try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

# numpy's x86-64 dispatch targets past AVX2, by the names numpy reports.
# With them turned off, float64 ``np.log`` gives different bytes here.
AVX512_DISPATCH = ("X86_V4", "AVX512_ICL", "AVX512_SPR")

# Prints the dispatch targets still on, then the rendered scenario.
_RENDER = """\
import json, sys
from aqua_qkd.experiments import ExperimentConfig, run_scenario
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
print(json.dumps([f for f in sys.argv[2:] if __cpu_features__.get(f)]))
sys.stdout.write(run_scenario(ExperimentConfig(**json.loads(sys.argv[1]))))
"""


@pytest.mark.skipif(
    not any(__cpu_features__.get(f) for f in AVX512_DISPATCH),
    reason="no AVX-512 dispatch target is on, so there is none to turn off",
)
@pytest.mark.parametrize("cfg", [MC_CHANNEL, BB84_RUN], ids=["mc-channel", "bb84-run"])
def test_output_is_independent_of_simd_dispatch(cfg):
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(AVX512_DISPATCH))
    package_root = str(Path(aqua_qkd.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    child = subprocess.run(
        [sys.executable, "-c", _RENDER, json.dumps(dataclasses.asdict(cfg)), *AVX512_DISPATCH],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    still_on, output = child.stdout.split("\n", 1)
    assert json.loads(still_on) == []
    assert output == run_scenario(cfg)


def test_mc_channel_draw_budget(monkeypatch):
    """The transport draws each cipher block it needs once, and none for
    photons that have already left: the pinned output alone would not show
    extra draws, since every draw is a pure function of its counter.

    A photon's cost is its cipher lanes (blocks enciphered), each two
    uniforms: two for the source, one (path, absorb) per event in flight and
    one (scatter, azimuth) per scattering.  The absorb half is also drawn for
    photons that exit at that event, and goes unused.
    """
    sizes, lanes = [], []
    real_uniform, real_philox = rngstream.uniform, rngstream.philox4x32

    def counting(seed, stream, counter):
        out = real_uniform(seed, stream, counter)
        sizes.append(out.size)
        return out

    def cipher(*words):
        out = real_philox(*words)
        lanes.append(out[0].size)
        return out

    monkeypatch.setattr(rngstream, "uniform", counting)
    monkeypatch.setattr(rngstream, "philox4x32", cipher)
    assert run_scenario(MC_CHANNEL) == MC_CHANNEL_OUT
    assert sum(lanes) == 105_986
    assert sum(sizes) == 2 * sum(lanes)
    assert min(sizes) > 0


def test_narrow_lateral_bound_is_pinned():
    narrow = run_scenario(MC_CHANNEL_NARROW)
    assert narrow == MC_CHANNEL_NARROW_OUT
    wide = json.loads(run_scenario(MC_CHANNEL_WIDE_FOV))
    assert wide["launched"] == json.loads(narrow)["launched"]
    assert wide["received_scattered"] > json.loads(narrow)["received_scattered"]


# A calibrated session of 4.2M pulses: its keys at every stage and its stats.
LONG_SESSION = SessionConfig(**dict(CALIBRATED_SESSION, n_pulses=4_200_000, seed=1))
LONG_SESSION_SHA256 = "6400166c39054de3746b793a3aa477da42ea1f43c4ba7fa6662c18195b62a7d2"


def test_long_session_is_pinned():
    stats, material = run_session(LONG_SESSION)
    h = hashlib.sha256()
    for key in (material.sifted_alice, material.sifted_bob, material.reconciled, material.secret):
        h.update(np.ascontiguousarray(key).tobytes())
    h.update(json.dumps(stats.to_dict()).encode())
    assert h.hexdigest() == LONG_SESSION_SHA256
