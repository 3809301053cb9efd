"""The benchmark's span tracer (``bench/spans.py``) wraps program functions at
the names their callers look up.  A refactor that renames or rebinds one of
them must fail here, not in every benchmark run."""

import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

from aqua_qkd import experiments

ROOT = Path(__file__).resolve().parent.parent


def _import_from_bench(name: str):
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(ROOT / "bench"))


@pytest.fixture(scope="module")
def spans():
    return _import_from_bench("spans")


@pytest.fixture(scope="module")
def workloads():
    return _import_from_bench("workloads")


def test_tracer_installs_and_uninstalls_every_target(spans):
    targets = [(owner, attr) for owner, attr, _, _ in spans.TARGETS]
    originals = [getattr(owner, attr) for owner, attr in targets]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(getattr(o, a) is not f for (o, a), f in zip(targets, originals))
    finally:
        tracer.uninstall()
    assert all(getattr(o, a) is f for (o, a), f in zip(targets, originals))


def test_traced_scenarios_pass_through_the_wrapped_names(spans):
    # A session and a transport run reach every layer but the framed
    # reconciliation, which only the reconcile-framed workload runs.
    mc = experiments.load_config(ROOT / "configs" / "mc_channel.json")
    mc = dataclasses.replace(mc, parameters=dict(mc.parameters, n_photons=2_000))
    bb84 = experiments.ExperimentConfig(
        scenario="bb84-run", seed=1, parameters={"session": {"n_pulses": 400_000}}
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        for cfg in (mc, bb84):
            experiments.run_scenario(cfg)
    finally:
        tracer.uninstall()
    names = {s[spans.NAME] for s in tracer.spans}
    assert names >= {
        "experiments.run_scenario",
        "transport.run_transport",
        "rngstream.uniform",
        "rngstream.philox4x32",
        "session.run_session",
        "cascade.cascade_reconcile",
        "privacy.privacy_amplify",
        "classical_channel.send",
    }


def test_traced_framed_reconciliation_passes_through_the_wrapped_names(spans, workloads):
    # One key of the reconcile-framed workload: Bob's RemoteOracle and
    # Alice's serve_parity_queries, each over a FramedStreamChannel.
    wl = workloads.ReconcileFramed(n_bits=2_000)
    wl.setup()
    tracer = spans.Tracer()
    try:
        inputs = wl.inputs(3, 0)
        tracer.install()
        try:
            outcome = wl.run(inputs)
        finally:
            tracer.uninstall()
    finally:
        wl.close()
    assert outcome.failures == []
    names = {s[spans.NAME] for s in tracer.spans}
    assert names >= {
        "cascade.reconcile_with_oracle",
        "classical_channel.send",
        "classical_channel.recv",
    }
