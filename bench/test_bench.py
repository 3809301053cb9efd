"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_bench.py -q

The tier-1 suite does not collect this file (pytest's testpaths is tests/).
"""

import functools
import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads
from aqua_qkd.bb84 import cascade, session

TINY = {
    "transport-tank": functools.partial(workloads.TransportTank, n_photons=20_000),
    "session-air": functools.partial(workloads.SessionAir, n_pulses=400_000),
    "sweep-shipped": functools.partial(workloads.SweepShipped, n_pulses=1_000_000),
    "reconcile-framed": functools.partial(workloads.ReconcileFramed, n_bits=2_000),
}
SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


def run_main(capsys, name: str, trace: int) -> tuple[dict, str]:
    argv = ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1]), out


def test_spec_names_the_same_workloads_as_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_printed_with_its_unit(tiny, capsys, name, trace):
    result, _ = run_main(capsys, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


@pytest.mark.parametrize("name", list(TINY))
def test_tracing_leaves_outputs_byte_identical(name):
    originals = [getattr(owner, attr) for owner, attr, _, _ in spans.TARGETS]
    wl = TINY[name]()
    wl.setup()
    tracer = spans.Tracer()
    try:
        inputs = wl.inputs(3, 0)
        plain = wl.run(inputs)
        tracer.install()
        try:
            traced = wl.run(inputs)
        finally:
            tracer.uninstall()
    finally:
        wl.close()
    assert plain.output and traced.output == plain.output
    assert not plain.failures and not traced.failures
    assert tracer.spans
    assert [getattr(owner, attr) for owner, attr, _, _ in spans.TARGETS] == originals


def _corrupt_first_bit(key):
    key = key.copy()
    key[0] ^= 1
    return key


def test_corrupted_framed_key_counts_as_failure(tiny, capsys, monkeypatch):
    real = cascade.reconcile_with_oracle
    monkeypatch.setattr(
        cascade, "reconcile_with_oracle", lambda *a, **k: _corrupt_first_bit(real(*a, **k))
    )
    result, out = run_main(capsys, "reconcile-framed", 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert "FAILED op 0: key_mismatch" in out


def test_corrupted_session_key_counts_as_failure(tiny, capsys, monkeypatch):
    real = session.cascade_reconcile

    def corrupt(*args, **kwargs):
        reconciled, leaked = real(*args, **kwargs)
        return _corrupt_first_bit(reconciled), leaked

    monkeypatch.setattr(session, "cascade_reconcile", corrupt)
    result, out = run_main(capsys, "session-air", 0)
    assert not result["correct"] and result["failed"] == 1
    assert "FAILED op 0: keys_disagree" in out


def test_fails_without_the_program(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.ROOT / "bench", tmp_path / "bench")
    argv = [sys.executable, "bench/run.py", "--workload", "session-air", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
