"""The four benchmark workloads: inputs made from a seed, one operation, checks.

Importing this module puts the checkout's ``src/`` first on ``sys.path`` and
imports the program from there, so the benchmark always measures the source
it sits beside, never an installed copy.

Every workload is a closed loop: one operation at a time from one process,
the next started only after the previous one returned.  An operation's
inputs depend only on the benchmark seed and the operation's index.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import socket
import statistics
import sys
import threading
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SRC = ROOT / "src"
if not (_SRC / "aqua_qkd" / "__init__.py").is_file():
    raise SystemExit(f"bench: the program's source is missing ({_SRC / 'aqua_qkd'})")
sys.path.insert(0, str(_SRC))

import numpy as np  # noqa: E402

import aqua_qkd  # noqa: E402
from aqua_qkd import experiments  # noqa: E402
from aqua_qkd.bb84 import cascade  # noqa: E402
from aqua_qkd.bb84.classical_channel import FramedStreamChannel  # noqa: E402

if Path(aqua_qkd.__file__).resolve().parent != (_SRC / "aqua_qkd").resolve():
    raise SystemExit(f"bench: imported aqua_qkd from {aqua_qkd.__file__}, not from {_SRC}")

# A check on a Monte Carlo estimate at z standard errors fails a correct
# program with probability 2*(1 - Phi(z)).  transport-tank makes one such
# check per operation, with a new seed each time: a 20 s run made 10 checks
# at 470k photons/s and 14 at 650k photons/s.  Comparing two commits takes up
# to 26 runs, so at most about 360 checks.  z is set so that all of them
# together falsely fail a correct program 0.27% of the time, as one 3-sigma
# test does: z = 4.48, which still catches a 0.9% bias in transmission.
CHECKS_PER_COMPARISON = 360
CHECK_Z = statistics.NormalDist().inv_cdf(1 - 0.0027 / (2 * CHECKS_PER_COMPARISON))
# Fixed-ratio privacy amplification keeps floor(0.11 n) bits (README, ROADMAP).
EXTRACTION_RATIO = 0.11
QBER_BOUND = 0.11
LEAK_RATIO_BOUND = 1.6
# Bit-flip probability of the binary symmetric channel between the framed keys.
ERROR_RATE = 0.03


def op_seed(seed: int, index: int) -> int:
    """The program seed of operation ``index`` in a run with benchmark ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def binary_entropy(p: float) -> float:
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def _one_operation(failed_checks: list[str]) -> list[str]:
    return [",".join(failed_checks)] if failed_checks else []


@dataclasses.dataclass
class Outcome:
    """What one operation produced.

    ``output`` is the workload's output bytes, compared between traced and
    untraced runs; ``failures`` has one entry per failed operation, naming
    its failed checks; ``observed`` holds per-call figures for the report.
    """

    output: bytes
    failures: list[str]
    observed: dict[str, float]


class Workload:
    name = ""
    item = ""  # the unit of work counted by items_per_s
    rate_name = ""  # what items_per_s is called on this workload
    # Operations (for fail_frac) and work items in one call of ``run``.
    operations = 1
    items = 1

    def setup(self):
        """Everything a user pays before the first timed call: config load."""

    def close(self):
        """Undo set-up: restore patched names, close sockets."""

    def inputs(self, seed: int, index: int):
        raise NotImplementedError

    def run(self, inputs) -> Outcome:
        raise NotImplementedError

    def report(self, items_per_s: float, times: list[float], observed: list[dict]) -> dict:
        """The workload's own end-to-end figures: name -> (value, unit)."""
        return {f"{self.rate_name} (items_per_s)": (items_per_s, f"{self.item}/s")}


@dataclasses.dataclass
class SessionSummary:
    """What the checks need from one session; the key material itself is
    dropped at once so the program's memory use is not extended."""

    stats: object
    keys_agree: bool
    reconciled_bits: int
    secret: bytes


class _Scenario(Workload):
    """A CLI scenario run through ``experiments.run_scenario``.

    ``run_session`` is wrapped at the name experiments looks up so each
    session's key material can be checked.
    """

    def setup(self):
        self.cfg = self._config()
        self._sessions: list[SessionSummary] = []
        self._run_session = experiments.run_session

        def capture(session_cfg):
            stats, material = result = self._run_session(session_cfg)
            self._sessions.append(
                SessionSummary(
                    stats=stats,
                    keys_agree=np.array_equal(material.reconciled, material.sifted_alice),
                    reconciled_bits=len(material.reconciled),
                    secret=material.secret.tobytes(),
                )
            )
            return result

        experiments.run_session = capture

    def close(self):
        experiments.run_session = self._run_session

    def inputs(self, seed, index):
        return dataclasses.replace(self.cfg, seed=op_seed(seed, index))

    def run(self, cfg) -> Outcome:
        self._sessions.clear()
        text = experiments.run_scenario(cfg)
        sessions, self._sessions = self._sessions, []
        output = text.encode("utf-8") + b"".join(s.secret for s in sessions)
        failures, observed = self.check(text, sessions)
        return Outcome(output, failures, observed)

    def _config(self):
        raise NotImplementedError

    def check(self, text, sessions: list[SessionSummary]):
        raise NotImplementedError


def _check_session(summary: SessionSummary) -> list[str]:
    failures = []
    if not summary.keys_agree:
        failures.append("keys_disagree")
    if len(summary.secret) != math.floor(EXTRACTION_RATIO * summary.reconciled_bits):
        failures.append("secret_length")
    if summary.stats.leaked_bits < summary.stats.wrong_bits:
        failures.append("leak_below_wrong_bits")
    return failures


class TransportTank(_Scenario):
    """``aqua-qkd mc-channel`` with the shipped tank config."""

    name = "transport-tank"
    item = "photons"
    rate_name = "photons_per_s"

    def __init__(self, n_photons: int | None = None):
        self.n_photons = n_photons

    def _config(self):
        cfg = experiments.load_config(ROOT / "configs" / "mc_channel.json")
        params = dict(cfg.parameters)
        if self.n_photons is not None:
            params["n_photons"] = self.n_photons
        self.items = int(params["n_photons"])
        return dataclasses.replace(cfg, parameters=params)

    def check(self, text, sessions):
        out = json.loads(text)
        ch = self.cfg.parameters["channel"]
        n = out["launched"]
        failures = []
        expected = math.exp(-ch["attenuation"] * ch["length"])
        sigma = math.sqrt(expected * (1 - expected) / n)
        if abs(out["received_unscattered"] / n - expected) > CHECK_Z * sigma:
            failures.append("ballistic_transmission")
        if out["received"] != out["received_unscattered"] + out["received_scattered"]:
            failures.append("received_sum")
        scattered = out["received_scattered"]
        if not 0.0005 <= scattered / max(out["received"], 1) <= 0.01:
            failures.append("scattered_fraction")
        # Binomial relative standard error of the scattered count.
        p = scattered / n
        rse = math.sqrt((1 - p) / (n * p)) if scattered else math.inf
        return _one_operation(failures), {"scatter_rse": rse}

    def report(self, items_per_s, times, observed):
        out = super().report(items_per_s, times, observed)
        # Projected wall time to a 1% relative standard error on the count.
        projected = [t * (obs["scatter_rse"] / 0.01) ** 2 for t, obs in zip(times, observed) if obs]
        out["scatter_1pct_s"] = (statistics.median(projected) if projected else math.inf, "s")
        return out


class SessionAir(_Scenario):
    """One calibrated BB84 session at unit transmission (the air baseline)."""

    name = "session-air"
    item = "pulses"
    rate_name = "pulses_per_s"

    def __init__(self, n_pulses: int = 16_000_000):
        self.items = n_pulses

    def _config(self):
        session = {"channel_transmission": 1.0, "n_pulses": self.items}
        return experiments.ExperimentConfig(scenario="bb84-run", parameters={"session": session})

    def check(self, text, sessions):
        if len(sessions) != 1:
            return ["session_count"], {}
        return _one_operation(_check_session(sessions[0])), {}


class SweepShipped(_Scenario):
    """``aqua-qkd sweep`` with the shipped config; one operation per point."""

    name = "sweep-shipped"
    item = "pulses"
    rate_name = "pulses_per_s"

    def __init__(self, n_pulses: int | None = None):
        self.n_pulses = n_pulses

    def _config(self):
        cfg = experiments.load_config(ROOT / "configs" / "sweep.json")
        params = dict(cfg.parameters)
        session = dict(params.get("session", {}))
        if self.n_pulses is not None:
            session["n_pulses"] = self.n_pulses
        params["session"] = session
        self.operations = len(params["sweep"]["attenuations_per_m"])
        n_pulses = session.get("n_pulses", experiments.CALIBRATED_SESSION["n_pulses"])
        self.items = self.operations * n_pulses
        return dataclasses.replace(cfg, parameters=params)

    def check(self, text, sessions):
        if len(sessions) != self.operations:
            return ["point_count"] * self.operations, {}
        failures = []
        previous = 0.0
        for summary in sessions:
            point = _check_session(summary)
            qber = summary.stats.qber
            if not qber < QBER_BOUND:
                point.append("qber_bound")
            if qber < previous:
                point.append("qber_decreased")
            previous = qber
            if point:
                failures.append(",".join(point))
        return failures, {}


class ReconcileFramed(Workload):
    """CASCADE over a framed byte stream: Alice answers from her own thread.

    One socketpair carries every key of a run; each key gets fresh channel
    endpoints and a fresh ``serve_parity_queries`` thread, as in
    ``tests/test_cascade.py``, so a run has two threads: Bob's and Alice's.
    """

    name = "reconcile-framed"
    item = "bits"
    rate_name = "reconciled_bits_per_s"

    def __init__(self, n_bits: int = 10_000):
        self.items = n_bits

    def setup(self):
        # Both threads share one CPU.  Across two CPUs every round trip waits
        # for the other CPU to wake, and that wait alone moved the median key
        # time between 46 and 125 ms from one run to the next.
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._affinity)})
        self._open()

    def _open(self):
        self._alice_sock, self._bob_sock = socket.socketpair()

    def _close_sockets(self):
        for sock in (self._alice_sock, self._bob_sock):
            sock.close()

    def close(self):
        self._close_sockets()
        os.sched_setaffinity(0, self._affinity)

    def inputs(self, seed, index):
        rng = np.random.default_rng([seed, index])
        alice = rng.integers(0, 2, self.items, dtype=np.uint8)
        bob = alice ^ (rng.random(self.items) < ERROR_RATE).astype(np.uint8)
        return alice, bob, int(rng.integers(0, 2**63))

    def run(self, inputs) -> Outcome:
        alice, bob, cascade_seed = inputs

        def serve():
            try:
                cascade.serve_parity_queries(alice, FramedStreamChannel(self._alice_sock))
            except Exception:  # noqa: BLE001 - Bob's side fails the key
                traceback.print_exc()
                with contextlib.suppress(OSError):
                    self._alice_sock.shutdown(socket.SHUT_RDWR)  # ends Bob's recv

        server = threading.Thread(target=serve)
        server.start()
        try:
            oracle = cascade.RemoteOracle(FramedStreamChannel(self._bob_sock))
            rng = np.random.default_rng(cascade_seed)
            reconciled = cascade.reconcile_with_oracle(bob, ERROR_RATE, oracle, rng)
            oracle.close()
            server.join()
        except BaseException:
            with contextlib.suppress(OSError):
                self._bob_sock.shutdown(socket.SHUT_RDWR)  # ends Alice's recv
            server.join()
            # Bytes of the broken dialogue may be left in flight.
            self._close_sockets()
            self._open()
            raise

        leak_ratio = oracle.bits_disclosed / (self.items * binary_entropy(ERROR_RATE))
        failures = []
        if not np.array_equal(reconciled, alice):
            failures.append("key_mismatch")
        if leak_ratio > LEAK_RATIO_BOUND:
            failures.append("leak_ratio")
        output = np.asarray(reconciled, dtype=np.uint8).tobytes()
        output += oracle.bits_disclosed.to_bytes(8, "big")
        return Outcome(output, _one_operation(failures), {"leak_ratio": leak_ratio})

    def report(self, items_per_s, times, observed):
        out = super().report(items_per_s, times, observed)
        ms = sorted(1000.0 * t for t in times)
        p90 = statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0]
        out[f"key_latency_p50_ms (n={len(ms)})"] = (statistics.median(ms), "ms")
        out[f"key_latency_p90_ms (n={len(ms)})"] = (p90, "ms")
        ratios = [obs["leak_ratio"] for obs in observed if obs]
        out["leak_ratio (mean)"] = (statistics.fmean(ratios) if ratios else math.inf, "x h2(p)")
        return out


WORKLOADS = {
    cls.name: cls for cls in (TransportTank, SessionAir, SweepShipped, ReconcileFramed)
}
