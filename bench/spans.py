"""In-memory spans around the program's public functions, recorded from outside.

``Tracer.install()`` replaces module attributes and class methods at the
names their callers look up, so a call made anywhere in the package passes
through a wrapper that records one span: name, layer, start, end, parent span,
run id, thread and a few counts taken from the call's arguments or result.
``uninstall()`` puts the originals back.  Nothing under ``src/`` is edited.

A span's self time is its duration minus the part its direct children cover.
Children are found through the per-thread stack of open spans, so spans made
on another thread (Alice's parity server) have no parent but share the run id.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

import workloads  # noqa: F401 - imports the program from the checkout's src/
from aqua_qkd import experiments, rngstream, transport
from aqua_qkd.bb84 import cascade, classical_channel, session

# Span record fields.  A span is a list so the wrapper can fill in its end.
NAME, LAYER, START, END, PARENT, RUN, THREAD, COUNTS = range(8)

_QUERY_TYPES = (classical_channel.MSG_PARITY_REQUEST, classical_channel.MSG_VERIFICATION)


def _transport_counts(args, kwargs, stats):
    return {"photons": stats.launched, "received_scattered": stats.received_scattered}


def _session_counts(args, kwargs, result):
    stats, _ = result
    return {"sessions": 1, "detected": stats.detected_pulses, "sifted_bits": stats.sifted_bits}


def _privacy_counts(args, kwargs, secret):
    return {"calls": 1, "input_bits": len(args[0]), "output_bits": len(secret)}


def _send_counts(args, kwargs, _):
    # send(self, msg_type, payload, disclosed_bits=0); the frame is a 4-byte
    # length, a 1-byte tag and the payload on both transports.
    msg_type, payload = args[1], args[2]
    disclosed = args[3] if len(args) > 3 else kwargs.get("disclosed_bits", 0)
    return {
        "frames": 1,
        "bytes": 5 + len(payload),
        "disclosed_bits": disclosed,
        "queries": int(msg_type in _QUERY_TYPES and len(payload) > 0),
    }


# (owner, attribute, layer, counts).  Each entry is a name some caller looks
# up at call time: transport calls ``rngstream.uniform``, ``uniform`` calls
# ``philox4x32``, experiments calls its own imported ``run_transport`` and
# ``run_session``, and ``run_session`` calls the ``cascade_reconcile`` and
# ``privacy_amplify`` bound in ``bb84.session``.
TARGETS = (
    (rngstream, "uniform", "rngstream", lambda a, k, r: {"uniforms": r.size}),
    (rngstream, "philox4x32", "rngstream", lambda a, k, r: {"words": 4 * r[0].size}),
    (transport, "run_transport", "transport", _transport_counts),
    (experiments, "run_transport", "transport", _transport_counts),
    (experiments, "run_session", "session", _session_counts),
    (experiments, "run_scenario", "experiments", None),
    (session, "cascade_reconcile", "cascade", None),
    (session, "privacy_amplify", "privacy", _privacy_counts),
    (cascade, "reconcile_with_oracle", "cascade", None),
    (classical_channel.ChannelEndpoint, "send", "classical_channel", _send_counts),
    (classical_channel.FramedStreamChannel, "send", "classical_channel", _send_counts),
    (classical_channel.FramedStreamChannel, "recv", "classical_channel", None),
)


class Tracer:
    """Records spans while installed; ``spans`` holds them in completion order."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = 0
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, attr, layer, counts in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, f"{layer}.{attr}", layer, counts))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name, layer, counts):
        local = self._local
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            rec = [name, layer, clock(), 0.0, stack[-1] if stack else None,
                   self.run_id, threading.get_ident(), None]
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                spans.append(rec)
            if counts is not None:
                rec[COUNTS] = counts(args, kwargs, result)
            return result

        return traced

    def dump(self) -> list[dict]:
        """The recorded spans as plain records, parents given by index."""
        recs = self.spans
        index = {id(s): i for i, s in enumerate(recs)}
        return [
            {
                "name": s[NAME],
                "start": s[START],
                "end": s[END],
                "parent": index.get(id(s[PARENT])),
                "run": s[RUN],
                "thread": s[THREAD],
                "counts": s[COUNTS],
            }
            for s in recs
        ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], main_thread: int) -> dict[str, float]:
    """Per-layer figures for the spans of one run (one benchmark operation).

    Layers that did no work in the run report 0.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            child_time[id(s[PARENT])] += s[END] - s[START]

    inclusive = defaultdict(float)  # outermost spans of each layer
    self_time = defaultdict(float)
    outer = defaultdict(int)
    totals = defaultdict(float)
    calls = defaultdict(int)
    recv_wait = 0.0
    for s in spans:
        dur = s[END] - s[START]
        layer = s[LAYER]
        self_time[layer] += dur - child_time[id(s)]
        if s[PARENT] is None or s[PARENT][LAYER] != layer:
            inclusive[layer] += dur
            outer[layer] += 1
        calls[s[NAME]] += 1
        for key, value in (s[COUNTS] or {}).items():
            totals[f"{layer}.{key}"] += value
        if s[NAME] == "classical_channel.recv" and s[THREAD] == main_thread:
            recv_wait += dur

    keys = outer["cascade"]
    return {
        "rngstream.s": inclusive["rngstream"],
        "rngstream.calls": calls["rngstream.uniform"],
        "rngstream.uniforms": totals["rngstream.uniforms"],
        # A uniform double takes two 32-bit words; each cipher call yields four.
        "rngstream.word_yield": _ratio(2 * totals["rngstream.uniforms"], totals["rngstream.words"]),
        "transport.self_s": self_time["transport"],
        "transport.uniforms_per_photon": _ratio(
            totals["rngstream.uniforms"], totals["transport.photons"]
        ),
        "transport.received_scattered": _ratio(
            totals["transport.received_scattered"], outer["transport"]
        ),
        "session.self_s": self_time["session"],
        "session.detected": _ratio(totals["session.detected"], totals["session.sessions"]),
        "session.sifted_bits": _ratio(totals["session.sifted_bits"], totals["session.sessions"]),
        "privacy.s": inclusive["privacy"],
        "privacy.input_bits": _ratio(totals["privacy.input_bits"], totals["privacy.calls"]),
        "privacy.output_bits": _ratio(totals["privacy.output_bits"], totals["privacy.calls"]),
        "privacy.bits_per_s": _ratio(totals["privacy.input_bits"], inclusive["privacy"]),
        "cascade.s": inclusive["cascade"],
        "cascade.frames_per_key": _ratio(totals["classical_channel.frames"], keys),
        "cascade.parity_queries_per_key": _ratio(totals["classical_channel.queries"], keys),
        "cascade.bytes_per_key": _ratio(totals["classical_channel.bytes"], keys),
        "cascade.leaked_bits": _ratio(totals["classical_channel.disclosed_bits"], keys),
        "classical_channel.frames": totals["classical_channel.frames"],
        "classical_channel.bytes": totals["classical_channel.bytes"],
        "classical_channel.recv_wait_s": recv_wait,
        "experiments.self_s": self_time["experiments"],
    }
