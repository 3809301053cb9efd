import math
import socket
import struct
import threading

import numpy as np
import pytest

from aqua_qkd.bb84.cascade import (
    ProtocolError,
    _InlineAlice,
    RemoteOracle,
    cascade_reconcile,
    reconcile_with_oracle,
    serve_parity_queries,
)
from aqua_qkd.bb84.classical_channel import (
    MSG_PARITY_REQUEST,
    MSG_PARITY_RESPONSE,
    MSG_PERMUTATION_SEED,
    MSG_VERIFICATION,
    FramedStreamChannel,
    InProcessChannelPair,
)


def binary_entropy(p: float) -> float:
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def bsc_pair(rng, n: int, p: float):
    alice = rng.integers(0, 2, n, dtype=np.uint8)
    bob = alice ^ (rng.random(n) < p).astype(np.uint8)
    return alice, bob


class RecordingChannel(FramedStreamChannel):
    """Keeps every frame it sends."""

    def __init__(self, sock):
        super().__init__(sock)
        self.sent = []

    def send(self, msg_type, payload, disclosed_bits=0):
        self.sent.append((msg_type, bytes(payload)))
        super().send(msg_type, payload, disclosed_bits)


def carried_parity_bits(requests, responses) -> int:
    """Parity bits the responses carry: one per record or subset of the request each answers."""
    asked = [(t, p) for t, p in requests if t in (MSG_PARITY_REQUEST, MSG_VERIFICATION) and p]
    answers = [p for t, p in responses]
    assert all(t == MSG_PARITY_RESPONSE for t, _ in responses)
    assert len(asked) == len(answers)
    total = 0
    for (msg_type, request), answer in zip(asked, answers):
        if msg_type == MSG_PARITY_REQUEST:
            nbits = len(request) // 12  # (sequence, start, end), three >u4 each
        else:
            nbits = struct.unpack(">QI", request)[1]  # seed, subset count
        assert len(answer) == -(-nbits // 8)
        total += nbits
    return total


class CountingChannelPair(InProcessChannelPair):
    """Counts the frames either side sends."""

    def __init__(self):
        super().__init__()
        self.frames = 0
        for end in (self.alice, self.bob):
            end.send = self._counted(end.send)

    def _counted(self, send):
        def counted(*args, **kwargs):
            self.frames += 1
            return send(*args, **kwargs)

        return counted


class TestCascadeReconcile:
    def test_identical_keys_stay_identical(self):
        rng = np.random.default_rng(0)
        alice = rng.integers(0, 2, 1024, dtype=np.uint8)
        reconciled, leaked = cascade_reconcile(alice, alice.copy(), 0.03, None, rng)
        assert np.array_equal(reconciled, alice)
        assert leaked > 0  # parities are disclosed even when nothing is wrong

    def test_single_error_is_corrected(self):
        rng = np.random.default_rng(1)
        alice = rng.integers(0, 2, 1024, dtype=np.uint8)
        bob = alice.copy()
        bob[517] ^= 1
        reconciled, _ = cascade_reconcile(alice, bob, 0.01, None, rng)
        assert np.array_equal(reconciled, alice)

    def test_bsc_trials_converge(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            alice, bob = bsc_pair(rng, 4096, 0.03)
            reconciled, _ = cascade_reconcile(alice, bob, 0.03, None, rng)
            assert np.array_equal(reconciled, alice)

    def test_leak_is_near_shannon_limit(self):
        rng = np.random.default_rng(3)
        n = 10_000
        fractions = []
        for _ in range(5):
            alice, bob = bsc_pair(rng, n, 0.03)
            reconciled, leaked = cascade_reconcile(alice, bob, 0.03, None, rng)
            assert np.array_equal(reconciled, alice)
            fractions.append(leaked / n)
        h2 = binary_entropy(0.03)
        assert h2 <= np.mean(fractions) <= 1.6 * h2

    def test_alice_key_is_never_modified(self):
        rng = np.random.default_rng(4)
        alice, bob = bsc_pair(rng, 2048, 0.05)
        snapshot = alice.copy()
        cascade_reconcile(alice, bob, 0.05, None, rng)
        assert np.array_equal(alice, snapshot)

    def test_leak_matches_channel_accounting(self):
        rng = np.random.default_rng(5)
        alice, bob = bsc_pair(rng, 2048, 0.03)
        chan = InProcessChannelPair()
        _, leaked = cascade_reconcile(alice, bob, 0.03, chan, rng)
        assert leaked == chan.bits_disclosed

    def test_frame_budget(self):
        # One frame per binary-search level, not one per parity: a 10k-bit key
        # at 3% errors once took about 4,600 frames.
        rng = np.random.default_rng(13)
        alice, bob = bsc_pair(rng, 10_000, 0.03)
        chan = CountingChannelPair()
        reconciled, _ = cascade_reconcile(alice, bob, 0.03, chan, rng)
        assert np.array_equal(reconciled, alice)
        assert chan.frames <= 128

    def test_length_mismatch(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ProtocolError):
            cascade_reconcile(np.zeros(100, dtype=np.uint8), np.zeros(99, dtype=np.uint8), 0.03, None, rng)

    def test_key_too_short(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ProtocolError):
            cascade_reconcile(np.zeros(8, dtype=np.uint8), np.zeros(8, dtype=np.uint8), 0.03, None, rng)

    @pytest.mark.parametrize("qber", [0.0, 0.5, 1.0])
    def test_invalid_qber_estimate(self, qber):
        rng = np.random.default_rng(8)
        key = np.zeros(1024, dtype=np.uint8)
        with pytest.raises(ProtocolError):
            cascade_reconcile(key, key.copy(), qber, None, rng)


class TestRemoteOracle:
    def test_reconcile_over_byte_stream(self):
        rng = np.random.default_rng(9)
        alice, bob = bsc_pair(rng, 2048, 0.03)

        alice_sock, bob_sock = socket.socketpair()
        alice_chan = FramedStreamChannel(alice_sock)
        bob_chan = FramedStreamChannel(bob_sock)
        server = threading.Thread(target=serve_parity_queries, args=(alice, alice_chan))
        server.start()
        try:
            oracle = RemoteOracle(bob_chan)
            reconciled = reconcile_with_oracle(bob, 0.03, oracle, np.random.default_rng(10))
            oracle.close()
        finally:
            server.join(timeout=30)
            alice_sock.close()
            bob_sock.close()
        assert not server.is_alive()
        assert np.array_equal(reconciled, alice)
        assert oracle.bits_disclosed > 0

    @pytest.mark.parametrize(
        "n, p",
        [(1024, 0.03), (4096, 0.01), (10_000, 0.05)],
        ids=["1024-0.03", "4096-0.01", "10000-0.05"],
    )
    def test_remote_leak_matches_in_process(self, n, p):
        # The same dialogue must be charged identically on both transports, and
        # each charged bit must be a parity some response carries.
        make_keys = lambda: bsc_pair(np.random.default_rng(11), n, p)

        alice, bob = make_keys()
        chan = InProcessChannelPair()
        _, leaked_local = cascade_reconcile(alice, bob, p, chan, np.random.default_rng(12))

        alice, bob = make_keys()
        alice_sock, bob_sock = socket.socketpair()
        alice_chan = RecordingChannel(alice_sock)
        bob_chan = RecordingChannel(bob_sock)
        server = threading.Thread(target=serve_parity_queries, args=(alice, alice_chan))
        server.start()
        try:
            oracle = RemoteOracle(bob_chan)
            reconcile_with_oracle(bob, p, oracle, np.random.default_rng(12))
            oracle.close()
        finally:
            server.join(timeout=30)
            alice_sock.close()
            bob_sock.close()
        carried = carried_parity_bits(bob_chan.sent, alice_chan.sent)
        assert oracle.bits_disclosed == leaked_local == carried


class LyingVerifier(RemoteOracle):
    """Answers range parities truthfully but every verification parity wrongly."""

    def __init__(self, alice: np.ndarray):
        super().__init__(_InlineAlice(alice, InProcessChannelPair()))

    def verify(self, seed: int, count: int) -> np.ndarray:
        return 1 - super().verify(seed, count)


def records(*rows) -> bytes:
    """A parity-request payload of (sequence, start, end) records."""
    return np.array(rows, dtype=">u4").tobytes()


class TestProtocolErrors:
    def test_verification_cap_raises(self):
        rng = np.random.default_rng(11)
        alice, bob = bsc_pair(rng, 1024, 0.02)
        with pytest.raises(ProtocolError, match="verification .* in 64 checks"):
            reconcile_with_oracle(bob, 0.02, LyingVerifier(alice), rng, verify_parities=8)

    def test_alice_rejects_unexpected_frame(self):
        pair = InProcessChannelPair()
        pair.bob.send(MSG_PARITY_REQUEST, records((0, 0, 2)))
        pair.bob.send(MSG_PARITY_RESPONSE, bytes([1]))
        with pytest.raises(ProtocolError):
            serve_parity_queries(np.zeros(8, dtype=np.uint8), pair.alice)
        # The valid request before the bad frame was answered.
        assert pair.bob.recv() == (MSG_PARITY_RESPONSE, bytes([0]))

    @pytest.mark.parametrize(
        "msg_type, payload",
        [
            (MSG_PARITY_REQUEST, records((0, 0, 2), (1, 0, 2))),
            (MSG_PARITY_REQUEST, records((0, 4, 9))),
            (MSG_PARITY_REQUEST, records((0, 3, 3))),
            (MSG_PARITY_REQUEST, records((0, 5, 2))),
            (MSG_PARITY_REQUEST, records((0, 0, 2))[:-1]),
            (MSG_PARITY_REQUEST, b""),
            (MSG_PERMUTATION_SEED, bytes(7)),
            (MSG_VERIFICATION, struct.pack(">QI", 7, 0)),
            (MSG_VERIFICATION, struct.pack(">QI", 7, 65)),
            (MSG_VERIFICATION, struct.pack(">Q", 7)),
        ],
        ids=[
            "unknown-sequence",
            "range-past-end",
            "empty-range",
            "reversed-range",
            "partial-record",
            "no-records",
            "short-seed",
            "zero-subsets",
            "too-many-subsets",
            "short-verification",
        ],
    )
    def test_alice_rejects_malformed_frame(self, msg_type, payload):
        # Only sequence 0 exists, over an 8-bit key; Alice raises without answering.
        pair = InProcessChannelPair()
        pair.bob.send(msg_type, payload)
        with pytest.raises(ProtocolError):
            serve_parity_queries(np.zeros(8, dtype=np.uint8), pair.alice)
        assert pair.bits_disclosed == 0
        with pytest.raises(RuntimeError, match="no pending message"):
            pair.bob.recv()

    def test_oracle_rejects_non_response_frame(self):
        pair = InProcessChannelPair()
        pair.alice.send(MSG_PERMUTATION_SEED, bytes(8))
        oracle = RemoteOracle(pair.bob)
        with pytest.raises(ProtocolError):
            oracle.parities(np.array([0]), np.array([0]), np.array([4]))
        assert oracle.bits_disclosed == 0
