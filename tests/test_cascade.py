import gc
import hashlib
import math
import socket
import struct
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from aqua_qkd.bb84 import cascade
from aqua_qkd.bb84.cascade import (
    ProtocolError,
    RemoteOracle,
    _Alice,
    _subset,
    _subset_parities,
    _subset_words,
    cascade_reconcile,
    reconcile_with_oracle,
    serve_parity_queries,
)
from aqua_qkd.bb84.classical_channel import (
    MSG_PARITY_REQUEST,
    MSG_PARITY_RESPONSE,
    MSG_PERMUTATION_SEED,
    MSG_VERIFICATION,
    ChannelEndpoint,
    FramedStreamChannel,
)


def binary_entropy(p: float) -> float:
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def bsc_pair(rng, n: int, p: float):
    alice = rng.integers(0, 2, n, dtype=np.uint8)
    bob = alice ^ (rng.random(n) < p).astype(np.uint8)
    return alice, bob


def socketpair():
    """A connected socket pair whose reads fail after 30 s, so a broken dialogue cannot hang."""
    pair = socket.socketpair()
    for sock in pair:
        sock.settimeout(30)
    return pair


class RecordingChannel(FramedStreamChannel):
    """Keeps every frame it sends."""

    def __init__(self, sock):
        super().__init__(sock)
        self.sent = []

    def send(self, msg_type, payload):
        self.sent.append((msg_type, bytes(payload)))
        super().send(msg_type, payload)


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


class CountingEndpoint(ChannelEndpoint):
    """Bob's in-process endpoint to Alice; counts the frames of both directions."""

    def __init__(self, alice_key):
        super().__init__(_Alice(alice_key).answer)
        self.frames = 0

    def send(self, msg_type, payload):
        self.frames += 1
        super().send(msg_type, payload)

    def recv(self):
        self.frames += 1
        return super().recv()


class TranscriptEndpoint(ChannelEndpoint):
    """Bob's in-process endpoint to Alice; hashes the frames of both directions."""

    def __init__(self, alice_key, digest):
        super().__init__(_Alice(alice_key).answer)
        self.digest = digest
        self.requests = []

    def _record(self, msg_type, payload):
        self.digest.update(struct.pack(">BI", msg_type, len(payload)) + bytes(payload))

    def send(self, msg_type, payload):
        self._record(msg_type, payload)
        if msg_type == MSG_PARITY_REQUEST:
            self.requests.append(np.frombuffer(payload, dtype=">u4").reshape(-1, 3))
        super().send(msg_type, payload)

    def recv(self):
        frame = super().recv()
        self._record(*frame)
        return frame


class ScriptedChannel:
    """Alice's endpoint: hands her Bob's ``frames`` in turn and keeps what she sends."""

    def __init__(self, *frames):
        self._frames = list(frames)
        self.sent = []

    def recv(self):
        if not self._frames:
            raise RuntimeError("no pending message on channel")
        return self._frames.pop(0)

    def send(self, msg_type, payload):
        self.sent.append((msg_type, payload))


class TestCascadeReconcile:
    def test_identical_keys_stay_identical(self):
        rng = np.random.default_rng(0)
        alice = rng.integers(0, 2, 1024, dtype=np.uint8)
        reconciled, leaked = cascade_reconcile(alice, alice.copy(), 0.03, rng)
        assert np.array_equal(reconciled, alice)
        assert leaked > 0  # parities are disclosed even when nothing is wrong

    def test_single_error_is_corrected(self):
        rng = np.random.default_rng(1)
        alice = rng.integers(0, 2, 1024, dtype=np.uint8)
        bob = alice.copy()
        bob[517] ^= 1
        reconciled, _ = cascade_reconcile(alice, bob, 0.01, rng)
        assert np.array_equal(reconciled, alice)

    def test_bsc_trials_converge(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            alice, bob = bsc_pair(rng, 4096, 0.03)
            reconciled, _ = cascade_reconcile(alice, bob, 0.03, rng)
            assert np.array_equal(reconciled, alice)

    def test_leak_is_near_shannon_limit(self):
        rng = np.random.default_rng(3)
        n = 10_000
        fractions = []
        for _ in range(5):
            alice, bob = bsc_pair(rng, n, 0.03)
            reconciled, leaked = cascade_reconcile(alice, bob, 0.03, rng)
            assert np.array_equal(reconciled, alice)
            fractions.append(leaked / n)
        h2 = binary_entropy(0.03)
        assert h2 <= np.mean(fractions) <= 1.6 * h2

    def test_alice_key_is_never_modified(self):
        rng = np.random.default_rng(4)
        alice, bob = bsc_pair(rng, 2048, 0.05)
        snapshot = alice.copy()
        cascade_reconcile(alice, bob, 0.05, rng)
        assert np.array_equal(alice, snapshot)

    def test_frame_budget(self):
        # One frame per binary-search level, not one per parity: a 10k-bit key
        # at 3% errors once took about 4,600 frames.
        rng = np.random.default_rng(13)
        alice, bob = bsc_pair(rng, 10_000, 0.03)
        chan = CountingEndpoint(alice)
        reconciled = reconcile_with_oracle(bob, 0.03, RemoteOracle(chan), rng)
        assert np.array_equal(reconciled, alice)
        assert chan.frames <= 128

    def test_transcript_is_pinned(self):
        # One SHA-256 over every frame of both directions, each corrected key,
        # each leak and the generator state after each dialogue: a faster
        # dialogue must still be the same dialogue, bit for bit.
        rng = np.random.default_rng(4)
        cases = [(3_000, 0.027), (12_000, 0.015), (10_000, 0.03), (62_000, 0.016)]
        cases += [(int(rng.integers(16, 601)), float(rng.uniform(0.05, 0.3))) for _ in range(100)]
        digest = hashlib.sha256()
        mixed = subset_ranges = 0
        for n, p in cases:
            alice, bob = bsc_pair(rng, n, p)
            chan = TranscriptEndpoint(alice, digest)
            oracle = RemoteOracle(chan)
            reconciled = reconcile_with_oracle(bob, p, oracle, rng)
            assert np.array_equal(reconciled, alice)
            digest.update(reconciled.tobytes() + struct.pack(">Q", oracle.bits_disclosed))
            digest.update(repr(rng.bit_generator.state).encode())
            # Frames after the top one that search more than one sequence,
            # and ranges over a verification subset (sequence 4 on).
            mixed += any(np.ptp(r[:, 0]) > 0 for r in chan.requests[1:])
            subset_ranges += any(r[:, 0].max() >= 4 for r in chan.requests)
        assert mixed and subset_ranges
        assert digest.hexdigest() == (
            "6721bad35530ffc501ea344313808998f67b46986f190f0d70f61b43a2f64f30"
        )

    def test_no_expansion_outlives_its_dialogue(self):
        # Three permutations of a 62k-bit key are 1.5 MB; none may stay cached.
        alice, bob = bsc_pair(np.random.default_rng(15), 62_000, 0.02)

        def dialogue(seed):
            reconciled, _ = cascade_reconcile(alice, bob, 0.02, np.random.default_rng(seed))
            assert np.array_equal(reconciled, alice)

        assert retained_bytes(dialogue) < 64_000

    def test_length_mismatch(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ProtocolError):
            cascade_reconcile(np.zeros(100, np.uint8), np.zeros(99, np.uint8), 0.03, rng)

    def test_key_too_short(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ProtocolError):
            cascade_reconcile(np.zeros(8, dtype=np.uint8), np.zeros(8, dtype=np.uint8), 0.03, rng)

    @pytest.mark.parametrize("qber", [0.0, 0.5, 1.0])
    def test_invalid_qber_estimate(self, qber):
        rng = np.random.default_rng(8)
        key = np.zeros(1024, dtype=np.uint8)
        with pytest.raises(ProtocolError):
            cascade_reconcile(key, key.copy(), qber, rng)


class TestSubsetParities:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 2**16 - 1, 2**16, 2**16 + 1, 200_000])
    @pytest.mark.parametrize("kind", ["zeros", "ones", "random"])
    def test_matches_the_parity_of_each_subset(self, n, kind):
        # The key lengths straddle the reduction's 2^16-word chunks.
        words = _subset_words(n, n)
        key = {
            "zeros": np.zeros(n, dtype=np.uint8),
            "ones": np.ones(n, dtype=np.uint8),
            "random": np.random.default_rng(n).integers(0, 2, n, dtype=np.uint8),
        }[kind]
        expected = [np.bitwise_xor.reduce(key[_subset(words, j)]) for j in range(64)]
        for count in (1, 64):
            assert _subset_parities(key, words, count).tolist() == expected[:count]


class TestRemoteOracle:
    def test_reconcile_over_byte_stream(self):
        rng = np.random.default_rng(9)
        alice, bob = bsc_pair(rng, 2048, 0.03)

        alice_sock, bob_sock = socketpair()
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

    def test_concurrent_dialogues_in_one_process(self):
        # Four framed dialogues at once on eight threads, two by two with the
        # same keys and seeds, so that they publish and drop the same
        # expansions; a short switch interval interleaves them finely.  Each
        # must still reconcile and be charged as it is alone, and nothing
        # may stay published.
        n, p = 4096, 0.03
        keys = [bsc_pair(np.random.default_rng(i), n, p) for i in range(2)]
        alone = [
            cascade_reconcile(*keys[i], p, np.random.default_rng(i))[1] for i in range(2)
        ]
        results = {}

        def bob_side(i, sock):
            oracle = RemoteOracle(FramedStreamChannel(sock))
            rng = np.random.default_rng(i % 2)
            reconciled = reconcile_with_oracle(keys[i % 2][1], p, oracle, rng)
            oracle.close()
            results[i] = reconciled, oracle.bits_disclosed

        socks = [socketpair() for _ in range(4)]
        threads = [
            threading.Thread(
                target=serve_parity_queries, args=(keys[i % 2][0], FramedStreamChannel(a))
            )
            for i, (a, _) in enumerate(socks)
        ] + [threading.Thread(target=bob_side, args=(i, b)) for i, (_, b) in enumerate(socks)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
            for pair in socks:
                for sock in pair:
                    sock.close()
        assert not any(thread.is_alive() for thread in threads)
        for i in range(4):
            reconciled, leaked = results[i]
            assert np.array_equal(reconciled, keys[i % 2][0])
            assert leaked == alone[i % 2]
        assert cascade._EXPANDED == {}

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
        _, leaked_local = cascade_reconcile(alice, bob, p, np.random.default_rng(12))

        alice, bob = make_keys()
        alice_sock, bob_sock = socketpair()
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
        super().__init__(ChannelEndpoint(_Alice(alice).answer))

    def verify(self, seed: int, count: int) -> np.ndarray:
        return 1 - super().verify(seed, count)


def records(*rows) -> bytes:
    """A parity-request payload of (sequence, start, end) records."""
    return np.array(rows, dtype=">u4").tobytes()


# A PERMUTATION_SEED frame: sequence 1 is then a permutation of the key.
PERMUTED = ((MSG_PERMUTATION_SEED, struct.pack(">Q", 5)),)


def subsets(seed: int, n: int, count: int) -> list[np.ndarray]:
    """Key positions of the first ``count`` verification subsets drawn from ``seed``."""
    words = np.random.default_rng(seed).integers(0, 2**64, n, dtype=np.uint64)
    return [np.flatnonzero((words >> np.uint64(j)) & np.uint64(1)) for j in range(count)]


def retained_bytes(dialogue) -> int:
    """Bytes still allocated once ``dialogue(seed)`` has returned, its result dropped.

    A first dialogue at another seed makes the one-time allocations, so what
    is left is what the measured dialogue kept: anything cached by seed.
    """
    dialogue(1)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dialogue(2)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


class TestProtocolErrors:
    def test_verification_cap_raises(self):
        rng = np.random.default_rng(11)
        alice, bob = bsc_pair(rng, 1024, 0.02)
        with pytest.raises(ProtocolError, match="verification .* in 512 checks"):
            reconcile_with_oracle(bob, 0.02, LyingVerifier(alice), rng)

    @pytest.mark.parametrize(
        "seq",
        [0, 1, 2],
        ids=["past-end-of-the-key", "past-end-of-an-expanded-subset", "past-end-of-a-new-subset"],
    )
    def test_alice_checks_ranges_over_subsets(self, seq):
        # Over a 64-bit key, VERIFICATION(seed 7, 2 subsets) adds sequences 1
        # and 2.  A range over subset 1 expands it, and a range one past a
        # sequence's end raises whether or not the subset was expanded before.
        key = np.random.default_rng(0).integers(0, 2, 64, dtype=np.uint8)
        sub = subsets(7, 64, 2)
        length = [len(key), len(sub[0]), len(sub[1])][seq]
        chan = ScriptedChannel(
            (MSG_VERIFICATION, struct.pack(">QI", 7, 2)),
            (MSG_PARITY_REQUEST, records((1, 0, len(sub[0])))),
            (MSG_PARITY_REQUEST, records((seq, 0, length + 1))),
        )
        with pytest.raises(ProtocolError, match="past the end"):
            serve_parity_queries(key, chan)
        assert len(chan.sent) == 2
        assert chan.sent[1] == (MSG_PARITY_RESPONSE, bytes([key[sub[0]].sum() % 2 << 7]))

    def test_alice_answers_ranges_over_unexpanded_subsets(self):
        key = np.random.default_rng(0).integers(0, 2, 64, dtype=np.uint8)
        sub = subsets(7, 64, 2)
        ranges = [(2, 0, len(sub[1])), (1, 1, len(sub[0])), (0, 3, 50), (2, 2, 5)]
        chan = ScriptedChannel(
            (MSG_VERIFICATION, struct.pack(">QI", 7, 2)),
            (MSG_PARITY_REQUEST, records(*ranges)),
            (MSG_VERIFICATION, b""),
        )
        serve_parity_queries(key, chan)
        order = [np.arange(64), *sub]
        expected = [key[order[s][a:b]].sum() % 2 for s, a, b in ranges]
        assert chan.sent == [
            (MSG_PARITY_RESPONSE, np.packbits([key[p].sum() % 2 for p in sub]).tobytes()),
            (MSG_PARITY_RESPONSE, np.packbits(expected).tobytes()),
        ]

    def test_no_expansion_outlives_a_dialogue_that_raises(self):
        alice, bob = bsc_pair(np.random.default_rng(16), 62_000, 0.02)

        def dialogue(seed):
            with pytest.raises(ProtocolError, match="verification"):
                reconcile_with_oracle(bob, 0.02, LyingVerifier(alice), np.random.default_rng(seed))

        assert retained_bytes(dialogue) < 64_000

    def test_alice_rejects_unexpected_frame(self):
        chan = ScriptedChannel(
            (MSG_PARITY_REQUEST, records((0, 0, 2))), (MSG_PARITY_RESPONSE, bytes([1]))
        )
        with pytest.raises(ProtocolError):
            serve_parity_queries(np.zeros(8, dtype=np.uint8), chan)
        # The valid request before the bad frame was answered.
        assert chan.sent == [(MSG_PARITY_RESPONSE, bytes([0]))]

    @pytest.mark.parametrize(
        "leading, msg_type, payload",
        [
            ((), MSG_PARITY_REQUEST, records((0, 0, 2), (1, 0, 2))),
            ((), MSG_PARITY_REQUEST, records((0, 4, 9))),
            ((), MSG_PARITY_REQUEST, records((0, 3, 3))),
            ((), MSG_PARITY_REQUEST, records((0, 5, 2))),
            ((), MSG_PARITY_REQUEST, records((0, 0, 2))[:-1]),
            ((), MSG_PARITY_REQUEST, b""),
            ((), MSG_PERMUTATION_SEED, bytes(7)),
            ((), MSG_VERIFICATION, struct.pack(">QI", 7, 0)),
            ((), MSG_VERIFICATION, struct.pack(">QI", 7, 65)),
            ((), MSG_VERIFICATION, struct.pack(">Q", 7)),
            (PERMUTED, MSG_PARITY_REQUEST, records((1, 0, 8), (0, 4, 9))),
            (PERMUTED, MSG_PARITY_REQUEST, records((0, 0, 8), (1, 0, 9))),
            (PERMUTED, MSG_PARITY_REQUEST, records((1, 0, 8), (2, 0, 2))),
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
            "past-end-of-sequence-0-before-a-permutation",
            "past-end-of-a-permutation",
            "unknown-sequence-after-a-permutation",
        ],
    )
    def test_alice_rejects_malformed_frame(self, leading, msg_type, payload):
        # Only sequence 0 exists, over an 8-bit key, and the permutations that
        # leading PERMUTATION_SEED frames add; Alice raises without answering.
        chan = ScriptedChannel(*leading, (msg_type, payload))
        with pytest.raises(ProtocolError):
            serve_parity_queries(np.zeros(8, dtype=np.uint8), chan)
        assert chan.sent == []

    def test_oracle_rejects_non_response_frame(self):
        # Alice's end answers a parity request with a permutation seed.
        oracle = RemoteOracle(ChannelEndpoint(lambda *frame: (MSG_PERMUTATION_SEED, bytes(8))))
        with pytest.raises(ProtocolError):
            oracle.parities(np.array([0]), np.array([0]), np.array([4]))
        assert oracle.bits_disclosed == 0
