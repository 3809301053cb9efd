"""CASCADE interactive error reconciliation.

Bob drives the dialogue: he asks Alice for block parities over the classical
channel, binary-searches mismatched blocks to locate single errors, and
propagates each correction back through every earlier pass whose block
parities are already on record.  A final verification stage compares random
subset parities until a configurable run of consecutive matches.

Bob's oracle counts every parity bit Alice reveals, one per response it
receives; Alice's endpoint charges the same bit to its channel's leak
accountant.  Permutation announcements carry no key information and are not
counted.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .classical_channel import (
    MSG_PARITY_REQUEST,
    MSG_PARITY_RESPONSE,
    MSG_PERMUTATION_SEED,
    MSG_VERIFICATION,
    InProcessChannelPair,
)

FIRST_PASS_COEFF = 0.73
PASSES = 4
DEFAULT_VERIFY_PARITIES = 64


class ProtocolError(RuntimeError):
    pass


def _pack_indices(indices: np.ndarray) -> bytes:
    return np.asarray(indices, dtype=np.uint32).tobytes()


def _unpack_indices(payload: bytes) -> np.ndarray:
    return np.frombuffer(payload, dtype=np.uint32).astype(np.int64)


def _answer_frame(key: np.ndarray, msg_type: int, payload: bytes, channel) -> bool:
    """Alice's answer to one frame from Bob; False once the closing frame arrives.

    Parity and verification requests are answered with the parity of ``key``
    over the requested indices, charged as one disclosed bit on ``channel``.
    """
    if msg_type == MSG_PERMUTATION_SEED:
        return True  # informational
    if msg_type not in (MSG_PARITY_REQUEST, MSG_VERIFICATION):
        raise ProtocolError(f"unexpected message type {msg_type:#x}")
    if msg_type == MSG_VERIFICATION and not payload:
        return False
    parity = int(key[_unpack_indices(payload)].sum() & 1)
    channel.send(MSG_PARITY_RESPONSE, bytes([parity]), disclosed_bits=1)
    return True


def serve_parity_queries(alice_key, channel) -> None:
    """Answer parity queries over ``channel`` until an empty VERIFICATION frame.

    Runs Alice's side when her endpoint lives behind a byte-stream transport,
    typically on its own thread or process.
    """
    key = np.asarray(alice_key, dtype=np.uint8)
    while _answer_frame(key, *channel.recv(), channel):
        pass


class _InlineAlice:
    """Bob's endpoint of an :class:`InProcessChannelPair` with Alice answering inline.

    Alice answers each frame as soon as Bob sends it, so Bob's next receive
    finds her response waiting and a single thread runs both sides.
    """

    def __init__(self, alice_key: np.ndarray, pair: InProcessChannelPair):
        self._key = alice_key
        self._pair = pair

    def send(self, msg_type: int, payload: bytes):
        self._pair.bob.send(msg_type, payload)
        _answer_frame(self._key, *self._pair.alice.recv(), self._pair.alice)

    def recv(self) -> tuple[int, bytes]:
        return self._pair.bob.recv()


class RemoteOracle:
    """Bob's parity oracle over one message endpoint; Alice answers at the other end.

    Counts one disclosed bit per parity response received.
    """

    def __init__(self, channel):
        self._chan = channel
        self.bits_disclosed = 0

    def _roundtrip(self, msg_type: int, idx: np.ndarray) -> int:
        self._chan.send(msg_type, _pack_indices(idx))
        resp_type, payload = self._chan.recv()
        if resp_type != MSG_PARITY_RESPONSE:
            raise ProtocolError(f"expected parity response, got {resp_type:#x}")
        self.bits_disclosed += 1
        return payload[0]

    def parity(self, idx: np.ndarray) -> int:
        return self._roundtrip(MSG_PARITY_REQUEST, idx)

    def verify_parity(self, idx: np.ndarray) -> int:
        return self._roundtrip(MSG_VERIFICATION, idx)

    def announce_permutation(self, seed: int):
        self._chan.send(MSG_PERMUTATION_SEED, struct.pack(">Q", seed))

    def close(self):
        self._chan.send(MSG_VERIFICATION, b"")


def _binary_search_flip(bob: np.ndarray, idx: np.ndarray, oracle) -> int:
    """Locate and flip one error inside a block with mismatched parity."""
    while len(idx) > 1:
        half = len(idx) // 2
        left = idx[:half]
        a_par = oracle.parity(left)
        b_par = int(bob[left].sum() & 1)
        idx = left if a_par != b_par else idx[half:]
    pos = int(idx[0])
    bob[pos] ^= 1
    return pos


def reconcile_with_oracle(
    bob_key,
    qber_estimate: float,
    oracle,
    rng,
    verify_parities: int = DEFAULT_VERIFY_PARITIES,
) -> np.ndarray:
    """Run the ``PASSES``-pass reconciliation dialogue; returns Bob's corrected key.

    Raises :class:`ProtocolError` when the verification stage finds no run of
    ``verify_parities`` matching subset parities within ``8 * verify_parities``
    checks, rather than return a key it could not confirm.
    """
    bob = np.array(bob_key, dtype=np.uint8).copy()
    n = len(bob)
    if n < 16:
        raise ProtocolError(f"key too short to reconcile ({n} bits)")
    if not 0.0 < qber_estimate < 0.5:
        raise ProtocolError(f"qber_estimate must lie in (0, 0.5), got {qber_estimate}")

    k1 = math.ceil(FIRST_PASS_COEFF / qber_estimate)
    pass_blocks: list[list[np.ndarray]] = []
    block_of: list[np.ndarray] = []
    alice_parity: list[list[int]] = []

    def enqueue_affected(flipped: int, upto: int, queue: list):
        for q in range(upto + 1):
            b = int(block_of[q][flipped])
            if int(bob[pass_blocks[q][b]].sum() & 1) != alice_parity[q][b]:
                queue.append((q, b))

    def correct(queue: list, upto: int):
        """Fix the queued blocks, and every block of passes 0..upto a fix flips."""
        while queue:
            q, b = queue.pop()
            blk = pass_blocks[q][b]
            if int(bob[blk].sum() & 1) == alice_parity[q][b]:
                continue  # already fixed by an earlier cascade
            flipped = _binary_search_flip(bob, blk, oracle)
            enqueue_affected(flipped, upto, queue)

    for p in range(PASSES):
        size = min(n, k1 * (2**p))
        if p == 0:
            perm = np.arange(n)
        else:
            seed = int(rng.integers(0, 2**63))
            oracle.announce_permutation(seed)
            perm = np.random.default_rng(seed).permutation(n)
        blocks = [perm[i : i + size] for i in range(0, n, size)]
        mapping = np.empty(n, dtype=np.int64)
        mapping[perm] = np.arange(n) // size
        parities = [oracle.parity(blk) for blk in blocks]
        pass_blocks.append(blocks)
        block_of.append(mapping)
        alice_parity.append(parities)

        queue = [
            (p, b) for b, blk in enumerate(blocks) if int(bob[blk].sum() & 1) != parities[b]
        ]
        correct(queue, p)

    # Verification stage: random subset parities until a clean run.
    consecutive = 0
    checks = 0
    while consecutive < verify_parities:
        if checks == 8 * verify_parities:
            raise ProtocolError(
                f"verification found no run of {verify_parities} matching parities"
                f" in {checks} checks"
            )
        subset = np.nonzero(rng.random(n) < 0.5)[0]
        if subset.size == 0:
            continue
        checks += 1
        a_par = oracle.verify_parity(subset)
        if int(bob[subset].sum() & 1) != a_par:
            flipped = _binary_search_flip(bob, subset, oracle)
            queue = []
            enqueue_affected(flipped, PASSES - 1, queue)
            correct(queue, PASSES - 1)
            consecutive = 0
        else:
            consecutive += 1
    return bob


def cascade_reconcile(
    alice_key,
    bob_key,
    qber_estimate: float,
    chan: InProcessChannelPair | None,
    rng,
) -> tuple[np.ndarray, int]:
    """Reconcile Bob's key against Alice's; returns (corrected_bob, leaked_bits).

    Both sides run in-process over ``chan`` (a fresh pair when None), Alice
    answering inline.  Alice's key is never modified; ``leaked_bits`` counts
    the parity responses Bob received.
    """
    alice = np.asarray(alice_key, dtype=np.uint8)
    bob = np.asarray(bob_key, dtype=np.uint8)
    if len(alice) != len(bob):
        raise ProtocolError(f"key length mismatch: {len(alice)} vs {len(bob)}")
    if chan is None:
        chan = InProcessChannelPair()
    oracle = RemoteOracle(_InlineAlice(alice, chan))
    return reconcile_with_oracle(bob, qber_estimate, oracle, rng), oracle.bits_disclosed
