"""CASCADE interactive error reconciliation, one frame per binary-search level.

Bob drives the dialogue in ``PASSES`` passes (Brassard & Salvail, EUROCRYPT
'93).  He announces the permutations of the later passes by seed and asks
for the block parities of every pass in one frame.  Pass by pass, he then
binary-searches every mismatched block at once, one frame per halving level
(the level-parallel search of Martinez-Mateo et al., QIC 15, 2015).  Every
position such a wave finds is a true error: Bob flips each once, then
searches, as the next wave, the blocks of every pass so far that the flips
left mismatched.  He numbers the blocks of all passes once, in the order of
that first frame, and keeps one flag per block for a parity that differs,
so a wave's flips and the next wave's blocks are one count and one scan.
A final verification stage compares random subset parities, up to
``MAX_SUBSETS`` per frame, until a run of ``VERIFY_PARITIES`` matches.

Both sides number the *sequences* of key positions they can derive alike:
sequence 0 is the key in order, each PERMUTATION_SEED frame (``>Q`` seed)
adds the permutation drawn from that seed, and each VERIFICATION frame
(``>Q`` seed, ``>I`` count) adds its ``count`` random subsets, in order.
Subset ``j`` holds the key positions whose uint64 drawn from the seed has
bit ``j`` set.  A PARITY_REQUEST frame is a run of (sequence, start, end)
records of three ``>u4`` each; Alice answers every ``[start, end)`` range of
a frame with one pair of lookups into the prefix parities of her key over
every sequence, laid end to end.  A VERIFICATION frame asks for the
parities of its subsets.  Alice answers every request with one
PARITY_RESPONSE of packed bits (``np.packbits``); an empty VERIFICATION
frame ends the dialogue.  Bob's :class:`RemoteOracle` is the one ledger of
the leak: it counts every parity bit a response carries.  Seeds carry no key
information and are not counted.

When both sides run in one process, Alice answers each frame as Bob sends
it, through a :class:`~aqua_qkd.bb84.classical_channel.ChannelEndpoint`, and
a permutation or a set of subset words is expanded from its seed once: Bob
publishes what he expands for as long as his dialogue runs, and Alice takes
it from there.
"""

from __future__ import annotations

import math
import struct
from contextlib import contextmanager

import numpy as np

from .classical_channel import (
    MSG_PARITY_REQUEST,
    MSG_PARITY_RESPONSE,
    MSG_PERMUTATION_SEED,
    MSG_VERIFICATION,
    ChannelEndpoint,
)

FIRST_PASS_COEFF = 0.73
PASSES = 4
VERIFY_PARITIES = 64  # the clean run that ends verification, within 8x as many checks
MAX_SUBSETS = 64  # verification subsets per frame: the bits of one uint64 per position

_SEED = struct.Struct(">Q")
_VERIFY = struct.Struct(">QI")
_RECORD = np.dtype(">u4")  # one field of a (sequence, start, end) record
_CHUNK = 1 << 16  # subset words per step of a subset-parity reduction


class ProtocolError(RuntimeError):
    pass


def _prefix_parity(bits: np.ndarray) -> np.ndarray:
    """``out[i]`` is the parity of ``bits[:i]``, so a range's parity is two lookups."""
    out = np.zeros(len(bits) + 1, dtype=np.uint8)
    np.bitwise_xor.accumulate(bits, out=out[1:])
    return out


def _permutation(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).permutation(n)


def _subset_words(seed: int, n: int) -> np.ndarray:
    """One uint64 per key position; bit ``j`` puts the position in subset ``j``."""
    return np.random.default_rng(seed).integers(0, 2**64, n, dtype=np.uint64)


def _subset(words: np.ndarray, j: int) -> np.ndarray:
    return np.nonzero((words >> np.uint64(j)) & np.uint64(1))[0]


def _subset_parities(key: np.ndarray, words: np.ndarray, count: int) -> np.ndarray:
    """Parities of ``key`` over subsets ``0..count-1``: the XOR of ``words * key``, by chunks."""
    acc = np.uint64(0)
    for at in range(0, len(key), _CHUNK):
        acc ^= np.bitwise_xor.reduce(words[at : at + _CHUNK] * key[at : at + _CHUNK])
    return ((acc >> np.arange(count, dtype=np.uint64)) & np.uint64(1)).astype(np.uint8)


# What the dialogues Bob is running in this process have expanded, by
# (expander, seed, key length).  Each dialogue removes its own entries when
# it ends, also when it raises, so nothing keyed by a seed outlives it.  Two
# running dialogues that expand the same key share an entry until the first
# ends; an Alice that then finds none expands her own copy of the same array.
_EXPANDED: dict = {}


def _expanded(expander, seed: int, n: int) -> np.ndarray:
    """``expander(seed, n)``, taken from a running dialogue that already expanded it."""
    out = _EXPANDED.get((expander, seed, n))
    return expander(seed, n) if out is None else out


@contextmanager
def _expanding(n: int):
    """Bob's expander for one dialogue over an ``n``-bit key, publishing what it expands."""
    keys = []

    def expand(expander, seed: int) -> np.ndarray:
        key = (expander, seed, n)
        out = _EXPANDED[key] = expander(seed, n)
        keys.append(key)
        return out

    try:
        yield expand
    finally:
        for key in keys:
            _EXPANDED.pop(key, None)


class _Alice:
    """Alice's side of the dialogue: her key's prefix parities over every sequence.

    The prefix parities of the expanded sequences lie end to end in one
    array, sequence s's from ``_offset[s]`` on, over its ``_length[s]`` key
    positions.  A verification subset is kept as its (seed, index), with
    length -1, until a range over it is first requested, which happens only
    when its parity mismatched.
    """

    def __init__(self, key: np.ndarray):
        self._key = key
        self._joined = np.zeros(0, dtype=np.uint8)
        self._offset = np.zeros(0, dtype=np.int64)
        self._length = np.zeros(0, dtype=np.int64)
        self._subsets: dict[int, tuple[int, int]] = {}
        self._lay(self._add(1), key)

    def _add(self, count: int) -> int:
        """Number ``count`` new sequences, not laid out yet; returns the first one's id."""
        first = len(self._length)
        self._offset = np.append(self._offset, np.zeros(count, dtype=np.int64))
        self._length = np.append(self._length, np.full(count, -1, dtype=np.int64))
        return first

    def _lay(self, s: int, bits: np.ndarray):
        """Lay the prefix parities of ``bits``, sequence ``s``'s key bits, after the others."""
        self._offset[s] = len(self._joined)
        self._length[s] = len(bits)
        self._joined = np.concatenate((self._joined, _prefix_parity(bits)))

    def _range_parities(self, payload: bytes) -> np.ndarray:
        if not payload or len(payload) % (3 * _RECORD.itemsize):
            raise ProtocolError(
                f"parity request of {len(payload)} bytes is not a whole number of records"
            )
        seq, start, end = np.frombuffer(payload, dtype=_RECORD).reshape(-1, 3).astype(np.int64).T
        if np.count_nonzero(seq >= len(self._length)):
            raise ProtocolError(f"unknown sequence {seq.max()}")
        length = self._length[seq]
        if np.count_nonzero(length < 0):
            # Verification subsets searched for the first time.
            for s in np.flatnonzero(np.bincount(seq[length < 0])):
                seed, j = self._subsets.pop(int(s))
                subset = _subset(_expanded(_subset_words, seed, len(self._key)), j)
                self._lay(s, self._key[subset])
            length = self._length[seq]
        if np.count_nonzero(start >= end) or np.count_nonzero(end > length):
            raise ProtocolError("empty range, or range past the end of its sequence")
        offset = self._offset[seq]
        return self._joined[offset + end] ^ self._joined[offset + start]

    def answer(self, msg_type: int, payload: bytes) -> tuple[int, bytes] | None:
        """Alice's reply frame to one frame from Bob; None for a PERMUTATION_SEED."""
        n = len(self._key)
        if msg_type == MSG_PERMUTATION_SEED:
            if len(payload) != _SEED.size:
                raise ProtocolError(f"permutation seed of {len(payload)} bytes")
            (seed,) = _SEED.unpack(payload)
            self._lay(self._add(1), self._key[_expanded(_permutation, seed, n)])
            return None
        if msg_type == MSG_PARITY_REQUEST:
            bits = self._range_parities(payload)
        elif msg_type == MSG_VERIFICATION:
            if len(payload) != _VERIFY.size:
                raise ProtocolError(f"verification frame of {len(payload)} bytes")
            seed, count = _VERIFY.unpack(payload)
            if not 0 < count <= MAX_SUBSETS:
                raise ProtocolError(f"verification count {count} outside [1, {MAX_SUBSETS}]")
            bits = _subset_parities(self._key, _expanded(_subset_words, seed, n), count)
            first = self._add(count)
            self._subsets.update((first + j, (seed, j)) for j in range(count))
        else:
            raise ProtocolError(f"unexpected message type {msg_type:#x}")
        return MSG_PARITY_RESPONSE, np.packbits(bits).tobytes()


def serve_parity_queries(alice_key, channel) -> None:
    """Run Alice's side over ``channel`` until an empty VERIFICATION frame closes it.

    Receives each frame from Bob and sends her reply, when it has one.  This
    is her side behind a byte-stream transport, typically on its own thread
    or process.
    """
    alice = _Alice(np.asarray(alice_key, dtype=np.uint8))
    while (frame := channel.recv()) != (MSG_VERIFICATION, b""):
        reply = alice.answer(*frame)
        if reply is not None:
            channel.send(*reply)


class RemoteOracle:
    """Bob's parity oracle over one message endpoint; Alice answers at the other end.

    ``bits_disclosed`` is the dialogue's one leak ledger: it counts one bit per
    parity carried by each response received.
    """

    def __init__(self, channel):
        self._chan = channel
        self.bits_disclosed = 0

    def _roundtrip(self, msg_type: int, payload: bytes, nbits: int) -> np.ndarray:
        self._chan.send(msg_type, payload)
        resp_type, resp = self._chan.recv()
        if resp_type != MSG_PARITY_RESPONSE:
            raise ProtocolError(f"expected parity response, got {resp_type:#x}")
        if len(resp) != (nbits + 7) // 8:
            raise ProtocolError(f"{len(resp)}-byte response to {nbits} parity queries")
        self.bits_disclosed += nbits
        return np.unpackbits(np.frombuffer(resp, dtype=np.uint8), count=nbits)

    def parities(self, seq: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
        """Alice's parity over ``[start[i], end[i])`` of sequence ``seq[i]``, for every i."""
        records = np.empty((len(seq), 3), dtype=_RECORD)
        records[:, 0], records[:, 1], records[:, 2] = seq, start, end
        return self._roundtrip(MSG_PARITY_REQUEST, records.tobytes(), len(records))

    def verify(self, seed: int, count: int) -> np.ndarray:
        """Alice's parities over the first ``count`` subsets drawn from ``seed``."""
        return self._roundtrip(MSG_VERIFICATION, _VERIFY.pack(seed, count), count)

    def announce_permutation(self, seed: int):
        self._chan.send(MSG_PERMUTATION_SEED, _SEED.pack(seed))

    def close(self):
        self._chan.send(MSG_VERIFICATION, b"")


def _locate(bob: np.ndarray, seqs: list, seq, start, end, oracle) -> np.ndarray:
    """Key positions of one error in each range, every search one level per frame.

    Range i is ``[start[i], end[i])`` of sequence ``seq[i]``, over which Bob's
    parity differs from Alice's.  The key positions of the ranges are laid
    end to end, range i's from ``base[i]`` on, so the prefix parities of
    Bob's key over them answer every range.  Each level carries only the
    ranges still longer than one position.
    """
    length = end - start
    base = np.cumsum(length) - length
    # Entry g of the layout is entry g + shift[i] of range i's sequence,
    # gathered once per run of ranges over the same sequence.
    shift = start - base
    where = np.arange(int(base[-1] + length[-1])) + np.repeat(shift, length)
    runs = (seq[1:] != seq[:-1]).nonzero()[0] + 1
    for a, b in zip([0, *runs.tolist()], [*base[runs].tolist(), len(where)]):
        where[base[a] : b] = seqs[seq[a]][where[base[a] : b]]
    prefix = _prefix_parity(bob[where])
    lo, hi = base, base + length
    found = []
    while True:
        longer = hi - lo > 1
        if np.count_nonzero(longer) < len(longer):
            found.append(where[lo[~longer]])
            lo, hi, seq, shift = lo[longer], hi[longer], seq[longer], shift[longer]
            if not lo.size:
                break
        mid = (lo + hi) >> 1
        left = oracle.parities(seq, lo + shift, mid + shift) != prefix[mid] ^ prefix[lo]
        lo, hi = np.where(left, lo, mid), np.where(left, mid, hi)
    # Without repeats: ranges of two passes can share an error.
    found = np.sort(np.concatenate(found))
    return found[np.concatenate(([True], found[1:] != found[:-1]))]


def reconcile_with_oracle(bob_key, qber_estimate: float, oracle, rng) -> np.ndarray:
    """Run the ``PASSES``-pass reconciliation dialogue; returns Bob's corrected key.

    Raises :class:`ProtocolError` when the verification stage finds no run of
    ``VERIFY_PARITIES`` matching subset parities within ``8 * VERIFY_PARITIES``
    checks, rather than return a key it could not confirm.  A frame of
    subsets that holds a mismatch counts none of its matches toward the run.
    """
    bob = np.array(bob_key, dtype=np.uint8)
    n = len(bob)
    if n < 16:
        raise ProtocolError(f"key too short to reconcile ({n} bits)")
    if not 0.0 < qber_estimate < 0.5:
        raise ProtocolError(f"qber_estimate must lie in (0, 0.5), got {qber_estimate}")

    with _expanding(n) as expand:
        return _reconcile(bob, qber_estimate, oracle, rng, expand)


def _reconcile(bob, qber_estimate, oracle, rng, expand) -> np.ndarray:
    n = len(bob)
    k1 = math.ceil(FIRST_PASS_COEFF / qber_estimate)
    sizes = [min(n, k1 * (2**p)) for p in range(PASSES)]
    seeds = [int(rng.integers(0, 2**63)) for _ in range(1, PASSES)]
    # Key positions of each sequence, by id: pass p is sequence p, and a
    # verification subset is filled in only when it is searched.
    seqs: list = [np.arange(n)] + [expand(_permutation, seed) for seed in seeds]
    for seed in seeds:
        oracle.announce_permutation(seed)
    # Every block of every pass, numbered in the order the top frame asks for
    # their parities: pass p's blocks are bounds[p] to bounds[p + 1].
    n_blocks = [-(-n // size) for size in sizes]
    bounds = np.cumsum([0, *n_blocks]).tolist()
    block_seq = np.repeat(np.arange(PASSES), n_blocks)
    block_start = np.concatenate([np.arange(0, n, size) for size in sizes])
    block_end = np.minimum(block_start + np.repeat(sizes, n_blocks), n)
    # Every pass's block parities in one frame; the passes are then corrected in turn.
    alice_par = oracle.parities(block_seq, block_start, block_end)
    odd = np.zeros(len(alice_par), dtype=np.intp)  # per block: Bob's parity differs
    block_of: list[np.ndarray] = []  # per pass begun: the block of each key position

    def mismatched(upto: int):
        blocks = odd[:upto].nonzero()[0]
        return block_seq[blocks], block_start[blocks], block_end[blocks]

    def settle(upto: int, seq, start, end):
        """Search the ranges, then every block before ``upto`` that the flips left odd."""
        while len(seq):
            found = _locate(bob, seqs, seq, start, end, oracle)
            bob[found] ^= 1
            hits = np.concatenate([blocks[found] for blocks in block_of])
            odd[:upto] ^= np.bincount(hits, minlength=upto) & 1
            seq, start, end = mismatched(upto)

    for p in range(PASSES):
        lo, hi = bounds[p], bounds[p + 1]
        blocks = np.empty(n, dtype=np.int32)
        lengths = block_end[lo:hi] - block_start[lo:hi]
        blocks[seqs[p]] = np.repeat(np.arange(lo, hi, dtype=np.int32), lengths)
        block_of.append(blocks)
        odd[lo:hi] = np.bitwise_xor.reduceat(bob[seqs[p]], block_start[lo:hi]) != alice_par[lo:hi]
        settle(hi, *mismatched(hi))

    # Verification stage: random subset parities, a frame at a time, until a clean run.
    consecutive = 0
    checks = 0
    while consecutive < VERIFY_PARITIES:
        if checks == 8 * VERIFY_PARITIES:
            raise ProtocolError(
                f"verification found no run of {VERIFY_PARITIES} matching parities"
                f" in {checks} checks"
            )
        count = min(VERIFY_PARITIES - consecutive, 8 * VERIFY_PARITIES - checks, MAX_SUBSETS)
        seed = int(rng.integers(0, 2**63))
        words = expand(_subset_words, seed)
        bad = np.flatnonzero(oracle.verify(seed, count) != _subset_parities(bob, words, count))
        checks += count
        first = len(seqs)
        seqs.extend([None] * count)
        if bad.size == 0:
            consecutive += count
            continue
        # The mismatched subsets mostly share their few errors, so search one
        # and let the passes' blocks find the rest.
        s = first + bad[0]
        seqs[s] = _subset(words, bad[0])
        settle(len(odd), np.array([s]), np.array([0]), np.array([len(seqs[s])]))
        consecutive = 0
    return bob


def cascade_reconcile(alice_key, bob_key, qber_estimate: float, rng) -> tuple[np.ndarray, int]:
    """Reconcile Bob's key against Alice's; returns (corrected_bob, leaked_bits).

    Both sides run in-process, Alice answering each of Bob's frames as he
    sends it.  Alice's key is never modified; ``leaked_bits`` counts the
    parity bits Bob received.
    """
    alice = np.asarray(alice_key, dtype=np.uint8)
    bob = np.asarray(bob_key, dtype=np.uint8)
    if len(alice) != len(bob):
        raise ProtocolError(f"key length mismatch: {len(alice)} vs {len(bob)}")
    oracle = RemoteOracle(ChannelEndpoint(_Alice(alice).answer))
    return reconcile_with_oracle(bob, qber_estimate, oracle, rng), oracle.bits_disclosed
