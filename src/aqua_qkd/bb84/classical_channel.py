"""Authenticated-classical-channel plumbing for key post-processing.

Two interchangeable transports carry the reconciliation dialogue:

* :class:`InProcessChannelPair` — a pair of in-memory message queues.
* :class:`FramedStreamChannel` — the same message interface over a byte
  stream, each message framed as a 4-byte big-endian length (covering the
  tag and payload) + 1-byte type tag + payload.

Four message types carry CASCADE (:mod:`aqua_qkd.bb84.cascade`, which
defines their payloads): PARITY_REQUEST holds Bob's (sequence, start, end)
range records, PARITY_RESPONSE Alice's packed parity bits, PERMUTATION_SEED
a seed both sides expand into a permutation, and VERIFICATION a seed and a
count of random subsets (empty to close the dialogue).

Every endpoint carries a leak accountant: each frame's ``disclosed_bits``,
the number of parity bits a response carries, is added to
``bits_disclosed``.
"""

from __future__ import annotations

import struct
from collections import deque

MSG_PARITY_REQUEST = 0x01
MSG_PARITY_RESPONSE = 0x02
MSG_PERMUTATION_SEED = 0x03
MSG_VERIFICATION = 0x04

_VALID_TYPES = {MSG_PARITY_REQUEST, MSG_PARITY_RESPONSE, MSG_PERMUTATION_SEED, MSG_VERIFICATION}

_LEN = struct.Struct(">I")


class FramingError(ValueError):
    pass


def encode_frame(msg_type: int, payload: bytes) -> bytes:
    """Length-prefixed frame: >I length of (tag + payload), 1-byte tag, payload."""
    if msg_type not in _VALID_TYPES:
        raise FramingError(f"unknown message type {msg_type:#x}")
    return _LEN.pack(1 + len(payload)) + bytes([msg_type]) + payload


class FrameDecoder:
    """Incremental decoder; feed arbitrary byte chunks, collect whole messages."""

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[tuple[int, bytes]]:
        self._buf.extend(data)
        out = []
        while True:
            if len(self._buf) < 4:
                break
            (length,) = _LEN.unpack_from(self._buf, 0)
            if length < 1:
                raise FramingError(f"frame length {length} is too short for a type tag")
            if len(self._buf) < 4 + length:
                break
            msg_type = self._buf[4]
            if msg_type not in _VALID_TYPES:
                raise FramingError(f"unknown message type {msg_type:#x}")
            payload = bytes(self._buf[5 : 4 + length])
            del self._buf[: 4 + length]
            out.append((msg_type, payload))
        return out


class LeakAccountant:
    """Shared counter of key bits disclosed over a channel."""

    def __init__(self):
        self.bits = 0

    def add(self, nbits: int):
        if nbits < 0:
            raise ValueError("disclosed bit count cannot be negative")
        self.bits += nbits


class ChannelEndpoint:
    """One side of an ordered, reliable, bidirectional message channel."""

    def __init__(self, inbox: deque, outbox: deque, accountant: LeakAccountant):
        self._inbox = inbox
        self._outbox = outbox
        self._accountant = accountant

    def send(self, msg_type: int, payload: bytes, disclosed_bits: int = 0):
        if msg_type not in _VALID_TYPES:
            raise FramingError(f"unknown message type {msg_type:#x}")
        self._accountant.add(disclosed_bits)
        self._outbox.append((msg_type, bytes(payload)))

    def recv(self) -> tuple[int, bytes]:
        if not self._inbox:
            raise RuntimeError("no pending message on channel")
        return self._inbox.popleft()

    @property
    def bits_disclosed(self) -> int:
        return self._accountant.bits


class InProcessChannelPair:
    """Alice/Bob endpoint pair backed by two in-memory queues."""

    def __init__(self):
        a_to_b: deque = deque()
        b_to_a: deque = deque()
        self._accountant = LeakAccountant()
        self.alice = ChannelEndpoint(inbox=b_to_a, outbox=a_to_b, accountant=self._accountant)
        self.bob = ChannelEndpoint(inbox=a_to_b, outbox=b_to_a, accountant=self._accountant)

    @property
    def bits_disclosed(self) -> int:
        return self._accountant.bits


class FramedStreamChannel:
    """Message endpoint over a socket-like byte stream (sendall/recv)."""

    def __init__(self, sock):
        self._sock = sock
        self._decoder = FrameDecoder()
        self._pending: deque = deque()
        self._accountant = LeakAccountant()

    def send(self, msg_type: int, payload: bytes, disclosed_bits: int = 0):
        self._accountant.add(disclosed_bits)
        self._sock.sendall(encode_frame(msg_type, payload))

    def recv(self) -> tuple[int, bytes]:
        while not self._pending:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise FramingError("stream closed mid-dialogue")
            self._pending.extend(self._decoder.feed(chunk))
        return self._pending.popleft()

    @property
    def bits_disclosed(self) -> int:
        return self._accountant.bits
