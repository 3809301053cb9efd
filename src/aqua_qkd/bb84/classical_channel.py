"""Authenticated-classical-channel plumbing for key post-processing.

Two interchangeable transports carry the reconciliation dialogue:

* :class:`ChannelEndpoint` — an in-memory endpoint whose peer, a function
  in the same process, answers each message as it is sent.
* :class:`FramedStreamChannel` — the same message interface over a byte
  stream, each message framed as a 4-byte big-endian length (covering the
  tag and payload) + 1-byte type tag + payload.

Four message types carry CASCADE (:mod:`aqua_qkd.bb84.cascade`, which
defines their payloads and counts the parity bits disclosed): PARITY_REQUEST
holds Bob's (sequence, start, end) range records, PARITY_RESPONSE Alice's
packed parity bits, PERMUTATION_SEED a seed both sides expand into a
permutation, and VERIFICATION a seed and a count of random subsets (empty to
close the dialogue).
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


class ChannelEndpoint:
    """One side of an in-process channel; ``peer(msg_type, payload)`` answers each message.

    The peer's reply frame, when it returns one rather than None, waits for
    the next :meth:`recv`.
    """

    def __init__(self, peer):
        self._peer = peer
        self._inbox: deque = deque()

    def send(self, msg_type: int, payload: bytes):
        if msg_type not in _VALID_TYPES:
            raise FramingError(f"unknown message type {msg_type:#x}")
        reply = self._peer(msg_type, bytes(payload))
        if reply is not None:
            self._inbox.append(reply)

    def recv(self) -> tuple[int, bytes]:
        if not self._inbox:
            raise RuntimeError("no pending message on channel")
        return self._inbox.popleft()


class FramedStreamChannel:
    """Message endpoint over a socket-like byte stream (sendall/recv)."""

    def __init__(self, sock):
        self._sock = sock
        self._decoder = FrameDecoder()
        self._pending: deque = deque()

    def send(self, msg_type: int, payload: bytes):
        self._sock.sendall(encode_frame(msg_type, payload))

    def recv(self) -> tuple[int, bytes]:
        while not self._pending:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise FramingError("stream closed mid-dialogue")
            self._pending.extend(self._decoder.feed(chunk))
        return self._pending.popleft()

