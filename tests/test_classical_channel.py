import socket

import pytest

from aqua_qkd.bb84.classical_channel import (
    MSG_PARITY_REQUEST,
    MSG_PARITY_RESPONSE,
    MSG_PERMUTATION_SEED,
    MSG_VERIFICATION,
    ChannelEndpoint,
    FrameDecoder,
    FramedStreamChannel,
    FramingError,
    encode_frame,
)

ALL_TYPES = (MSG_PARITY_REQUEST, MSG_PARITY_RESPONSE, MSG_PERMUTATION_SEED, MSG_VERIFICATION)


class TestFraming:
    def test_roundtrip_all_types(self):
        decoder = FrameDecoder()
        for msg_type in ALL_TYPES:
            payload = bytes(range(msg_type * 3))
            out = decoder.feed(encode_frame(msg_type, payload))
            assert out == [(msg_type, payload)]

    def test_frame_layout(self):
        frame = encode_frame(MSG_PARITY_REQUEST, b"\xaa\xbb")
        assert frame == b"\x00\x00\x00\x03\x01\xaa\xbb"

    def test_empty_payload(self):
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(MSG_VERIFICATION, b"")) == [(MSG_VERIFICATION, b"")]

    def test_byte_by_byte_feeding(self):
        frame = encode_frame(MSG_PARITY_RESPONSE, b"\x01")
        decoder = FrameDecoder()
        collected = []
        for i in range(len(frame)):
            collected.extend(decoder.feed(frame[i : i + 1]))
        assert collected == [(MSG_PARITY_RESPONSE, b"\x01")]

    def test_multiple_frames_in_one_chunk(self):
        chunk = encode_frame(MSG_PARITY_REQUEST, b"a") + encode_frame(MSG_VERIFICATION, b"bb")
        assert FrameDecoder().feed(chunk) == [
            (MSG_PARITY_REQUEST, b"a"),
            (MSG_VERIFICATION, b"bb"),
        ]

    def test_unknown_type_on_encode(self):
        with pytest.raises(FramingError):
            encode_frame(0x99, b"")

    def test_unknown_type_on_decode(self):
        bad = b"\x00\x00\x00\x01\x99"
        with pytest.raises(FramingError):
            FrameDecoder().feed(bad)

    def test_zero_length_frame_rejected(self):
        with pytest.raises(FramingError):
            FrameDecoder().feed(b"\x00\x00\x00\x00")


class TestChannelEndpoint:
    def test_peer_reply_is_delivered(self):
        heard = []

        def peer(msg_type, payload):
            heard.append((msg_type, payload))
            return MSG_PARITY_RESPONSE, payload[::-1]

        end = ChannelEndpoint(peer)
        end.send(MSG_PARITY_REQUEST, b"\x01\x02")
        assert heard == [(MSG_PARITY_REQUEST, b"\x01\x02")]
        assert end.recv() == (MSG_PARITY_RESPONSE, b"\x02\x01")

    def test_no_reply_queues_nothing(self):
        end = ChannelEndpoint(lambda msg_type, payload: None)
        end.send(MSG_PERMUTATION_SEED, bytes(8))
        with pytest.raises(RuntimeError, match="no pending message"):
            end.recv()

    def test_recv_on_empty_channel(self):
        with pytest.raises(RuntimeError):
            ChannelEndpoint(lambda msg_type, payload: None).recv()

    def test_send_rejects_unknown_type(self):
        def peer(msg_type, payload):
            raise AssertionError("an unknown type reached the peer")

        with pytest.raises(FramingError):
            ChannelEndpoint(peer).send(0x42, b"")


class TestFramedStreamChannel:
    def test_roundtrip_over_socketpair(self):
        left_sock, right_sock = socket.socketpair()
        try:
            left = FramedStreamChannel(left_sock)
            right = FramedStreamChannel(right_sock)
            left.send(MSG_PARITY_REQUEST, b"\x00\x01\x02")
            assert right.recv() == (MSG_PARITY_REQUEST, b"\x00\x01\x02")
            right.send(MSG_PARITY_RESPONSE, b"\x01")
            assert left.recv() == (MSG_PARITY_RESPONSE, b"\x01")
        finally:
            left_sock.close()
            right_sock.close()

    def test_closed_stream_raises(self):
        left_sock, right_sock = socket.socketpair()
        left_sock.close()
        try:
            with pytest.raises(FramingError):
                FramedStreamChannel(right_sock).recv()
        finally:
            right_sock.close()
