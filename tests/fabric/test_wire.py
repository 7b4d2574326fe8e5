"""Unit tests for the length-prefixed fabric frame protocol."""

import io
import threading

import pytest

from repro.fabric import wire
from repro.fabric.wire import (
    CODEC_JSON,
    FrameError,
    decode_payload,
    encode_frame,
    read_frame,
    read_raw_frame,
    write_frame,
    write_raw_frame,
)


class TestFrames:
    def test_round_trip(self):
        message = {
            "type": "result",
            "node": 3,
            "index": 17,
            "record": {"bandwidth": 3.141592653589793, "B": 4, "ok": True},
        }
        assert decode_payload(encode_frame(message)) == message

    def test_floats_round_trip_exactly(self):
        value = 0.1 + 0.2  # classically non-representable sum
        message = {"v": value}
        assert decode_payload(encode_frame(message))["v"] == value

    def test_stream_round_trip_multiple_frames(self):
        buffer = io.BytesIO()
        frames = [{"n": i, "payload": "x" * i} for i in range(5)]
        for frame in frames:
            write_frame(buffer, frame)
        buffer.seek(0)
        for expected in frames:
            assert read_frame(buffer) == expected
        assert read_frame(buffer) is None  # clean EOF

    def test_raw_relay_preserves_bytes(self):
        upstream = io.BytesIO()
        write_frame(upstream, {"type": "heartbeat", "node": 2})
        upstream.seek(0)
        raw = read_raw_frame(upstream)
        relayed = io.BytesIO()
        write_raw_frame(relayed, raw)
        relayed.seek(0)
        assert read_frame(relayed) == {"type": "heartbeat", "node": 2}

    def test_write_frame_under_lock(self):
        buffer = io.BytesIO()
        write_frame(buffer, {"a": 1}, lock=threading.Lock())
        buffer.seek(0)
        assert read_frame(buffer) == {"a": 1}

    def test_truncated_header_mid_frame_raises(self):
        buffer = io.BytesIO(b"\x00\x00")
        with pytest.raises(FrameError, match="mid-frame"):
            read_raw_frame(buffer)

    def test_truncated_payload_raises(self):
        whole = encode_frame({"a": 1})
        buffer = io.BytesIO(whole[:-2])
        with pytest.raises(FrameError, match="mid-frame"):
            read_raw_frame(buffer)

    def test_unknown_codec_byte_rejected_on_read(self):
        frame = bytearray(encode_frame({"a": 1}))
        frame[0] = 9
        with pytest.raises(FrameError, match="codec byte"):
            read_raw_frame(io.BytesIO(bytes(frame)))
        with pytest.raises(FrameError, match="codec byte"):
            decode_payload(bytes(frame))

    def test_oversized_declared_length_rejected(self):
        header = wire._HEADER.pack(CODEC_JSON, wire.MAX_FRAME_BYTES + 1)
        with pytest.raises(FrameError, match="limit"):
            read_raw_frame(io.BytesIO(header))

    def test_decode_length_mismatch(self):
        raw = encode_frame({"a": 1}) + b"junk"
        with pytest.raises(FrameError, match="declared length"):
            decode_payload(raw)
