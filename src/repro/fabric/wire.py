"""Length-prefixed JSON frame protocol for fabric pipes.

Every message between the fabric coordinator and a worker is one
*frame*::

    +--------+----------------+------------------+
    | codec  | payload length |     payload      |
    | 1 byte | 4 bytes, >I    | length bytes     |
    +--------+----------------+------------------+

The codec byte is always ``0`` (JSON); a reader rejects any other
value as a malformed frame.  JSON round-trips Python floats exactly via
``repr`` shortest-round-trip text, which is what lets fabric results be
compared ``==`` against the single-process executor.

Frames are written whole under the caller's lock and read with
blocking exact-length reads (:func:`read_raw_frame` /
:func:`write_raw_frame` move the encoded bytes).
"""

from __future__ import annotations

import json
import struct
import threading
from typing import BinaryIO

from repro.exceptions import ConfigurationError
from repro.resilience import chaos

__all__ = [
    "CODEC_JSON",
    "encode_frame",
    "decode_payload",
    "corrupt_frame",
    "write_frame",
    "write_raw_frame",
    "read_raw_frame",
    "read_frame",
    "FrameError",
]

CODEC_JSON = 0

_HEADER = struct.Struct(">BI")

#: Hard ceiling on one frame's payload; a result record is a few hundred
#: bytes, so anything near this is a protocol violation, not data.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class FrameError(ConfigurationError):
    """A malformed, oversized, or truncated frame."""


def encode_frame(message: dict) -> bytes:
    """Serialize one message into header + payload bytes."""
    payload = json.dumps(message, separators=(",", ":")).encode()
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _HEADER.pack(CODEC_JSON, len(payload)) + payload


def decode_payload(raw: bytes) -> dict:
    """Decode one raw frame (header + payload) back into its message."""
    if len(raw) < _HEADER.size:
        raise FrameError(f"truncated frame header ({len(raw)} bytes)")
    codec, length = _HEADER.unpack_from(raw)
    payload = raw[_HEADER.size :]
    if len(payload) != length:
        raise FrameError(
            f"frame payload of {len(payload)} bytes does not match "
            f"declared length {length}"
        )
    if codec != CODEC_JSON:
        raise FrameError(f"unknown codec byte {codec}")
    try:
        return json.loads(payload)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        # Wrapped so every reader's single ``except FrameError`` also
        # covers corrupted payload bytes (the corrupt-frame chaos
        # injection lands here) — a flipped bit is a dead peer, not
        # an unhandled reader-thread crash.
        raise FrameError(f"undecodable JSON payload: {exc}") from exc


def corrupt_frame(raw: bytes) -> bytes:
    """Deterministically flip the last payload byte of an encoded frame.

    The header (codec + declared length) is left intact so the receiver
    reads the frame whole and fails in :func:`decode_payload` — the
    realistic single-bit-flip failure mode — rather than desynchronizing
    the stream.
    """
    if len(raw) <= _HEADER.size:
        return raw
    return raw[:-1] + bytes([raw[-1] ^ 0xFF])


def write_frame(
    stream: BinaryIO, message: dict, lock: threading.Lock | None = None
) -> None:
    """Encode and write one frame, flushing; atomic under ``lock``.

    Chaos site ``fabric.wire.encode``: a ``corrupt_frame`` rule flips a
    payload byte in the outgoing frame, which the receiving side decodes
    into a :class:`FrameError` and treats as a dead peer.
    """
    raw = encode_frame(message)
    if chaos.inject("fabric.wire.encode") == "corrupt_frame":
        raw = corrupt_frame(raw)
    write_raw_frame(stream, raw, lock=lock)


def write_raw_frame(
    stream: BinaryIO, raw: bytes, lock: threading.Lock | None = None
) -> None:
    """Write pre-encoded frame bytes whole, flushing; atomic under ``lock``."""
    if lock is None:
        stream.write(raw)
        stream.flush()
        return
    with lock:
        stream.write(raw)
        stream.flush()


def _read_exact(stream: BinaryIO, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` on clean EOF at a boundary."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            if chunks:
                raise FrameError(
                    f"stream ended mid-frame ({n - remaining} of {n} bytes)"
                )
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_raw_frame(stream: BinaryIO) -> bytes | None:
    """Read one whole frame's bytes; ``None`` on clean EOF."""
    header = _read_exact(stream, _HEADER.size)
    if header is None:
        return None
    codec, length = _HEADER.unpack(header)
    if codec != CODEC_JSON:
        raise FrameError(f"unknown codec byte {codec}")
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"declared frame length {length} exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    payload = _read_exact(stream, length) if length else b""
    if length and payload is None:
        raise FrameError("stream ended before frame payload")
    return header + (payload or b"")


def read_frame(stream: BinaryIO) -> dict | None:
    """Read and decode one frame; ``None`` on clean EOF."""
    raw = read_raw_frame(stream)
    if raw is None:
        return None
    return decode_payload(raw)
