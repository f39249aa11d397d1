"""Length-prefixed header+bytes framing for the live runtime.

Every message on a live-runtime TCP stream is one *frame*::

    +-------+------------+-------------+---------------+---------------+
    | magic | header len | payload len | header        | payload bytes |
    | 4 B   | u32 BE     | u32 BE      | header-len B  | payload-len B |
    +-------+------------+-------------+---------------+---------------+

The header decodes to a dict carrying a ``"type"`` key by convention (see
:mod:`repro.live.wire`).  The six block-path frames, sent once per block
op, have a fixed binary header (:data:`BINARY_HEADERS`: a code byte, then
big-endian fields); every other header is a compact, sorted-key JSON
object.  A code byte is never ``{``, so the first byte tells the two
apart, and both decode to the same dict.  The payload is opaque bytes
(coded rows travel here, never through the header).

Failure behavior is part of the contract: a reader faced with a bad magic,
an oversized length, an unparseable header, or an EOF mid-frame raises a
:class:`FrameError` subclass *immediately* — it never blocks waiting for
bytes that cannot complete a valid frame.  Two readers share those
checks: the sans-IO :class:`FrameDecoder` (byte-level fuzz tests feed it
arbitrary chunks) and :func:`read_frame` (asyncio streams, reading exactly
the bytes the prefix declares); both validate a prefix with
:func:`_unpack_prefix` and a header with :func:`_parse_header`.
"""

from __future__ import annotations

import asyncio
import json
import math
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

#: Frame preamble; a connection speaking anything else fails fast.
MAGIC = b"RPLV"

#: Big-endian (header_len, payload_len) length prefix.
_LENGTHS = struct.Struct(">II")

#: Fixed prefix size: magic + the two length words.
PREFIX_SIZE = len(MAGIC) + _LENGTHS.size

#: Upper bounds enforced on both ends; a peer announcing more is treated
#: as garbage, not as a request to allocate.
MAX_HEADER_BYTES = 1 << 20
MAX_PAYLOAD_BYTES = 1 << 26


class FrameError(Exception):
    """Base class of every framing protocol error."""


class FrameGarbage(FrameError):
    """The stream does not contain a valid frame (bad magic/JSON header)."""


class FrameTooLarge(FrameError):
    """A declared header or payload length exceeds the protocol bounds."""


class FrameTruncated(FrameError):
    """The stream ended mid-frame (EOF before the declared bytes arrived)."""


@dataclass(frozen=True)
class Frame:
    """One decoded frame: a JSON header dict plus opaque payload bytes."""

    header: Mapping[str, Any]
    payload: bytes = b""

    @property
    def type(self) -> str:
        """The conventional ``"type"`` key ('' when absent)."""
        value = self.header.get("type", "")
        return value if isinstance(value, str) else ""


_SEGMENT = ("segment_id", "source_peer", "size", "injected_at", "generation")
_BLOCK = _SEGMENT + ("created_at", "polluted", "digest")

#: type -> (code byte, layout, field names after the code).  Segment fields
#: nest under ``"segment"`` in the dict form, as ``wire.block_to_wire``
#: builds it; the digest is 16 ASCII bytes, NUL-padded when shorter.
BINARY_HEADERS = {
    kind: (code, struct.Struct(">B" + layout), names)
    for kind, code, layout, names in (
        ("block", 1, "qiidid?16s", _BLOCK),
        ("pull-block", 2, "qiidid?16si", _BLOCK + ("slot",)),
        ("offer", 3, "qi", ("segment_id", "size")),
        ("offer-reply", 4, "?", ("want",)),
        ("pull", 5, "", ()),
        ("pull-empty", 6, "i", ("slot",)),
    )
}
_BY_CODE = {bytes([c]): (k, *rest) for k, (c, *rest) in BINARY_HEADERS.items()}


def _check_fields(fields: Mapping[str, Any]) -> None:
    """What a block-path header carries must be sane on either side."""
    size = fields.get("size", 1)
    if not 0 < size <= MAX_PAYLOAD_BYTES:
        raise FrameGarbage(f"block-path header declares size {size}")
    for name in ("injected_at", "created_at"):
        if not math.isfinite(fields.get(name, 0.0)):
            raise FrameGarbage(f"block-path header {name} is not finite")


def _encode_header(header: Mapping[str, Any]) -> bytes:
    kind = header.get("type")
    binary = BINARY_HEADERS.get(kind) if isinstance(kind, str) else None
    try:
        if binary is None:
            return json.dumps(
                dict(header), separators=(",", ":"), sort_keys=True,
                allow_nan=False,
            ).encode("utf-8")
        code, layout, names = binary
        fields = {**header.get("segment", {}), **header}
        _check_fields(fields)
        if "digest" in fields:
            fields["digest"] = fields["digest"].encode("ascii")
            if len(fields["digest"]) > 16:
                raise ValueError("digest longer than 16 characters")
        return layout.pack(code, *[fields[name] for name in names])
    except (
        AttributeError, FrameError, KeyError, TypeError, ValueError,
        struct.error,
    ) as exc:
        raise FrameError(f"unserializable frame header: {exc}") from exc


def _parse_binary(
    kind: str, layout: struct.Struct, names: Tuple[str, ...], data: bytes
) -> Dict[str, Any]:
    if len(data) != layout.size:
        raise FrameGarbage(
            f"{kind} header is {len(data)} bytes, not {layout.size}"
        )
    fields = dict(zip(names, layout.unpack(data)[1:]))
    _check_fields(fields)
    if "digest" in fields:
        try:
            fields["digest"] = fields["digest"].rstrip(b"\0").decode("ascii")
        except UnicodeDecodeError as exc:
            raise FrameGarbage(f"{kind} digest is not ASCII") from exc
    if "created_at" not in fields:
        return {"type": kind, **fields}
    segment = {name: fields.pop(name) for name in _SEGMENT}
    return {"type": kind, "segment": segment, **fields}


def _parse_header(data: bytes) -> Dict[str, Any]:
    binary = _BY_CODE.get(data[:1])
    if binary is not None:
        return _parse_binary(*binary, data)
    try:
        header = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameGarbage(f"frame header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise FrameGarbage(
            f"frame header must be a JSON object, got {type(header).__name__}"
        )
    return header


def _unpack_prefix(prefix: bytes) -> Tuple[int, int]:
    """Validate one frame prefix; its (header length, payload length)."""
    if prefix[: len(MAGIC)] != MAGIC:
        raise FrameGarbage(f"bad frame magic {prefix[: len(MAGIC)]!r}")
    header_len, payload_len = _LENGTHS.unpack_from(prefix, len(MAGIC))
    if header_len > MAX_HEADER_BYTES:
        raise FrameTooLarge(
            f"declared header length {header_len} exceeds "
            f"{MAX_HEADER_BYTES}"
        )
    if payload_len > MAX_PAYLOAD_BYTES:
        raise FrameTooLarge(
            f"declared payload length {payload_len} exceeds "
            f"{MAX_PAYLOAD_BYTES}"
        )
    if header_len == 0:
        raise FrameGarbage("declared header length is 0 (no JSON object)")
    return header_len, payload_len


def encode_frame(header: Mapping[str, Any], payload: bytes = b"") -> bytes:
    """Serialize one frame to wire bytes."""
    head = _encode_header(header)
    if len(head) > MAX_HEADER_BYTES:
        raise FrameTooLarge(
            f"encoded header is {len(head)} bytes (max {MAX_HEADER_BYTES})"
        )
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise FrameTooLarge(
            f"payload is {len(payload)} bytes (max {MAX_PAYLOAD_BYTES})"
        )
    return MAGIC + _LENGTHS.pack(len(head), len(payload)) + head + payload


@dataclass
class FrameDecoder:
    """Sans-IO incremental frame parser.

    Feed arbitrary byte chunks; complete frames come back in order.  The
    decoder validates eagerly — magic and length bounds are checked as soon
    as the prefix is buffered, so garbage input raises on the offending
    :meth:`feed` call instead of accumulating forever.
    """

    _buffer: bytearray = field(default_factory=bytearray)
    _dead: bool = False
    _truncated: bool = False
    _eof: bool = False

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buffer)

    @property
    def truncated(self) -> bool:
        """The stream ended mid-frame (an abrupt disconnect, not garbage)."""
        return self._truncated

    def feed(self, data: bytes) -> List[Frame]:
        """Consume *data*; return every frame it completes."""
        if self._truncated:
            raise FrameTruncated(
                "decoder saw EOF mid-frame; the connection must be re-dialed"
            )
        if self._dead:
            raise FrameGarbage("decoder poisoned by an earlier protocol error")
        if self._eof:
            raise FrameTruncated("bytes fed after EOF was declared")
        self._buffer.extend(data)
        frames: List[Frame] = []
        while True:
            frame = self._try_extract()
            if frame is None:
                return frames
            frames.append(frame)

    def _try_extract(self) -> Optional[Frame]:
        buf = self._buffer
        try:
            if len(buf) < PREFIX_SIZE:
                # a wrong magic fails as soon as its bytes are in
                if not MAGIC.startswith(bytes(buf[: len(MAGIC)])):
                    raise FrameGarbage(
                        f"bad frame magic {bytes(buf[: len(MAGIC)])!r}"
                    )
                return None
            header_len, payload_len = _unpack_prefix(bytes(buf[:PREFIX_SIZE]))
        except FrameError:
            self._poison()
            raise
        total = PREFIX_SIZE + header_len + payload_len
        if len(buf) < total:
            return None
        head = bytes(buf[PREFIX_SIZE : PREFIX_SIZE + header_len])
        payload = bytes(buf[PREFIX_SIZE + header_len : total])
        del buf[:total]
        try:
            header = _parse_header(head)
        except FrameError:
            self._poison()
            raise
        return Frame(header=header, payload=payload)

    def finish(self) -> None:
        """Declare EOF; raises :class:`FrameTruncated` mid-frame.

        A mid-frame EOF is an *abrupt disconnect* — the peer crashed or the
        connection dropped — not a protocol violation, so the decoder is
        marked :attr:`truncated` (every later call keeps raising
        :class:`FrameTruncated`, never :class:`FrameGarbage`): handlers
        treat it as a reconnect signal rather than evidence of a broken
        speaker.
        """
        if self._buffer:
            pending = len(self._buffer)
            self._truncated = True
            self._buffer.clear()
            raise FrameTruncated(
                f"stream ended with {pending} byte(s) of an "
                "incomplete frame buffered"
            )
        self._eof = True

    def _poison(self) -> None:
        self._dead = True
        self._buffer.clear()


async def read_frame(reader: asyncio.StreamReader) -> Optional[Frame]:
    """Read exactly one frame; ``None`` on clean EOF at a frame boundary.

    EOF mid-frame raises :class:`FrameTruncated`; a bad magic or header
    raises :class:`FrameGarbage`; absurd lengths raise
    :class:`FrameTooLarge`.  The caller never hangs on a stream that cannot
    produce a complete valid frame — every wait is for bytes the prefix
    declared.
    """
    try:
        prefix = await reader.readexactly(PREFIX_SIZE)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise FrameTruncated(
            f"stream ended {len(exc.partial)} byte(s) into a frame prefix"
        ) from exc
    header_len, payload_len = _unpack_prefix(prefix)
    try:
        body = await reader.readexactly(header_len + payload_len)
    except asyncio.IncompleteReadError as exc:
        raise FrameTruncated(
            f"stream ended {len(exc.partial)}/{header_len + payload_len} "
            "byte(s) into a frame body"
        ) from exc
    header = _parse_header(body[:header_len])
    return Frame(header=header, payload=body[header_len:])


async def write_frame(
    writer: asyncio.StreamWriter,
    header: Mapping[str, Any],
    payload: bytes = b"",
) -> None:
    """Serialize and send one frame, honoring transport backpressure."""
    writer.write(encode_frame(header, payload))
    await writer.drain()
