"""Frame codec fuzz/property tests (satellite of the live runtime).

The contract under test: any well-formed frame round-trips bytes-exactly
through encode -> (arbitrarily chunked) decode, and any malformed input —
truncated, oversized, or garbage — raises a clean :class:`FrameError`
subclass, never hangs a reader and never escapes as an IndexError /
UnicodeDecodeError / struct.error from the guts.
"""

import asyncio
import json
import math
import struct
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.live.checkpoint import CheckpointError, load_checkpoint
from repro.live.framing import (
    BINARY_HEADERS,
    Frame,
    FrameDecoder,
    FrameError,
    FrameGarbage,
    FrameTooLarge,
    FrameTruncated,
    MAGIC,
    MAX_HEADER_BYTES,
    MAX_PAYLOAD_BYTES,
    PREFIX_SIZE,
    encode_frame,
    read_frame,
    write_frame,
)

# JSON-representable header values (what the wire layer actually sends).
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
)
_HEADERS = st.dictionaries(
    st.text(min_size=1, max_size=16),
    st.one_of(_SCALARS, st.lists(_SCALARS, max_size=4)),
    max_size=8,
).map(lambda d: {**d, "type": "fuzz"})

_PAYLOADS = st.binary(max_size=4096)


class TestRoundTrip:
    @given(header=_HEADERS, payload=_PAYLOADS)
    @settings(max_examples=120)
    def test_encode_decode_round_trip(self, header, payload):
        blob = encode_frame(header, payload)
        frames = FrameDecoder().feed(blob)
        assert len(frames) == 1
        assert frames[0].header == header
        assert frames[0].payload == payload
        assert frames[0].type == "fuzz"

    @given(
        items=st.lists(
            st.tuples(_HEADERS, _PAYLOADS), min_size=1, max_size=6
        ),
        chunk=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=60)
    def test_chunked_feed_reassembles_every_frame(self, items, chunk):
        blob = b"".join(encode_frame(h, p) for h, p in items)
        decoder = FrameDecoder()
        out = []
        for start in range(0, len(blob), chunk):
            out.extend(decoder.feed(blob[start : start + chunk]))
        decoder.finish()  # no partial frame may remain
        assert [(f.header, f.payload) for f in out] == items

    def test_empty_payload_and_empty_header_fields(self):
        blob = encode_frame({"type": "x"}, b"")
        (frame,) = FrameDecoder().feed(blob)
        assert frame.payload == b""
        assert frame.type == "x"


class TestMalformedInput:
    @given(prefix_len=st.integers(min_value=1, max_value=200))
    @settings(max_examples=40)
    def test_truncated_frame_raises_on_finish_never_hangs(self, prefix_len):
        blob = encode_frame({"type": "t"}, b"x" * 128)
        decoder = FrameDecoder()
        assert decoder.feed(blob[: min(prefix_len, len(blob) - 1)]) == []
        with pytest.raises(FrameTruncated):
            decoder.finish()

    @given(junk=st.binary(min_size=1, max_size=64))
    @settings(max_examples=80)
    def test_garbage_bytes_raise_clean_errors(self, junk):
        decoder = FrameDecoder()
        try:
            decoder.feed(junk)
            decoder.finish()
        except FrameError:
            pass  # any FrameError subclass is a clean rejection

    def test_bad_magic_rejected_before_full_prefix_arrives(self):
        decoder = FrameDecoder()
        with pytest.raises(FrameGarbage):
            decoder.feed(b"HTTP")

    def test_header_json_garbage(self):
        good = encode_frame({"type": "x"}, b"")
        corrupt = bytearray(good)
        corrupt[PREFIX_SIZE] = 0xFF  # first header byte -> invalid JSON
        with pytest.raises(FrameGarbage):
            FrameDecoder().feed(bytes(corrupt))

    def test_header_must_be_a_json_object(self):
        import json
        import struct

        body = json.dumps(["not", "a", "dict"]).encode()
        blob = MAGIC + struct.pack(">II", len(body), 0) + body
        with pytest.raises(FrameGarbage):
            FrameDecoder().feed(blob)

    def test_oversized_header_rejected(self):
        import struct

        blob = MAGIC + struct.pack(">II", MAX_HEADER_BYTES + 1, 0)
        with pytest.raises(FrameTooLarge):
            FrameDecoder().feed(blob)

    def test_oversized_payload_rejected(self):
        import struct

        blob = MAGIC + struct.pack(">II", 2, MAX_PAYLOAD_BYTES + 1)
        with pytest.raises(FrameTooLarge):
            FrameDecoder().feed(blob)

    def test_zero_length_header_rejected(self):
        import struct

        blob = MAGIC + struct.pack(">II", 0, 0)
        with pytest.raises(FrameGarbage):
            FrameDecoder().feed(blob)

    def test_decoder_poisons_itself_after_an_error(self):
        decoder = FrameDecoder()
        with pytest.raises(FrameGarbage):
            decoder.feed(b"XXXXXXXXXXXX")
        with pytest.raises(FrameError):
            decoder.feed(encode_frame({"type": "x"}, b""))


class TestStreamReader:
    """read_frame against an in-memory StreamReader (no sockets)."""

    @staticmethod
    def _reader(*blobs: bytes, eof: bool = True) -> asyncio.StreamReader:
        reader = asyncio.StreamReader()
        for blob in blobs:
            reader.feed_data(blob)
        if eof:
            reader.feed_eof()
        return reader

    def test_reads_frames_then_clean_eof(self):
        async def scenario():
            blob = encode_frame({"type": "a"}, b"1") + encode_frame(
                {"type": "b"}, b"22"
            )
            reader = self._reader(blob)
            first = await read_frame(reader)
            second = await read_frame(reader)
            assert first is not None and first.type == "a"
            assert second is not None and second.payload == b"22"
            assert await read_frame(reader) is None  # clean EOF

        asyncio.run(scenario())

    @given(cut=st.integers(min_value=1, max_value=30))
    @settings(max_examples=30)
    def test_mid_frame_eof_raises_truncated(self, cut):
        async def scenario():
            blob = encode_frame({"type": "t"}, b"payload")
            reader = self._reader(blob[: min(cut, len(blob) - 1)])
            with pytest.raises(FrameTruncated):
                await read_frame(reader)

        asyncio.run(scenario())

    def test_garbage_magic_raises_garbage(self):
        async def scenario():
            reader = self._reader(b"NOPE" + b"\0" * 64)
            with pytest.raises(FrameGarbage):
                await read_frame(reader)

        asyncio.run(scenario())

    def test_write_then_read_over_a_socket_pair(self):
        async def scenario():
            server_conn = asyncio.get_running_loop().create_future()

            async def on_client(reader, writer):
                server_conn.set_result((reader, writer))

            from repro.live.ports import close_writer, start_server

            server, port = await start_server(on_client)
            creader, cwriter = await asyncio.open_connection(
                "127.0.0.1", port
            )
            sreader, swriter = await server_conn
            await write_frame(cwriter, {"type": "ping", "n": 7}, b"\x01\x02")
            frame = await read_frame(sreader)
            assert frame is not None
            assert frame.header == {"type": "ping", "n": 7}
            assert frame.payload == b"\x01\x02"
            await close_writer(cwriter)
            assert await read_frame(sreader) is None
            await close_writer(swriter)
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())


class TestBoundedAllocation:
    """A hostile length field costs the bytes that arrived, never the bytes
    it declares: each case below is traced under 64 KiB."""

    LIMIT = 64 * 1024
    #: a legal frame's prefix whose 64 MiB payload never arrives
    LEGAL = MAGIC + struct.pack(">II", 16, MAX_PAYLOAD_BYTES)
    OVERSIZED = MAGIC + struct.pack(">II", 16, MAX_PAYLOAD_BYTES + 1)

    def traced(self, error, call):
        tracemalloc.start()
        try:
            with pytest.raises(error):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.LIMIT

    def traced_read(self, error, blob):
        loop = asyncio.new_event_loop()
        try:
            reader = asyncio.StreamReader(loop=loop)
            reader.feed_data(blob)
            reader.feed_eof()
            self.traced(
                error, lambda: loop.run_until_complete(read_frame(reader))
            )
        finally:
            loop.close()

    def test_oversized_payload_is_refused(self):
        self.traced(FrameTooLarge, lambda: FrameDecoder().feed(self.OVERSIZED))
        self.traced_read(FrameTooLarge, self.OVERSIZED)

    def test_declared_payload_then_eof_is_truncated(self):
        def decode():
            decoder = FrameDecoder()
            assert decoder.feed(self.LEGAL) == []
            decoder.finish()

        self.traced(FrameTruncated, decode)
        self.traced_read(FrameTruncated, self.LEGAL)

    def test_checkpoint_of_a_bare_prefix(self, tmp_path):
        path = tmp_path / "hostile.ckpt"
        path.write_bytes(self.LEGAL)
        self.traced(CheckpointError, lambda: load_checkpoint(path))


class TestFrameValue:
    def test_frame_type_of_untyped_header_is_empty(self):
        assert Frame(header={}, payload=b"").type == ""

    def test_pending_bytes_visible_mid_frame(self):
        decoder = FrameDecoder()
        blob = encode_frame({"type": "x"}, b"abc")
        decoder.feed(blob[:6])
        assert decoder.pending_bytes == 6


# -- the fixed binary header of the six block-path frames -----------------

_I32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SIZES = st.integers(min_value=1, max_value=MAX_PAYLOAD_BYTES)
_SEGMENTS = st.fixed_dictionaries({
    "segment_id": st.integers(min_value=-(2**63), max_value=2**63 - 1),
    "source_peer": _I32,
    "size": _SIZES,
    "injected_at": _FINITE,
    "generation": _I32,
})
_BLOCK_FIELDS = {
    "segment": _SEGMENTS,
    "created_at": _FINITE,
    "polluted": st.booleans(),
    "digest": st.text(alphabet="0123456789abcdef", max_size=16),
}
_BINARY = {
    "block": _BLOCK_FIELDS,
    "pull-block": {**_BLOCK_FIELDS, "slot": _I32},
    "offer": {
        "segment_id": st.integers(min_value=-(2**63), max_value=2**63 - 1),
        "size": _SIZES,
    },
    "offer-reply": {"want": st.booleans()},
    "pull": {},
    "pull-empty": {"slot": _I32},
}
_BLOCK_PATH = st.one_of(*(
    st.fixed_dictionaries({"type": st.just(kind), **fields})
    for kind, fields in _BINARY.items()
))


def _frame(head, payload=b""):
    return MAGIC + struct.pack(">II", len(head), len(payload)) + head + payload


def _head(kind, **overrides):
    """A valid binary header of *kind*, with raw field *overrides*."""
    code, layout, names = BINARY_HEADERS[kind]
    fields = dict(
        segment_id=7, source_peer=1, size=2, injected_at=0.5, generation=0,
        created_at=0.75, polluted=False, digest=b"0123456789abcdef", slot=3,
        want=True,
    )
    fields.update(overrides)
    return layout.pack(code, *[fields[name] for name in names])


def _garbage_everywhere(blob):
    """*blob* is FrameGarbage to the sans-IO decoder and the stream reader
    alike; any other exception fails the test by escaping."""
    with pytest.raises(FrameGarbage):
        FrameDecoder().feed(blob)

    async def read():
        reader = asyncio.StreamReader()
        reader.feed_data(blob)
        reader.feed_eof()
        await read_frame(reader)

    with pytest.raises(FrameGarbage):
        asyncio.run(read())


class TestBinaryHeaders:
    @given(header=_BLOCK_PATH, payload=_PAYLOADS)
    @settings(max_examples=150)
    def test_round_trip_equals_the_dict_form(self, header, payload):
        blob = encode_frame(header, payload)
        (frame,) = FrameDecoder().feed(blob)
        assert frame.header == header == json.loads(json.dumps(header))
        assert frame.payload == payload
        layout = BINARY_HEADERS[header["type"]][1]
        assert len(blob) == PREFIX_SIZE + layout.size + len(payload)

    def test_a_code_byte_is_never_an_opening_brace(self):
        codes = {code for code, _, _ in BINARY_HEADERS.values()}
        assert len(codes) == 6 and not codes & set(b"{ \t\r\n")

    def test_json_still_decodes_for_every_type(self):
        head = json.dumps({"type": "offer-reply", "want": True}).encode()
        (frame,) = FrameDecoder().feed(_frame(head))
        assert frame.header == {"type": "offer-reply", "want": True}

    @pytest.mark.parametrize("kind", sorted(BINARY_HEADERS))
    def test_every_truncation_and_extension_is_garbage(self, kind):
        head = _head(kind)
        for cut in range(len(head)):
            _garbage_everywhere(_frame(head[:cut], b"\x01" * 8))
        for extra in range(1, 9):
            _garbage_everywhere(_frame(head + b"\x00" * extra, b"\x01" * 8))

    @given(first=st.integers(min_value=0, max_value=255), rest=st.binary())
    @settings(max_examples=80)
    def test_an_unknown_code_is_garbage(self, first, rest):
        codes = {code for code, _, _ in BINARY_HEADERS.values()}
        if first in codes or first in b"{ \t\r\n":
            return
        _garbage_everywhere(_frame(bytes([first]) + rest))

    @pytest.mark.parametrize("kind", ["block", "pull-block"])
    @pytest.mark.parametrize("field", ["created_at", "injected_at"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_timestamps_are_garbage(self, kind, field, value):
        _garbage_everywhere(_frame(_head(kind, **{field: value}), b"\x01" * 8))

    @pytest.mark.parametrize("kind", ["block", "pull-block", "offer"])
    @pytest.mark.parametrize(
        "size", [0, -1, -(2**31), MAX_PAYLOAD_BYTES + 1, 2**31 - 1]
    )
    def test_a_negative_or_oversized_size_is_garbage(self, kind, size):
        _garbage_everywhere(_frame(_head(kind, size=size), b"\x01" * 8))

    @pytest.mark.parametrize("kind", ["block", "pull-block"])
    @pytest.mark.parametrize("digest", [b"\xff" * 16, b"0123456789abcd\x80e"])
    def test_a_non_ascii_digest_is_garbage(self, kind, digest):
        _garbage_everywhere(_frame(_head(kind, digest=digest), b"\x01" * 8))

    @pytest.mark.parametrize("header", [
        {"type": "offer-reply"},
        {"type": "pull-empty", "slot": "three"},
        {"type": "offer", "segment_id": 1, "size": 0},
        {"type": "pull-block", "segment": {"segment_id": 1}},
        {"type": "block", "segment": {
            "segment_id": 1, "source_peer": 0, "size": 2,
            "injected_at": math.nan, "generation": 0,
        }, "created_at": 0.0, "polluted": False, "digest": ""},
        {"type": "pull-empty", "slot": 2**40},
    ])
    def test_the_encoder_refuses_what_the_decoder_would(self, header):
        with pytest.raises(FrameError):
            encode_frame(header)
