"""Atomic on-disk checkpointing of the live collector's decode state.

A SIGKILLed :class:`repro.live.server.LiveLoggingServer` loses everything
in memory — most painfully the accumulated GF(256) rank of every
in-flight segment, which took real network round-trips to collect.  This
module persists that state so a supervised restart resumes the *same*
collection window: the clock epoch, the measurement-window edge, every
in-flight :class:`~repro.coding.rlnc.SegmentDecoder` (reduced coefficient
rows, payload rows, pivot columns), the verified-segment digest map, and
the collector counters.

File format (``repro-live-ckpt-v1``)
    A sequence of frames in the live wire framing
    (:mod:`repro.live.framing`): one ``checkpoint`` header frame carrying
    every scalar field, then one ``decoder`` frame per in-flight segment
    whose binary payload is the reduced coefficient rows followed by the
    payload rows.  Reusing the framing gives the file the same eager
    validation properties as the wire: a torn or corrupt file raises
    :class:`CheckpointError` on load instead of resurrecting garbage
    decode state.

Write discipline
    ``write_checkpoint`` writes to a temp file in the target directory,
    fsyncs, and ``os.replace``s into place — a crash mid-write leaves the
    previous checkpoint intact, never a torn one (the load path still
    classifies a truncated tail defensively).
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.coding.block import SegmentDescriptor
from repro.coding.linalg import DecoderSnapshot
from repro.coding.rlnc import SegmentDecoderSnapshot
from repro.live.framing import Frame, FrameDecoder, FrameError, encode_frame
from repro.util.codec import decode, encode

#: Format tag of the journal; bump on any incompatible layout change so a
#: restarted server refuses a checkpoint written by an older binary
#: instead of misreading it.
CHECKPOINT_FORMAT = "repro-live-ckpt-v1"

_HEADER_TYPE = "checkpoint"
_DECODER_TYPE = "decoder"


class CheckpointError(Exception):
    """The checkpoint file is unreadable, torn, or from another format."""


@dataclass(frozen=True)
class ServerCheckpoint:
    """Everything a restarted collector needs to resume its window."""

    #: root seed of the swarm (restore refuses a seed mismatch).
    seed: int
    #: restarts already survived when this checkpoint was written.
    restarts: int
    #: sim-units-per-wall-second of the running clock.
    time_scale: float
    #: the clock epoch (``loop.time()`` units; CLOCK_MONOTONIC is
    #: system-wide on Linux, so it survives a process restart on one box).
    epoch: Optional[float]
    #: sim time the measurement window opened, or None before MARK.
    marked_at: Optional[float]
    #: next slot the registry would assign to an unnumbered HELLO.
    next_slot: int
    #: sim time this checkpoint was written (downtime accounting anchor).
    written_at: float
    #: segment ids already fully decoded and verified.
    completed: Tuple[int, ...]
    #: segment id -> source payload digest (verification state).
    digests: Dict[int, str]
    #: collector counters (CollectorStats counter names).
    counters: Dict[str, int]
    #: per-completion delay samples of the open window.
    delay_samples: Tuple[float, ...]
    #: serialized WindowedAverage internals of the downtime integral.
    servers_down: Dict[str, float]
    #: sum of in-flight decoder ranks at write time (restore cross-check:
    #: "zero rank lost" is asserted against this, not assumed).
    total_rank: int
    #: every in-flight segment decoder.
    decoders: Tuple[SegmentDecoderSnapshot, ...]


@dataclass(frozen=True)
class _DecoderEntry:
    """The header of one ``decoder`` frame; its payload carries the rows."""

    segment: SegmentDescriptor
    offered: int
    redundant: int
    completed_at: Optional[float]
    payload_length: Optional[int]
    pivot_cols: Tuple[int, ...]
    #: one 0/1 flag per row
    has_payload: Tuple[int, ...]
    #: the payload splits here into matrix rows and payload rows
    matrix_bytes: int


def _decoder_frame(snap: SegmentDecoderSnapshot) -> bytes:
    decoder = snap.decoder
    entry = _DecoderEntry(
        snap.segment, snap.offered, snap.redundant, snap.completed_at,
        decoder.payload_length, decoder.pivot_cols,
        tuple(int(flag) for flag in decoder.has_payload),
        len(decoder.matrix_rows),
    )
    return encode_frame(
        {"type": _DECODER_TYPE, **encode(entry)},
        decoder.matrix_rows + decoder.payload_rows,
    )


def _decoder_from_frame(frame: Frame) -> SegmentDecoderSnapshot:
    fields = {k: v for k, v in frame.header.items() if k != "type"}
    entry = decode(_DecoderEntry, fields)
    if not 0 <= entry.matrix_bytes <= len(frame.payload):
        raise CheckpointError(
            f"decoder entry declares {entry.matrix_bytes} matrix byte(s) but "
            f"carries only {len(frame.payload)}"
        )
    return SegmentDecoderSnapshot(
        segment=entry.segment,
        offered=entry.offered,
        redundant=entry.redundant,
        completed_at=entry.completed_at,
        decoder=DecoderSnapshot(
            size=entry.segment.size,
            payload_length=entry.payload_length,
            pivot_cols=entry.pivot_cols,
            has_payload=tuple(bool(flag) for flag in entry.has_payload),
            matrix_rows=bytes(frame.payload[:entry.matrix_bytes]),
            payload_rows=bytes(frame.payload[entry.matrix_bytes:]),
        ),
    )


def write_checkpoint(path: Path, state: ServerCheckpoint) -> None:
    """Atomically persist *state* to *path* (temp file + fsync + rename)."""
    header = encode(replace(state, decoders=()))
    del header["decoders"]
    header.update(
        type=_HEADER_TYPE, format=CHECKPOINT_FORMAT,
        n_decoders=len(state.decoders),
    )
    blob = bytearray(encode_frame(header))
    for snap in state.decoders:
        blob.extend(_decoder_frame(snap))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(bytes(blob))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, str(path))
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def load_checkpoint(path: Path) -> ServerCheckpoint:
    """Parse a checkpoint journal; raise :class:`CheckpointError` if unfit."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    decoder = FrameDecoder()
    try:
        frames = decoder.feed(blob)
        decoder.finish()
    except FrameError as exc:
        raise CheckpointError(f"torn or corrupt checkpoint: {exc}") from exc
    if not frames:
        raise CheckpointError("checkpoint file contains no frames")
    head = frames[0]
    if head.type != _HEADER_TYPE:
        raise CheckpointError(
            f"first frame is {head.type!r}, expected {_HEADER_TYPE!r}"
        )
    header = head.header
    version = header.get("format")
    if version != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"checkpoint format {version!r} is not {CHECKPOINT_FORMAT!r}; "
            "refusing to restore across incompatible layouts"
        )
    fields = {
        k: v for k, v in header.items()
        if k not in ("type", "format", "n_decoders")
    }
    try:
        state = replace(
            decode(ServerCheckpoint, {**fields, "decoders": ()}),
            decoders=tuple(_decoder_from_frame(frame) for frame in frames[1:]),
        )
    except ValueError as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc
    declared = header.get("n_decoders", len(state.decoders))
    if declared != len(state.decoders):
        raise CheckpointError(
            f"checkpoint declares {declared} decoder(s) but carries "
            f"{len(state.decoders)} — truncated journal"
        )
    restored_rank = sum(
        len(snap.decoder.pivot_cols) for snap in state.decoders
    )
    if restored_rank != state.total_rank:
        raise CheckpointError(
            f"rank check failed: journal carries {restored_rank}, header "
            f"declares {state.total_rank}"
        )
    return state


__all__ = [
    "CHECKPOINT_FORMAT",
    "CheckpointError",
    "ServerCheckpoint",
    "load_checkpoint",
    "write_checkpoint",
]
