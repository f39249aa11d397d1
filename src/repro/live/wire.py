"""Live-runtime message catalog and object <-> frame serialization.

Frames (:mod:`repro.live.framing`) carry a JSON header plus opaque payload
bytes; this module defines what goes in them:

Control plane (peer <-> server registry connection, full duplex)
    ``hello`` -> ``welcome``  registration (the WELCOME carries the full
    session configuration, so standalone peers need no local flags),
    ``directory``, ``start``, ``mark``, ``stop``, ``reset``, ``bye``
    downstream; ``status`` and ``metrics-reply`` upstream; ``metrics``
    downstream requests one ``metrics-reply``.

Data plane (peer <-> peer, server -> peer)
    ``offer`` -> ``offer-reply`` -> ``block`` implements one gossip
    transfer (the OFFER round-trip realizes the simulator's
    rejection-sampled target eligibility check over the wire);
    ``pull`` -> ``pull-block`` | ``pull-empty`` implements one logging
    -server coupon pull.

Coded blocks travel as their row — the GF(256) coefficient header followed
by the coded payload, the block's one immutable ``bytes`` row verbatim
(never through JSON) — plus the segment descriptor and the source segment's
payload digest, so any collector can verify a decoded segment end to end.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Mapping, Tuple

from repro.coding.block import CodedBlock, SegmentDescriptor
from repro.core.params import MODE_RLNC, Parameters
from repro.live.framing import FrameGarbage

# -- control plane ----------------------------------------------------------
MSG_HELLO = "hello"
MSG_WELCOME = "welcome"
MSG_DIRECTORY = "directory"
MSG_START = "start"
MSG_MARK = "mark"
MSG_STOP = "stop"
MSG_RESET = "reset"
MSG_BYE = "bye"
MSG_STATUS = "status"
MSG_METRICS = "metrics"
MSG_METRICS_REPLY = "metrics-reply"
#: Peer -> server liveness beacon; carries the buffer's empty/non-empty
#: bit so a restarted server (or a stalled STATUS stream) resynchronizes
#: its candidate set from heartbeats alone.
MSG_HEARTBEAT = "heartbeat"
#: Server -> peer after a mid-window (re)registration: the collection
#: window is already open — resume the protocol without waiting for a
#: START broadcast that already happened.
MSG_RESUME = "resume"

# -- data plane -------------------------------------------------------------
MSG_OFFER = "offer"
MSG_OFFER_REPLY = "offer-reply"
MSG_BLOCK = "block"
MSG_PULL = "pull"
MSG_PULL_BLOCK = "pull-block"
MSG_PULL_EMPTY = "pull-empty"


def payload_digest(data: bytes) -> str:
    """Short content digest used for end-to-end decode verification."""
    return hashlib.sha256(data).hexdigest()[:16]


def segment_to_wire(segment: SegmentDescriptor) -> Dict[str, Any]:
    """A segment descriptor as block headers and checkpoints carry it."""
    return {
        "segment_id": segment.segment_id,
        "source_peer": segment.source_peer,
        "size": segment.size,
        "injected_at": segment.injected_at,
        "generation": segment.generation,
    }


def segment_from_wire(raw: Mapping[str, Any]) -> SegmentDescriptor:
    """Inverse of :func:`segment_to_wire`; a malformed *raw* raises
    ``KeyError``, ``TypeError`` or ``ValueError``."""
    return SegmentDescriptor(
        segment_id=int(raw["segment_id"]),
        source_peer=int(raw["source_peer"]),
        size=int(raw["size"]),
        injected_at=float(raw["injected_at"]),
        generation=int(raw["generation"]),
    )


def block_to_wire(
    msg_type: str, block: CodedBlock, digest: str, **extra: Any
) -> Tuple[Dict[str, Any], bytes]:
    """Serialize one RLNC coded block to a (header, payload) frame pair.

    The payload is the block's row, the s-byte coefficient vector followed by
    the coded payload; the header carries the segment descriptor, timestamps, and
    the segment's original-payload *digest* (so collectors can verify their
    reconstruction against the source without ever seeing it).
    """
    if block.row is None or block.payload is None:
        raise ValueError(
            "live transport requires RLNC blocks with explicit "
            "coefficients and payload (mode='rlnc', payload_bytes > 0)"
        )
    header: Dict[str, Any] = {
        "type": msg_type,
        "segment": segment_to_wire(block.segment),
        "created_at": block.created_at,
        "polluted": bool(block.polluted),
        "digest": digest,
        **extra,
    }
    return header, block.row


def block_from_wire(header: Mapping[str, Any], payload: bytes) -> CodedBlock:
    """Reconstruct a :class:`CodedBlock` from a received frame.

    Malformed segment metadata or a payload shorter than the declared
    coefficient vector raises :class:`FrameGarbage` (a protocol error the
    reader surfaces cleanly, never an index crash deeper in the stack).
    """
    try:
        segment = segment_from_wire(header["segment"])
        created_at = float(header["created_at"])
        polluted = bool(header["polluted"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FrameGarbage(f"malformed block header: {exc}") from exc
    if len(payload) <= segment.size:
        raise FrameGarbage(
            f"block payload is {len(payload)} byte(s), need more than the "
            f"{segment.size}-byte coefficient vector"
        )
    # The frame's bytes are the row as they are: rows are immutable.
    return CodedBlock(segment, row=payload, created_at=created_at, polluted=polluted)


def session_block_from_wire(
    params: Parameters, header: Mapping[str, Any], payload: bytes
) -> CodedBlock:
    """:func:`block_from_wire` for a block received inside a session.

    Every block of one session has the session's geometry: ``segment_size``
    coefficients and ``payload_bytes`` of coded data.  Anything else is
    :class:`FrameGarbage` — checked here, at ingress, so a hostile size can
    neither desynchronize a decoder nor make one allocate size² bytes.
    """
    block = block_from_wire(header, payload)
    size = block.segment.size
    if size != params.segment_size or (
        len(payload) != size + params.payload_bytes
    ):
        raise FrameGarbage(
            f"block declares segment size {size} with a {len(payload)}-byte "
            f"payload; this session uses size {params.segment_size} and "
            f"{params.segment_size + params.payload_bytes} bytes"
        )
    return block


def block_digest_of(header: Mapping[str, Any]) -> str:
    """The segment payload digest carried in a block frame header."""
    value = header.get("digest", "")
    return value if isinstance(value, str) else ""


#: The most peers a live session may declare.  A WELCOME's ``n_peers``
#: sizes what each adopting peer allocates (its fault verdicts sample the
#: polluter cohort over every slot), so it is bounded like a frame length:
#: at the bound adoption costs a few MB, far below the 64 MiB frame cap.
MAX_LIVE_PEERS = 1 << 16


def validate_live_params(params: Parameters, supervised: bool = False) -> None:
    """Reject configurations the live runtime cannot execute faithfully.

    The one gate every live entry point passes: the swarm harness, the
    supervisor, the server, and every peer adopting a WELCOME.
    *supervised* marks a multi-process run under
    :class:`repro.live.supervisor.LiveSupervisor`: only there can
    ``process_faults`` be delivered (as real signals); a single-process
    swarm has no processes to kill, so such plans are rejected.
    """
    if params.mode != MODE_RLNC or params.payload_bytes <= 0:
        raise ValueError(
            "live swarms move real bytes: set mode='rlnc' and "
            "payload_bytes > 0"
        )
    if params.n_peers > MAX_LIVE_PEERS:
        raise ValueError(
            f"live swarms run at most {MAX_LIVE_PEERS} peers, got "
            f"n_peers={params.n_peers}"
        )
    if params.has_adversary:
        raise ValueError("live swarms do not run adversary plans")
    if (
        not supervised
        and params.faults is not None
        and params.faults.process_faults
    ):
        raise ValueError(
            "process_faults need real processes to signal: run with "
            "--supervised (repro live swarm) or a LiveSupervisor"
        )
    if params.pull_policy != "random":
        raise ValueError(
            f"live swarms implement the paper's random pull policy only, "
            f"got {params.pull_policy!r}"
        )
    if params.gossip_latency != 0.0:
        raise ValueError(
            "gossip_latency is a simulator knob; live transfers take real "
            "network time"
        )

