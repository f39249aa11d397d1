"""Checkpoint journal coverage: bit-for-bit restore, atomicity, SIGKILL.

Three layers, matching the recovery chain:

1. **Snapshot property** (hypothesis): a partially filled
   ``SegmentDecoder`` snapshots and restores bit-identically, and the
   restored decoder *behaves* identically — same innovative/redundant
   verdicts on the same future blocks, same decode output.
2. **File round-trip**: ``write_checkpoint``/``load_checkpoint`` preserve
   every field; torn files, foreign formats, and rank-inconsistent
   journals raise ``CheckpointError`` instead of resurrecting garbage.
3. **SIGKILL the server**: a supervised multi-process swarm loses its
   collector to a real SIGKILL mid-window and still completes the
   window after restart — restored rank and zero hash failures included.
"""

import asyncio
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coding.block import SegmentDescriptor
from repro.coding.rlnc import SegmentDecoder, encode_from_source
from repro.core.params import Parameters
from repro.faults.plan import FaultPlan
from repro.live.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    ServerCheckpoint,
    load_checkpoint,
    write_checkpoint,
)
from repro.live.supervisor import LiveSupervisor


def _segment(size, segment_id=7):
    return SegmentDescriptor(
        segment_id=segment_id,
        source_peer=3,
        size=size,
        injected_at=1.25,
        generation=0,
    )


def _source_rows(rng, size, payload_bytes):
    return np.array(
        [
            [rng.randrange(256) for _ in range(payload_bytes)]
            for _ in range(size)
        ],
        dtype=np.uint8,
    )


class TestSnapshotProperty:
    @given(
        size=st.integers(min_value=1, max_value=6),
        payload_bytes=st.integers(min_value=1, max_value=24),
        fill=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_partial_decoder_restores_bit_identically(
        self, size, payload_bytes, fill, seed
    ):
        rng = random.Random(seed)
        segment = _segment(size)
        rows = _source_rows(rng, size, payload_bytes)
        original = SegmentDecoder(segment)
        for _ in range(min(fill, size - 1) if size > 1 else 0):
            original.offer(
                encode_from_source(segment, rows, rng, created_at=0.5), 1.0
            )

        snap = original.snapshot()
        restored = SegmentDecoder.from_snapshot(snap)

        # Bit-for-bit: re-snapshotting the restored decoder reproduces
        # the snapshot exactly (matrix bytes, pivots, bookkeeping).
        assert restored.snapshot() == snap
        assert restored.rank == original.rank
        assert restored.offered == original.offered
        assert restored.redundant == original.redundant

        # Behavioral identity: both decoders must give the same verdict
        # on the same future blocks and decode to the same payloads.
        future = [
            encode_from_source(segment, rows, rng, created_at=2.0)
            for _ in range(2 * size)
        ]
        for block in future:
            assert original.offer(block, 3.0) == restored.offer(block, 3.0)
        assert original.rank == restored.rank
        assert original.is_complete and restored.is_complete
        np.testing.assert_array_equal(original.decode(), restored.decode())
        np.testing.assert_array_equal(restored.decode(), rows)


def _checkpoint_fixture(rng, n_decoders=3):
    decoders = []
    total_rank = 0
    for index in range(n_decoders):
        segment = _segment(size=2 + index, segment_id=10 + index)
        rows = _source_rows(rng, segment.size, 16)
        decoder = SegmentDecoder(segment)
        for _ in range(segment.size - 1):
            decoder.offer(encode_from_source(segment, rows, rng), 4.0)
        total_rank += decoder.rank
        decoders.append(decoder.snapshot())
    return ServerCheckpoint(
        seed=11,
        restarts=2,
        time_scale=2.0,
        epoch=1234.5,
        marked_at=6.25,
        next_slot=40,
        written_at=9.75,
        completed=(1, 2, 5),
        digests={1: "aa" * 8, 2: "bb" * 8, 5: "cc" * 8, 10: "dd" * 8},
        counters={"blocks_received": 17, "segments_completed": 3},
        delay_samples=(0.5, 1.25, 2.0),
        servers_down={
            "value": 0.0,
            "last_time": 9.0,
            "integral": 1.5,
            "window_start": 6.25,
        },
        total_rank=total_rank,
        decoders=tuple(decoders),
    )


class TestJournalFile:
    def test_round_trip_preserves_every_field(self, tmp_path):
        state = _checkpoint_fixture(random.Random(3))
        path = tmp_path / "server.ckpt"
        write_checkpoint(path, state)
        assert load_checkpoint(path) == state

    def test_rewrite_replaces_atomically(self, tmp_path):
        rng = random.Random(4)
        path = tmp_path / "server.ckpt"
        write_checkpoint(path, _checkpoint_fixture(rng, n_decoders=1))
        newer = _checkpoint_fixture(rng, n_decoders=3)
        write_checkpoint(path, newer)
        assert load_checkpoint(path) == newer
        # the temp file was renamed, not left behind
        assert [entry.name for entry in tmp_path.iterdir()] == ["server.ckpt"]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_truncated_tail_raises(self, tmp_path):
        state = _checkpoint_fixture(random.Random(5))
        path = tmp_path / "server.ckpt"
        write_checkpoint(path, state)
        blob = path.read_bytes()
        for cut in (len(blob) - 1, len(blob) // 2, 3):
            torn = tmp_path / "torn.ckpt"
            torn.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError):
                load_checkpoint(torn)

    def test_foreign_format_tag_raises(self, tmp_path):
        state = _checkpoint_fixture(random.Random(6))
        path = tmp_path / "server.ckpt"
        write_checkpoint(path, state)
        blob = path.read_bytes().replace(
            CHECKPOINT_FORMAT.encode(), b"repro-live-ckpt-v0"
        )
        path.write_bytes(blob)
        with pytest.raises(CheckpointError, match="refusing to restore"):
            load_checkpoint(path)

    def test_rank_inconsistent_journal_raises(self, tmp_path):
        state = _checkpoint_fixture(random.Random(7))
        tampered = ServerCheckpoint(
            **{
                **{
                    field: getattr(state, field)
                    for field in state.__dataclass_fields__
                },
                "total_rank": state.total_rank + 1,
            }
        )
        path = tmp_path / "server.ckpt"
        write_checkpoint(path, tampered)
        with pytest.raises(CheckpointError, match="rank check failed"):
            load_checkpoint(path)

    def test_garbage_bytes_raise_not_crash(self, tmp_path):
        path = tmp_path / "server.ckpt"
        path.write_bytes(b"\xff" * 64)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_server_without_a_checkpoint_path_writes_nothing(
        self, tmp_path, monkeypatch
    ):
        from repro.live.server import LiveLoggingServer

        params = Parameters(
            n_peers=8,
            arrival_rate=0.5,
            gossip_rate=2.0,
            deletion_rate=0.25,
            normalized_capacity=1.0,
            segment_size=2,
            n_servers=2,
            mode="rlnc",
            payload_bytes=32,
        )

        async def build():
            return LiveLoggingServer(params, seed=1)

        monkeypatch.chdir(tmp_path)
        server = asyncio.run(build())
        for _ in range(3):
            server.write_checkpoint_now()
        assert server.checkpoint_path is None
        assert server.checkpoint_writes == 0
        assert list(tmp_path.iterdir()) == []


class TestServerSigkill:
    def test_supervised_swarm_survives_server_sigkill(self):
        """SIGKILL the collector mid-window; the window still completes.

        The supervisor respawns the server, the server restores its
        decoder pool from the journal (the restore path raises on any
        rank mismatch, so completion implies zero rank lost), every peer
        reconnects, and the report covers the same measurement window.
        """
        params = Parameters(
            n_peers=8,
            arrival_rate=0.5,
            gossip_rate=2.0,
            deletion_rate=0.25,
            normalized_capacity=1.0,
            segment_size=2,
            n_servers=2,
            mode="rlnc",
            payload_bytes=32,
            faults=FaultPlan(
                process_faults=(("kill-server", 4.0, 0.0, 0.0),),
                process_restart_latency=1.0,
            ),
        )
        report = asyncio.run(LiveSupervisor(
            params, seed=1, warmup=2.0, duration=6.0,
            time_scale=2.0, peer_procs=2,
        ).run())
        assert report["supervised"] is True
        assert report["server_restarts"] >= 1
        assert report["hash_failures"] == 0
        assert report["segments_completed"] > 0
        assert report["hash_verified"] == report["segments_completed"]
        executed = report["process_faults_executed"]
        assert any(event["kind"] == "kill-server" for event in executed)
        assert report["peers_reporting"] == params.n_peers
