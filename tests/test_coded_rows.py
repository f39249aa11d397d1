"""A coded block is one ``[header | payload]`` row (PR 17).

Header and payload of a coded block always undergo the same linear
combination, so recode, decode and the wire make one pass over one buffer.
These tests pin the fused layout to the split computation it replaced:

- recoding over a holding draws the same coefficients and emits the same
  bytes as combining the stacked headers and the stacked payloads separately,
- the incremental decoder agrees with ``linalg.rref`` over the offered rows,
- a holding's row matrix is its blocks' rows, in order, whatever was added
  and removed,
- a checkpoint journal written by the tree before the change restores and
  re-serialises byte for byte, and
- RLNC-mode report digests recorded on that tree still come out.
"""

import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Parameters
from repro.coding import gf256
from repro.coding.block import (
    BlockRows,
    CodedBlock,
    SegmentDescriptor,
    make_source_blocks,
)
from repro.coding.linalg import IncrementalDecoder, rank, rref
from repro.coding.rlnc import SegmentDecoder, _draw_coefficients, recode
from repro.core.peer import SegmentHolding
from repro.core.system import CollectionSystem
from repro.faults import FaultPlan
from repro.faults.injector import corrupt_block
from repro.live import wire
from repro.live.checkpoint import load_checkpoint, write_checkpoint
from tests import gf256_oracle as oracle

PAYLOAD_LENGTHS = st.sampled_from([0, 1, 256])


def descriptor(size, segment_id=0):
    return SegmentDescriptor(
        segment_id=segment_id, source_peer=0, size=size, injected_at=0.0
    )


def random_blocks(rng, segment, count, length):
    """*count* blocks with random headers (and payloads, when *length* > 0)."""
    blocks = []
    for _ in range(count):
        header = rng.integers(0, 256, size=segment.size, dtype=np.uint8)
        data = rng.integers(0, 256, size=length, dtype=np.uint8) if length else None
        blocks.append(CodedBlock(segment=segment, coefficients=header, payload=data))
    return blocks


def split_recode(blocks, rng):
    """What ``recode`` computed before the rows were fused: one draw, then
    the stacked headers and the stacked payloads combined separately through
    the 2-D table gather."""
    while True:
        local = rng.integers(0, 256, size=len(blocks), dtype=np.uint8)
        if local.any():
            break

    def combine(vectors):
        products = gf256.MUL_TABLE[local[:, None], np.stack(vectors)]
        return np.bitwise_xor.reduce(products, axis=0)

    header = combine([block.coefficients for block in blocks])
    if blocks[0].payload is None:
        return header, None
    return header, combine([block.payload for block in blocks])


def assert_same_block(block, header, data):
    assert np.array_equal(block.coefficients, header)
    if data is None:
        assert block.payload is None
    else:
        assert np.array_equal(block.payload, data)


class TestRecodeEquivalence:
    @given(
        size=st.integers(1, 6),
        extra=st.integers(0, 11),
        length=PAYLOAD_LENGTHS,
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_fused_recode_is_the_split_computation(self, size, extra, length, seed):
        k = 1 + extra % (2 * size)  # k in [1, 2s]: holdings grow past s
        segment = descriptor(size)
        blocks = random_blocks(np.random.default_rng(seed), segment, k, length)
        holding = SegmentHolding(segment)
        for block in blocks:
            holding.add(block)
        fused_rng, list_rng, split_rng = (
            np.random.default_rng([seed, 1]) for _ in range(3)
        )
        for _ in range(3):
            header, data = split_recode(blocks, split_rng)
            assert_same_block(holding.make_coded_block(fused_rng, 0.0), header, data)
            assert_same_block(recode(blocks, list_rng), header, data)
            assert fused_rng.bit_generator.state == split_rng.bit_generator.state
            assert list_rng.bit_generator.state == split_rng.bit_generator.state

    def test_stdlib_random_draws_are_unchanged(self):
        segment = descriptor(3)
        blocks = make_source_blocks(segment, np.arange(12).reshape(3, 4))
        out = recode(blocks, random.Random(5))
        reference = random.Random(5)
        # systematic inputs: the header *is* the local draw
        assert out.coefficients.tolist() == [reference.randrange(256) for _ in range(3)]

    def test_emitted_block_is_one_buffer(self):
        segment = descriptor(3)
        blocks = make_source_blocks(segment, np.arange(12).reshape(3, 4))
        out = recode(blocks, np.random.default_rng(0))
        assert type(out.row) is bytes and len(out.row) == 7
        assert out.coefficients.base is out.row and out.payload.base is out.row
        assert out.row == out.coefficients.tobytes() + out.payload.tobytes()

    def test_scalar_draw_is_the_array_stream(self):
        """Every draw, one coefficient included, consumes the generator
        exactly as the ``size=k`` array draw does.  Half the 10^4 draws are
        of one coefficient, so the all-zero rejection is taken too."""
        lengths = np.random.default_rng(11).integers(1, 21, size=10_000)
        lengths[::2] = 1
        drawn_rng, reference_rng = np.random.default_rng(3), np.random.default_rng(3)
        rejected = 0
        for count in lengths.tolist():
            drawn = _draw_coefficients(drawn_rng, count)
            while True:
                reference = reference_rng.integers(0, 256, size=count, dtype=np.uint8)
                if reference.any():
                    break
                rejected += 1
            assert type(drawn) is bytes and drawn == reference.tobytes()
        assert rejected > 0
        assert drawn_rng.bit_generator.state == reference_rng.bit_generator.state

    def test_draw_reads_the_stream_other_draws_share(self):
        """The draw reads the bit generator's 32-bit words directly, so it
        must agree with ``integers(0, 256, size=k, dtype=uint8)`` also when
        other draws from the one generator come between: scalar ``uint8``
        draws, and ``(s, L)`` payload draws (the system's payloads share the
        coding stream).  Bytes and generator state are compared after every
        step of 10^4, a third of them one-coefficient draws, so the all-zero
        rejection (1 in 256 at k = 1) is taken."""
        lengths = np.random.default_rng(12).integers(1, 21, size=10_000)
        lengths[::3] = 1
        drawn_rng, reference_rng = np.random.default_rng(4), np.random.default_rng(4)
        rejected = 0
        for step, count in enumerate(lengths.tolist()):
            drawn = _draw_coefficients(drawn_rng, count)
            while True:
                reference = reference_rng.integers(0, 256, size=count, dtype=np.uint8)
                if reference.any():
                    break
                rejected += 1
            assert drawn == reference.tobytes()
            if step % 3 == 1:
                for rng in (drawn_rng, reference_rng):
                    rng.integers(0, 256, dtype=np.uint8)
            elif step % 5 == 2:
                shape = (count, 1 + step % 7)
                assert drawn_rng.integers(0, 256, size=shape, dtype=np.uint8).tobytes() == (
                    reference_rng.integers(0, 256, size=shape, dtype=np.uint8).tobytes()
                )
            assert drawn_rng.bit_generator.state == reference_rng.bit_generator.state
        assert rejected > 0

    def test_header_only_block_has_no_payload(self):
        out = recode(make_source_blocks(descriptor(3)), np.random.default_rng(0))
        assert out.payload is None and len(out.row) == 3


class TestValidationHoles:
    """Three inputs the split layout let through; each raised nothing on the
    tree before this change."""

    def test_innovation_probe_checks_the_vector_length(self):
        decoder = IncrementalDecoder(4)
        too_long = np.ones(7, dtype=np.uint8)
        with pytest.raises(ValueError, match="shape"):
            decoder.add(too_long)
        with pytest.raises(ValueError, match="shape"):
            decoder.would_be_innovative(too_long)  # used to answer True
        decoder.add(np.array([1, 0, 0, 0], dtype=np.uint8))
        with pytest.raises(ValueError, match="shape"):
            decoder.would_be_innovative(np.ones(3, dtype=np.uint8))

    def test_block_payload_must_be_one_row(self):
        with pytest.raises(ValueError, match="one row of bytes"):
            CodedBlock(
                segment=descriptor(2),
                coefficients=np.array([1, 2], dtype=np.uint8),
                payload=np.zeros((2, 3), dtype=np.uint8),
            )

    @pytest.mark.parametrize("bare", [0, 1])
    def test_recode_refuses_inputs_that_only_partly_carry_payloads(self, bare):
        segment = descriptor(2)
        blocks = make_source_blocks(segment, np.arange(8).reshape(2, 4))
        blocks[bare] = CodedBlock(
            segment=segment, coefficients=blocks[bare].coefficients
        )
        with pytest.raises(ValueError, match="payloads"):
            recode(blocks, np.random.default_rng(0))  # used to drop the payload

    def test_recode_refuses_payloads_of_two_lengths(self):
        segment = descriptor(2)
        blocks = [
            CodedBlock(segment, np.array([1, 0], np.uint8), np.zeros(4, np.uint8)),
            CodedBlock(segment, np.array([0, 1], np.uint8), np.zeros(5, np.uint8)),
        ]
        with pytest.raises(ValueError, match="payloads"):
            recode(blocks, np.random.default_rng(0))

    @pytest.mark.parametrize("payload_first", [True, False])
    def test_decoder_refuses_a_mixed_stream(self, payload_first):
        with_payload = (np.array([1, 0], np.uint8), np.array([9, 9, 9], np.uint8))
        bare = (np.array([0, 1], np.uint8), None)
        first, second = (with_payload, bare) if payload_first else (bare, with_payload)
        decoder = IncrementalDecoder(2)
        assert decoder.add(*first)
        with pytest.raises(ValueError, match="block row"):
            decoder.add(*second)
        assert decoder.rank == 1

    def test_holding_refuses_an_abstract_block_among_coded_ones(self):
        segment = descriptor(2)
        holding = SegmentHolding(segment)
        holding.add(make_source_blocks(segment)[0])
        with pytest.raises(ValueError):
            holding.add(CodedBlock(segment=segment))
        assert holding.block_count == 1

    def test_row_shorter_than_the_header_is_refused(self):
        with pytest.raises(ValueError, match="block row"):
            CodedBlock(descriptor(4), row=np.zeros(3, dtype=np.uint8))


class TestDecoderAgainstRref:
    @given(
        size=st.integers(1, 6),
        length=PAYLOAD_LENGTHS,
        span=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_add_sequence_matches_rref_of_the_offered_rows(
        self, size, length, span, seed
    ):
        """Rank, pivot columns and the reduced rows (``coefficient_matrix``
        and ``snapshot``) after every ``add`` equal ``rref`` of the rows
        offered so far — over a stream with dependent blocks (drawn from a
        *span*-dimensional subspace first), exact duplicates and polluted
        blocks (zero header, junk payload)."""
        rng = np.random.default_rng(seed)
        originals = rng.integers(0, 256, size=(size, length), dtype=np.uint8)
        basis = rng.integers(0, 256, size=(min(span, size), size), dtype=np.uint8)

        def row_for(header):
            return np.concatenate((header, oracle.mat_vec(originals.T, header)))

        stream = [
            row_for(oracle.mat_vec(basis.T, rng.integers(0, 256, len(basis), np.uint8)))
            for _ in range(size + 2)
        ]
        stream += [
            row_for(rng.integers(0, 256, size=size, dtype=np.uint8))
            for _ in range(size + 2)
        ]
        stream.insert(1, stream[0].copy())
        junk = rng.integers(0, 256, size=size + length, dtype=np.uint8)
        junk[:size] = 0
        stream.insert(2, junk)

        decoder = IncrementalDecoder(size)
        offered = []
        for row in stream:
            before = decoder.rank
            probe = decoder.would_be_innovative(row[:size])
            innovative = decoder.add(row[:size], row[size:] if length else None)
            assert probe == innovative
            if row[:size].any():
                offered.append(row)
            reduced, pivots = rref(np.stack(offered)) if offered else (None, [])
            assert decoder.rank == len(pivots) == before + innovative
            snap = decoder.snapshot()
            assert sorted(snap.pivot_cols) == pivots
            order = np.argsort(snap.pivot_cols)
            if pivots:
                r = decoder.rank
                headers = np.frombuffer(snap.matrix_rows, np.uint8).reshape(r, size)
                data = np.frombuffer(snap.payload_rows, np.uint8).reshape(r, -1)
                live = np.concatenate((headers, data), axis=1)[order]
                assert np.array_equal(live, reduced[:r])
                assert np.array_equal(decoder.coefficient_matrix(), headers)
        if decoder.is_complete and length:
            assert np.array_equal(decoder.decode(), originals)

    def test_add_row_is_add(self):
        rng = np.random.default_rng(3)
        split, fused = IncrementalDecoder(4), IncrementalDecoder(4)
        for _ in range(6):
            row = rng.integers(0, 256, size=4 + 5, dtype=np.uint8)
            assert split.add(row[:4], row[4:]) == fused.add_row(row)
        assert split.snapshot() == fused.snapshot()
        assert np.array_equal(split.decode(), fused.decode())

    def test_polluted_first_block_fixes_the_payload_length(self):
        decoder = IncrementalDecoder(2)
        assert not decoder.add(np.zeros(2, np.uint8), np.array([7, 7, 7], np.uint8))
        assert decoder.rank == 0 and decoder.payload_length == 3
        restored = IncrementalDecoder.from_snapshot(decoder.snapshot())
        assert restored.snapshot() == decoder.snapshot()
        assert restored.add(np.array([1, 0], np.uint8), np.array([1, 2, 3], np.uint8))
        with pytest.raises(ValueError, match="block row"):
            restored.add(np.array([0, 1], np.uint8), np.array([1, 2], np.uint8))



class EagerGaussJordan:
    """The decoder as it was before its Jordan step moved to the reads:
    stored rows always fully reduced, factors read up front from the
    offered row, and every new pivot row back-substituted into all stored
    rows."""

    def __init__(self, size):
        self.size = size
        self.rows = []
        self.pivot_cols = []

    def add_row(self, row):
        reduced = int.from_bytes(row, "little")
        for stored, col in zip(self.rows, self.pivot_cols):
            if row[col]:
                reduced ^= int.from_bytes(stored.translate(gf256.SCALE[row[col]]), "little")
        header = reduced & ((1 << (8 * self.size)) - 1)
        if not header:
            return False
        col = ((header & -header).bit_length() - 1) >> 3
        new = reduced.to_bytes(len(row), "little")
        new = new.translate(gf256.SCALE[gf256.inv(new[col])])
        for index, stored in enumerate(self.rows):
            if stored[col]:
                self.rows[index] = (
                    int.from_bytes(stored, "little")
                    ^ int.from_bytes(new.translate(gf256.SCALE[stored[col]]), "little")
                ).to_bytes(len(row), "little")
        self.rows.append(new)
        self.pivot_cols.append(col)
        return True


class TestDecoderAgainstEagerGaussJordan:
    @given(
        size=st.integers(1, 8),
        length=PAYLOAD_LENGTHS,
        span=st.integers(1, 8),
        restore_at=st.integers(0, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_read_matches_the_eager_decoder(
        self, size, length, span, restore_at, seed
    ):
        """Verdicts, rank, pivot columns, ``coefficient_matrix()``,
        ``snapshot()`` and ``decode()`` bytes equal the eager decoder's after
        every row of a stream with redundant rows (from a *span*-dimensional
        subspace, singular when *span* < *size*), exact duplicates and
        polluted rows (zero header, junk payload), header-only when
        *length* is 0.  Midway the decoder is swapped for the one its
        snapshot restores, whose rows are fully reduced."""
        rng = np.random.default_rng(seed)
        originals = rng.integers(0, 256, size=(size, length), dtype=np.uint8)
        basis = rng.integers(0, 256, size=(min(span, size), size), dtype=np.uint8)

        def row_for(header):
            return (header.tobytes() + oracle.mat_vec(originals.T, header).tobytes())

        stream = [
            row_for(oracle.mat_vec(basis.T, rng.integers(0, 256, len(basis), np.uint8)))
            for _ in range(size + 2)
        ]
        stream += [
            row_for(rng.integers(0, 256, size=size, dtype=np.uint8))
            for _ in range(size + 2)
        ]
        stream.insert(3, stream[1])
        stream.insert(2, bytes(size) + rng.integers(0, 256, length, np.uint8).tobytes())
        stream.append(stream[-2])

        decoder, eager = IncrementalDecoder(size), EagerGaussJordan(size)
        for step, row in enumerate(stream):
            if step == restore_at:
                decoder = IncrementalDecoder.from_snapshot(decoder.snapshot())
            assert decoder.would_be_innovative(np.frombuffer(row[:size], np.uint8)) == (
                decoder.add_row(row)
            ) == eager.add_row(row)
            snap = decoder.snapshot()
            assert decoder.rank == len(eager.rows)
            assert list(snap.pivot_cols) == eager.pivot_cols
            assert snap.matrix_rows == b"".join(row[:size] for row in eager.rows)
            assert snap.payload_rows == b"".join(row[size:] for row in eager.rows)
            assert decoder.coefficient_matrix().tobytes() == snap.matrix_rows
        if decoder.is_complete and length:
            order = np.argsort(eager.pivot_cols)
            expected = b"".join(eager.rows[index][size:] for index in order)
            assert decoder.decode().tobytes() == expected == originals.tobytes()


class TestHoldingMatrix:
    @given(
        size=st.integers(1, 5),
        length=PAYLOAD_LENGTHS,
        ops=st.lists(st.integers(0, 2**16), min_size=1, max_size=40),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matrix_is_the_blocks_rows_in_order(self, size, length, ops, seed):
        """Two adds for every remove, so holdings grow well past ``s`` rows
        (the matrix doubles) and removals hit head, middle and tail."""
        rng = np.random.default_rng(seed)
        segment = descriptor(size)
        holding = SegmentHolding(segment)
        for op in ops:
            if op % 3 and holding.blocks:
                victim = holding.blocks[op % len(holding.blocks)]
                assert holding.remove(victim)
                assert not holding.remove(victim)
            else:
                holding.add(random_blocks(rng, segment, 1, length)[0])
            stored = holding._rows.rows
            assert len(stored) == holding.block_count
            # the blocks' own row objects, in order: stored without a copy
            assert all(a is block.row for a, block in zip(stored, holding.blocks))
            if stored:
                headers = np.stack([block.coefficients for block in holding.blocks])
                assert holding.independent_count() == rank(headers)
            else:
                assert holding.independent_count() == 0
        if holding.blocks:
            check, split = np.random.default_rng(1), np.random.default_rng(1)
            assert_same_block(
                holding.make_coded_block(check, 0.0),
                *split_recode(holding.blocks, split),
            )

    def test_growth_past_segment_size_keeps_every_row(self):
        segment = descriptor(2)
        blocks = random_blocks(np.random.default_rng(0), segment, 9, 4)
        rows = BlockRows.of(blocks)
        assert rows.rows == [block.row for block in blocks]
        del rows.rows[0]
        del rows.rows[7]
        assert rows.rows == [block.row for block in blocks[1:8]]

    def test_rows_are_copied_in_not_aliased(self):
        """Pollution invalidates the header of the *emitted* block
        (``faults/injector.py``): neither the holding it was recoded from
        nor a holding that already stored it may see that.  Rows are
        immutable ``bytes`` shared without a copy, and pollution swaps in a
        new row."""
        segment = descriptor(3)
        source = SegmentHolding(segment)
        for block in make_source_blocks(segment, np.arange(12).reshape(3, 4)):
            source.add(block)
        receiver = SegmentHolding(segment)
        before = list(source._rows.rows)
        emitted = source.make_coded_block(np.random.default_rng(2), 0.0)
        receiver.add(emitted)
        stored = list(receiver._rows.rows)
        assert any(stored[0][:3])
        corrupt_block(emitted)
        assert not emitted.coefficients.any() and not any(emitted.row[:3])
        assert emitted.payload.any()  # only the header is invalidated
        assert source._rows.rows == before
        assert receiver._rows.rows == stored

    def test_single_block_holding_does_not_alias_its_emission(self):
        """Nothing can write through an emission into the holding it came
        from: the row is immutable, its views are read-only, and pollution
        rebinds the emission's row alone.  (A one-row recode by the scalar
        1 may return the very same row object.)"""
        segment = descriptor(2)
        holding = SegmentHolding(segment)
        holding.add(CodedBlock(segment, np.array([1, 0], np.uint8), np.array([5], np.uint8)))
        emitted = holding.make_coded_block(np.random.default_rng(0), 0.0)
        with pytest.raises(TypeError):
            emitted.row[0] = 0
        for view in (emitted.coefficients, emitted.payload):
            assert not view.flags["WRITEABLE"]
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 0
        corrupt_block(emitted)
        assert emitted.row[:2] == bytes(2)
        assert holding._rows.rows == [bytes([1, 0, 5])]
        assert holding.blocks[0].row == bytes([1, 0, 5])

    def test_abstract_holding_keeps_no_matrix(self):
        holding = SegmentHolding(descriptor(2))
        holding.add(CodedBlock(segment=descriptor(2)))
        assert holding._rows is None
        assert holding.make_coded_block(np.random.default_rng(0), 1.0).row is None


class TestWireIsTheRow:
    def test_frame_payload_is_the_row_verbatim(self):
        segment = descriptor(3)
        block = recode(
            make_source_blocks(segment, np.arange(12).reshape(3, 4)),
            np.random.default_rng(4),
        )
        _, payload = wire.block_to_wire(wire.MSG_BLOCK, block, "")
        assert payload is block.row  # sent as it is, no copy
        assert payload == block.coefficients.tobytes() + block.payload.tobytes()

    def test_received_block_is_the_frame_bytes(self):
        block = make_source_blocks(descriptor(2), np.arange(6).reshape(2, 3))[0]
        header, payload = wire.block_to_wire(wire.MSG_PULL_BLOCK, block, "")
        received = bytes(bytearray(payload))  # a frame's own bytes object
        back = wire.block_from_wire(header, received)
        assert back.row is received  # taken as the row, no copy
        with pytest.raises(ValueError, match="read-only"):
            back.coefficients[0] = 0
        corrupt_block(back)  # swaps in a zero header plus the same payload
        assert back.row == bytes([0, 0, 0, 1, 2]) and back.payload.tolist() == [0, 1, 2]
        assert received == payload == bytes([1, 0, 0, 1, 2])


FIXTURE = Path(__file__).parent / "fixtures" / "checkpoint_pr16_midrank.ckpt"


class TestCheckpointCompatibility:
    """``FIXTURE`` was written by ``live/checkpoint.py`` on the tree before
    this change (two-matrix decoder): a 3-of-6 payload decoder that also saw
    a polluted block, a 2-of-4 header-only decoder, a rank-0 decoder that has
    only seen a polluted block, and a 4-of-5 decoder with 256-byte payloads."""

    def test_parent_journal_restores_and_resnapshots_identically(self, tmp_path):
        state = load_checkpoint(FIXTURE)
        assert [len(s.decoder.pivot_cols) for s in state.decoders] == [3, 2, 0, 4]
        assert [s.decoder.payload_length for s in state.decoders] == [24, None, 8, 256]
        restored = [SegmentDecoder.from_snapshot(snap) for snap in state.decoders]
        assert tuple(decoder.snapshot() for decoder in restored) == state.decoders
        assert sum(decoder.rank for decoder in restored) == state.total_rank
        rewritten = tmp_path / "again.ckpt"
        write_checkpoint(rewritten, state)
        assert rewritten.read_bytes() == FIXTURE.read_bytes()

    def test_restored_decoders_keep_collecting(self):
        state = load_checkpoint(FIXTURE)
        wide = SegmentDecoder.from_snapshot(state.decoders[3])
        rng = np.random.default_rng(0)
        while not wide.is_complete:
            wide.offer(CodedBlock(wide.segment, row=rng.integers(0, 256, 261, np.uint8)), 9.0)
        assert wide.decode().shape == (5, 256)
        bare = SegmentDecoder.from_snapshot(state.decoders[1])
        with pytest.raises(ValueError, match="block row"):
            bare.offer(CodedBlock(bare.segment, row=np.ones(6, np.uint8)), 9.0)

    def test_mixed_payload_flags_are_refused(self):
        snap = load_checkpoint(FIXTURE).decoders[0].decoder
        from dataclasses import replace

        with pytest.raises(ValueError, match="payload flags"):
            IncrementalDecoder.from_snapshot(
                replace(snap, has_payload=(True, False, True))
            )
        with pytest.raises(ValueError):
            IncrementalDecoder.from_snapshot(
                replace(snap, payload_rows=snap.payload_rows[:-1])
            )


def _digest(payload):
    """SHA-256 of the sorted JSON (``bench``'s ``report_digest``)."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _payloads(descriptor):
    rng = np.random.default_rng([7, descriptor.segment_id])
    return rng.integers(0, 256, size=(descriptor.size, 16), dtype=np.uint8)


def _rlnc_params(**overrides):
    values = dict(
        n_peers=40, arrival_rate=8.0, gossip_rate=6.0, deletion_rate=1.0,
        normalized_capacity=3.0, segment_size=4, n_servers=2,
        mode="rlnc", payload_bytes=16,
    )
    values.update(overrides)
    return Parameters(**values)


class TestPinnedRlncDigests:
    """Every simulated statistic of five RLNC-mode sessions, as recorded on
    the tree before the rows were fused.  Every decoded segment is also
    compared with what was injected."""

    def _run(self, params, seed):
        provider = _payloads if params.payload_bytes else None
        system = CollectionSystem(params, seed=seed, payload_provider=provider)
        report = system.run(2.0, 6.0)
        system.consistency_check()
        for segment, rows in system.collected_data.values():
            assert np.array_equal(rows, _payloads(segment))
        assert report.segments_completed >= 8
        return report

    @pytest.mark.parametrize(
        "seed,expected",
        [
            (1, "dda4d248dd32b9b7d5fa379694ea3545bbef73d6342a382652267651d8dcc1b1"),
            (2, "65dbcd60462ecad1372bdcc21fdb9b6591b56e0d58d03ba55c7d1209e8f7877c"),
        ],
    )
    def test_honest(self, seed, expected):
        assert _digest(self._run(_rlnc_params(), seed).as_dict()) == expected

    def test_uniform_segment_selection(self):
        report = self._run(_rlnc_params(segment_selection="uniform"), 3)
        assert _digest(report.as_dict()) == (
            "59ab103bf4133ccd3046e3e3dec576f79504743d5f2e420d19f33bf5c2124540"
        )

    def test_header_only(self):
        report = self._run(_rlnc_params(payload_bytes=0), 4)
        assert _digest(report.as_dict()) == (
            "cb0649777331f5dbe993882f4b60cd0c12d35dfec50ba326627423a5f85d7370"
        )

    def test_churn_pollution_and_loss(self):
        # the only pin over in-place header zeroing through the views
        plan = FaultPlan(
            pollution_fraction=0.1, gossip_loss_rate=0.05, pull_loss_rate=0.05
        )
        report = self._run(_rlnc_params(mean_lifetime=4.0, faults=plan), 5)
        assert report.blocks_rejected_polluted > 0 and report.departures > 0
        assert _digest(report.as_dict()) == (
            "908bd238ba32760c1e2da48e3aff759660606d10c8211819a95e2de3aa74d5fd"
        )


class TestDecodeAtBenchGeometry:
    """The coded path at the bench's geometry: ``event_rlnc``'s rates at
    N = 100, s = 20 and 256-byte payloads, where recodes combine holdings of
    up to 20 rows and decoders reach rank 20.  Every decoded segment must be
    the injected one, byte for byte."""

    def test_segments_decode_byte_for_byte(self, monkeypatch):
        widest = []
        combine = gf256.combine_rows

        def recording_combine(rows, scalars):
            widest.append(len(rows))
            return combine(rows, scalars)

        monkeypatch.setattr(gf256, "combine_rows", recording_combine)

        def payloads(descriptor):
            rng = np.random.default_rng([1, descriptor.segment_id])
            return rng.integers(0, 256, size=(20, 256), dtype=np.uint8)

        params = Parameters(
            n_peers=100, arrival_rate=20.0, gossip_rate=10.0, deletion_rate=1.0,
            normalized_capacity=8.0, segment_size=20, n_servers=4,
            mode="rlnc", payload_bytes=256,
        )
        system = CollectionSystem(params, seed=1, payload_provider=payloads)
        system.run_until(2.0)
        system.consistency_check()
        assert max(widest) >= 20
        assert len(system.collected_data) >= 5
        for descriptor, rows in system.collected_data.values():
            assert rows.shape == (20, 256)
            assert rows.tobytes() == payloads(descriptor).tobytes()
