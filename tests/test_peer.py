"""Tests for the peer buffer model."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coding.block import CodedBlock, SegmentDescriptor, make_source_blocks
from repro.core.peer import Peer, SegmentHolding
from repro.util.randomset import RandomizedSet


def descriptor(segment_id=0, size=4):
    return SegmentDescriptor(
        segment_id=segment_id, source_peer=0, size=size, injected_at=0.0
    )


def abstract_block(segment_id=0, size=4):
    return CodedBlock(segment=descriptor(segment_id, size))


class TestSegmentHolding:
    def test_abstract_independence_caps_at_size(self):
        holding = SegmentHolding(descriptor(size=3))
        for _ in range(5):
            holding.add(abstract_block(size=3))
        assert holding.block_count == 5
        assert holding.independent_count() == 3

    def test_rlnc_independence_is_true_rank(self):
        desc = descriptor(size=3)
        holding = SegmentHolding(desc)
        blocks = make_source_blocks(desc)
        holding.add(blocks[0])
        # a scaled copy of block 0 adds no rank
        copy = CodedBlock(segment=desc, coefficients=blocks[0].coefficients * 0 + blocks[0].coefficients)
        holding.add(copy)
        assert holding.block_count == 2
        assert holding.independent_count() == 1
        holding.add(blocks[1])
        assert holding.independent_count() == 2

    def test_rank_cache_invalidated_on_removal(self):
        desc = descriptor(size=2)
        holding = SegmentHolding(desc)
        blocks = make_source_blocks(desc)
        holding.add(blocks[0])
        holding.add(blocks[1])
        assert holding.independent_count() == 2
        holding.remove(blocks[1])
        assert holding.independent_count() == 1

    def test_wrong_segment_rejected(self):
        holding = SegmentHolding(descriptor(segment_id=0))
        with pytest.raises(ValueError):
            holding.add(abstract_block(segment_id=1))

    def test_remove_absent_returns_false(self):
        holding = SegmentHolding(descriptor())
        assert not holding.remove(abstract_block())

    def test_encode_from_empty_raises(self):
        with pytest.raises(ValueError):
            SegmentHolding(descriptor()).make_coded_block(
                np.random.default_rng(0), now=0.0
            )

    def test_abstract_encode_emits_bare_block(self):
        holding = SegmentHolding(descriptor())
        holding.add(abstract_block())
        out = holding.make_coded_block(np.random.default_rng(0), now=3.0)
        assert not out.is_coded
        assert out.created_at == 3.0

    def test_rlnc_encode_emits_span_block(self):
        desc = descriptor(size=3)
        holding = SegmentHolding(desc)
        for block in make_source_blocks(desc)[:2]:
            holding.add(block)
        out = holding.make_coded_block(np.random.default_rng(1), now=0.0)
        assert out.is_coded
        assert out.coefficients[2] == 0  # not in span of e0,e1


class TestPeer:
    def test_initial_state(self):
        peer = Peer(slot=3, capacity=10)
        assert peer.is_empty
        assert not peer.is_full
        assert peer.capacity - peer.block_count == 10
        assert peer.block_count == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            Peer(slot=0, capacity=0)

    def test_add_and_remove(self):
        peer = Peer(slot=0, capacity=4)
        block = abstract_block()
        peer.add_block(block)
        assert peer.block_count == 1
        assert 0 in peer.holdings
        assert peer.remove_block(block)
        assert peer.is_empty
        assert 0 not in peer.holdings
        assert not peer.remove_block(block)

    def test_full_buffer_rejects(self):
        peer = Peer(slot=0, capacity=2)
        peer.add_block(abstract_block(segment_id=0))
        peer.add_block(abstract_block(segment_id=1))
        assert peer.is_full
        with pytest.raises(ValueError):
            peer.add_block(abstract_block(segment_id=2))

    def test_can_inject(self):
        peer = Peer(slot=0, capacity=10)
        assert peer.can_inject(10)
        peer.add_block(abstract_block())
        assert not peer.can_inject(10)
        assert peer.can_inject(9)

    def test_needs_segment_until_s_blocks(self):
        peer = Peer(slot=0, capacity=20)
        for _ in range(3):
            assert peer.needs_segment(0, 4)
            peer.add_block(abstract_block(segment_id=0, size=4))
        peer.add_block(abstract_block(segment_id=0, size=4))
        assert not peer.needs_segment(0, 4)
        assert peer.needs_segment(1, 4)  # a different segment

    def test_needs_segment_false_when_full(self):
        peer = Peer(slot=0, capacity=1)
        peer.add_block(abstract_block(segment_id=0))
        assert not peer.needs_segment(1, 4)

    def test_sample_segment_uniform_over_distinct(self):
        peer = Peer(slot=0, capacity=100)
        # segment 0: 9 blocks; segment 1: 1 block
        for _ in range(9):
            peer.add_block(abstract_block(segment_id=0, size=10))
        peer.add_block(abstract_block(segment_id=1, size=10))
        rng = random.Random(0)
        draws = [peer.draw_segment(rng, uniform=True) for _ in range(2000)]
        share = draws.count(1) / len(draws)
        assert abs(share - 0.5) < 0.05  # uniform over {0, 1}

    def test_sample_segment_proportional_over_blocks(self):
        peer = Peer(slot=0, capacity=100)
        for _ in range(9):
            peer.add_block(abstract_block(segment_id=0, size=10))
        peer.add_block(abstract_block(segment_id=1, size=10))
        rng = random.Random(0)
        draws = [peer.draw_segment(rng, uniform=False) for _ in range(2000)]
        share = draws.count(1) / len(draws)
        assert abs(share - 0.1) < 0.03  # proportional to multiplicity

    def test_degree_of(self):
        peer = Peer(slot=0, capacity=10)
        peer.add_block(abstract_block(segment_id=0))
        peer.add_block(abstract_block(segment_id=0))
        assert peer.holdings[0].block_count == 2
        assert 9 not in peer.holdings

    def test_all_blocks(self):
        peer = Peer(slot=0, capacity=10)
        blocks = [abstract_block(segment_id=i) for i in range(3)]
        for block in blocks:
            peer.add_block(block)
        assert set(id(b) for b in peer.all_blocks()) == set(id(b) for b in blocks)

    def test_held_segments_tracks_distinct(self):
        peer = Peer(slot=0, capacity=10)
        a = abstract_block(segment_id=0)
        b = abstract_block(segment_id=0)
        peer.add_block(a)
        peer.add_block(b)
        assert len(peer.held_segments) == 1
        peer.remove_block(a)
        assert len(peer.held_segments) == 1
        peer.remove_block(b)
        assert len(peer.held_segments) == 0

    def test_repr(self):
        assert "slot=2" in repr(Peer(slot=2, capacity=5))


class TestBufferLayout:
    """``buffered_blocks`` is a plain list indexed by ``block.position``; its
    layout, and so every block-uniform draw, is the one a RandomizedSet fed
    the same adds and removals has."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 2**16), max_size=150))
    def test_matches_randomized_set_element_for_element(self, ops):
        peer = Peer(slot=0, capacity=12)
        mirror = RandomizedSet()
        live = []
        for op in ops:
            if live and (op % 3 == 0 or peer.is_full):
                block = live.pop(op % len(live))
                assert peer.remove_block(block)
                mirror.discard(block)
            else:
                block = abstract_block(segment_id=op % 5)
                peer.add_block(block)
                mirror.add(block)
                live.append(block)
            buffer = peer.buffered_blocks
            assert len(buffer) == len(mirror) == peer.block_count
            assert all(a is b for a, b in zip(buffer, mirror))
            assert all(buffer[block.position] is block for block in live)
        if live:
            expected = list(mirror)[random.Random(op).randrange(len(mirror))]
            drawn = peer.draw_segment(random.Random(op), uniform=False)
            assert drawn == expected.segment.segment_id

    def test_removed_block_is_not_found_again(self):
        peer = Peer(slot=0, capacity=4)
        first, second = abstract_block(), abstract_block()
        peer.add_block(first)
        peer.add_block(second)
        assert peer.remove_block(first)
        assert not peer.remove_block(first)
        assert peer.buffered_blocks == [second] and second.position == 0
