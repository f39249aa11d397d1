"""Kernel equivalence for the fast engine's set operations.

The per-step set operations are sort-based (``docs/PERFORMANCE.md``, "The
fast engine"); each is checked here against the plain form it replaced or
a scalar loop stating the same rule:

- ``_sorted_unique`` against ``np.unique``;
- ``FastState.remove_block_rows`` against a list-based reference that
  computes the *exact* post-removal table — row order is state, because
  later kernels draw uniform row indices;
- ``append_blocks``/``remove_block_rows`` over alternating tagged and
  untagged batches against the same list reference, with the polluted-row
  count and the id table's column views checked after every batch;
- the gossip within-batch capacity rule against one Python loop iteration
  per transfer, replaying the kernel's own draws from a cloned generator.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import ENGINE_FAST, GOSSIP_TARGET_TRIES, Parameters
from repro.fastsim import FastCollectionSystem, FastState
from repro.fastsim.state import _sorted_unique


@st.composite
def id_arrays(draw):
    dtype = draw(st.sampled_from([np.int64, np.int32]))
    values = draw(st.lists(st.integers(0, 40), max_size=60))
    shape = draw(st.sampled_from(["any", "sorted", "all-equal"]))
    if shape == "sorted":
        values = sorted(values)
    elif shape == "all-equal":
        values = values[:1] * len(values)
    return np.asarray(values, dtype=dtype)


class TestSortedUnique:
    @settings(max_examples=200, deadline=None)
    @given(id_arrays())
    def test_matches_np_unique(self, values):
        before = values.copy()
        result = _sorted_unique(values)
        expected = np.unique(values)
        assert result.dtype == values.dtype == expected.dtype
        assert result.tolist() == expected.tolist()
        assert values.tolist() == before.tolist()  # input left alone

    def test_short_inputs(self):
        for dtype in (np.int64, np.int32):
            assert _sorted_unique(np.empty(0, dtype=dtype)).tolist() == []
            assert _sorted_unique(np.asarray([7], dtype=dtype)).tolist() == [7]


N_PEERS = 5


@st.composite
def tables_and_rows(draw):
    """A random block table plus a unique, sorted set of rows to delete."""
    n_segments = draw(st.integers(1, 8))
    table = draw(
        st.lists(
            st.tuples(
                st.integers(0, N_PEERS - 1),
                st.integers(0, n_segments - 1),
                st.booleans(),
            ),
            min_size=1,
            max_size=60,
        )
    )
    n = len(table)
    shape = draw(st.sampled_from(["any", "tail", "whole", "most"]))
    if shape == "whole":
        rows = list(range(n))
    elif shape == "tail":
        # every deleted row inside the `count`-row tail: no holes to fill
        rows = list(range(draw(st.integers(0, n - 1)), n))
    else:
        rows = sorted(draw(st.sets(st.integers(0, n - 1))))
        if shape == "most":  # count > n / 2
            rows = sorted({*rows, *range(0, n, 2), n - 1})
    return n_segments, table, rows


def build_state(n_segments, table):
    state = FastState(N_PEERS, capacity=max(len(table), 4), segment_size=4)
    state.new_segments(np.zeros(n_segments))
    peers, segments, polluted = (np.asarray(column) for column in zip(*table))
    state.append_blocks(
        peers.astype(np.int64), segments.astype(np.int64), polluted.astype(bool)
    )
    return state


def reference_remove(table, rows):
    """Swap-with-tail on a plain list: ascending holes take the ascending
    survivors of the last ``len(rows)`` rows."""
    n = len(table)
    keep_start = n - len(rows)
    deleted = set(rows)
    holes = [r for r in rows if r < keep_start]
    survivors = [r for r in range(keep_start, n) if r not in deleted]
    assert len(holes) == len(survivors)
    after = list(table)
    for hole, survivor in zip(holes, survivors):
        after[hole] = after[survivor]
    return after[:keep_start]


class TestRemoveBlockRows:
    @settings(max_examples=300, deadline=None)
    @given(tables_and_rows())
    def test_matches_list_reference(self, case):
        n_segments, table, rows = case
        state = build_state(n_segments, table)
        degree_before = state.seg_degree[:n_segments].copy()
        peers, segments, polluted, extinct = state.remove_block_rows(
            np.asarray(rows, dtype=np.int64)
        )

        removed = [table[r] for r in rows]
        assert list(zip(peers.tolist(), segments.tolist(), polluted.tolist())) == removed

        expected = reference_remove(table, rows)
        k = state.n_blocks
        assert k == len(expected)
        assert (
            list(
                zip(
                    state.block_peer[:k].tolist(),
                    state.block_seg[:k].tolist(),
                    state.block_polluted[:k].tolist(),
                )
            )
            == expected
        )

        peer_degree = [0] * N_PEERS
        seg_degree = [0] * n_segments
        seg_polluted = [0] * n_segments
        for peer, segment, tagged in expected:
            peer_degree[peer] += 1
            seg_degree[segment] += 1
            seg_polluted[segment] += tagged
        assert state.peer_blocks.tolist() == peer_degree
        assert state.seg_degree[:n_segments].tolist() == seg_degree
        assert state.seg_polluted[:n_segments].tolist() == seg_polluted

        expected_extinct = [
            r
            for r in range(n_segments)
            if degree_before[r] > 0 and seg_degree[r] == 0
        ]
        assert extinct.tolist() == expected_extinct
        assert not state.seg_alive[expected_extinct].any()
        state.check_conservation()

    def test_no_rows_is_a_no_op(self):
        state = build_state(2, [(0, 0, False), (1, 1, True)])
        peers, segments, polluted, extinct = state.remove_block_rows(
            np.empty(0, dtype=np.int64)
        )
        assert len(peers) == len(segments) == len(polluted) == len(extinct) == 0
        assert state.n_blocks == 2


class TestBlockIdGuards:
    """The block table stores slots and segment ids as int32; ids that would
    not fit are refused before anything is allocated or written."""

    def test_too_many_peers(self):
        with pytest.raises(ValueError, match="n_peers must be in .1, 2147483647."):
            FastState(2**31, capacity=8, segment_size=4)
        with pytest.raises(ValueError, match="n_peers must be in"):
            FastState(0, capacity=8, segment_size=4)

    def test_segment_ids_run_out(self):
        state = FastState(4, capacity=8, segment_size=4)
        state.n_segments = 2**31 - 2
        with pytest.raises(OverflowError, match="segment ids"):
            state.new_segments(np.zeros(2))
        assert state.n_segments == 2**31 - 2

    def test_block_rows_run_out(self):
        """TTL draws rows as int32, so the table stops at 2**31 - 1 rows."""
        state = build_state(1, [(0, 0, False)])
        state.n_blocks = 2**31 - 2
        with pytest.raises(OverflowError, match="block rows"):
            state.append_blocks(
                np.zeros(2, dtype=np.int64),
                np.zeros(2, dtype=np.int64),
                np.zeros(2, dtype=bool),
            )
        assert state.n_blocks == 2**31 - 2
        assert state.peer_blocks.tolist() == [1, 0, 0, 0, 0]


class TestPollutedRowCount:
    """The pollution column is read only while a row is tagged, so the
    tagged-row count must be exact through every append and removal."""

    @pytest.mark.parametrize("seed", range(6))
    def test_alternating_batches_match_list_reference(self, seed):
        rng = np.random.default_rng(seed)
        n_segments = 40
        state = FastState(N_PEERS, capacity=10**6, segment_size=4)
        state.new_segments(np.zeros(n_segments))
        table = []
        alive = set(range(n_segments))
        ids = state.block_ids
        for step in range(40):
            tagged = step % 2 == 1
            count = int(rng.integers(1, 400))
            live = sorted(alive)
            batch = [
                (
                    int(rng.integers(0, N_PEERS)),
                    live[int(rng.integers(0, len(live)))],
                    bool(tagged and rng.random() < 0.5),
                )
                for _ in range(count)
            ]
            peers, segments, polluted = (
                np.asarray(column) for column in zip(*batch)
            )
            state.append_blocks(
                peers.astype(np.int64), segments.astype(np.int64), polluted
            )
            table += batch
            if table and step % 3 != 2:
                drawn = rng.integers(0, len(table), size=len(table) // 4)
                rows = sorted({int(row) for row in drawn})
                if step % 10 == 9:  # untag the table: the count returns to 0
                    rows = [r for r, (_, _, tag) in enumerate(table) if tag]
                _, _, _, extinct = state.remove_block_rows(
                    np.asarray(rows, dtype=np.int32)
                )
                table = reference_remove(table, rows)
                held = {segment for _, segment, _ in table}
                died = sorted(alive - held)
                alive &= held
                assert extinct.tolist() == died
            k = state.n_blocks
            assert list(
                zip(
                    state.block_peer[:k].tolist(),
                    state.block_seg[:k].tolist(),
                    state.block_polluted[:k].tolist(),
                )
            ) == table
            assert state.block_ids is ids  # reserved once, never moved
            assert np.shares_memory(state.block_peer, state.block_ids)
            assert np.shares_memory(state.block_seg, state.block_ids)
            assert state.n_polluted == sum(tag for _, _, tag in table)
            assert not state.block_polluted[k:].any()
            state.check_conservation()


def gossip_system(fill, seed):
    """A fast system whose peer *i* already buffers ``fill[i]`` blocks."""
    params = Parameters(
        n_peers=len(fill),
        arrival_rate=6.0,
        gossip_rate=8.0,
        deletion_rate=1.0,
        normalized_capacity=3.0,
        segment_size=2,
        n_servers=2,
        buffer_capacity=4,
        engine=ENGINE_FAST,
        tau=0.05,
    )
    system = FastCollectionSystem(params, seed=seed)
    state = system.state
    owners = np.repeat(np.arange(len(fill), dtype=np.int64), fill)
    segment_ids = state.new_segments(np.zeros(3))
    state.append_blocks(
        owners,
        segment_ids[np.arange(len(owners)) % 3],
        np.zeros(len(owners), dtype=bool),
    )
    return system


class TestGossipCapacityRule:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 4), min_size=2, max_size=8).filter(
            lambda fill: any(fill)
        ),
        st.integers(1, 40),
        st.integers(0, 2**16),
    )
    def test_matches_scalar_loop(self, fill, count, seed):
        system = gossip_system(fill, seed)
        state = system.state
        capacity = state.capacity
        n = state.n_peers
        rng = copy.deepcopy(system._gossip_rng)
        held = state.peer_blocks.tolist()
        before = state.n_blocks
        seg_before = state.block_seg[:before].tolist()

        system.kernel_gossip(count, 0.0, 0.0)

        # replay the kernel's draws, then apply the rule one transfer at a time
        senders = rng.integers(0, n, size=count)
        emitting = sum(1 for sender in senders if held[sender] > 0)
        rows = rng.integers(0, before, size=emitting) if emitting else []
        offered = [seg_before[row] for row in rows]
        full = sum(1 for blocks in held if blocks >= capacity)
        no_target = 0
        accepted = []
        if emitting and full >= n:
            no_target = emitting
        elif emitting:
            if full:
                fail = (full / n) ** GOSSIP_TARGET_TRIES
                missed = rng.random(emitting) < fail
                no_target = int(missed.sum())
                offered = [s for s, miss in zip(offered, missed) if not miss]
            non_full = [i for i in range(n) if held[i] < capacity]
            picks = rng.integers(0, len(non_full), size=len(offered))
            for arrival, (pick, segment) in enumerate(zip(picks, offered)):
                receiver = non_full[pick]
                if held[receiver] < capacity:
                    held[receiver] += 1
                    accepted.append((receiver, arrival, segment))
                else:
                    no_target += 1
        accepted.sort()  # appended receiver by receiver, arrival order within

        k = state.n_blocks
        assert k - before == len(accepted)
        assert state.block_peer[before:k].tolist() == [a[0] for a in accepted]
        assert state.block_seg[before:k].tolist() == [a[2] for a in accepted]
        assert state.peer_blocks.tolist() == held
        assert system.metrics.gossip_transfers == len(accepted)
        assert system.metrics.gossip_no_target == no_target
        state.check_conservation()
