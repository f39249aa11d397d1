"""The per-loop outbound link pool (``live/transport.py``).

Outbound data-plane connections belong to the event loop, not to the
``LivePeer`` that happens to need one: every hosted peer leases
``GOSSIP_CACHE`` links of the loop's one :class:`ConnectionCache`, keyed by
the destination listener's address.  Covered here: who shares a pool, the
bound and its LRU eviction, teardown under asyncio debug mode, the dial
count of a whole swarm, the ``drop``-identity and concurrent-``get`` races
a shared cache makes real, and a property test over interleavings.
"""

import asyncio
import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.live import ports, transport
from repro.live.harness import run_swarm
from repro.live.peer import GOSSIP_CACHE, LivePeer
from repro.live.transport import ConnectionCache, FramedConnection
from tests.fake_peer import until
from tests.test_live_shutdown import _params, _start_swarm, _teardown, run_clean


class Listeners:
    """A few loopback listeners that hold every accepted connection open
    until its dialer hangs up, and count what they saw."""

    def __init__(self, count):
        self.count = count
        self.addrs = []
        self.accepted = []
        self.open = []
        self._servers = []

    async def __aenter__(self):
        for index in range(self.count):
            self.accepted.append(0)
            self.open.append(0)
            server, port = await ports.start_server(self._handler(index))
            self._servers.append(server)
            self.addrs.append(("127.0.0.1", port))
        return self

    def _handler(self, index):
        async def handle(reader, writer):
            self.accepted[index] += 1
            self.open[index] += 1
            try:
                await reader.read()  # until the dialer's EOF
            except (ConnectionError, OSError):
                pass
            finally:
                self.open[index] -= 1
                await ports.close_writer(writer)

        return handle

    async def settled(self, expected_open):
        """Wait until exactly *expected_open* accepted links are open."""
        await until(
            lambda: sum(self.open) == expected_open,
            f"{expected_open} links open (saw {self.open})", tries=300,
        )

    async def __aexit__(self, *exc_info):
        for server in self._servers:
            server.close()
            await server.wait_closed()


class TestWhoSharesAPool:
    def test_one_pool_per_loop_and_none_after_it(self):
        async def scenario():
            params = _params(n_peers=2)
            server, peers = await _start_swarm(params)
            first, second = (peer._pool for peer in peers)
            assert first is second
            assert first.limit == 2 * GOSSIP_CACHE
            await server.stop_protocol()
            await _teardown(server, peers)
            # back on a cache of their own that will not dial
            assert peers[0]._pool is not first
            assert peers[0]._pool is not peers[1]._pool
            return first

        pools = [asyncio.run(scenario()) for _ in range(2)]
        gc.collect()
        assert pools[0] is not pools[1]
        for pool in pools:
            assert len(pool) == 0 and pool.limit == 0
            # nothing is reachable from the closed loop
            assert all(pool is not live for live in transport._POOLS.values())

    def test_a_peer_that_never_started_holds_no_lease(self):
        async def scenario():
            peer = LivePeer(0, _params(n_peers=2), 1, "127.0.0.1", 1)
            pool = ConnectionCache.lease(GOSSIP_CACHE)
            assert peer._pool is not pool
            with pytest.raises(ConnectionError):
                await peer._pool.get(("127.0.0.1", 1))
            await peer.close()  # must not hand back a lease it never took
            assert pool.limit == GOSSIP_CACHE
            await pool.release(GOSSIP_CACHE)

        run_clean(scenario)


class TestBound:
    def test_one_lease_keeps_four_links_and_evicts_the_oldest(self):
        async def scenario():
            async with Listeners(GOSSIP_CACHE + 1) as listeners:
                pool = ConnectionCache.lease(GOSSIP_CACHE)
                try:
                    addrs = listeners.addrs
                    conns = [await pool.get(addr) for addr in addrs[:-1]]
                    assert len(pool) == GOSSIP_CACHE
                    assert await pool.get(addrs[0]) is conns[0]  # refreshed
                    fifth = await pool.get(addrs[-1])
                    assert len(pool) == pool.limit == GOSSIP_CACHE
                    # the least recently used link went, and really closed
                    assert conns[1].is_closing
                    assert not conns[0].is_closing and not fifth.is_closing
                    await listeners.settled(GOSSIP_CACHE)
                    assert listeners.open[1] == 0
                    assert listeners.accepted == [1] * (GOSSIP_CACHE + 1)
                finally:
                    await pool.release(GOSSIP_CACHE)
                await listeners.settled(0)

        run_clean(scenario)

    def test_the_bound_follows_the_leases(self):
        async def scenario():
            async with Listeners(6) as listeners:
                pool = ConnectionCache.lease(2)
                assert ConnectionCache.lease(3) is pool
                for addr in listeners.addrs:
                    await pool.get(addr)
                assert len(pool) == pool.limit == 5
                await pool.release(3)
                assert len(pool) == pool.limit == 2
                await listeners.settled(2)
                await pool.release(2)
                assert len(pool) == 0
                await listeners.settled(0)
                with pytest.raises(ConnectionError):
                    await pool.get(listeners.addrs[0])
                assert listeners.accepted == [1] * 6

        run_clean(scenario)


class TestTeardown:
    def test_last_close_leaves_no_link_and_no_task(self):
        async def scenario():
            params = _params(n_peers=6, arrival_rate=4.0, gossip_rate=8.0)
            server, peers = await _start_swarm(params)
            pool = peers[0]._pool
            await until(lambda: len(pool) >= 3, "gossip links in the pool")
            assert len(pool) <= params.n_peers
            await server.stop_protocol()
            for peer in peers[:-1]:
                await peer.close()
            assert pool.limit == GOSSIP_CACHE  # one lease still out
            assert len(pool) <= GOSSIP_CACHE
            await peers[-1].close()
            assert len(pool) == 0 and pool.limit == 0
            await server.close()
            assert len(server._cache) == 0

        run_clean(scenario)

    def test_burst_reset_hangs_up_on_accepted_links_only(self):
        async def scenario():
            params = _params(n_peers=4, arrival_rate=4.0, gossip_rate=8.0)
            server, peers = await _start_swarm(params)
            pool = peers[0]._pool
            await until(lambda: len(pool) == 4, "a link to every listener")
            victim = peers[1]
            inbound = list(victim._conn_tasks)
            outbound = {
                addr: conn for addr, conn in pool._links.items()
                if addr[1] != victim.listen_port
            }
            assert inbound and outbound
            await victim._burst_reset()
            await asyncio.gather(*inbound)
            # the neighbours' links to everyone else are untouched
            for addr, conn in outbound.items():
                assert pool._links.get(addr) is conn and not conn.is_closing
            assert victim.generation == 1
            await until(lambda: victim._conn_tasks, "senders re-dialing")
            await server.stop_protocol()
            await _teardown(server, peers)

        run_clean(scenario)


class TestDialCount:
    def test_a_swarm_dials_each_listener_about_once_per_role(self, monkeypatch):
        """One control, one gossip and one pull link per peer, however long
        the swarm runs (a private 4-link LRU under the uniform target draw
        re-dialed on about three gossips in four at N = 16)."""
        n_peers = 16
        dials = []
        real_open = FramedConnection.open.__func__

        async def counting_open(cls, host, port, attempts=ports.DEFAULT_ATTEMPTS):
            dials.append(port)
            return await real_open(cls, host, port, attempts)

        monkeypatch.setattr(
            FramedConnection, "open", classmethod(counting_open)
        )
        report = asyncio.run(
            run_swarm(
                _params(n_peers=n_peers, gossip_rate=4.0), seed=3,
                warmup=1.0, duration=5.0, time_scale=4.0,
            )
        )
        assert report["gossip_transfers"] > 4 * n_peers  # it did gossip
        assert report["hash_verified"] > 0 and report["hash_failures"] == 0
        assert len(dials) <= 4 * n_peers, len(dials)


class TestRaces:
    def test_drop_spares_a_link_somebody_else_redialed(self):
        async def scenario():
            async with Listeners(1) as listeners:
                (addr,) = listeners.addrs
                pool = ConnectionCache.lease(GOSSIP_CACHE)
                try:
                    failed = await pool.get(addr)
                    await failed.close()  # it died under its user...
                    fresh = await pool.get(addr)  # ...a neighbour re-dialed
                    assert fresh is not failed
                    await pool.drop(addr, failed)  # the late loser's drop
                    assert await pool.get(addr) is fresh
                    assert not fresh.is_closing
                    await pool.drop(addr, fresh)
                    assert len(pool) == 0 and fresh.is_closing
                    moved = await pool.get(addr)
                    await pool.drop(addr)  # the listener moved: whatever it is
                    assert len(pool) == 0 and moved.is_closing
                    assert listeners.accepted == [3]
                finally:
                    await pool.release(GOSSIP_CACHE)
                await listeners.settled(0)

        run_clean(scenario)

    def test_concurrent_gets_end_with_one_cached_link(self):
        async def scenario():
            async with Listeners(1) as listeners:
                (addr,) = listeners.addrs
                pool = ConnectionCache.lease(GOSSIP_CACHE)
                try:
                    conns = await asyncio.gather(
                        *(pool.get(addr) for _ in range(5))
                    )
                    assert len(pool) == 1
                    assert all(conn is conns[0] for conn in conns)
                    assert not conns[0].is_closing
                    # every losing dial was closed, not leaked
                    await listeners.settled(1)
                finally:
                    await pool.release(GOSSIP_CACHE)
                await listeners.settled(0)

        run_clean(scenario)


_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["get", "get", "get", "kill", "drop", "drop-mine", "lease",
             "release"]
        ),
        st.integers(0, 5),
    ),
    max_size=40,
)


class TestInterleavings:
    @settings(max_examples=40, deadline=None)
    @given(ops=_OPS)
    def test_never_over_the_bound_never_a_closing_link(self, ops):
        async def scenario():
            async with Listeners(6) as listeners:
                pool = ConnectionCache()  # a private one, like the collector's
                leases = 0
                mine = {}
                for op, index in ops:
                    addr = listeners.addrs[index]
                    if op == "lease":
                        pool.limit += 2
                        leases += 1
                    elif op == "release" and leases:
                        leases -= 1
                        await pool.release(2)
                    elif op == "get" and leases == 0:
                        with pytest.raises(ConnectionError):
                            await pool.get(addr)
                    elif op == "get":
                        conn = await pool.get(addr)
                        assert not conn.is_closing
                        mine[addr] = conn
                    elif op == "kill" and addr in mine:
                        await mine[addr].close()
                    elif op == "drop":
                        await pool.drop(addr)
                        assert addr not in pool._links
                    elif op == "drop-mine" and addr in mine:
                        await pool.drop(addr, mine[addr])
                        assert pool._links.get(addr) is not mine[addr]
                    assert len(pool) <= pool.limit == 2 * leases
                await pool.release(2 * leases)
                assert len(pool) == 0
                # whatever left the cache was closed on the way out
                assert all(conn.is_closing for conn in mine.values())
                await listeners.settled(0)

        asyncio.run(scenario())
