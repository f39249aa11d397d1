"""Hostile input on the live data and control planes.

A real collector meets malformed clients all day.  Every frame a live
process parses must either be handled or take the ``FrameGarbage`` path
(drop that connection, count it, keep serving) — never raise out of a
long-lived task, never size an allocation from an unchecked header.
"""

import asyncio
import json
import struct

import numpy as np
import pytest

from repro.coding.block import SegmentDescriptor, make_source_blocks
from repro.core.params import Parameters
from repro.live import framing, ports, wire
from repro.live.livemetrics import PeerStats, aggregate_report
from repro.live.peer import LivePeer
from repro.live.server import LiveLoggingServer
from repro.live.transport import FramedConnection
from tests.fake_peer import FakePeer, until, wire_block


def _params():
    return Parameters(
        n_peers=4,
        arrival_rate=0.25,
        gossip_rate=1.0,
        deletion_rate=0.25,
        normalized_capacity=1.0,
        segment_size=2,
        n_servers=1,
        mode="rlnc",
        payload_bytes=8,
    )


def run_quiet(scenario):
    """Run *scenario*; fail if any task died with an unhandled exception."""
    unhandled = []

    async def wrapper():
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(
            lambda loop, context: unhandled.append(context)
        )
        return await scenario()

    result = asyncio.run(wrapper())
    assert unhandled == []
    return result


class TestCollectorIngress:
    """Bad PULL-BLOCK replies never escape ``_pull_once``."""

    def _pull_through(self, replies):
        async def scenario():
            params = _params()
            server = LiveLoggingServer(params, seed=5)
            await server.start()
            queue = list(replies(params))
            fake = FakePeer(server, 0, lambda frame: queue.pop(0))
            try:
                await fake.start()
                await fake.advertise()
                for _ in range(len(queue)):
                    await server._pull_once(1.0)
            finally:
                await fake.close()
                await server.close()
            return server

        return run_quiet(scenario)

    def test_size_disagreeing_with_the_decoder_is_dropped(self):
        server = self._pull_through(lambda params: [
            wire_block(params, 7, [1, 0]),
            # same segment, another size: used to raise ValueError out of
            # the decoder and kill the pull task for good.
            wire_block(params, 7, [0, 1, 0], size=3),
            wire_block(params, 7, [0, 1]),
        ])
        stats = server.stats
        assert stats.pulls == 3
        assert stats.useful_pulls == 2
        assert stats.pull_empty_races == 1
        assert stats.segments_completed == 1

    def test_huge_declared_size_allocates_no_decoder(self):
        def replies(params):
            header, _ = wire_block(params, 9, [1, 0])
            header["segment"]["size"] = 60_000
            return [(header, bytes(60_001))]

        server = self._pull_through(replies)
        assert server._decoders == {}
        assert server.stats.pull_empty_races == 1
        assert server.stats.useful_pulls == 0

    def test_reply_of_another_type_is_dropped(self):
        server = self._pull_through(
            lambda params: [({"type": wire.MSG_OFFER_REPLY}, b"")]
        )
        assert server.stats.pull_empty_races == 1
        # the trial booked it as idle; the report must not book it again
        report = aggregate_report(
            server.params,
            1.0,
            server.stats.summary(1.0, 1.0),
            [PeerStats().to_wire(1.0)],
        )
        assert report["pulls"] == report["idle_pulls"] == 1


class TestPeerIngress:
    """Bad gossip frames cost the sender its connection, nothing more."""

    def _against_peer(self, attack):
        async def scenario():
            params = _params()
            server = LiveLoggingServer(params, seed=5)
            await server.start()
            peer = LivePeer(0, params, 5, "127.0.0.1", server.port)
            await peer.start()
            try:
                conn = await FramedConnection.open(
                    "127.0.0.1", peer.listen_port
                )
                await attack(params, conn)
                hung_up = await asyncio.wait_for(conn.read(), 5.0)
                await conn.close()
                # the listener keeps serving honest senders
                conn = await FramedConnection.open(
                    "127.0.0.1", peer.listen_port
                )
                reply = await conn.request({
                    "type": wire.MSG_OFFER, "segment_id": 1,
                    "size": params.segment_size,
                })
                await conn.close()
            finally:
                await peer.close()
                await server.close()
            return hung_up, reply, peer

        return run_quiet(scenario)

    def test_block_of_another_geometry_is_dropped(self):
        async def attack(params, conn):
            header, payload = wire_block(params, 3, [1, 0, 0], size=3)
            header["type"] = wire.MSG_BLOCK
            await conn.send(header, payload)

        hung_up, reply, peer = self._against_peer(attack)
        assert hung_up is None
        assert reply.header["want"] is True
        assert peer.stats.gossip_undeliverable == 1
        assert peer.core.is_empty

    def test_block_with_a_padded_payload_is_dropped(self):
        async def attack(params, conn):
            header, payload = wire_block(params, 3, [1, 0])
            header["type"] = wire.MSG_BLOCK
            await conn.send(header, payload + b"\x00")

        hung_up, _, peer = self._against_peer(attack)
        assert hung_up is None
        assert peer.stats.gossip_undeliverable == 1
        assert peer.core.is_empty

    def test_offer_of_another_size_is_dropped(self):
        async def attack(params, conn):
            await conn.send(
                {"type": wire.MSG_OFFER, "segment_id": 3, "size": 60_000}
            )

        hung_up, reply, peer = self._against_peer(attack)
        assert hung_up is None
        assert reply.header["want"] is True
        assert peer.stats.gossip_undeliverable == 1


class _AimAtLastSlot:
    """A target draw that always lands on slot ``n - 1``."""

    def randrange(self, n):
        return n - 1


def _give_segment(peer, params):
    """Buffer one fresh source segment, as the injection loop would."""
    size = params.segment_size
    descriptor = SegmentDescriptor(
        segment_id=(peer.slot << 32) | peer._segment_seq, source_peer=peer.slot,
        size=size, injected_at=0.0, generation=0,
    )
    peer._segment_seq += 1
    rows = np.full((size, params.payload_bytes), peer.slot + 1, dtype=np.uint8)
    digest = wire.payload_digest(rows.tobytes())
    for block in make_source_blocks(descriptor, rows, created_at=0.0):
        peer._store_block(block, digest)


async def _gossip_once(peer):
    """One gossip tick of *peer*, aimed at the last slot."""
    block = peer._emit(0.0)
    draw, peer._select_rng = peer._select_rng, _AimAtLastSlot()
    try:
        await peer._gossip_block(
            block.segment.segment_id, block,
            peer._digests[block.segment.segment_id],
        )
    finally:
        peer._select_rng = draw


async def _hosted_senders(params, seed=5):
    """A collector and every slot but the last as in-process peers: one
    event loop, hence one outbound pool under all of them."""
    server = LiveLoggingServer(params, seed)
    await server.start()
    senders = [
        LivePeer(slot, params, seed, "127.0.0.1", server.port,
                 clock=server.clock)
        for slot in range(params.n_peers - 1)
    ]
    for peer in senders:
        await peer.start()
        _give_segment(peer, params)
    return server, senders


class TestSharedLinks:
    """One pooled link carries several hosted senders: what goes wrong on
    it costs that link, once, and nobody's counters but the culprit's."""

    @pytest.mark.parametrize("attack", ["geometry", "truncated-row"])
    def test_garbage_block_costs_the_one_link_it_came_on(self, attack):
        async def scenario():
            params = _params()
            server, senders = await _hosted_senders(params)
            victim = LivePeer(
                params.n_peers - 1, params, 5, "127.0.0.1", server.port,
                clock=server.clock,
            )
            await victim.start()
            peers = senders + [victim]
            try:
                await server.wait_for_peers(params.n_peers, timeout=30.0)
                await server.broadcast(
                    {"type": wire.MSG_DIRECTORY, "peers": server._directory()}
                )
                await until(
                    lambda: all(
                        len(p.directory) == params.n_peers for p in senders
                    ),
                    "the directory reaching every sender",
                )
                first, second, third = senders
                pool = first._pool
                addr = ("127.0.0.1", victim.listen_port)

                await _gossip_once(first)
                shared = pool._links[addr]
                # garbage arrives on the very link the honest senders share
                if attack == "geometry":
                    header, payload = wire_block(params, 3, [1, 0, 0], size=3)
                else:
                    header, payload = wire_block(params, 3, [1, 0])
                    payload = payload[:-1]
                header["type"] = wire.MSG_BLOCK
                await shared.send(header, payload)
                await until(
                    lambda: not victim._conn_tasks, "the victim hanging up"
                )

                await _gossip_once(second)  # finds it dead, re-dials
                redialed = pool._links[addr]
                await _gossip_once(third)  # rides the new link
                assert redialed is not shared and shared.is_closing
                assert pool._links[addr] is redialed
                assert not redialed.is_closing and len(pool) == 1
                moved = [
                    (p.stats.offers_sent, p.stats.gossip_transfers,
                     p.stats.gossip_no_target, p.stats.gossip_undeliverable)
                    for p in senders
                ]
                assert moved == [(1, 1, 0, 0), (2, 1, 0, 0), (1, 1, 0, 0)]
                assert victim.stats.gossip_undeliverable == 1  # counted once
                await until(
                    lambda: victim.core.block_count == 3,
                    "all three honest blocks arriving",
                )

                # ...and the swarm goes on to collect and verify
                await server.begin(start_delay_wall=0.05)
                await until(
                    lambda: server.stats.hash_verified, "a verified segment",
                    tries=2000,
                )
                await server.stop_protocol()
            finally:
                for peer in peers:
                    await peer.close()
                await server.close()
            return server

        server = run_quiet(scenario)
        assert server.stats.hash_verified > 0
        assert server.stats.hash_failures == 0

    def test_listener_dying_mid_offer_fails_each_requester_once(self):
        async def scenario():
            params = _params()
            server, senders = await _hosted_senders(params)
            offers_seen = asyncio.Event()
            accepted = []

            async def listener(reader, writer):
                """First link: swallow an OFFER, then die without a word.
                Later links: an honest peer that wants everything."""
                conn = FramedConnection(reader, writer)
                accepted.append(conn)
                try:
                    while True:
                        frame = await conn.read()
                        if frame is None:
                            break
                        if frame.type != wire.MSG_OFFER:
                            continue
                        if conn is accepted[0]:
                            offers_seen.set()
                            await asyncio.sleep(0.1)  # the others queue up
                            break
                        await conn.send(
                            {"type": wire.MSG_OFFER_REPLY, "want": True}
                        )
                except (ConnectionError, OSError):
                    pass
                finally:
                    await conn.close()

            dying, port = await ports.start_server(listener)
            addr = ("127.0.0.1", port)
            try:
                for peer in senders:
                    peer.directory = {params.n_peers - 1: addr}
                pool = senders[0]._pool
                dead = await pool.get(addr)
                await asyncio.gather(*(_gossip_once(p) for p in senders))
                assert offers_seen.is_set() and dead.is_closing
                # every requester failed once on the dead link, then got
                # through on its next try; nobody's re-dial was torn down
                for peer in senders:
                    assert peer.stats.offers_sent == 2
                    assert peer.stats.gossip_transfers == 1
                    assert peer.stats.gossip_no_target == 0
                assert len(pool) == 1 and not pool._links[addr].is_closing
                assert 2 <= len(accepted) <= 1 + len(senders)
            finally:
                for peer in senders:
                    await peer.close()
                await server.close()
                dying.close()
                await dying.wait_closed()

        run_quiet(scenario)


class TestRegistryIngress:
    """Bad control frames end that connection; the registry keeps serving."""

    def _register(self, **hello_overrides):
        async def scenario():
            server = LiveLoggingServer(_params(), seed=5)
            await server.start()
            hostile = FakePeer(server, 0, lambda frame: None)
            honest = FakePeer(server, 1, lambda frame: None)
            try:
                answer = await hostile.start(**hello_overrides)
                welcome = await honest.start()
                slots = sorted(server.peers)
            finally:
                await hostile.close()
                await honest.close()
                await server.close()
            return answer, welcome, slots

        return run_quiet(scenario)

    def test_shutdown_says_bye_exactly_once(self):
        async def scenario():
            server = LiveLoggingServer(_params(), seed=5)
            await server.start()
            fake = FakePeer(server, 0, lambda frame: None)
            try:
                await fake.start()
                await server.close()
                frames = []
                while (frame := await asyncio.wait_for(
                    fake.control.read(), 5.0
                )) is not None:
                    frames.append(frame.type)
            finally:
                await fake.close()
            return frames

        assert run_quiet(scenario) == [wire.MSG_BYE]

    def test_hello_without_an_address(self):
        answer, welcome, slots = self._register(host=None)
        assert answer is None
        assert welcome.type == wire.MSG_WELCOME and slots == [1]

    def test_hello_without_a_port(self):
        answer, welcome, slots = self._register(port=None)
        assert answer is None
        assert welcome.type == wire.MSG_WELCOME and slots == [1]

    @pytest.mark.parametrize("port", [70000, -1, 0, True])
    def test_hello_with_an_undialable_port(self, port):
        # Admitted, such an address kills every server pull task that
        # draws it (connect() raises OverflowError, not OSError).
        answer, welcome, slots = self._register(port=port)
        assert answer is None
        assert welcome.type == wire.MSG_WELCOME and slots == [1]

    def test_hello_with_a_non_integer_slot(self):
        answer, welcome, slots = self._register(slot="first")
        assert answer is None
        assert welcome.type == wire.MSG_WELCOME and slots == [1]

    def test_out_of_range_slot_does_not_poison_slot_assignment(self):
        async def scenario():
            server = LiveLoggingServer(_params(), seed=5)
            await server.start()
            hostile = FakePeer(server, 10**9, lambda frame: None)
            unnamed = FakePeer(server, None, lambda frame: None)
            try:
                answer = await hostile.start()
                welcome = await unnamed.start()
            finally:
                await hostile.close()
                await unnamed.close()
                await server.close()
            return answer, welcome

        answer, welcome = run_quiet(scenario)
        assert answer is None
        assert welcome.header["slot"] == 0

    def test_metrics_reply_without_stats(self):
        """No stats at all, and the four stats blobs that used to crash or
        poison ``aggregate_report`` after the whole run: each is garbage at
        ingress and costs that peer its registration, nothing more."""
        good = json.dumps(PeerStats().to_wire(0.0))
        assert '"injected_blocks": 0.0' in good
        assert '"mean_occupancy": 0.0' in good
        heads = [
            '{"type": "metrics-reply", "req": 1}',
            '{"type": "metrics-reply", "req": 1, "stats": {}}',
        ] + [
            '{"type": "metrics-reply", "req": 1, "stats": %s}'
            % good.replace('"%s": 0.0' % key, '"%s": %s' % (key, hostile))
            for key, hostile in [
                ("injected_blocks", '"7"'),
                ("injected_blocks", "1e400"),
                ("mean_occupancy", "NaN"),
                ("injected_blocks", "-1"),
            ]
        ]

        async def scenario(head):
            server = LiveLoggingServer(_params(), seed=5)
            await server.start()
            fake = FakePeer(server, 0, lambda frame: None)
            try:
                await fake.start()
                # raw bytes: the honest encoder refuses NaN and infinities
                fake.control._writer.write(
                    framing.MAGIC + struct.pack(">II", len(head), 0) + head
                )
                hung_up = await asyncio.wait_for(fake.control.read(), 5.0)
                for _ in range(200):
                    if 0 not in server.peers:
                        break
                    await asyncio.sleep(0.01)
                registered = sorted(server.peers)
            finally:
                await fake.close()
                await server.close()
            return hung_up, registered

        for head in heads:
            hung_up, registered = run_quiet(lambda: scenario(head.encode()))
            assert hung_up is None, head
            assert registered == [], head
