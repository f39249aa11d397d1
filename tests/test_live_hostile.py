"""Hostile input on the live data and control planes.

A real collector meets malformed clients all day.  Every frame a live
process parses must either be handled or take the ``FrameGarbage`` path
(drop that connection, count it, keep serving) — never raise out of a
long-lived task, never size an allocation from an unchecked header.
"""

import asyncio
import json
import struct

from repro.core.params import Parameters
from repro.live import framing, wire
from repro.live.livemetrics import PeerStats, aggregate_report
from repro.live.peer import LivePeer
from repro.live.server import LiveLoggingServer
from repro.live.transport import FramedConnection
from tests.fake_peer import FakePeer, wire_block


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

    def test_hello_without_an_address(self):
        answer, welcome, slots = self._register(host=None)
        assert answer is None
        assert welcome.type == wire.MSG_WELCOME and slots == [1]

    def test_hello_without_a_port(self):
        answer, welcome, slots = self._register(port=None)
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
