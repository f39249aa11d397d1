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
from repro.core.params import GOSSIP_TARGET_TRIES, Parameters
from repro.live import framing, ports, wire
from repro.live.livemetrics import PeerStats, aggregate_report
from repro.live.peer import LivePeer
from repro.live.server import LiveLoggingServer
from repro.live.transport import FramedConnection
from repro.util.codec import encode
from tests.fake_peer import (
    FakePeer,
    raw_block,
    raw_frame,
    raw_head,
    until,
    wire_block,
)


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
            return [raw_block(
                params, [], row=bytes(60_001), segment_id=9, size=60_000
            )]

        server = self._pull_through(replies)
        assert server._decoders == {}
        assert server.stats.pull_empty_races == 1
        assert server.stats.useful_pulls == 0

    def test_reply_of_another_type_is_dropped(self):
        server = self._pull_through(
            lambda params: [raw_frame(raw_head(wire.MSG_OFFER_REPLY, want=1))]
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


class TestBinaryHeaderIngress:
    """Malformed block-path headers reach a live collector as raw bytes and
    cost the offending link, never the pull task."""

    @pytest.mark.parametrize("overrides", [
        {"created_at": float("nan")},
        {"injected_at": float("inf")},
        {"size": -2},
        {"size": 2**31 - 1},
        {"digest": b"\xfe" * 16},
    ])
    def test_malformed_pull_block_is_an_idle_pull(self, overrides):
        async def scenario():
            params = _params()
            server = LiveLoggingServer(params, seed=5)
            await server.start()
            replies = [
                raw_block(params, [1, 0], **overrides),
                wire_block(params, 7, [1, 0]),
            ]
            fake = FakePeer(server, 0, lambda frame: replies.pop(0))
            try:
                await fake.start()
                await fake.advertise()
                for _ in range(2):
                    await server._pull_once(1.0)
            finally:
                await fake.close()
                await server.close()
            return server

        server = run_quiet(scenario)
        assert server.stats.pulls == 2
        assert server.stats.pull_empty_races == 1
        assert server.stats.useful_pulls == 1  # the honest link re-dialed

    def test_truncated_offer_reply_costs_the_sender_one_try(self):
        async def scenario():
            params = _params()
            server, senders = await _hosted_senders(params)
            head = raw_head(wire.MSG_OFFER_REPLY, want=True)

            async def listener(reader, writer):
                await FramedConnection(reader, writer).read()
                writer.write(raw_frame(head[:1]))
                await writer.drain()
                await ports.close_writer(writer)

            hostile, port = await ports.start_server(listener)
            try:
                sender = senders[0]
                sender.directory = {params.n_peers - 1: ("127.0.0.1", port)}
                await _gossip_once(sender)
            finally:
                for peer in senders:
                    await peer.close()
                await server.close()
                hostile.close()
                await hostile.wait_closed()
            return sender

        sender = run_quiet(scenario)
        assert sender.stats.offers_sent == GOSSIP_TARGET_TRIES
        assert sender.stats.gossip_transfers == 0
        assert sender.stats.gossip_no_target == 1


def _welcome(session, **overrides):
    """A WELCOME header as the registry sends it, with *overrides*."""
    header = {
        "type": wire.MSG_WELCOME, "slot": 0, "seed": 5, "time_scale": 1.0,
        "epoch": None, "params": encode(session),
    }
    header.update(overrides)
    return {k: v for k, v in header.items() if v is not _DROP}


_DROP = object()


async def _registry(welcomes):
    """A fake registry answering each HELLO with the next raw WELCOME; the
    returned event fires when a peer hangs up on it."""
    hung_up = asyncio.Event()

    async def serve(reader, writer):
        try:
            await FramedConnection(reader, writer).read()
            head = json.dumps(welcomes.pop(0)).encode()  # NaN stays NaN
            writer.write(framing.MAGIC + struct.pack(">II", len(head), 0) + head)
            await writer.drain()
            if welcomes:  # more to come: drop this link, the peer re-dials
                return
            await reader.read()
            hung_up.set()
        finally:
            await ports.close_writer(writer)

    listener, port = await ports.start_server(serve)
    return listener, port, hung_up


class TestWelcomeIngress:
    """A standalone peer adopts its whole session from the WELCOME, so every
    field of it is outside input: malformed means ``FrameGarbage``, and
    nothing is left running."""

    @pytest.mark.parametrize("overrides", [
        {"params": [1, 2]},
        {"params": "not a dict"},
        {"params": "unknown-key"},
        {"params": "outage-arity"},
        {"params": {"pull_policy": "round-robin"}},
        {"params": {"gossip_latency": 0.5}},
        {"slot": _DROP},
        {"slot": -1},
        {"slot": float("inf")},
        {"seed": None},
        {"seed": float("inf")},
        {"time_scale": 0.0},
        {"time_scale": float("nan")},
        {"time_scale": float("inf")},
        {"time_scale": 10**400},  # a JSON integer no float can hold
        {"epoch": float("nan")},
        {"epoch": 10**400},
    ], ids=lambda o: "-".join(f"{k}={v!r}" for k, v in o.items()))
    def test_malformed_welcome_is_garbage_and_leaves_nothing(self, overrides):
        params = _params()
        if overrides.get("params") == "unknown-key":
            overrides = {"params": {**encode(params), "bogus": 1}}
        elif overrides.get("params") == "outage-arity":
            blob = encode(params)
            blob["faults"] = {"outage_windows": [[1.0, 2.0, 3.0]]}
            overrides = {"params": blob}
        elif isinstance(overrides.get("params"), dict):
            # Valid Parameters the live runtime cannot execute.
            blob = {**encode(params), **overrides["params"]}
            overrides = {"params": blob}

        async def scenario():
            listener, port, hung_up = await _registry(
                [_welcome(params, **overrides)]
            )
            peer = LivePeer(None, None, None, "127.0.0.1", port)
            try:
                with pytest.raises(framing.FrameGarbage):
                    await peer.start()
                await peer.close()
                await asyncio.wait_for(hung_up.wait(), 5.0)
                left = asyncio.all_tasks() - {asyncio.current_task()}
            finally:
                listener.close()
                await listener.wait_closed()
            return peer, left

        peer, left = run_quiet(scenario)
        assert left == set()
        assert peer.params is None and peer.stopped.is_set()

    def test_malformed_welcome_on_reconnect_stops_the_peer_cleanly(self):
        params = _params()

        async def scenario():
            listener, port, _ = await _registry([
                _welcome(params),
                *[_welcome(params, slot=_DROP) for _ in range(50)],
            ])
            peer = LivePeer(
                None, None, None, "127.0.0.1", port, reconnect_deadline=0.5,
            )
            try:
                await peer.start()
                await asyncio.wait_for(peer.stopped.wait(), 10.0)
                task = peer._control_task
                await peer.close()
            finally:
                listener.close()
                await listener.wait_closed()
            return peer, task

        peer, task = run_quiet(scenario)
        assert task.done() and task.exception() is None
        assert peer.reconnects == 0


class TestStatusEdges:
    def test_an_edge_that_flips_back_during_a_blocked_send_is_delivered(self):
        async def scenario():
            params = _params()
            server = LiveLoggingServer(params, seed=5)
            await server.start()
            peer = LivePeer(0, params, 5, "127.0.0.1", server.port)
            seen = []
            handle = server._handle_peer_frame

            def record(rec, frame):
                if frame.type == wire.MSG_STATUS:
                    seen.append(frame.header["nonempty"])
                handle(rec, frame)

            server._handle_peer_frame = record
            await peer.start()
            peer._heartbeat_task.cancel()  # only STATUS may carry the bit
            status = asyncio.create_task(peer._status_loop())
            try:
                lock = peer._control._lock
                await lock.acquire()
                _give_segment(peer, params)  # empty -> non-empty
                await asyncio.sleep(0.05)  # the send is now blocked
                for block in list(peer.core.all_blocks()):
                    block.alive = False
                    peer.core.remove_block(block)
                peer._after_buffer_change(peer.clock.now())  # -> empty
                lock.release()
                await until(lambda: len(seen) == 2, "both edges")
                await asyncio.sleep(0.05)  # and nothing after them
            finally:
                status.cancel()
                await asyncio.gather(status, return_exceptions=True)
                await peer.close()
                await server.close()
            return seen, server, peer

        seen, server, peer = run_quiet(scenario)
        assert seen == [True, False]
        assert 0 not in server.nonempty
        assert peer._status_sent_nonempty is False

    def test_no_wakeup_while_the_bit_does_not_change(self):
        async def scenario():
            params = _params()
            server = LiveLoggingServer(params, seed=5)
            await server.start()
            peer = LivePeer(0, params, 5, "127.0.0.1", server.port)
            try:
                await peer.start()
                peer._status_sent_nonempty = True  # the server knows non-empty
                peer._status_event.clear()
                _give_segment(peer, params)
                _give_segment(peer, params)
                set_while_nonempty = peer._status_event.is_set()
            finally:
                await peer.close()
                await server.close()
            return set_while_nonempty

        assert run_quiet(scenario) is False
