"""A live peer node: the Sec. 2 protocol as asyncio tasks over real TCP.

One :class:`LivePeer` wraps the *same* :class:`repro.core.peer.Peer`
buffer model the simulator uses and drives it with three long-lived tasks
and one loop timer per buffered block:

- **injection** — at rate λ/s, group ``s`` fresh payload rows into a
  segment, systematically encode them (:func:`make_source_blocks`), and
  buffer the source blocks;
- **gossip** — at rate μ, re-encode one buffered segment with the GF(256)
  kernels (:func:`SegmentHolding.make_coded_block`) and push the coded
  block to a uniformly drawn peer, with the simulator's rejection-sampled
  target eligibility realized as an OFFER/OFFER-REPLY round-trip;
- **expiry** — per-block TTL at rate γ, one :meth:`LiveClock.call_at` timer
  per stored block (no task, so nothing to cancel at teardown);
- **control** — the registry connection: directory/start/mark/stop
  downstream, buffer status upstream, metrics on request, RESET
  (disconnect-burst) teardown.

Every random draw comes from named :class:`SeedSequenceRegistry`
substreams keyed by the peer's slot, so a swarm is reproducible from one
root seed whether peers run as tasks in one process or as separate
processes on separate hosts.
"""

from __future__ import annotations

import asyncio
import math
import random
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.coding.block import CodedBlock, SegmentDescriptor, make_source_blocks
from repro.core.params import (
    GOSSIP_TARGET_TRIES, SELECTION_UNIFORM, Parameters,
)
from repro.core.peer import Peer
from repro.faults.injector import POLLUTER_STREAM, FaultVerdicts
from repro.live import ports, wire
from repro.live.clock import LiveClock, PoissonSchedule
from repro.live.framing import Frame, FrameError, FrameGarbage, FrameTruncated
from repro.live.livemetrics import PeerStats
from repro.live.ports import Backoff
from repro.live.transport import ConnectionCache, FramedConnection
from repro.sim.rng import SeedSequenceRegistry, exponential
from repro.util.codec import decode

#: Outbound gossip links each hosted peer adds to its process's pool;
#: bounds the swarm's descriptor count to O(N · GOSSIP_CACHE), not O(N^2).
GOSSIP_CACHE = 4

#: Segment ids are globally unique without coordination: slot << SHIFT | n.
_SEGMENT_SHIFT = 32

#: Wall seconds between heartbeat frames to the registry.
HEARTBEAT_WALL = 2.0

#: Wall seconds a peer keeps re-dialing a vanished registry before it
#: gives up and shuts down (covers kill + supervisor backoff + rebind).
DEFAULT_RECONNECT_DEADLINE = 20.0


class LivePeer:
    """One peer node of a live swarm (in-process task or standalone)."""

    def __init__(
        self,
        slot: Optional[int],
        params: Optional[Parameters],
        seed: Optional[int],
        server_host: str,
        server_port: int,
        clock: Optional[LiveClock] = None,
        time_scale: float = 1.0,
        listen_host: str = "127.0.0.1",
        reconnect_deadline: float = DEFAULT_RECONNECT_DEADLINE,
    ) -> None:
        self.slot = -1 if slot is None else slot
        self._requested_slot = slot
        self.params: Optional[Parameters] = None
        self.generation = 0
        self._server_addr = (server_host, server_port)
        self._listen_host = listen_host
        self._clock_given = clock is not None
        self.clock: LiveClock = (
            clock if clock is not None else LiveClock(time_scale)
        )
        self.stats = PeerStats()
        if params is not None:
            if seed is None:
                raise ValueError("a pre-configured peer needs its seed")
            self._configure(params, seed)
        self.directory: Dict[int, Tuple[str, int]] = {}
        self._digests: Dict[int, str] = {}
        self._segment_seq = 0
        self._listener: Optional[asyncio.AbstractServer] = None
        self.listen_port = 0
        self._control: Optional[FramedConnection] = None
        #: the loop's outbound pool once start()ed; until then no budget.
        self._pool = ConnectionCache()
        self._protocol_tasks: List["asyncio.Task[None]"] = []
        self._control_task: Optional["asyncio.Task[None]"] = None
        self._heartbeat_task: Optional["asyncio.Task[None]"] = None
        self._conn_tasks: Set["asyncio.Task[None]"] = set()
        self._status_event = asyncio.Event()
        self._status_sent_nonempty = False
        self._running = False
        self.stopped = asyncio.Event()
        self.reconnect_deadline = reconnect_deadline
        #: registry reconnects survived by this peer process.
        self.reconnects = 0
        self._marked = False
        self._backoff_rng: Optional[random.Random] = None

    def _configure(self, params: Parameters, seed: int) -> None:
        """Bind the protocol state once slot, params, and seed are known."""
        wire.validate_live_params(params, supervised=True)
        if self.slot < 0:
            raise RuntimeError("cannot configure a peer with no slot yet")
        self.params = params
        slot = self.slot
        seeds = SeedSequenceRegistry(seed)
        self._events_rng = seeds.python(f"live:peer{slot}:events")
        self._select_rng = seeds.python(f"live:peer{slot}:select")
        self._coding_rng = seeds.numpy(f"live:peer{slot}:coding")
        self._payload_rng = seeds.numpy(f"live:peer{slot}:payload")
        self._backoff_rng = seeds.python(f"live:peer{slot}:backoff")
        #: fault verdicts, built only for a non-null plan (every use guards
        #: on None, the rule ``CollectionSystem`` follows).
        self.faults: Optional[FaultVerdicts] = None
        if params.has_faults:
            assert params.faults is not None  # has_faults guarantees
            self.faults = FaultVerdicts(
                params.faults,
                params.n_peers,
                seeds.python(POLLUTER_STREAM),
                seeds.python(f"live:peer{slot}:netem"),
            )
        self.core = Peer(slot, params.effective_buffer_capacity)

    @property
    def cfg(self) -> Parameters:
        """The session parameters (raises until configuration is known)."""
        params = self.params
        if params is None:
            raise RuntimeError(
                "peer is not configured yet: no local Parameters and no "
                "WELCOME received"
            )
        return params

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener, register with the logging server.

        A peer constructed without local configuration (the standalone
        ``repro live peer`` entry point) adopts the session parameters,
        seed, and time scale the WELCOME frame carries.
        """
        self._listener, self.listen_port = await ports.start_server(
            self._handle_connection, self._listen_host
        )
        await self._dial_control()
        self._pool = ConnectionCache.lease(GOSSIP_CACHE)
        self._control_task = asyncio.create_task(
            self._control_loop(), name=f"peer{self.slot}:control"
        )
        self._heartbeat_task = asyncio.create_task(
            self._heartbeat_loop(), name=f"peer{self.slot}:heartbeat"
        )

    async def _dial_control(self) -> None:
        """Dial the registry and complete the HELLO/WELCOME handshake.

        Used for both the initial registration and every reconnect; on a
        reconnect the HELLO carries a ``resume`` stanza replaying the
        peer's buffer state so the server's candidate set is correct
        before the first STATUS edge.
        """
        conn = await FramedConnection.open(*self._server_addr)
        try:
            hello: Dict[str, object] = {
                "type": wire.MSG_HELLO,
                "slot": (
                    self.slot if self.slot >= 0 else self._requested_slot
                ),
                "host": self._listen_host,
                "port": self.listen_port,
            }
            if self.params is not None:
                hello["resume"] = {"nonempty": not self.core.is_empty}
            await conn.send(hello)
            welcome = await conn.read()
            if welcome is None or welcome.type != wire.MSG_WELCOME:
                raise ConnectionError(
                    f"peer {self.slot}: expected WELCOME, got "
                    f"{None if welcome is None else welcome.type!r}"
                )
            self._adopt(welcome.header)
        except BaseException:
            await conn.close()
            raise
        old = self._control
        self._control = conn
        if old is not None:
            await old.close()
        # Force a fresh STATUS edge on the new connection.
        self._status_sent_nonempty = False
        self._status_event.set()

    def _adopt(self, welcome: Mapping[str, Any]) -> None:
        """Take slot, session and epoch from a WELCOME; any malformed field
        is :class:`FrameGarbage`, like every other byte read off the wire."""
        try:
            slot = int(welcome["slot"])
            epoch = welcome.get("epoch")
            if epoch is not None and not math.isfinite(epoch := float(epoch)):
                raise ValueError(f"epoch {epoch}")
            if slot < 0:
                raise ValueError(f"slot {slot}")
            self.slot = slot
            if self.params is None:
                if not self._clock_given and not self.clock.started:
                    self.clock = LiveClock(float(welcome["time_scale"]))
                self._configure(
                    decode(Parameters, welcome["params"]), int(welcome["seed"])
                )
        except (ArithmeticError, KeyError, TypeError, ValueError) as exc:
            raise FrameGarbage(f"malformed welcome: {exc!r}") from exc
        if epoch is not None and not self.clock.started:
            # A restarted server restores the swarm's original epoch; a
            # rejoining peer adopts it directly instead of waiting for a
            # START broadcast that already happened.
            self.clock.start(epoch)

    async def close(self) -> None:
        """Tear everything down; leaves no tasks or transports behind."""
        self._stop_protocol()
        if self._listener is not None:
            # First, or a re-dialed pooled link outlives the cancel below.
            self._listener.close()
        tasks = [t for t in (self._control_task, self._heartbeat_task,
                             *self._protocol_tasks, *self._conn_tasks)
                 if t is not None]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        self._protocol_tasks.clear()
        self._conn_tasks.clear()
        pool, self._pool = self._pool, ConnectionCache()
        if pool.limit:  # only the leased pool has a budget
            await pool.release(GOSSIP_CACHE)
        if self._control is not None:
            await self._control.close()
        if self._listener is not None:
            await self._listener.wait_closed()
        self.stopped.set()

    # -- control plane ------------------------------------------------------

    async def _control_loop(self) -> None:
        """Serve the registry connection; re-dial when it is torn down.

        Distinguishes a deliberate goodbye (BYE frame — the session is
        over) from a lost transport (mid-frame truncation, abrupt EOF,
        socket error — the server crashed or the network broke): the
        former stops the peer, the latter enters the bounded-backoff
        reconnect path and resumes the same session.
        """
        try:
            while True:
                outcome = await self._serve_control()
                if outcome == "bye":
                    break
                if not await self._reconnect():
                    break
        finally:
            self._stop_protocol()
            self.stopped.set()

    async def _serve_control(self) -> str:
        """Read control frames until goodbye ("bye") or loss ("lost")."""
        conn = self._control
        assert conn is not None
        try:
            while True:
                frame = await conn.read()
                if frame is None:
                    # Abrupt EOF without BYE: the server vanished.
                    return "lost"
                if frame.type == wire.MSG_BYE:
                    return "bye"
                await self._handle_control(frame)
        except FrameTruncated:
            return "lost"
        except (ConnectionError, OSError):
            return "lost"
        except FrameError:
            # Garbage on the control stream is a protocol violation, not
            # a crash; re-dialing would just replay it.
            return "bye"

    async def _reconnect(self) -> bool:
        """Re-dial the registry under the unified backoff policy."""
        policy = Backoff(
            initial=0.1,
            cap=2.0,
            attempts=0,
            deadline=self.reconnect_deadline,
            rng=self._backoff_rng,
        )
        try:
            await policy.retry(
                self._dial_control,
                retry_on=(ConnectionError, FrameError, OSError),
            )
        except (ConnectionError, FrameError, OSError):
            return False
        self.reconnects += 1
        return True

    async def _heartbeat_loop(self) -> None:
        """Beacon liveness (and the buffer bit) to the registry.

        Heartbeats ride the control connection on a wall-clock period so
        the server can distinguish a stopped/killed peer from a merely
        quiet one; send failures are ignored — the control loop owns
        reconnection.
        """
        while True:
            # On the timer grid, like the protocol clocks: a hosted swarm's
            # beacons then share the loop wake-ups its protocol already pays.
            await self.clock.sleep_sim(HEARTBEAT_WALL * self.clock.time_scale)
            conn = self._control
            if conn is None or self.params is None:
                continue
            try:
                await conn.send({
                    "type": wire.MSG_HEARTBEAT,
                    "slot": self.slot,
                    "nonempty": not self.core.is_empty,
                })
            except (ConnectionError, OSError):
                pass

    async def _handle_control(self, frame: Frame) -> None:
        assert self._control is not None
        kind = frame.type
        if kind == wire.MSG_DIRECTORY:
            entries = {
                int(slot): (str(host), int(port))
                for slot, (host, port) in frame.header["peers"].items()
            }
            if frame.header.get("partial", False):
                # Incremental update: a peer re-registered (possibly on a
                # new port); drop the pooled link to its old address.
                for slot, addr in entries.items():
                    old = self.directory.get(slot, addr)
                    if old != addr:
                        await self._pool.drop(old)
                self.directory.update(entries)
            else:
                self.directory = entries
        elif kind == wire.MSG_START:
            if not self.clock.started:
                loop = asyncio.get_running_loop()
                self.clock.start(loop.time() + float(frame.header.get("in", 0.0)))
            self._start_protocol()
        elif kind == wire.MSG_RESUME:
            # Sent by a (restarted) server to a peer joining a running
            # swarm: no START will follow, begin immediately on the
            # already-adopted epoch.
            if self.clock.started:
                self._start_protocol()
            if frame.header.get("marked", False) and not self._marked:
                self._marked = True
                self.stats.begin_window(self.clock.now())
        elif kind == wire.MSG_MARK:
            self._marked = True
            self.stats.begin_window(self.clock.now())
        elif kind == wire.MSG_STOP:
            self._stop_protocol()
        elif kind == wire.MSG_RESET:
            await self._burst_reset()
        elif kind == wire.MSG_METRICS:
            now = self.clock.now()
            await self._control.send({
                "type": wire.MSG_METRICS_REPLY,
                "slot": self.slot,
                "req": frame.header.get("req"),
                "stats": self.stats.to_wire(now),
            })

    def _start_protocol(self) -> None:
        if self._running:
            return
        self._running = True
        spawn = asyncio.create_task
        name = f"peer{self.slot}"
        self._protocol_tasks = [
            spawn(self._injection_loop(), name=f"{name}:inject"),
            spawn(self._status_loop(), name=f"{name}:status"),
        ]
        if self.cfg.gossip_rate > 0:
            self._protocol_tasks.append(
                spawn(self._gossip_loop(), name=f"{name}:gossip")
            )

    def _stop_protocol(self) -> None:
        if not self._running:
            return
        self._running = False
        for task in self._protocol_tasks:
            task.cancel()

    # -- buffer bookkeeping -------------------------------------------------

    def _store_block(self, block: CodedBlock, digest: str) -> None:
        """Buffer one live block: core model + TTL clock + status + stats."""
        now = self.clock.now()
        self.core.add_block(block)
        self._digests.setdefault(block.segment.segment_id, digest)
        ttl = exponential(self._events_rng, self.cfg.deletion_rate)
        self._arm_expiry(now + ttl, block)
        self._after_buffer_change(now)

    def _arm_expiry(self, deadline: float, block: CodedBlock) -> None:
        """One loop timer per stored block, as ``CollectionSystem`` arms one
        ``schedule_call(ttl, expire, peer, block)`` per block; nothing to
        cancel or await at teardown."""
        self.clock.call_at(deadline, self._expire, deadline, block)

    def _expire(self, deadline: float, block: CodedBlock) -> None:
        """TTL deadline of one block; a no-op for a block that already
        died (served out, burst reset) and once the protocol has stopped
        (STOP freezes the buffer and the counters the report reads)."""
        if not block.alive or not self._running:
            return
        now = self.clock.now()
        if now < deadline:
            # Armed before the epoch was set, or a grid wake a hair early.
            self._arm_expiry(deadline, block)
            return
        block.alive = False
        if self.core.remove_block(block):
            self.stats.blocks_expired += 1
            self._after_buffer_change(now)

    def _after_buffer_change(self, now: float) -> None:
        self.stats.on_buffer_change(now, self.core.block_count)
        if self.core.is_empty == self._status_sent_nonempty:
            self._status_event.set()  # the bit now differs from the last sent

    async def _status_loop(self) -> None:
        """Push empty/nonempty transitions to the registry (deduplicated).

        The event is set only when the bit differs from the last one sent,
        and the bit is re-checked after every send, so an edge that flips
        back while a send is blocked is still delivered.  Survives
        control-connection loss: a failed send retries on whatever
        connection the reconnect path installed (``_dial_control`` resets
        the dedup state so the new server always gets a fresh edge).
        """
        while True:
            nonempty = not self.core.is_empty
            conn = self._control
            if conn is None or nonempty == self._status_sent_nonempty:
                self._status_event.clear()
                await self._status_event.wait()
                continue
            try:
                await conn.send({
                    "type": wire.MSG_STATUS,
                    "slot": self.slot,
                    "nonempty": nonempty,
                })
            except (ConnectionError, OSError):
                await asyncio.sleep(0.05)  # mid-reconnect
                continue
            self._status_sent_nonempty = nonempty

    # -- protocol loops -----------------------------------------------------

    async def _injection_loop(self) -> None:
        schedule = PoissonSchedule(
            self.clock, self._events_rng, self.cfg.segment_arrival_rate
        )
        s = self.cfg.segment_size
        while True:
            await schedule.wait()
            # Timestamp with the realized clock reading, not the scheduled
            # event time: a backlogged schedule fires late, and delays are
            # measured between *actual* injection and *actual* completion.
            at = self.clock.now()
            if not self.core.can_inject(s):
                self.stats.blocked_injections += 1
                continue
            segment_id = (self.slot << _SEGMENT_SHIFT) | self._segment_seq
            self._segment_seq += 1
            descriptor = SegmentDescriptor(
                segment_id=segment_id,
                source_peer=self.slot,
                size=s,
                injected_at=at,
                generation=self.generation,
            )
            payloads = self._payload_rng.integers(
                0, 256, size=(s, self.cfg.payload_bytes), dtype=np.uint8
            )
            digest = wire.payload_digest(payloads.tobytes())
            for block in make_source_blocks(descriptor, payloads, created_at=at):
                self._store_block(block, digest)
            self.stats.injected_segments += 1
            self.stats.injected_blocks += s

    async def _gossip_loop(self) -> None:
        schedule = PoissonSchedule(
            self.clock, self._events_rng, self.cfg.gossip_rate
        )
        while True:
            at = await schedule.wait()
            if self.core.is_empty:
                # Idle tick: the mu-clock ran with nothing to send.
                continue
            block = self._emit(at)
            segment_id = block.segment.segment_id
            digest = self._digests.get(segment_id, "")
            await self._gossip_block(segment_id, block, digest)

    def _emit(self, at: float) -> CodedBlock:
        """Re-encode one block of a freshly drawn buffered segment.

        Serves both the gossip tick and a server pull; a polluted emission
        (this peer is a polluter, or the holding contains junk) leaves with
        a zeroed coefficient header.
        """
        segment_id = self.core.draw_segment(
            self._select_rng,
            self.cfg.segment_selection == SELECTION_UNIFORM,
        )
        holding = self.core.holdings[segment_id]
        block = holding.make_coded_block(self._coding_rng, at)
        if self.faults is not None:
            self.faults.maybe_pollute(self.slot, holding, block)
        return block

    async def _gossip_block(
        self, segment_id: int, block: CodedBlock, digest: str
    ) -> None:
        """Rejection-sample an eligible target over the wire and send."""
        n = self.cfg.n_peers
        size = block.segment.size
        for _ in range(GOSSIP_TARGET_TRIES):
            if n < 2:
                break
            target = self._select_rng.randrange(n - 1)
            if target >= self.slot:
                target += 1
            try:
                addr = self.directory[target]
                conn = await self._pool.get(addr)
            except (KeyError, ConnectionError, OSError):
                continue
            try:
                self.stats.offers_sent += 1
                reply = await conn.request({
                    "type": wire.MSG_OFFER,
                    "segment_id": segment_id,
                    "size": size,
                })
                if reply.type != wire.MSG_OFFER_REPLY:
                    raise FrameGarbage(f"{reply.type!r} in reply to an offer")
                if not reply.header.get("want", False):
                    continue
                frame = wire.block_to_wire(wire.MSG_BLOCK, block, digest)
                await conn.send(*frame)
            except (ConnectionError, FrameError, OSError):
                # (a no-op if a hosted neighbour has re-dialed meanwhile)
                await self._pool.drop(addr, conn)
                continue
            # Counted at the sender on send, like the simulator's tick;
            # the receiver may still drop it on the lossy link.
            self.stats.gossip_transfers += 1
            return
        self.stats.gossip_no_target += 1

    async def _burst_reset(self) -> None:
        """Disconnect-burst: wipe the buffer, bump the generation, hang up
        on every accepted connection mid-stream (as a departing host does)."""
        lost = self.core.block_count
        for block in self.core.all_blocks():
            block.alive = False
        self.generation += 1
        self.core = Peer(
            self.slot,
            self.cfg.effective_buffer_capacity,
            generation=self.generation,
            joined_at=self.clock.now(),
        )
        self._digests.clear()
        self.stats.blocks_lost_to_churn += lost
        for task in list(self._conn_tasks):
            task.cancel()
        self._after_buffer_change(self.clock.now())

    # -- data plane (incoming) ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one inbound connection (gossip sender or pulling server)."""
        task = asyncio.current_task()
        assert task is not None
        self._conn_tasks.add(task)
        conn = FramedConnection(reader, writer)
        try:
            while True:
                frame = await conn.read()
                if frame is None:
                    break
                kind = frame.type
                if kind == wire.MSG_OFFER:
                    await self._serve_offer(conn, frame)
                elif kind == wire.MSG_BLOCK:
                    self._receive_block(frame)
                elif kind == wire.MSG_PULL:
                    await self._serve_pull(conn)
                # Unknown types are ignored (forward compatibility).
        except (FrameError, ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            # Teardown cancels handler tasks; swallow so the streams
            # machinery sees a clean exit, not an unhandled cancellation.
            pass
        finally:
            try:
                await conn.close()
            except asyncio.CancelledError:
                pass
            # Deregister only after the transport is down: close() gathers
            # this set, so a task must stay visible until fully drained.
            self._conn_tasks.discard(task)

    async def _serve_offer(self, conn: FramedConnection, frame: Frame) -> None:
        try:
            segment_id = int(frame.header["segment_id"])
            size = int(frame.header["size"])
        except (KeyError, TypeError, ValueError):
            await conn.send({"type": wire.MSG_OFFER_REPLY, "want": False})
            return
        if size != self.cfg.segment_size:
            # No honest peer of this session gossips another geometry.
            self.stats.gossip_undeliverable += 1
            raise FrameGarbage(
                f"offer declares segment size {size}, session uses "
                f"{self.cfg.segment_size}"
            )
        want = self.core.needs_segment(segment_id, size)
        await conn.send({"type": wire.MSG_OFFER_REPLY, "want": bool(want)})

    def _receive_block(self, frame: Frame) -> None:
        """A gossiped coded block arrived (possibly on a lossy link)."""
        if self.faults is not None and self.faults.drop_gossip():
            self.stats.transfers_dropped += 1
            return
        try:
            block = wire.session_block_from_wire(
                self.cfg, frame.header, frame.payload
            )
        except FrameGarbage:
            self.stats.gossip_undeliverable += 1
            raise
        segment = block.segment
        if not self.core.needs_segment(segment.segment_id, segment.size):
            # The buffer filled up or the segment got satisfied between the
            # OFFER round-trip and delivery: the transmission is wasted.
            self.stats.gossip_undeliverable += 1
            return
        self._store_block(block, wire.block_digest_of(frame.header))

    async def _serve_pull(self, conn: FramedConnection) -> None:
        """Answer one logging-server coupon pull.

        The peer draws the segment itself (:meth:`Peer.draw_segment`, the
        draw the simulator's server makes on the peer's buffer directly).
        """
        if self.core.is_empty:
            await conn.send({"type": wire.MSG_PULL_EMPTY, "slot": self.slot})
            return
        block = self._emit(self.clock.now())
        header, payload = wire.block_to_wire(
            wire.MSG_PULL_BLOCK,
            block,
            self._digests.get(block.segment.segment_id, ""),
            slot=self.slot,
        )
        await conn.send(header, payload)
        self.stats.pull_blocks_served += 1
