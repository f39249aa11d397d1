"""The live logging-server process: registry, collector, and pull engine.

One :class:`LiveLoggingServer` plays two roles at once:

- **registry / control plane** — peers connect, HELLO, and get back a
  WELCOME carrying the full session configuration (so standalone peer
  processes need nothing but the server address and their slot); the
  server broadcasts the peer DIRECTORY, the synchronized START epoch,
  MARK/STOP window edges, and RESET frames for disconnect bursts;

- **the paper's N_s collaborating logging servers** — ``n_servers``
  concurrent pull loops share one decoder pool (pooled state is exactly
  the paper's "collaborating servers" assumption), each drawing
  candidates at rate ``c·N/N_s`` from the set of peers whose buffers are
  currently non-empty, as advertised by STATUS frames.

Each pull trial is the simulator's own :func:`repro.core.server.pull_trial`
(docs/PROTOCOL.md, "Where each rule is stated"); this module only feeds it
blocks fetched over TCP, with pollution detected by GF(2^8) rank (an
all-zero coefficient header).  Completed segments are actually decoded and
their payload digest checked against the source digest — end-to-end
verification the simulator cannot perform because it never moves real
bytes.
"""

from __future__ import annotations

import asyncio
import random
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.coding.block import CodedBlock
from repro.coding.rlnc import SegmentDecoder
from repro.core.params import Parameters
from repro.core.server import pull_trial
from repro.faults.injector import FaultVerdicts
from repro.live import ports, wire
from repro.live.checkpoint import (
    CheckpointError,
    ServerCheckpoint,
    load_checkpoint,
    write_checkpoint,
)
from repro.live.clock import LiveClock, PoissonSchedule
from repro.live.framing import Frame, FrameError, FrameGarbage, FrameTruncated
from repro.live.livemetrics import (
    COLLECTOR_COUNTERS,
    CollectorStats,
    peer_summary_from_wire,
)
from repro.live.transport import (
    Address,
    BURST_STREAM,
    ConnectionCache,
    FramedConnection,
    POLLUTER_STREAM,
    detects_pollution,
)
from repro.sim.metrics import WindowedAverage
from repro.sim.rng import SeedSequenceRegistry, exponential
from repro.util.randomset import RandomizedSet

#: Wall-clock timeout for one peer's metrics reply during collection.
METRICS_TIMEOUT = 30.0

#: Wall seconds between decode-state checkpoint writes (when enabled).
DEFAULT_CHECKPOINT_INTERVAL = 1.0

#: A peer whose last heartbeat is older than this many wall seconds is
#: dropped from the pull candidate set (it may be SIGSTOPped); the next
#: heartbeat or status frame reinstates it.
HEARTBEAT_TIMEOUT_WALL = 8.0


class _PeerRecord:
    """Registry entry for one connected peer."""

    __slots__ = ("slot", "addr", "conn", "last_seen")

    def __init__(
        self, slot: int, addr: Address, conn: FramedConnection,
        last_seen: float = 0.0,
    ) -> None:
        self.slot = slot
        self.addr = addr
        self.conn = conn
        self.last_seen = last_seen


class _PulledBlock:
    """The live candidate of a pull trial: one block fetched from a peer."""

    __slots__ = ("_server", "_block", "_digest", "source", "segment_id")

    def __init__(
        self,
        server: "LiveLoggingServer",
        slot: int,
        block: CodedBlock,
        digest: str,
    ) -> None:
        self._server = server
        self._block = block
        self._digest = digest
        #: (slot, generation); the registry does not learn generations.
        self.source = (slot, 0)
        self.segment_id = block.segment.segment_id

    @property
    def is_complete(self) -> bool:
        return self.segment_id in self._server._completed

    def take(self, now: float) -> Tuple[bool, bool]:
        if detects_pollution(self._block):
            return True, False
        return False, self._server._ingest(self._block, self._digest, now)


class LiveLoggingServer:
    """Registry + collector + the N_s pull loops of one live swarm."""

    def __init__(
        self,
        params: Parameters,
        seed: int,
        time_scale: float = 1.0,
        clock: Optional[LiveClock] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        checkpoint_path: Optional[Path] = None,
        checkpoint_interval: float = DEFAULT_CHECKPOINT_INTERVAL,
    ) -> None:
        if params.has_adversary:
            raise ValueError("the live runtime does not run adversary plans")
        if checkpoint_interval <= 0:
            raise ValueError(
                f"checkpoint_interval must be > 0, got {checkpoint_interval}"
            )
        self.params = params
        self.seed = seed
        self.host = host
        self._requested_port = port
        self.port = 0
        self.clock = clock if clock is not None else LiveClock(time_scale)
        self.checkpoint_path = (
            None if checkpoint_path is None else Path(checkpoint_path)
        )
        self.checkpoint_interval = checkpoint_interval
        self._seeds = SeedSequenceRegistry(seed)
        seeds = self._seeds
        self._select_rng = seeds.python("live:server:select")
        self._event_rngs = [
            seeds.python(f"live:server{i}:events")
            for i in range(params.n_servers)
        ]
        self._outage_rng = seeds.python("live:server:outages")
        self._burst_rng = seeds.python(BURST_STREAM)
        #: fault verdicts, built only for a non-null plan (every use guards
        #: on None, the rule ``CollectionSystem`` follows).
        self.faults: Optional[FaultVerdicts] = None
        if params.has_faults:
            assert params.faults is not None  # has_faults guarantees
            self.faults = FaultVerdicts(
                params.faults,
                params.n_peers,
                seeds.python(POLLUTER_STREAM),
                seeds.python("live:server:netem"),
            )
        self.stats = CollectorStats()
        self.peers: Dict[int, _PeerRecord] = {}
        self.nonempty: RandomizedSet[int] = RandomizedSet()
        self._decoders: Dict[int, SegmentDecoder] = {}
        self._digests: Dict[int, str] = {}
        self._completed: Set[int] = set()
        #: pull links of all N_s loops, at most one per registered peer.
        self._cache = ConnectionCache()
        self._listener: Optional[asyncio.AbstractServer] = None
        self._tasks: List["asyncio.Task[None]"] = []
        self._conn_tasks: Set["asyncio.Task[None]"] = set()
        self._metrics_futures: Dict[
            Tuple[int, int], "asyncio.Future[Dict[str, float]]"
        ] = {}
        self._metrics_req = 0
        self._next_slot = 0
        self._peer_joined = asyncio.Event()
        self._paused = False
        self._resumed = asyncio.Event()
        self._resumed.set()
        self._pull_schedules: List[PoissonSchedule] = []
        self.draining = asyncio.Event()
        #: restarts survived so far (0 on a fresh start).
        self.restarts = 0
        #: rank carried over from the checkpoint at the last restore.
        self.restored_rank = 0
        #: checkpoint journal writes performed by this process.
        self.checkpoint_writes = 0
        self._marked_at: Optional[float] = None
        self._began = False

    @property
    def marked_at(self) -> Optional[float]:
        """Sim time MARK happened (restored across restarts), or None."""
        return self._marked_at

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind the registry listener; restore decode state if journaled.

        When ``checkpoint_path`` names an existing journal, this process is
        a supervised respawn of a killed collector: the decoder pool, the
        measurement window, and the clock epoch are restored before the
        listener accepts a single reconnecting peer.
        """
        if (
            self.checkpoint_path is not None
            and self.checkpoint_path.exists()
        ):
            self._restore(load_checkpoint(self.checkpoint_path))
        self._listener, self.port = await ports.start_server(
            self._handle_connection, self.host, self._requested_port
        )

    def _restore(self, state: ServerCheckpoint) -> None:
        """Adopt a checkpoint: decoders, stats, window edge, clock epoch."""
        if state.seed != self.seed:
            raise CheckpointError(
                f"checkpoint was written for seed {state.seed}, this "
                f"server runs seed {self.seed}"
            )
        if state.time_scale != self.clock.time_scale:
            raise CheckpointError(
                f"checkpoint time_scale {state.time_scale} != configured "
                f"{self.clock.time_scale}"
            )
        self.restarts = state.restarts + 1
        restored: Dict[int, SegmentDecoder] = {}
        rank = 0
        for snap in state.decoders:
            decoder = SegmentDecoder.from_snapshot(snap)
            restored[snap.segment.segment_id] = decoder
            rank += decoder.rank
        if rank != state.total_rank:
            raise CheckpointError(
                f"restored rank {rank} != checkpointed {state.total_rank}"
            )
        self._decoders = restored
        self.restored_rank = rank
        self._digests = dict(state.digests)
        self._completed = set(state.completed)
        self._next_slot = max(self._next_slot, state.next_slot)
        self._marked_at = state.marked_at
        for name in COLLECTOR_COUNTERS:
            setattr(self.stats, name, int(state.counters.get(name, 0)))
        self.stats.delay_samples = list(state.delay_samples)
        down = self.stats.servers_down
        down.restore(state.servers_down)
        if state.epoch is not None and not self.clock.started:
            # loop.time() is CLOCK_MONOTONIC (system-wide on Linux), so the
            # dead process's epoch maps this process onto the *same*
            # simulated timeline: no accumulated delay is forgiven.
            self.clock.start(state.epoch)
        # Account the kill-to-restore gap as server downtime so outage_time
        # reflects the real blackout the peers experienced.
        now = max(self.clock.now(), state.written_at)
        down.update(state.written_at, 1.0)
        down.update(now, 0.0)
        # Re-salt restart-scoped streams: the dead process consumed an
        # unknown prefix of each, so replaying from the top would reuse
        # draws. The polluter roster stream is deliberately NOT re-salted —
        # polluter identities must survive restarts.
        salt = f":r{self.restarts}"
        self._select_rng = self._seeds.python("live:server:select" + salt)
        self._event_rngs = [
            self._seeds.python(f"live:server{i}:events" + salt)
            for i in range(self.params.n_servers)
        ]
        self._outage_rng = self._seeds.python("live:server:outages" + salt)
        self._burst_rng = self._seeds.python(BURST_STREAM + salt)

    async def wait_for_peers(
        self, count: int, timeout: Optional[float] = None
    ) -> None:
        """Block until *count* peers have registered."""

        async def _wait() -> None:
            while len(self.peers) < count:
                self._peer_joined.clear()
                await self._peer_joined.wait()

        if timeout is None:
            await _wait()
        else:
            await asyncio.wait_for(_wait(), timeout)

    async def begin(self, start_delay_wall: float = 0.5) -> None:
        """Broadcast the directory and START, then spawn the pull engine."""
        await self.broadcast(
            {"type": wire.MSG_DIRECTORY, "peers": self._directory()}
        )
        if not self.clock.started:
            loop = asyncio.get_running_loop()
            self.clock.start(loop.time() + start_delay_wall)
        await self.broadcast(
            {"type": wire.MSG_START, "in": start_delay_wall}
        )
        self._began = True
        self._spawn_engine()

    async def resume(self) -> None:
        """Spawn the pull engine on a restored clock (supervised respawn).

        No START broadcast: the swarm's epoch was fixed by the dead
        predecessor and restored from the checkpoint; peers re-register on
        their own schedule and get a RESUME frame as they arrive.
        """
        if not self.clock.started:
            raise RuntimeError(
                "resume() needs a restored clock epoch; call begin() for "
                "a fresh swarm"
            )
        self._began = True
        self._spawn_engine()

    def _directory(self) -> Dict[int, List[Any]]:
        return {
            record.slot: list(record.addr)
            for record in self.peers.values()
        }

    def _spawn_engine(self) -> None:
        """Start the pull loops, fault controllers, and checkpoint loop."""
        spawn = asyncio.create_task
        self._pull_schedules = [
            PoissonSchedule(
                self.clock, self._event_rngs[i], self.params.per_server_rate
            )
            for i in range(self.params.n_servers)
        ]
        self._tasks = [
            spawn(self._pull_loop(i), name=f"server:pull{i}")
            for i in range(self.params.n_servers)
        ]
        # process_faults are NOT scheduled here: in the live runtime they
        # are delivered as real signals by the supervisor; only the
        # blackhole-style outage channels run in-process.
        if self.faults is not None:
            plan = self.faults.plan
            if plan.outage_windows or plan.outage_rate > 0.0:
                self._tasks.append(
                    spawn(
                        self._outage_controller(self.faults),
                        name="server:outages",
                    )
                )
            if plan.burst_rate > 0.0:
                self._tasks.append(
                    spawn(
                        self._burst_controller(self.faults),
                        name="server:bursts",
                    )
                )
        if self.checkpoint_path is not None:
            self._tasks.append(
                spawn(self._checkpoint_loop(), name="server:checkpoint")
            )
        self._tasks.append(
            spawn(self._heartbeat_reaper(), name="server:reaper")
        )

    async def broadcast(self, header: Dict[str, Any]) -> None:
        """Send one control frame to every registered peer."""
        for record in list(self.peers.values()):
            try:
                await record.conn.send(header)
            except (ConnectionError, OSError):
                pass

    async def mark(self) -> None:
        """Start the measurement window on both sides of the swarm."""
        self._marked_at = self.clock.now()
        self.stats.begin_window(self._marked_at)
        await self.broadcast({"type": wire.MSG_MARK})
        # Journal the window edge immediately: a server killed right after
        # MARK must not restart believing it is still warming up.
        self.write_checkpoint_now()

    async def stop_protocol(self) -> None:
        """Stop the pull engine and tell peers to stop their loops."""
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        await self.broadcast({"type": wire.MSG_STOP})

    # -- checkpointing -------------------------------------------------------

    def _snapshot(self) -> ServerCheckpoint:
        """Capture the full decode/collection state for the journal."""
        decoders = tuple(
            self._decoders[sid].snapshot() for sid in sorted(self._decoders)
        )
        return ServerCheckpoint(
            seed=self.seed,
            restarts=self.restarts,
            time_scale=self.clock.time_scale,
            epoch=self.clock.epoch,
            marked_at=self._marked_at,
            next_slot=self._next_slot,
            written_at=self.clock.now(),
            completed=tuple(sorted(self._completed)),
            digests=dict(self._digests),
            counters={
                name: int(getattr(self.stats, name))
                for name in COLLECTOR_COUNTERS
            },
            delay_samples=tuple(self.stats.delay_samples),
            servers_down=self.stats.servers_down.state(),
            total_rank=sum(d.rank for d in self._decoders.values()),
            decoders=decoders,
        )

    def write_checkpoint_now(self) -> None:
        """Write one journal generation (no-op without a checkpoint path)."""
        if self.checkpoint_path is None:
            return
        write_checkpoint(self.checkpoint_path, self._snapshot())
        self.checkpoint_writes += 1

    async def _checkpoint_loop(self) -> None:
        """Journal the decode state every ``checkpoint_interval`` wall secs."""
        while True:
            await asyncio.sleep(self.checkpoint_interval)
            self.write_checkpoint_now()

    async def _heartbeat_reaper(self) -> None:
        """Evict silent peers from the pull candidate set.

        A SIGKILLed or SIGSTOPped peer process cannot send STATUS(empty),
        so without heartbeats the candidate set would keep feeding dead
        addresses to the pull loops forever. The record itself stays (its
        connection teardown deregisters it); only candidacy is revoked, and
        the next heartbeat or status frame restores it.
        """
        interval = HEARTBEAT_TIMEOUT_WALL / 4.0
        while True:
            await asyncio.sleep(interval)
            deadline = asyncio.get_running_loop().time()
            deadline -= HEARTBEAT_TIMEOUT_WALL
            for record in list(self.peers.values()):
                if 0.0 < record.last_seen < deadline:
                    self.nonempty.discard(record.slot)

    async def close(self) -> None:
        """Full teardown: pull engine, peer connections, listener.

        BYE goes out *before* the handler tasks are cancelled: a bare EOF
        now means "the server crashed" to a reconnect-capable peer, so a
        deliberate shutdown must say goodbye explicitly or every peer
        would sit out its full reconnect deadline.
        """
        self.draining.set()
        await self.broadcast({"type": wire.MSG_BYE})
        for task in [*self._tasks, *self._conn_tasks]:
            task.cancel()
        await asyncio.gather(
            *self._tasks, *self._conn_tasks, return_exceptions=True
        )
        self._tasks = []
        self._conn_tasks.clear()
        self._cache.limit = 0
        await self._cache.trim()
        for record in list(self.peers.values()):
            await record.conn.close()
        self.peers.clear()
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()

    # -- control plane ------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._conn_tasks.add(task)
        conn = FramedConnection(reader, writer)
        record: Optional[_PeerRecord] = None
        try:
            hello = await conn.read()
            if hello is None or hello.type != wire.MSG_HELLO:
                return
            record = self._register(hello, conn)
            await conn.send({
                "type": wire.MSG_WELCOME,
                "slot": record.slot,
                "seed": self.seed,
                "time_scale": self.clock.time_scale,
                "epoch": self.clock.epoch,
                "params": wire.params_to_wire(self.params),
            })
            if self._began:
                await self._welcome_back(record)
            self._peer_joined.set()
            while True:
                frame = await conn.read()
                if frame is None or frame.type == wire.MSG_BYE:
                    break
                self._handle_peer_frame(record, frame)
        except FrameTruncated:
            # The peer vanished mid-frame (killed, or the network tore the
            # stream). Reconnect-and-resume handles it; nothing to log.
            pass
        except (FrameError, ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            # Teardown cancels handler tasks; swallow so the streams
            # machinery sees a clean exit, not an unhandled cancellation.
            pass
        finally:
            stale: Optional[Address] = None
            if record is not None and self.peers.get(record.slot) is record:
                del self.peers[record.slot]
                self.nonempty.discard(record.slot)
                stale = record.addr  # its listener is gone, or will move
            try:
                await conn.close()
                if stale is not None:
                    await self._cache.drop(stale)
            except asyncio.CancelledError:
                pass
            # Deregister only after the transport is down: close() gathers
            # this set, so a task must stay visible until fully drained.
            self._conn_tasks.discard(task)

    def _register(self, hello: Frame, conn: FramedConnection) -> _PeerRecord:
        header = hello.header
        try:
            slot = header.get("slot")
            slot = self._next_slot if slot is None else int(slot)
            host, port = str(header["host"]), header["port"]
        except (KeyError, TypeError, ValueError) as exc:
            raise FrameGarbage(f"malformed hello: {exc!r}") from exc
        # Every pull and every peer's directory dials this address, so a
        # port the socket layer refuses must never get past the door.
        if type(port) is not int or not 1 <= port <= 65535:
            raise FrameGarbage(f"malformed hello: port {port!r}")
        if not 0 <= slot < self.params.n_peers:
            raise FrameGarbage(f"slot {slot} out of range")
        self._next_slot = max(self._next_slot, slot + 1)
        record = _PeerRecord(slot, (host, port), conn)
        self.peers[slot] = record
        resume = hello.header.get("resume")
        if isinstance(resume, dict):
            # A reconnecting peer replays its buffer state so the pull
            # candidate set is correct before its first STATUS edge.
            if resume.get("nonempty", False):
                self.nonempty.add(slot)
            else:
                self.nonempty.discard(slot)
        return record

    async def _welcome_back(self, record: _PeerRecord) -> None:
        """Re-integrate a peer that (re)joined a running swarm.

        The newcomer gets the full directory plus a RESUME frame (carrying
        whether the measurement window is already open); everyone else gets
        a partial directory update so gossip re-targets the peer's new
        listen address instead of its dead one.
        """
        await record.conn.send(
            {"type": wire.MSG_DIRECTORY, "peers": self._directory()}
        )
        await record.conn.send({
            "type": wire.MSG_RESUME,
            "marked": self._marked_at is not None,
        })
        update = {
            "type": wire.MSG_DIRECTORY,
            "partial": True,
            "peers": {record.slot: list(record.addr)},
        }
        for other in list(self.peers.values()):
            if other is record:
                continue
            try:
                await other.conn.send(update)
            except (ConnectionError, OSError):
                pass

    def _handle_peer_frame(self, record: _PeerRecord, frame: Frame) -> None:
        kind = frame.type
        if kind == wire.MSG_STATUS:
            if frame.header.get("nonempty", False):
                self.nonempty.add(record.slot)
            else:
                self.nonempty.discard(record.slot)
        elif kind == wire.MSG_HEARTBEAT:
            record.last_seen = asyncio.get_running_loop().time()
            if frame.header.get("nonempty", False):
                self.nonempty.add(record.slot)
            else:
                self.nonempty.discard(record.slot)
        elif kind == wire.MSG_METRICS_REPLY:
            try:
                key = (record.slot, int(frame.header.get("req", -1)))
                stats = peer_summary_from_wire(frame.header["stats"])
            except (KeyError, TypeError, ValueError) as exc:
                raise FrameGarbage(
                    f"malformed metrics reply: {exc!r}"
                ) from exc
            future = self._metrics_futures.pop(key, None)
            if future is not None and not future.done():
                future.set_result(stats)

    async def request_metrics(self, slot: int) -> Dict[str, float]:
        """Ask one peer for its measurement-window stats."""
        record = self.peers[slot]
        self._metrics_req += 1
        req = self._metrics_req
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Dict[str, float]]" = loop.create_future()
        self._metrics_futures[(slot, req)] = future
        await record.conn.send({"type": wire.MSG_METRICS, "req": req})
        try:
            return await asyncio.wait_for(future, METRICS_TIMEOUT)
        finally:
            self._metrics_futures.pop((slot, req), None)

    # -- pull engine --------------------------------------------------------

    async def _pull_loop(self, index: int) -> None:
        schedule = self._pull_schedules[index]
        while True:
            await schedule.wait()
            if self._paused:
                await self._resumed.wait()
                continue
            # Timestamp with the realized clock reading (see the peer's
            # injection loop): delays compare actual times on both ends.
            await self._pull_once(self.clock.now())

    async def _fetch_candidate(self) -> Optional[_PulledBlock]:
        """Draw one non-empty peer and pull a coded block from it.

        Returns ``None`` when there is no candidate (idle pull) — either no
        peer advertises a non-empty buffer, or the drawn peer emptied /
        died / answered garbage between advertisement and service (a race
        the simulator's atomic transfers cannot exhibit; counted as idle).
        """
        if not self.nonempty:
            return None
        slot = self.nonempty.sample(self._select_rng)
        record = self.peers.get(slot)
        conn: Optional[FramedConnection] = None
        try:
            if record is None:
                raise ConnectionError(f"no registered peer in slot {slot}")
            self._cache.limit = len(self.peers)
            conn = await self._cache.get(record.addr)
            reply = await conn.request({"type": wire.MSG_PULL})
            if reply.type == wire.MSG_PULL_EMPTY:
                self.nonempty.discard(slot)
                self.stats.pull_empty_races += 1
                return None
            if reply.type != wire.MSG_PULL_BLOCK:
                raise FrameGarbage(f"{reply.type!r} in reply to a pull")
            block = wire.session_block_from_wire(
                self.params, reply.header, reply.payload
            )
        except (ConnectionError, FrameError, OSError):
            if record is not None and conn is not None:
                await self._cache.drop(record.addr, conn)
            self.stats.pull_empty_races += 1
            return None
        return _PulledBlock(
            self, slot, block, wire.block_digest_of(reply.header)
        )

    def _count(self, outcome: str) -> None:
        stats = self.stats
        setattr(stats, outcome, getattr(stats, outcome) + 1)

    async def _pull_once(self, now: float) -> None:
        """One pull trial: feed fetched blocks to the shared ladder.

        No adversary, scorer, or tracer is handed over, so every request
        of the trial is for a fresh candidate.
        """
        self.stats.pulls += 1
        trial = pull_trial(
            await self._fetch_candidate(),
            now,
            self._count,
            self.faults,
            tracer=None,
            adversary=None,
            scorer=None,
            trust_of=None,
            retries=0,
            on_quarantine=None,
        )
        try:
            next(trial)
            while True:
                trial.send(await self._fetch_candidate())
        except StopIteration:
            pass

    def _ingest(self, block: CodedBlock, digest: str, now: float) -> bool:
        """Feed one clean block to the pooled decoder state.

        Returns True when the block was innovative.
        """
        segment_id = block.segment.segment_id
        decoder = self._decoders.get(segment_id)
        if decoder is None:
            decoder = SegmentDecoder(block.segment)
            self._decoders[segment_id] = decoder
        if digest:
            self._digests.setdefault(segment_id, digest)
        if not decoder.offer(block, now):
            return False
        if decoder.is_complete:
            self._completed.add(segment_id)
            self.stats.on_segment_completed(
                now, block.segment.injected_at, block.segment.size
            )
            self._verify(segment_id, decoder)
            # Decoded segments' state is no longer needed; keep memory flat.
            del self._decoders[segment_id]
        return True

    def _verify(self, segment_id: int, decoder: SegmentDecoder) -> None:
        """End-to-end check: decoded payload vs the source digest."""
        expected = self._digests.pop(segment_id, "")
        if not expected:
            return
        rows = decoder.decode()
        if wire.payload_digest(rows.tobytes()) == expected:
            self.stats.hash_verified += 1
        else:
            self.stats.hash_failures += 1

    # -- fault controllers ---------------------------------------------------

    async def _outage_controller(self, faults: FaultVerdicts) -> None:
        """Drive server outages: scheduled windows or the renewal process."""
        plan = faults.plan
        if plan.outage_windows:
            for start, end in plan.outage_windows:
                if end <= self.clock.now():
                    # Window fully elapsed before this (restarted) process
                    # came up; the blackout already happened for real.
                    continue
                await self.clock.sleep_until(start)
                await self._enter_outage(faults, end - start)
            return
        while True:
            gap = exponential(self._outage_rng, plan.outage_rate)
            await self.clock.sleep_sim(gap)
            await self._enter_outage(faults, plan.outage_duration)

    async def _enter_outage(
        self, faults: FaultVerdicts, duration: float
    ) -> None:
        """All servers blackhole for *duration* sim units, then catch up."""
        if duration <= 0:
            return
        self._paused = True
        self._resumed.clear()
        self.stats.servers_down.update(self.clock.now(), 1.0)
        await self.clock.sleep_sim(duration)
        now = self.clock.now()
        self.stats.servers_down.update(now, 0.0)
        catchup = faults.catchup_pulls(duration, self.params.per_server_rate)
        # Push every pull clock past the outage so the backlog does not
        # drain as an unbounded burst; the bounded catch-up below is the
        # only compensation, exactly like the simulator.
        for schedule in self._pull_schedules:
            schedule.defer(duration)
        self._paused = False
        self._resumed.set()
        # Burn down the backlog: the same bounded catch-up burst the
        # simulator schedules at resume time.
        for _ in range(self.params.n_servers):
            for _ in range(catchup):
                await self._pull_once(self.clock.now())

    async def _burst_controller(self, faults: FaultVerdicts) -> None:
        """Correlated departures: RESET a random cohort of peers."""
        while True:
            gap = exponential(self._burst_rng, faults.plan.burst_rate)
            await self.clock.sleep_sim(gap)
            slots = faults.burst_slots(self._burst_rng)
            self.stats.burst_departures += len(slots)
            for slot in slots:
                self.nonempty.discard(slot)
                record = self.peers.get(slot)
                if record is not None:
                    await self._cache.drop(record.addr)
                    try:
                        await record.conn.send({"type": wire.MSG_RESET})
                    except (ConnectionError, OSError):
                        pass
