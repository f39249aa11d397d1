"""Live-runtime integration tests: ports, wire, netem, crossval, swarms.

Everything here binds port 0 and propagates the kernel-assigned port via
the shared :mod:`repro.live.ports` helpers — no test hard-codes a port,
so parallel runs on a busy CI host cannot collide.
"""

import asyncio
import json
import random

import numpy as np
import pytest

from repro.coding.block import (
    SegmentDescriptor,
    detects_pollution,
    make_source_blocks,
)
from repro.core.params import Parameters
from repro.faults.injector import POLLUTER_STREAM, FaultVerdicts
from repro.faults.plan import FaultPlan
from repro.live import ports, wire
from repro.live.clock import TIMER_SLACK
from repro.live.crossval import (
    DEFAULT_TOLERANCES,
    compare_metric,
    compare_reports,
)
from repro.live.framing import FrameGarbage
from repro.live.harness import run_swarm, validate_live_params
from repro.live.peer import LivePeer
from repro.live.server import LiveLoggingServer
from repro.sim.rng import SeedSequenceRegistry
from repro.util.codec import decode, encode


def _params(**overrides):
    defaults = dict(
        n_peers=8,
        arrival_rate=0.25,
        gossip_rate=1.0,
        deletion_rate=0.25,
        normalized_capacity=1.0,
        segment_size=2,
        n_servers=2,
        mode="rlnc",
        payload_bytes=32,
    )
    defaults.update(overrides)
    return Parameters(**defaults)


class TestPorts:
    """Port-collision-safe fixtures: bind 0, propagate, bounded retry."""

    def test_port_zero_binds_and_propagates_ephemeral_port(self):
        async def scenario():
            async def handler(reader, writer):
                await ports.close_writer(writer)

            server, port = await ports.start_server(handler)
            assert port > 0  # the kernel's pick, not our request
            assert ports.server_port(server) == port
            reader, writer = await ports.connect("127.0.0.1", port)
            await ports.close_writer(writer)
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    def test_two_listeners_never_collide(self):
        async def scenario():
            async def handler(reader, writer):
                await ports.close_writer(writer)

            first, port_a = await ports.start_server(handler)
            second, port_b = await ports.start_server(handler)
            assert port_a != port_b
            for server in (first, second):
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())

    def test_connect_retry_is_bounded(self):
        async def scenario():
            # Grab an ephemeral port, then free it: nothing listens there.
            async def handler(reader, writer):
                await ports.close_writer(writer)

            server, port = await ports.start_server(handler)
            server.close()
            await server.wait_closed()
            with pytest.raises(OSError):
                await ports.connect(
                    "127.0.0.1", port, attempts=2, backoff=0.01
                )

        asyncio.run(scenario())

    def test_connect_retries_until_listener_appears(self):
        async def scenario():
            async def handler(reader, writer):
                await ports.close_writer(writer)

            # Reserve a port the late listener will reuse.
            probe, port = await ports.start_server(handler)
            probe.close()
            await probe.wait_closed()

            async def late_listener():
                await asyncio.sleep(0.1)
                return await ports.start_server(handler, port=port)

            listener_task = asyncio.create_task(late_listener())
            reader, writer = await ports.connect(
                "127.0.0.1", port, attempts=8, backoff=0.05
            )
            await ports.close_writer(writer)
            server, _ = await listener_task
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    def test_attempt_budgets_are_validated(self):
        async def scenario():
            async def handler(reader, writer):
                await ports.close_writer(writer)

            with pytest.raises(ValueError):
                await ports.start_server(handler, attempts=0)
            with pytest.raises(ValueError):
                await ports.connect("127.0.0.1", 1, attempts=0)

        asyncio.run(scenario())


class TestWire:
    def _block(self, s=3, payload_bytes=16):
        descriptor = SegmentDescriptor(
            segment_id=(5 << 32) | 7,
            source_peer=5,
            size=s,
            injected_at=1.25,
            generation=2,
        )
        rows = np.arange(s * payload_bytes, dtype=np.uint8).reshape(
            s, payload_bytes
        )
        return make_source_blocks(descriptor, rows, created_at=1.5)[0]

    def test_block_round_trip(self):
        block = self._block()
        header, payload = wire.block_to_wire(
            wire.MSG_BLOCK, block, "abcd1234", slot=5
        )
        assert header["slot"] == 5
        back = wire.block_from_wire(header, payload)
        assert back.segment == block.segment
        assert np.array_equal(back.coefficients, block.coefficients)
        assert np.array_equal(back.payload, block.payload)
        assert back.created_at == block.created_at
        assert back.polluted == block.polluted
        assert wire.block_digest_of(header) == "abcd1234"

    def test_short_payload_is_garbage_not_a_crash(self):
        block = self._block(s=3)
        header, payload = wire.block_to_wire(wire.MSG_BLOCK, block, "")
        with pytest.raises(FrameGarbage):
            wire.block_from_wire(header, payload[:3])  # only coefficients

    def test_malformed_segment_header_is_garbage(self):
        block = self._block()
        header, payload = wire.block_to_wire(wire.MSG_BLOCK, block, "")
        header = dict(header)
        header["segment"] = {"segment_id": "not-an-int-at-all"}
        with pytest.raises(FrameGarbage):
            wire.block_from_wire(header, payload)

    def test_params_round_trip_with_fault_plan(self):
        params = _params(
            faults=FaultPlan(
                gossip_loss_rate=0.1,
                pull_loss_rate=0.05,
                pollution_fraction=0.2,
                outage_windows=((1.0, 2.0), (5.0, 6.5)),
            ),
        )
        back = decode(Parameters, json.loads(json.dumps(encode(params))))
        assert back == params
        assert isinstance(back.faults, FaultPlan)
        assert back.faults.outage_windows == ((1.0, 2.0), (5.0, 6.5))

    def test_params_refuse_adversary_plans(self):
        from repro.adversary.plan import AdversaryPlan

        params = _params(adversary=AdversaryPlan(liar_fraction=0.1))
        with pytest.raises(ValueError):
            wire.validate_live_params(params, supervised=True)

    def test_payload_digest_is_stable_and_short(self):
        digest = wire.payload_digest(b"hello world")
        assert digest == wire.payload_digest(b"hello world")
        assert len(digest) == 16
        assert digest != wire.payload_digest(b"hello worlds")


class TestNetemShim:
    """The fault verdicts as a live process builds them (netem-style:
    the swarm-wide polluter stream plus a per-process event stream)."""

    def _shim(self, plan, n=50, root_seed=7):
        seeds = SeedSequenceRegistry(root_seed)
        return FaultVerdicts(
            plan, n, seeds.python(POLLUTER_STREAM),
            seeds.python("test:netem"),
        )

    def test_server_and_peer_derive_the_same_polluter_set(self):
        async def build():
            params = _params(faults=FaultPlan(pollution_fraction=0.5))
            server = LiveLoggingServer(params, 1)
            peer = LivePeer(0, params, 1, "127.0.0.1", 1)
            return server.faults, peer.faults

        server_side, peer_side = asyncio.run(build())
        assert server_side.polluters == peer_side.polluters != frozenset()

    def test_polluter_set_is_identical_across_processes(self):
        # Same root seed + the shared POLLUTER_STREAM substream -> every
        # process of a swarm derives the same polluter set independently.
        plan = FaultPlan(pollution_fraction=0.2)
        first = self._shim(plan)
        second = self._shim(plan)
        assert first.polluters == second.polluters
        assert first.polluters  # non-empty at this fraction

    def test_polluted_emission_is_detectable_on_the_wire(self):
        shim = self._shim(FaultPlan(pollution_fraction=0.2))
        polluter = next(iter(shim.polluters))
        clean = sorted(set(range(50)) - set(shim.polluters))[0]
        descriptor = SegmentDescriptor(
            segment_id=1, source_peer=polluter, size=2, injected_at=0.0
        )
        rows = np.ones((2, 8), dtype=np.uint8)
        blocks = make_source_blocks(descriptor, rows, created_at=0.0)

        from repro.core.peer import SegmentHolding

        holding = SegmentHolding(descriptor)
        holding.add(blocks[0])
        # A polluter slot corrupts its fresh emission detectably.
        emission = blocks[1]
        assert shim.maybe_pollute(polluter, holding, emission)
        assert detects_pollution(emission)
        # Once a receiver stores that junk, every re-encode over the
        # holding is junk too — even from a clean slot (pollution spreads).
        holding.add(emission)
        assert holding.polluted_count > 0
        assert shim.pollutes(clean, holding)
        # A clean holding at a clean slot stays clean.
        clean_holding = SegmentHolding(descriptor)
        clean_holding.add(blocks[0])
        assert not shim.pollutes(clean, clean_holding)

    def test_loss_rates_drop_at_the_configured_frequency(self):
        shim = self._shim(FaultPlan(gossip_loss_rate=0.3), n=10)
        drops = sum(shim.drop_gossip() for _ in range(4000))
        assert 0.25 < drops / 4000 < 0.35


class TestCrossval:
    def test_metric_within_band_agrees(self):
        c = compare_metric("normalized_throughput", 0.50, 0.55, 0.15)
        assert c.within and c.deviation == pytest.approx(0.1)

    def test_metric_outside_band_disagrees(self):
        c = compare_metric("normalized_throughput", 0.50, 0.60, 0.15)
        assert not c.within

    def test_one_sided_none_disagrees_both_none_trivially_agrees(self):
        assert not compare_metric("m", 0.5, None, 0.1).within
        assert not compare_metric("m", None, 0.5, 0.1).within
        assert compare_metric("m", None, None, 0.1).within

    def test_report_verdict_and_worst(self):
        sim = {m: 1.0 for m in DEFAULT_TOLERANCES}
        live = dict(sim)
        report = compare_reports(sim, live)
        assert report.agrees
        live["efficiency"] = 10.0
        report = compare_reports(sim, live)
        assert not report.agrees
        assert report.worst.metric == "efficiency"
        payload = report.to_payload()
        assert payload["agrees"] is False

    def test_near_zero_baselines_use_the_absolute_floor(self):
        # deviation is relative to max(|sim|, floor): a tiny sim value must
        # not turn numeric dust into an infinite relative error.
        c = compare_metric("m", 0.0, 1e-4, 0.15)
        assert c.within


class TestValidateLiveParams:
    def test_accepts_the_default_live_shape(self):
        validate_live_params(_params())

    def test_rejects_abstract_mode_latency_and_policy(self):
        with pytest.raises(ValueError):
            validate_live_params(_params(payload_bytes=0))
        with pytest.raises(ValueError):
            validate_live_params(_params(mode="abstract", payload_bytes=0))
        with pytest.raises(ValueError):
            validate_live_params(_params(gossip_latency=0.5))
        with pytest.raises(ValueError):
            validate_live_params(_params(pull_policy="rarest-first"))


class TestSwarm:
    """End-to-end loopback swarms (small; the 1k run is E-LIVE's job)."""

    def test_eight_peer_swarm_collects_and_verifies(self):
        params = _params()
        report = asyncio.run(
            run_swarm(params, seed=3, warmup=3.0, duration=8.0,
                      time_scale=4.0)
        )
        assert report["engine"] == "live"
        assert report["segments_completed"] > 0
        assert report["hash_verified"] > 0
        assert report["hash_failures"] == 0
        assert report["normalized_throughput"] > 0
        assert report["mean_block_delay"] is None or (
            report["mean_block_delay"] >= 0
        )

    def test_faulty_swarm_stays_clean_end_to_end(self):
        params = _params(
            faults=FaultPlan(
                gossip_loss_rate=0.2,
                pull_loss_rate=0.1,
                pollution_fraction=0.2,
            ),
        )
        report = asyncio.run(
            run_swarm(params, seed=5, warmup=3.0, duration=8.0,
                      time_scale=4.0)
        )
        # Losses and polluters are active, yet nothing corrupt decodes.
        assert report["hash_failures"] == 0
        assert (
            report["transfers_dropped"] > 0
            or report["blocks_rejected_polluted"] > 0
        )

    def test_outage_window_and_bursts_run_in_the_collector(self):
        params = _params(
            faults=FaultPlan(
                outage_windows=((3.0, 5.0),),
                burst_rate=1.0,
                burst_fraction=0.25,
            ),
        )
        report = asyncio.run(
            run_swarm(params, seed=5, warmup=2.0, duration=6.0,
                      time_scale=4.0)
        )
        # Each window edge wakes on the timer grid: a slack late at most,
        # plus the loop's own lag.
        assert report["outage_time"] == pytest.approx(2.0, abs=4 * TIMER_SLACK)
        assert report["burst_departures"] > 0
        assert report["hash_failures"] == 0

    def test_swarm_rejects_bad_windows(self):
        with pytest.raises(ValueError):
            asyncio.run(run_swarm(_params(), 1, warmup=-1.0, duration=1.0))
        with pytest.raises(ValueError):
            asyncio.run(run_swarm(_params(), 1, warmup=0.0, duration=0.0))
