"""The shared pull-trial ladder under its two drivers.

``repro.core.server.pull_trial`` is the one statement of what a server
pull does; ``ServerPool.pull`` drives it synchronously and
``LiveLoggingServer._pull_once`` drives it across awaits.  These tests
feed both drivers the same candidates and require the same accounting.
"""

import asyncio
import random
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.block import CodedBlock
from repro.core import server as core_server
from repro.core.params import Parameters
from repro.core.peer import Peer
from repro.core.segments import SegmentRegistry
from repro.core.server import ServerPool, pull_trial
from repro.faults.injector import FaultVerdicts
from repro.faults.plan import FaultPlan
from repro.live import server as live_server
from repro.live.server import LiveLoggingServer
from repro.sim.metrics import MetricsCollector
from tests.fake_peer import FakePeer, wire_block

#: Every name a trial can count that both drivers report.
OUTCOMES = (
    "idle_pulls",
    "redundant_pulls",
    "transfers_dropped",
    "blocks_rejected_polluted",
    "useful_pulls",
)


def _params(plan, n_peers=4):
    return Parameters(
        n_peers=n_peers,
        arrival_rate=0.25,
        gossip_rate=1.0,
        deletion_rate=0.25,
        normalized_capacity=1.0,
        segment_size=2,
        n_servers=1,
        mode="rlnc",
        payload_bytes=8,
        faults=plan,
    )


def _pool(params, sample_nonempty_peer):
    """A one-server pool with the fault verdicts the system would build."""
    metrics = MetricsCollector(
        params.n_peers, params.arrival_rate, params.segment_size, 1.0
    )
    metrics.begin_window(0.0)
    registry = SegmentRegistry(metrics, use_decoders=False)
    faults = None
    if params.has_faults:
        faults = FaultVerdicts(
            params.faults, params.n_peers, random.Random(1), random.Random(2)
        )
    pool = ServerPool(
        n_servers=1,
        registry=registry,
        metrics=metrics,
        rng=random.Random(0),
        coding_rng=np.random.default_rng(0),
        sample_nonempty_peer=sample_nonempty_peer,
        rlnc_mode=False,
        faults=faults,
    )
    return pool, metrics, registry


class TestRepullBudgetExhaustion:
    """All-polluter population, budget 2: three draws, three rejections.

    The live collector used to fetch a fourth block it never examined and
    book it as a redundant pull.
    """

    PLAN = FaultPlan(pollution_fraction=1.0, pollution_repull_budget=2)

    def test_event_driver(self):
        peer = Peer(0, 16)
        draws = []

        def sample():
            draws.append(peer)
            return peer

        pool, metrics, registry = _pool(_params(self.PLAN), sample)
        state = registry.create(source_peer=0, size=2, now=0.0)
        peer.add_block(CodedBlock(segment=state.descriptor, created_at=0.0))
        registry.on_block_added(state, 0.0)
        pool.pull(0, now=1.0)
        assert len(draws) == 3
        assert metrics.window_count("blocks_rejected_polluted") == 3
        assert metrics.window_count("redundant_pulls") == 0
        assert metrics.window_count("idle_pulls") == 0
        assert state.collected == 0

    def test_live_driver_over_real_sockets(self):
        async def scenario():
            params = _params(self.PLAN)
            server = LiveLoggingServer(params, seed=3)
            await server.start()
            junk = wire_block(params, segment_id=7, coefficients=[0, 0])
            fake = FakePeer(server, 0, lambda frame: junk)
            try:
                await fake.start()
                await fake.advertise()
                await server._pull_once(1.0)
            finally:
                await fake.close()
                await server.close()
            return fake.served, server.stats

        served, stats = asyncio.run(scenario())
        assert served == {"pull": 3}
        assert stats.pulls == 1
        assert stats.blocks_rejected_polluted == 3
        assert stats.redundant_pulls == 0
        assert stats.idle_pulls == 0


class _Scripted:
    """A candidate whose verdicts are fixed by the script."""

    def __init__(self, kind, index):
        self.kind = kind
        self.source = (index % 4, 0)
        self.segment_id = index
        self.is_complete = kind == "complete"

    def take(self, now):
        return self.kind == "polluted", self.kind == "innovative"


def _feeder(script, consumed):
    """Candidates from *script* in order; None once it runs dry."""
    items = iter(script)

    def feed():
        kind = next(items, None)
        if kind is None:
            return None
        consumed.append(kind)
        return _Scripted(kind, len(consumed))

    return feed


def _recording(log):
    """``pull_trial`` with every counted outcome also appended to *log*."""

    def recorded(candidate, now, count, *rest, **named):
        def tee(outcome):
            log.append(outcome)
            count(outcome)

        return pull_trial(candidate, now, tee, *rest, **named)

    return recorded


def _run_event_driver(params, scripts):
    log, consumed = [], []
    pool, metrics, _ = _pool(params, lambda: None)
    with mock.patch.object(core_server, "pull_trial", _recording(log)):
        for script in scripts:
            feed = _feeder(script, consumed)
            pool._candidate = lambda attractor: feed()
            pool.pull(0, now=1.0)
            log.append("|")
    counters = {name: metrics.window_count(name) for name in OUTCOMES}
    counters["pulls"] = metrics.window_count("pulls")
    return log, consumed, counters


def _run_live_driver(params, scripts):
    log, consumed = [], []

    async def scenario():
        server = LiveLoggingServer(params, seed=3)
        with mock.patch.object(live_server, "pull_trial", _recording(log)):
            for script in scripts:
                feed = _feeder(script, consumed)

                async def fetch():
                    await asyncio.sleep(0)
                    return feed()

                server._fetch_candidate = fetch
                await server._pull_once(1.0)
                log.append("|")
        return server.stats

    stats = asyncio.run(scenario())
    counters = {name: getattr(stats, name) for name in OUTCOMES}
    counters["pulls"] = stats.pulls
    return log, consumed, counters


KINDS = st.sampled_from(
    ["none", "complete", "polluted", "innovative", "stale"]
)
SCRIPTS = st.lists(
    st.lists(KINDS, max_size=6).map(
        # "none" ends a script: the feeder answers None from there on.
        lambda kinds: kinds[: kinds.index("none")] if "none" in kinds else kinds
    ),
    min_size=1,
    max_size=4,
)
PLANS = st.builds(
    FaultPlan,
    pull_loss_rate=st.sampled_from([0.0, 1.0]),
    pollution_fraction=st.sampled_from([0.0, 1.0]),
    pollution_repull_budget=st.integers(min_value=0, max_value=3),
)


class TestDriversAgree:
    @settings(max_examples=150, deadline=None)
    @given(plan=PLANS, scripts=SCRIPTS)
    def test_same_candidates_same_outcomes(self, plan, scripts):
        params = _params(plan)
        event = _run_event_driver(params, scripts)
        live = _run_live_driver(params, scripts)
        assert event == live
        log, consumed, counters = event
        # every trial is accounted for, and only drawn candidates consumed
        assert counters["pulls"] == len(scripts) == log.count("|")
        assert len(consumed) <= sum(len(script) for script in scripts)
