"""Null-plan neutrality, stated once as the construction rule it is.

*A hook object exists iff its plan is non-null; a query whose own knob is
zero is inert* — it draws from no RNG, schedules nothing, traces nothing
and returns the "nothing happened" verdict.  The paper's model has no
faults and no adversaries, so every figure must replay bit for bit
whether or not those planes exist; this file is the one place that is
checked.

``TABLE`` has one row per fault/adversary/engine hook method (the 31 the
retired lint rule R7 used to certify statically, plus the two timeline
iterators: ``CERTIFIED``), each called on a *real* object twice:

- under a fully **null** plan, with RNGs, simulator, tracer and metrics
  that raise on any use;
- under a **mixed** plan — every *other* knob on, the row's own ``zero``
  knobs off — with live collaborators whose state is compared around the
  call.  This is the case that can happen at run time.

``test_hook_objects_exist_iff_plan_non_null`` checks the other half of the
rule on all three engines.  Adding a fault channel or adversary strategy
means one query plus one row here.
"""

import asyncio
import random
from dataclasses import replace
from typing import Any, Callable, NamedTuple, Tuple

import numpy as np
import pytest

from repro.adversary import AdversaryPlan
from repro.adversary.injector import AdversaryInjector, AdversaryRoles
from repro.coding.block import CodedBlock, SegmentDescriptor
from repro.core.params import Parameters
from repro.core.system import CollectionSystem
from repro.fastsim import FastAdversaryMasks, FastFaultMasks
from repro.fastsim.system import FastCollectionSystem
from repro.faults import FaultPlan
from repro.faults.injector import FaultInjector, FaultVerdicts
from repro.live.peer import LivePeer
from repro.live.server import LiveLoggingServer
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer

N_SLOTS = 40

#: Every knob of each plane on, keyed by the base class of the hook objects
#: built from it; a row's mixed plan turns the row's own knobs off.
MIXED = {
    FaultVerdicts: FaultPlan(
        gossip_loss_rate=0.3,
        pull_loss_rate=0.3,
        pollution_fraction=0.25,
        outage_rate=0.5,
        outage_duration=1.0,
        burst_rate=0.5,
        burst_fraction=0.1,
    ),
    AdversaryRoles: AdversaryPlan(
        liar_fraction=0.2,
        freerider_fraction=0.2,
        polluter_fraction=0.2,
        sybil_rate=0.5,
        sybil_fraction=0.1,
    ),
}


class Tripwire:
    """Stands in for a collaborator an inert query must never use."""

    def __init__(self, role):
        self.role = role

    def __getattr__(self, name):
        raise AssertionError(f"inert query touched {self.role}.{name}")


class Env:
    """The collaborators a hook object is built over."""

    def __init__(self, live):
        self.live = live
        self.py_rng = random.Random(7) if live else Tripwire("py_rng")
        self.np_rng = np.random.default_rng(7) if live else Tripwire("np_rng")
        self.sim = Simulator() if live else Tripwire("sim")
        self.tracer = Tracer() if live else Tripwire("tracer")
        self.metrics = Tripwire("metrics")

    def snapshot(self):
        """Everything a non-inert query would have moved."""
        if not self.live:
            return ()  # any use already raised
        return (
            self.py_rng.getstate(),
            repr(self.np_rng.bit_generator.state),
            self.sim.pending,
            len(self.tracer),
        )


# -- how each family of hook objects is built -----------------------------


def verdicts(cls, plan, env):
    return cls(plan, N_SLOTS, env.py_rng, env.py_rng)


def roles(cls, plan, env):
    return cls(plan, N_SLOTS, env.py_rng)


def injector(cls, plan, env):
    return cls(plan, env.sim, env.py_rng, N_SLOTS, env.metrics, env.tracer)


def masks(cls, plan, env):
    return cls(plan, env.py_rng, env.np_rng, N_SLOTS)


def detached_simulator(cls, plan, env):
    """Three due events and a monitor probe installed, then removed."""

    def probe():
        raise AssertionError("detached probe invoked")

    sim = cls()
    sim.set_probe(probe, every=1)
    sim.clear_probe()
    for delay in (0.1, 0.2, 0.3):
        sim.schedule_call(delay, int)
    return sim


class CleanHolding:
    polluted_count = 0


def clean_block():
    descriptor = SegmentDescriptor(
        segment_id=1, source_peer=0, size=2, injected_at=0.0
    )
    return CodedBlock(segment=descriptor)


def started_then_stopped(hook):
    hook.start()
    return hook.stop()


class Row(NamedTuple):
    cls: type
    method: str
    #: builds the object: ``build(cls, plan, env)``.
    build: Callable[..., Any]
    #: the query, on the built object; None = construction is the query.
    call: Any
    #: the query's own knobs, forced to zero in the mixed plan.
    zero: Tuple[str, ...]
    #: what an inert query answers.
    inert: Any

    @property
    def name(self):
        return f"{self.cls.__name__}.{self.method}"


ANY = object()
STATIC_ROLES = ("liar_fraction", "freerider_fraction", "polluter_fraction")
FAULT_CLOCKS = ("outage_rate", "burst_rate")
NO_ROLES = (frozenset(), frozenset(), frozenset())

TABLE = [
    # the per-event fault decisions every engine consults
    Row(FaultVerdicts, "__init__", verdicts, None, ("pollution_fraction",), ANY),
    Row(FaultVerdicts, "_sample_polluters", verdicts,
        lambda v: v._sample_polluters(v._rng), ("pollution_fraction",),
        frozenset()),
    Row(FaultVerdicts, "drop_gossip", verdicts,
        lambda v: v.drop_gossip(), ("gossip_loss_rate",), False),
    Row(FaultVerdicts, "drop_pull", verdicts,
        lambda v: v.drop_pull(), ("pull_loss_rate",), False),
    Row(FaultVerdicts, "is_polluter", verdicts,
        lambda v: v.is_polluter(3), ("pollution_fraction",), False),
    Row(FaultVerdicts, "pollutes", verdicts,
        lambda v: v.pollutes(3, CleanHolding()), ("pollution_fraction",),
        False),
    Row(FaultVerdicts, "maybe_pollute", verdicts,
        lambda v: v.maybe_pollute(3, CleanHolding(), clean_block()),
        ("pollution_fraction",), False),
    # the shared fault timeline: no rate and no windows, no draw
    Row(FaultVerdicts, "outages", verdicts,
        lambda v: tuple(v.outages(v._rng)), ("outage_rate",), ()),
    Row(FaultVerdicts, "bursts", verdicts,
        lambda v: tuple(v.bursts(v._rng)), ("burst_rate",), ()),
    # the event engine's fault clocks
    Row(FaultInjector, "__init__", injector, None, ("pollution_fraction",), ANY),
    Row(FaultInjector, "start", injector,
        lambda i: i.start(), FAULT_CLOCKS, None),
    Row(FaultInjector, "stop", injector,
        started_then_stopped, FAULT_CLOCKS, None),
    Row(FaultInjector, "servers_down", injector,
        lambda i: i.servers_down, (), False),
    # who plays which adversarial role
    Row(AdversaryRoles, "__init__", roles, None, STATIC_ROLES, ANY),
    Row(AdversaryRoles, "_sample_roles", roles,
        lambda r: r._sample_roles(), STATIC_ROLES, NO_ROLES),
    Row(AdversaryRoles, "capture_probability", roles,
        lambda r: r.capture_probability(0), (), 0.0),
    Row(AdversaryRoles, "sybil_burst_size", roles,
        lambda r: r.sybil_burst_size(), (), ANY),
    # the event engine's adversary queries
    Row(AdversaryInjector, "start", injector,
        lambda i: i.start(), ("sybil_rate",), None),
    Row(AdversaryInjector, "stop", injector,
        started_then_stopped, ("sybil_rate",), None),
    Row(AdversaryInjector, "is_sybil", injector,
        lambda i: i.is_sybil(3, 0), ("sybil_rate",), False),
    Row(AdversaryInjector, "suppress_gossip", injector,
        lambda i: i.suppress_gossip(3, 0),
        ("freerider_fraction", "sybil_rate"), False),
    Row(AdversaryInjector, "targets_low_degree", injector,
        lambda i: i.targets_low_degree(3), ("polluter_fraction",), False),
    Row(AdversaryInjector, "pollutes_gossip", injector,
        lambda i: i.pollutes_gossip(3), ("polluter_fraction",), False),
    Row(AdversaryInjector, "serves_junk", injector,
        lambda i: i.serves_junk(3, 0),
        ("liar_fraction", "polluter_fraction", "sybil_rate"), False),
    Row(AdversaryInjector, "is_adversarial", injector,
        lambda i: i.is_adversarial(3, 0), STATIC_ROLES, False),
    Row(AdversaryInjector, "capture_pull", injector,
        lambda i: i.capture_pull(), ("liar_fraction", "sybil_rate"), None),
    # the fast engine's batch forms
    Row(FastFaultMasks, "__init__", masks, None, ("pollution_fraction",), ANY),
    Row(FastFaultMasks, "gossip_loss_mask", masks,
        lambda m: m.gossip_loss_mask(100), ("gossip_loss_rate",), None),
    Row(FastFaultMasks, "pull_loss_mask", masks,
        lambda m: m.pull_loss_mask(100), ("pull_loss_rate",), None),
    Row(FastFaultMasks, "outage_timeline", masks,
        lambda m: m.outage_timeline(50.0), ("outage_rate",), ()),
    Row(FastAdversaryMasks, "__init__", masks, None, STATIC_ROLES, ANY),
    Row(FastAdversaryMasks, "targets_low_degree", masks,
        lambda m: m.targets_low_degree, ("polluter_fraction",), False),
    # monitors detached: the event loop never invokes the probe hook
    Row(Simulator, "run_until", detached_simulator,
        lambda s: s.run_until(1.0), (), 3),
]

#: Checked the same way; R7 could not decide it (the guard is on a
#: computed probability, zero when nobody advertises).
BEYOND_R7 = [
    Row(FastAdversaryMasks, "capture_mask", masks,
        lambda m: m.capture_mask(100, 0), (), None),
]

#: The certificates ``python -m repro.lint --json`` listed when R7 retired,
#: plus the fault timeline's iterators.
CERTIFIED = {
    f"{cls}.{method}"
    for cls, methods in {
        "FaultVerdicts": "__init__ _sample_polluters drop_gossip drop_pull "
        "is_polluter maybe_pollute pollutes outages bursts",
        "FaultInjector": "__init__ servers_down start stop",
        "AdversaryRoles": "__init__ _sample_roles capture_probability "
        "sybil_burst_size",
        "AdversaryInjector": "capture_pull is_adversarial is_sybil "
        "pollutes_gossip serves_junk start stop suppress_gossip "
        "targets_low_degree",
        "FastFaultMasks": "__init__ gossip_loss_mask outage_timeline "
        "pull_loss_mask",
        "FastAdversaryMasks": "__init__ targets_low_degree",
        "Simulator": "run_until",
    }.items()
    for method in methods.split()
}


def plan_for(row, mixed):
    """The plan *row*'s object is built from (None for the simulator)."""
    for base, everything_on in MIXED.items():
        if issubclass(row.cls, base):
            if not mixed:
                return type(everything_on)()
            return replace(everything_on, **{knob: 0.0 for knob in row.zero})
    return None


def check_inert(row, mixed):
    """Raise AssertionError unless *row*'s query is inert under its plan."""
    env = Env(live=mixed)
    plan = plan_for(row, mixed)
    if row.call is None:
        before = env.snapshot()
        answer = row.build(row.cls, plan, env)
    else:
        hook = row.build(row.cls, plan, env)
        before = env.snapshot()
        answer = row.call(hook)
    assert env.snapshot() == before, f"{row.name} moved its collaborators"
    if row.inert is not ANY:
        # type first: an ndarray answer must fail, not broadcast the ==
        assert type(answer) is type(row.inert) and answer == row.inert


def test_table_covers_exactly_the_retired_certificates():
    names = [row.name for row in TABLE]
    assert len(names) == len(set(names))
    assert set(names) == CERTIFIED


@pytest.mark.parametrize("mixed", [False, True], ids=["null", "mixed"])
@pytest.mark.parametrize("row", TABLE + BEYOND_R7, ids=lambda row: row.name)
def test_zero_knob_query_is_inert(row, mixed):
    check_inert(row, mixed)


@pytest.mark.parametrize("mixed", [False, True], ids=["null", "mixed"])
def test_a_dropped_guard_fails_the_checker(mixed):
    """Positive control: the defect the table exists to catch."""

    class Unguarded(FaultVerdicts):
        def drop_gossip(self) -> bool:
            return self._rng.random() < self.plan.gossip_loss_rate

    (row,) = [row for row in TABLE if row.name == "FaultVerdicts.drop_gossip"]
    with pytest.raises(AssertionError):
        check_inert(row._replace(cls=Unguarded), mixed)


# -- the construction rule, on the three engines ---------------------------

SESSION = dict(
    n_peers=8,
    arrival_rate=0.25,
    gossip_rate=1.0,
    deletion_rate=0.25,
    normalized_capacity=1.0,
    segment_size=2,
    n_servers=2,
)


def event_hooks(faults, adversary):
    system = CollectionSystem(
        Parameters(faults=faults, adversary=adversary, **SESSION), seed=1
    )
    return [system.faults, system.adversary]


def fast_hooks(faults, adversary):
    system = FastCollectionSystem(
        Parameters(faults=faults, adversary=adversary, **SESSION), seed=1
    )
    return [system.fault_masks, system.adversary_masks]


def live_hooks(faults, adversary):
    """Both live processes (the live runtime refuses adversary plans)."""
    params = Parameters(
        faults=faults, mode="rlnc", payload_bytes=8, **SESSION
    )

    async def build():
        return [
            LiveLoggingServer(params, 1).faults,
            LivePeer(0, params, 1, "127.0.0.1", 1).faults,
        ]

    return asyncio.run(build())


@pytest.mark.parametrize("hooks", [event_hooks, fast_hooks, live_hooks])
def test_hook_objects_exist_iff_plan_non_null(hooks):
    assert hooks(None, None) == [None, None]
    assert hooks(FaultPlan(), AdversaryPlan()) == [None, None]
    assert None not in hooks(MIXED[FaultVerdicts], MIXED[AdversaryRoles])
