"""Tests for event tracing and the instrumented collection system."""

import ast
import sys
from pathlib import Path

import pytest

import repro
from repro.adversary.plan import AdversaryPlan
from repro.core.params import Parameters
from repro.core.system import CollectionSystem
from repro.faults.plan import FaultPlan
from repro.runner import telemetry
from repro.sim import trace
from repro.sim.trace import (
    ADVERSARY_KINDS,
    ALL_KINDS,
    FAULT_KINDS,
    KIND_COMPLETE,
    KIND_GOSSIP,
    KIND_INJECT,
    PROTOCOL_KINDS,
    TRACE_KINDS,
    TraceEvent,
    Tracer,
)

PACKAGE = Path(repro.__file__).resolve().parent


def traced_run(tracer, seed=1, duration=6.0, **overrides):
    defaults = dict(
        n_peers=30,
        arrival_rate=4.0,
        gossip_rate=6.0,
        deletion_rate=1.0,
        normalized_capacity=2.0,
        segment_size=3,
        n_servers=2,
    )
    defaults.update(overrides)
    system = CollectionSystem(Parameters(**defaults), seed=seed, tracer=tracer)
    system.run_until(duration)
    return system


class TestTracer:
    def test_record_and_read(self):
        tracer = Tracer()
        tracer.record(1.0, KIND_INJECT, peer=3, segment=7, size=4.0)
        assert len(tracer) == 1
        event = tracer.events[0]
        assert event.time == 1.0 and event.peer == 3 and event.segment == 7
        assert event.detail == {"size": 4.0}

    def test_kind_filter(self):
        tracer = Tracer(kinds=[KIND_INJECT])
        tracer.record(0.0, KIND_INJECT, peer=1)
        tracer.record(0.1, KIND_GOSSIP, peer=1)
        assert len(tracer) == 1
        assert tracer.counts == {KIND_INJECT: 1}
        assert not tracer.wants(KIND_GOSSIP)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Tracer(kinds=["injct"])

    @pytest.mark.parametrize("kinds", [None, [KIND_INJECT]])
    def test_unregistered_kind_refused_at_record(self, kinds):
        """Checked before the filter: a narrowed tracer still sees a typo."""
        tracer = Tracer(kinds=kinds)
        with pytest.raises(ValueError, match="'gosip'"):
            tracer.record(0.0, "gosip", peer=1)
        assert len(tracer) == 0 and tracer.counts == {}

    def test_ring_buffer_keeps_latest(self):
        tracer = Tracer(max_events=3)
        for index in range(10):
            tracer.record(float(index), KIND_INJECT, peer=index)
        assert len(tracer) == 3
        assert [e.peer for e in tracer.events] == [7, 8, 9]
        assert tracer.dropped == 7
        assert tracer.counts[KIND_INJECT] == 10  # counters see everything

    def test_max_events_validated(self):
        with pytest.raises(ValueError):
            Tracer(max_events=0)

    def test_selectors(self):
        tracer = Tracer()
        tracer.record(0.0, KIND_INJECT, peer=1, segment=5)
        tracer.record(1.0, KIND_GOSSIP, peer=2, segment=5)
        tracer.record(2.0, KIND_INJECT, peer=2, segment=6)
        assert len(tracer.of_kind(KIND_INJECT)) == 2
        assert len(tracer.for_segment(5)) == 2
        assert len(tracer.for_peer(2)) == 2

    def test_jsonl_roundtrip(self, tmp_path):
        tracer = Tracer()
        tracer.record(0.5, KIND_INJECT, peer=1, segment=2, size=3.0)
        tracer.record(1.5, KIND_COMPLETE, peer=1, segment=2, delay=1.0)
        path = tmp_path / "trace.jsonl"
        assert tracer.to_jsonl(path) == 2
        restored = Tracer.read_jsonl(path)
        assert restored == tracer.events

    def test_summary_format(self):
        tracer = Tracer(max_events=1)
        tracer.record(0.0, KIND_INJECT)
        tracer.record(1.0, KIND_INJECT)
        text = tracer.summary()
        assert "inject=2" in text and "dropped 1" in text


class TestInstrumentedSystem:
    def test_untraced_system_records_nothing(self):
        system = traced_run(None)
        assert system.tracer is None

    def test_all_protocol_kind_coverage_under_churn(self):
        tracer = Tracer()
        traced_run(tracer, mean_lifetime=3.0, duration=10.0)
        # A fault-free run exercises every protocol kind and no fault kind.
        assert set(tracer.counts) == set(PROTOCOL_KINDS)

    def test_kind_sets_partition(self):
        assert PROTOCOL_KINDS | FAULT_KINDS | ADVERSARY_KINDS == ALL_KINDS
        assert not PROTOCOL_KINDS & FAULT_KINDS
        assert not PROTOCOL_KINDS & ADVERSARY_KINDS
        assert not FAULT_KINDS & ADVERSARY_KINDS

    def test_inject_counts_match_metrics(self):
        tracer = Tracer()
        system = traced_run(tracer)
        assert tracer.counts[KIND_INJECT] == system.metrics.injected_segments

    def test_gossip_counts_match_metrics(self):
        tracer = Tracer()
        system = traced_run(tracer)
        assert tracer.counts[KIND_GOSSIP] == system.metrics.gossip_transfers

    def test_segment_life_is_ordered(self):
        tracer = Tracer()
        traced_run(tracer, duration=8.0)
        completes = tracer.of_kind(KIND_COMPLETE)
        assert completes, "no segment completed in the traced run"
        segment_id = completes[0].segment
        life = tracer.for_segment(segment_id)
        assert life[0].kind == KIND_INJECT
        times = [event.time for event in life]
        assert times == sorted(times)
        # the completion event carries the delivery delay
        complete = next(e for e in life if e.kind == KIND_COMPLETE)
        assert complete.detail["delay"] == pytest.approx(
            complete.time - life[0].time
        )

    def test_event_dataclass_as_dict(self):
        event = TraceEvent(time=1.0, kind=KIND_INJECT, peer=None, segment=3)
        payload = event.as_dict()
        assert payload == {"time": 1.0, "kind": KIND_INJECT, "segment": 3}


@pytest.mark.parametrize(
    "module, registry",
    [
        (trace, trace.TRACE_KINDS),
        (telemetry, telemetry.RUNNER_EVENT_KINDS),
    ],
    ids=["sim.trace", "runner.telemetry"],
)
def test_every_kind_constant_is_registered(module, registry):
    """A ``KIND_*`` constant outside its closed registry is drift."""
    constants = {
        name: value for name, value in vars(module).items()
        if name.startswith("KIND_")
    }
    assert constants
    unregistered = sorted(
        name for name, value in constants.items() if value not in registry
    )
    assert unregistered == []


def emission_sites():
    """``(module path, line)`` of every ``*tracer*.record(`` call in the
    package; a multi-line call is keyed by the line it starts on."""
    sites = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "record"
                and "tracer" in ast.unparse(node.func.value).lower()
            ):
                sites.add((path.relative_to(PACKAGE).as_posix(), node.lineno))
    return sites


class SiteTracer(Tracer):
    """A tracer that also notes which call site emitted each event."""

    def __init__(self):
        super().__init__()
        self.sites = set()

    def record(self, time, kind, *args, **detail):
        caller = sys._getframe(1)
        path = Path(caller.f_code.co_filename).resolve()
        self.sites.add((path.relative_to(PACKAGE).as_posix(), caller.f_lineno))
        super().record(time, kind, *args, **detail)


@pytest.fixture(scope="module")
def fired():
    """Unfiltered tracers over a churn, a fault and an adversary run."""
    base = dict(
        n_peers=40, arrival_rate=6.0, gossip_rate=8.0, deletion_rate=1.0,
        normalized_capacity=3.0, segment_size=4, n_servers=2,
    )
    runs = [
        dict(mean_lifetime=3.0),
        dict(faults=FaultPlan(
            gossip_loss_rate=0.2, pull_loss_rate=0.2, pollution_fraction=0.2,
            outage_windows=((2.0, 3.0),), burst_rate=1.0, burst_fraction=0.1,
        )),
        dict(
            adversary=AdversaryPlan(
                liar_fraction=0.3, sybil_rate=1.5, sybil_fraction=0.2
            ),
            pull_scoring=True,
            advert_discounting=True,
        ),
    ]
    tracers = []
    for overrides in runs:
        tracer = SiteTracer()
        CollectionSystem(
            Parameters(**base, **overrides), seed=3, tracer=tracer
        ).run(2.0, 6.0)
        tracers.append(tracer)
    return tracers


class TestEmissionCoverage:
    def test_every_registered_kind_fires(self, fired):
        counted = set().union(*(tracer.counts for tracer in fired))
        assert counted == set(TRACE_KINDS)

    def test_every_emission_site_fires(self, fired):
        """Every site the source walk finds is reached by a traced run, and
        every reached site is one the walk found."""
        sites = emission_sites()
        assert {module for module, _ in sites} == {
            "core/system.py", "core/server.py", "faults/injector.py",
        }
        reached = set().union(*(tracer.sites for tracer in fired))
        assert sorted(sites - reached) == []
        assert reached <= sites
