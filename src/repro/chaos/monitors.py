"""Runtime invariant monitors: the conservation laws checked mid-run.

Each monitor inspects one cross-component invariant of a running
:class:`~repro.core.system.CollectionSystem` and raises
:class:`InvariantViolation` the moment it breaks.  A :class:`MonitorSuite`
bundles monitors and rides the engine's amortized probe hook
(:meth:`repro.sim.engine.Simulator.set_probe`), so invariants are checked
*during* the run — every K executed events — instead of only at teardown,
which is what lets the chaos shrinker localize a violation to a small
horizon.

Design rules, mirroring the fault injector's:

- **Read-only.**  Monitors never mutate simulation state, draw randomness,
  or schedule events; the probe consumes no event sequence numbers.  A
  monitored run is therefore event-for-event identical to an unmonitored
  one (the monitored-run regression test asserts exactly this).
- **Near-zero cost when off.**  An uninstalled suite leaves the engine's
  probe slot ``None``; the hot loop then pays one local is-None test per
  event (inside the perf ledger's ``sim.engine.us_per_event`` row).
- **One source of truth.**  ``System.consistency_check()`` delegates to
  :func:`end_state_monitors`, so the end-of-run checks the test suite has
  always performed and the mid-run chaos checks cannot drift apart.

:class:`InvariantViolation` subclasses :class:`AssertionError` so existing
callers that expect ``consistency_check()`` to raise ``AssertionError``
keep working unchanged.
"""

from __future__ import annotations

import math
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
)

import numpy as np

if TYPE_CHECKING:  # imported lazily everywhere else to avoid a core cycle
    from repro.core.system import CollectionSystem


class InvariantViolation(AssertionError):
    """One invariant monitor fired; carries the monitor name and message."""

    def __init__(self, monitor: str, message: str) -> None:
        super().__init__(f"[{monitor}] {message}")
        self.monitor = monitor
        self.message = message


class InvariantMonitor:
    """Base class: one named invariant over a running system."""

    #: stable identifier used in violations, repro files, and docs/CHAOS.md
    name = "invariant"

    def check(self, system: "CollectionSystem", now: float) -> None:
        """Raise :class:`InvariantViolation` when the invariant is broken."""
        raise NotImplementedError

    def fail(self, message: str) -> "InvariantViolation":
        """Build the violation for this monitor (caller raises it)."""
        return InvariantViolation(self.name, message)


class BlockConservationMonitor(InvariantMonitor):
    """Peer-side edge count == registry edge count == metric integral.

    The bipartite-graph view of Sec. 3 is maintained three times over
    (peer buffers, segment registry, time-weighted metrics); every block
    added or removed must hit all three or throughput and occupancy
    figures silently diverge.
    """

    name = "block-conservation"

    def check(self, system: "CollectionSystem", now: float) -> None:
        peer_side = system.total_blocks_in_network()
        segment_side = sum(
            state.network_degree for state in system.registry.live_states()
        )
        if peer_side != segment_side:
            raise self.fail(
                f"edge-count mismatch at t={now:g}: peers hold {peer_side} "
                f"blocks, registry says {segment_side}"
            )
        tracked = system.metrics.total_blocks.value
        if not math.isclose(tracked, peer_side):
            raise self.fail(
                f"metrics track {tracked} blocks at t={now:g}, network "
                f"holds {peer_side}"
            )


class BufferCapMonitor(InvariantMonitor):
    """No peer ever holds more than its buffer cap ``B`` blocks.

    Also cross-checks each peer's cached ``block_count`` against the sum
    of its per-segment holdings — the count every protocol predicate
    (fullness, injection eligibility) trusts.
    """

    name = "buffer-cap"

    def check(self, system: "CollectionSystem", now: float) -> None:
        for peer in system.peers:
            if peer.block_count > peer.capacity:
                raise self.fail(
                    f"peer {peer.slot} holds {peer.block_count} blocks, cap "
                    f"B={peer.capacity}, at t={now:g}"
                )
            held = sum(h.block_count for h in peer.holdings.values())
            if held != peer.block_count:
                raise self.fail(
                    f"peer {peer.slot} counts {peer.block_count} blocks but "
                    f"its holdings sum to {held} at t={now:g}"
                )


class PeerTrackingMonitor(InvariantMonitor):
    """The non-empty peer set and empty-peer metric match reality."""

    name = "peer-tracking"

    def check(self, system: "CollectionSystem", now: float) -> None:
        nonempty_actual = {p.slot for p in system.peers if not p.is_empty}
        nonempty_tracked = set(system._nonempty)
        if nonempty_actual != nonempty_tracked:
            raise self.fail(
                f"non-empty set drift at t={now:g}: tracked "
                f"{sorted(nonempty_tracked)}, actual {sorted(nonempty_actual)}"
            )
        if system.empty_peer_count() != int(system.metrics.empty_peers.value):
            raise self.fail(
                f"empty-peer count drift at t={now:g}: metrics say "
                f"{system.metrics.empty_peers.value}, actual "
                f"{system.empty_peer_count()}"
            )


class SavedAccountingMonitor(InvariantMonitor):
    """The saved-segment population integral matches the registry."""

    name = "saved-accounting"

    def check(self, system: "CollectionSystem", now: float) -> None:
        registry_count = system.registry.saved_segment_count()
        tracked = int(system.metrics.saved_segments.value)
        if registry_count != tracked:
            raise self.fail(
                f"saved-segment population drift at t={now:g}: metrics say "
                f"{tracked}, registry says {registry_count}"
            )


class RankMonotoneMonitor(InvariantMonitor):
    """Server-side collected state is monotone, bounded, and decoder-true.

    Per live segment: ``collected`` never decreases between checks, never
    exceeds the segment size, and (in RLNC mode) always equals the pooled
    decoder's rank — the paper's state ``j`` must be exactly the linear
    algebra, never an optimistic counter.
    """

    name = "rank-monotone"

    def __init__(self) -> None:
        self._last_collected: Dict[int, int] = {}

    def check(self, system: "CollectionSystem", now: float) -> None:
        current: Dict[int, int] = {}
        for state in system.registry.live_states():
            collected = state.collected
            current[state.segment_id] = collected
            if collected < 0 or collected > state.size:
                raise self.fail(
                    f"segment {state.segment_id} collected state "
                    f"{collected} outside [0, s={state.size}] at t={now:g}"
                )
            previous = self._last_collected.get(state.segment_id)
            if previous is not None and collected < previous:
                raise self.fail(
                    f"segment {state.segment_id} rank regressed "
                    f"{previous} -> {collected} at t={now:g}"
                )
            if state.decoder is not None and collected != state.decoder.rank:
                raise self.fail(
                    f"segment {state.segment_id} collected={collected} but "
                    f"decoder rank={state.decoder.rank} at t={now:g}"
                )
        # Extinct segments leave the registry; prune so memory stays O(live).
        self._last_collected = current


class DecodeFidelityMonitor(InvariantMonitor):
    """Completed segments decode byte-identical to their source blocks.

    ``originals`` maps segment id -> the exact payload rows injected at the
    source (recorded by :meth:`CollectionSystem.record_payloads`); every new
    entry of ``system.collected_data`` is compared against it exactly once.
    """

    name = "decode-fidelity"

    def __init__(self, originals: Mapping[int, np.ndarray]) -> None:
        self._originals = originals
        self._checked: Set[int] = set()

    def check(self, system: "CollectionSystem", now: float) -> None:
        for segment_id, (descriptor, decoded) in system.collected_data.items():
            if segment_id in self._checked:
                continue
            self._checked.add(segment_id)
            original = self._originals.get(segment_id)
            if original is None:
                continue  # injected before recording was enabled
            if decoded.shape != original.shape:
                raise self.fail(
                    f"segment {segment_id} decoded shape {decoded.shape} != "
                    f"source shape {original.shape} at t={now:g}"
                )
            if not np.array_equal(decoded, original):
                bad = int(np.argwhere(decoded != original)[0][0])
                raise self.fail(
                    f"segment {segment_id} decoded bytes differ from source "
                    f"(first bad row {bad}) at t={now:g}"
                )


class OutageAccountingMonitor(InvariantMonitor):
    """Server pull clocks run exactly when no outage is in effect.

    During an outage every pull clock must be stopped (downtime must not
    leak pulls); outside one every pull clock must be armed; and the
    ``servers_down`` metric indicator must agree with the injector, since
    the reported ``outage_time`` integrates it.
    """

    name = "outage-accounting"

    def check(self, system: "CollectionSystem", now: float) -> None:
        faults = system.faults
        if faults is None:
            return
        down = faults.servers_down
        for index, process in enumerate(system._server_processes):
            if down and process.is_running:
                raise self.fail(
                    f"server {index} pull clock running during an outage "
                    f"at t={now:g}"
                )
            if not down and not process.is_running:
                raise self.fail(
                    f"server {index} pull clock stopped outside an outage "
                    f"at t={now:g}"
                )
        indicator = system.metrics.servers_down.value
        expected = 1.0 if down else 0.0
        if indicator != expected:
            raise self.fail(
                f"servers_down metric reads {indicator} but injector says "
                f"down={down} at t={now:g}"
            )


class EventTimeMonitor(InvariantMonitor):
    """Simulation time is finite, non-negative, and monotone between checks."""

    name = "event-time"

    def __init__(self) -> None:
        self._last_now = 0.0

    def check(self, system: "CollectionSystem", now: float) -> None:
        if not math.isfinite(now) or now < 0.0:
            raise self.fail(f"simulation clock read {now!r}")
        if now < self._last_now:
            raise self.fail(
                f"simulation clock went backwards: {self._last_now:g} -> "
                f"{now:g}"
            )
        self._last_now = now
        if system.sim.pending < 0:
            raise self.fail(
                f"engine live-event accounting went negative "
                f"({system.sim.pending}) at t={now:g}"
            )


def end_state_monitors() -> List[InvariantMonitor]:
    """The stateless monitors behind ``System.consistency_check()``.

    These hold at *any* instant of a healthy run, need no history, and are
    exactly the checks the test suite has always applied at teardown.
    """
    return [
        BlockConservationMonitor(),
        BufferCapMonitor(),
        PeerTrackingMonitor(),
        SavedAccountingMonitor(),
    ]


def runtime_monitors(
    system: "CollectionSystem",
    originals: Optional[Mapping[int, np.ndarray]] = None,
) -> List[InvariantMonitor]:
    """The full mid-run suite for *system* (stateful monitors included)."""
    monitors = end_state_monitors()
    monitors.append(RankMonotoneMonitor())
    monitors.append(EventTimeMonitor())
    if system.faults is not None:
        monitors.append(OutageAccountingMonitor())
    if originals is not None:
        monitors.append(DecodeFidelityMonitor(originals))
    return monitors


class MonitorSuite:
    """A bundle of monitors wired to one system's engine probe.

    Args:
        system: The system under observation.
        every: Executed-event cadence of the amortized probe.
        monitors: Explicit monitor list; defaults to
            :func:`runtime_monitors` (without decode fidelity — pass
            ``originals`` via ``runtime_monitors`` for that).

    Use as a context manager, or call :meth:`install` / :meth:`uninstall`::

        suite = MonitorSuite(system, every=256)
        with suite:
            system.run(warmup, duration)
            suite.check_now()  # final sweep at the horizon
    """

    def __init__(
        self,
        system: "CollectionSystem",
        every: int = 256,
        monitors: Optional[Sequence[InvariantMonitor]] = None,
    ) -> None:
        if every < 1:
            raise ValueError(f"monitor cadence must be >= 1, got {every}")
        self.system = system
        self.every = every
        self.monitors: List[InvariantMonitor] = (
            list(monitors) if monitors is not None else runtime_monitors(system)
        )
        #: number of completed probe sweeps (diagnostics)
        self.checks_run = 0

    def check_now(self) -> None:
        """Run every monitor once against the current instant."""
        system = self.system
        now = system.sim.now
        for monitor in self.monitors:
            monitor.check(system, now)
        self.checks_run += 1

    def install(self) -> None:
        """Attach the suite to the system's engine probe slot."""
        self.system.sim.set_probe(self.check_now, self.every)

    def uninstall(self) -> None:
        """Detach the suite (the probe slot returns to None)."""
        self.system.sim.clear_probe()

    def __enter__(self) -> "MonitorSuite":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()
