"""Discrete-event simulation engine.

A minimal, fast event loop: a binary heap of ``(time, sequence, item, *args)``
entries with O(log n) scheduling, lazy cancellation, and helpers for the
Poisson (exponential-clock) processes that make up the entire protocol model
(segment injection at rate ``lambda/s``, gossip at rate ``mu``, server pulls
at rate ``c_s``, TTL expiry at rate ``gamma``, churn at rate ``1/L``).

The engine is deliberately single-threaded and deterministic: given the same
seeds and the same schedule of calls, two runs produce identical event
orderings (ties in time are broken by insertion sequence).

Hot-path design.  Three kinds of entry share one heap:

- :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` allocate an
  :class:`EventHandle` per event and support cancellation (lazy: cancelled
  entries are skipped on pop, with the live/cancelled split tracked
  exactly and the heap compacted in place once cancelled entries dominate);
- :meth:`Simulator.schedule_call` / :meth:`Simulator.schedule_call_at` are
  the handle-free fast path for fire-and-forget events (TTL expiries,
  delivery latencies): the heap entry *is* the bare callable followed by
  its arguments, so a caller passes ``(fn, a, b)`` instead of a closure;
- a :class:`PoissonProcess` is its own entry: ``run_until`` pushes its next
  fire and calls its action, so a clock fire costs no frame of its own.
  ``stop()`` makes the one live entry stale (the process remembers its
  sequence number); stale entries are accounted like cancelled handles.

``run_until`` additionally batch-drains the heap: when many entries are due
before the horizon, one linear partition + ``sort`` replaces thousands of
``heappop`` sift-downs (an order-of-magnitude cheaper in CPython), while a
per-event peek at the heap head keeps events scheduled *during* the batch
correctly interleaved.  Event order — (time, insertion sequence) — is
byte-identical to the classic pop loop, so the determinism contract
(``docs/LINTING.md``: same seed, same event order) is unaffected.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
import time as _time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

Action = Callable[[], None]

#: Minimum number of due entries for which a batch drain beats popping.
_BATCH_MIN = 64
#: Compaction trigger: cancelled entries both exceed this floor and make up
#: more than half the heap.
_COMPACT_MIN = 256


class EventHandle:
    """Cancellable reference to a scheduled event."""

    __slots__ = ("time", "action", "cancelled", "fired", "_sim")

    def __init__(
        self,
        time: float,
        action: Optional[Action],
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.action = action
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped.

        A no-op on handles that already fired or were already cancelled, so
        keeping a handle around after its event ran is always safe.
        """
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        self.action = None  # break reference cycles early
        if self._sim is not None:
            self._sim._note_cancelled()


#: A heap entry ``(time, sequence, item, *args)``: cancellable events carry
#: an EventHandle, clock fires the PoissonProcess, fast-path events the bare
#: callable and its arguments.  The sequence number is unique, so tuple
#: comparison never reaches the item.
_Entry = Tuple[Any, ...]


@dataclass(frozen=True)
class EnginePerf:
    """Engine-level performance counters (a consistent snapshot).

    All fields except ``wall_time`` are deterministic functions of the
    schedule, so they are safe to embed in reports that same-seed runs
    byte-compare; ``wall_time`` (seconds spent inside ``run_until``) is
    host-dependent diagnostics and must stay out of such reports.
    """

    events_fired: int
    events_cancelled: int
    pending_live: int
    pending_cancelled: int
    heap_compactions: int
    run_until_calls: int
    wall_time: float


class Simulator:
    """Event loop with a virtual clock starting at time 0.

    Typical use::

        sim = Simulator()
        sim.schedule(1.5, lambda: print("fired at", sim.now))
        sim.run_until(10.0)
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[_Entry] = []
        self._sequence = itertools.count()
        self._events_processed = 0
        self._stopped = False
        self._in_run = False
        # Lazy-cancellation accounting: exact count of cancelled-but-not-yet
        # collected entries (heap + current batch run).
        self._cancelled_pending = 0
        self._events_cancelled = 0
        self._heap_compactions = 0
        self._run_until_calls = 0
        self._wall_time = 0.0
        # Amortized observation hook (see set_probe): called every
        # `_probe_every` executed events.  Off (None) on every system that
        # does not explicitly install one; the only per-event cost of the
        # feature is then a single local is-None test in run_until.
        self._probe: Optional[Action] = None
        self._probe_every = 0
        self._probe_countdown = 0
        # Sorted run of due entries being drained by the current run_until
        # call; kept on the instance so `pending` stays exact mid-batch.
        self._ready: List[_Entry] = []
        self._ready_pos = 0

    @property
    def events_processed(self) -> int:
        """Total events executed in completed ``run_until`` calls."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """*Live* events still queued (cancelled entries are excluded)."""
        return (
            len(self._heap)
            + len(self._ready)
            - self._ready_pos
            - self._cancelled_pending
        )

    @property
    def pending_cancelled(self) -> int:
        """Cancelled entries not yet collected from the queue."""
        return self._cancelled_pending

    @property
    def events_cancelled(self) -> int:
        """Total events ever cancelled."""
        return self._events_cancelled

    @property
    def heap_compactions(self) -> int:
        """Times the heap was compacted to evict cancelled entries."""
        return self._heap_compactions

    def schedule(self, delay: float, action: Action) -> EventHandle:
        """Run *action* after *delay* time units; returns a cancellable handle."""
        # Single chained comparison: False for negative, NaN, and inf alike.
        if not 0.0 <= delay < math.inf:
            raise ValueError(f"delay must be finite and >= 0, got {delay!r}")
        time = self.now + delay
        handle = EventHandle(time, action, self)
        heapq.heappush(self._heap, (time, next(self._sequence), handle))
        return handle

    def schedule_at(self, time: float, action: Action) -> EventHandle:
        """Run *action* at absolute *time* (>= now)."""
        if not math.isfinite(time):
            raise ValueError(f"event time must be finite, got {time!r}")
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past: t={time} < now={self.now}"
            )
        handle = EventHandle(time, action, self)
        heapq.heappush(self._heap, (time, next(self._sequence), handle))
        return handle

    def schedule_call(
        self, delay: float, action: Callable[..., None], *args: object
    ) -> None:
        """Handle-free fast path: run ``action(*args)`` after *delay*.

        Identical ordering semantics to :meth:`schedule`, but the heap entry
        is the bare callable and its arguments — no :class:`EventHandle`, and
        no closure when the caller passes *args* instead of capturing them.
        Use it for fire-and-forget events (TTL expiries, latencies) whose
        handle would be dropped anyway.
        """
        if not 0.0 <= delay < math.inf:
            raise ValueError(f"delay must be finite and >= 0, got {delay!r}")
        heapq.heappush(
            self._heap, (self.now + delay, next(self._sequence), action, *args)
        )

    def schedule_call_at(
        self, time: float, action: Callable[..., None], *args: object
    ) -> None:
        """Absolute-time variant of :meth:`schedule_call`."""
        if not math.isfinite(time):
            raise ValueError(f"event time must be finite, got {time!r}")
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past: t={time} < now={self.now}"
            )
        heapq.heappush(self._heap, (time, next(self._sequence), action, *args))

    def stop(self) -> None:
        """Request the current ``run_until`` call to return after this event."""
        self._stopped = True

    def set_probe(self, action: Action, every: int) -> None:
        """Install an amortized observation hook into the event loop.

        ``action()`` is invoked inline after every *every*-th executed event
        (and never counts as an event itself: it consumes no sequence number,
        advances no clock, and therefore cannot perturb event ordering).  The
        runtime invariant monitors (:mod:`repro.chaos.monitors`) ride this
        hook.  The probe must be read-only with respect to simulation state;
        an exception it raises propagates out of :meth:`run_until` with the
        unconsumed schedule intact.
        """
        if every < 1:
            raise ValueError(f"probe interval must be >= 1, got {every}")
        self._probe = action
        self._probe_every = every
        self._probe_countdown = every

    def clear_probe(self) -> None:
        """Remove the observation hook installed by :meth:`set_probe`."""
        self._probe = None
        self._probe_every = 0
        self._probe_countdown = 0

    def perf(self) -> EnginePerf:
        """Snapshot of the engine's performance counters."""
        return EnginePerf(
            events_fired=self._events_processed,
            events_cancelled=self._events_cancelled,
            pending_live=self.pending,
            pending_cancelled=self._cancelled_pending,
            heap_compactions=self._heap_compactions,
            run_until_calls=self._run_until_calls,
            wall_time=self._wall_time,
        )

    def run_until(self, end_time: float, max_events: Optional[int] = None) -> int:
        """Execute events with time <= *end_time* in order; advance the clock.

        Returns the number of events executed.  The clock lands exactly on
        *end_time* when the queue drains or only later events remain, so
        time-integrated metrics always cover the full horizon.  *max_events*
        is a safety valve for runaway schedules (raises RuntimeError); it
        counts every queue pop — including lazily-cancelled entries being
        discarded — so cancellation churn cannot starve the valve.
        """
        if end_time < self.now:
            raise ValueError(f"end_time {end_time} is before now {self.now}")
        if self._in_run:
            raise RuntimeError("run_until is not re-entrant")
        self._in_run = True
        executed = 0
        popped = 0
        limit = math.inf if max_events is None else max_events
        self._stopped = False
        self._run_until_calls += 1
        heap = self._heap
        ready = self._ready
        # Wall-time is diagnostics only (EnginePerf); it never feeds
        # simulation state, reports that runs byte-compare, or traces.
        wall_start = _time.perf_counter()  # lint: ok(R2): perf diagnostics only, never enters simulation state or compared reports
        allow_batch = True
        # Probe state mirrored into locals for the hot loop; the countdown
        # is written back in `finally` so the cadence spans run_until calls.
        probe = self._probe
        probe_every = self._probe_every
        probe_countdown = self._probe_countdown
        # `pos`/`ready_len` shadow self._ready_pos/len(ready) inside the hot
        # loop; self._ready_pos is re-synced before every observation point
        # (action call or raise) so `pending` and the push-back in `finally`
        # always see an exact position.
        pos = 0
        ready_len = 0
        try:
            while True:
                if pos >= ready_len:
                    # Refill: batch-drain every due entry when the scan can
                    # amortize (one partition + sort instead of thousands of
                    # heappop sift-downs), else fall back to a single pop.
                    # One undersized scan disables batching for the rest of
                    # this call, bounding wasted scans.
                    del ready[:]
                    pos = 0
                    self._ready_pos = 0
                    if not heap:
                        break
                    if allow_batch and len(heap) >= _BATCH_MIN:
                        due = [entry for entry in heap if entry[0] <= end_time]
                        if len(due) >= _BATCH_MIN:
                            heap[:] = [
                                entry for entry in heap if entry[0] > end_time
                            ]
                            heapq.heapify(heap)
                            due.sort()
                            ready.extend(due)
                        else:
                            allow_batch = False
                    if not ready:
                        if heap[0][0] > end_time:
                            break
                        ready.append(heapq.heappop(heap))
                    ready_len = len(ready)
                # Events scheduled during the batch live in the heap; run
                # whichever of (heap head, next ready entry) is earlier.
                # The sequence number breaks ties exactly as a pure heap
                # would, so interleaving preserves deterministic order.
                entry = ready[pos]
                if heap and heap[0] < entry:
                    entry = heapq.heappop(heap)
                else:
                    pos += 1
                item = entry[2]
                popped += 1
                kind = type(item)
                if kind is PoissonProcess or kind is ThinnedPoissonProcess:
                    if entry[1] != item._seq:
                        # Stale: the clock was stopped after this push.
                        self._cancelled_pending -= 1
                        if popped >= limit:
                            self._ready_pos = pos
                            raise _runaway(popped, end_time)
                        continue
                    self._ready_pos = pos
                    self.now = now = entry[0]
                    item.events_fired += 1
                    # Push the next fire before the action runs, so the
                    # action may stop the clock and have that take effect.
                    # The gap is Random.expovariate's expression, inlined.
                    gap = -math.log(1.0 - item._rng.random()) / item._rate
                    if gap < math.inf:
                        seq = next(self._sequence)
                        heapq.heappush(heap, (now + gap, seq, item))
                        item._seq = seq
                    else:
                        item._seq = None
                    item._action(*item._args)
                elif kind is EventHandle:
                    if item.cancelled:
                        self._cancelled_pending -= 1
                        if popped >= limit:
                            self._ready_pos = pos
                            raise _runaway(popped, end_time)
                        continue
                    action = item.action
                    item.action = None
                    item.fired = True
                    assert action is not None  # only cancel() clears a live action
                    self._ready_pos = pos
                    self.now = entry[0]
                    action()
                else:
                    self._ready_pos = pos
                    self.now = entry[0]
                    item(*entry[3:])
                executed += 1
                if probe is not None:
                    probe_countdown -= 1
                    if probe_countdown <= 0:
                        probe_countdown = probe_every
                        probe()
                if self._stopped:
                    # Leave the clock at the stopping event's time.
                    return executed
                if popped >= limit:
                    raise _runaway(popped, end_time)
            self.now = end_time
            return executed
        finally:
            # stop(), max_events, or an action raising can leave part of the
            # sorted run unconsumed — push it back so no event is lost.
            if self._ready_pos < len(ready):
                for entry in ready[self._ready_pos :]:
                    heapq.heappush(heap, entry)
            del ready[:]
            self._ready_pos = 0
            if probe is not None:
                self._probe_countdown = probe_countdown
            self._events_processed += executed
            self._in_run = False
            self._wall_time += _time.perf_counter() - wall_start  # lint: ok(R2): perf diagnostics only, never enters simulation state or compared reports

    # -- internals ---------------------------------------------------------

    def _note_cancelled(self) -> None:
        """Account one newly-cancelled entry; compact when they dominate."""
        self._events_cancelled += 1
        self._cancelled_pending += 1
        if (
            self._cancelled_pending > _COMPACT_MIN
            and self._cancelled_pending * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Evict cancelled handles' and stopped clocks' entries in place.

        Mutates ``self._heap`` via slice assignment so aliases held by a
        running ``run_until`` stay valid.  Entries parked in the current
        batch run are collected by the drain loop instead.
        """
        heap = self._heap
        kept = [
            entry
            for entry in heap
            if not (
                entry[2].cancelled
                if type(entry[2]) is EventHandle
                else isinstance(entry[2], PoissonProcess) and entry[1] != entry[2]._seq
            )
        ]
        removed = len(heap) - len(kept)
        if not removed:
            return
        heap[:] = kept
        heapq.heapify(heap)
        self._cancelled_pending -= removed
        self._heap_compactions += 1


def _runaway(popped: int, end_time: float) -> RuntimeError:
    return RuntimeError(
        f"run_until popped {popped} events without reaching t={end_time}; "
        "runaway schedule?"
    )


class PoissonProcess:
    """Self-rescheduling exponential clock driving a recurring action.

    Fires ``action(*args)`` at the points of a Poisson process with the
    given fixed *rate*.  A rate of 0 (or one so small the first gap
    overflows) parks the process: it never fires.  ``stop()`` / ``start()``
    pause and resume it (server pull clocks across outages); by the
    memorylessness of the exponential clock a restart simply draws a fresh
    gap.  The process is its own heap entry (see the module docstring).
    """

    def __init__(
        self,
        sim: Simulator,
        rng: random.Random,
        rate: float,
        action: Callable[..., None],
        *args: object,
        start: bool = True,
    ) -> None:
        if rate < 0 or not math.isfinite(rate):
            raise ValueError(f"rate must be finite and >= 0, got {rate!r}")
        self._sim = sim
        self._rng = rng
        self._rate = rate
        self._action = action
        self._args = args
        self._running = False
        #: sequence number of this clock's one live heap entry (None when
        #: none is queued); an entry with any other number is stale.
        self._seq: Optional[int] = None
        # Per-clock perf counters.
        self.events_fired = 0
        self.events_cancelled = 0
        if start:
            self.start()

    @property
    def rate(self) -> float:
        """Current firing rate (events per unit time)."""
        return self._rate

    @property
    def is_running(self) -> bool:
        """True while the clock is armed."""
        return self._running

    def start(self) -> None:
        """Arm the clock (no-op if already running)."""
        if self._running:
            return
        self._running = True
        if self._rate <= 0:
            return
        # Random.expovariate's expression; the simulator re-arms with it too.
        gap = -math.log(1.0 - self._rng.random()) / self._rate
        if not math.isfinite(gap):
            # A subnormal rate can overflow the gap to infinity; such a
            # clock will effectively never fire — park it.
            return
        sim = self._sim
        seq = next(sim._sequence)
        heapq.heappush(sim._heap, (sim.now + gap, seq, self))
        self._seq = seq

    def stop(self) -> None:
        """Disarm the clock; its queued fire becomes a stale entry that the
        simulator accounts as cancelled."""
        self._running = False
        if self._seq is not None:
            self._seq = None
            self.events_cancelled += 1
            self._sim._note_cancelled()


class ThinnedPoissonProcess(PoissonProcess):
    """Non-homogeneous Poisson process via Lewis-Shedler thinning.

    Fires at time-varying rate ``rate_fn(t) <= max_rate``.  Used for the
    flash-crowd and diurnal workloads where the statistics-generation rate
    ``lambda(t)`` fluctuates — the core phenomenon the paper's buffering zone
    absorbs.
    """

    def __init__(
        self,
        sim: Simulator,
        rng: random.Random,
        max_rate: float,
        rate_fn: Callable[[float], float],
        action: Callable[..., None],
        *args: object,
        start: bool = True,
    ) -> None:
        if max_rate <= 0 or not math.isfinite(max_rate):
            raise ValueError(f"max_rate must be finite and > 0, got {max_rate!r}")
        self._rate_fn = rate_fn
        self._user_action = action
        super().__init__(sim, rng, max_rate, self._maybe_fire, *args, start=start)

    def _maybe_fire(self, *args: object) -> None:
        current = self._rate_fn(self._sim.now)
        if current < 0:
            raise ValueError(
                f"rate_fn returned negative rate {current} at t={self._sim.now}"
            )
        if current > self._rate * (1 + 1e-9):
            raise ValueError(
                f"rate_fn returned {current} above max_rate {self._rate} "
                f"at t={self._sim.now}"
            )
        if self._rng.random() * self._rate <= current:
            self._user_action(*args)
