"""One chaos trial, end to end: build, monitor, run, judge.

:func:`run_trial` is the unit of work every other chaos component composes:
the campaign fans it out over the runner pool, the shrinker probes it with
reduced configs, and ``repro chaos replay`` calls it once.  It never raises
on a violation — the verdict is *data* (:class:`TrialOutcome`), because a
violating trial is the campaign's successful output, not its crash.  Any
unexpected exception inside the simulated run is likewise folded into the
outcome (monitor ``"exception"``): a defect that makes the system throw
instead of drifting is still a caught defect, and must not look like a
worker fault the pool would retry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.chaos.monitors import (
    InvariantViolation,
    MonitorSuite,
    runtime_monitors,
)
from repro.chaos.space import TrialConfig
from repro.core.params import MODE_RLNC
from repro.core.system import CollectionSystem
from repro.util.codec import encode

#: pseudo-monitor name for trials that crashed instead of drifting
EXCEPTION_MONITOR = "exception"


@dataclass(frozen=True)
class TrialOutcome:
    """The verdict of one chaos trial."""

    trial_id: int
    ok: bool
    #: name of the monitor that fired (or ``"exception"``); None when ok
    monitor: Optional[str]
    #: violation message (or exception repr); None when ok
    message: Optional[str]
    #: completed monitor sweeps
    checks_run: int
    #: engine events fired during the trial
    events: int
    #: the trial's full configuration (JSON form), for shrink/replay
    config: Dict[str, Any]

    def describe(self) -> str:
        """One-line verdict for campaign logs."""
        if self.ok:
            return (
                f"trial {self.trial_id}: ok "
                f"({self.events} events, {self.checks_run} sweeps)"
            )
        return f"trial {self.trial_id}: VIOLATION [{self.monitor}] {self.message}"


def run_trial(config: TrialConfig) -> TrialOutcome:
    """Execute one monitored chaos trial and return its verdict.

    Deterministic: the outcome is a pure function of *config* (seed, plan,
    horizon and monitor cadence all included) and of the code it runs,
    which is what makes ``repro.json`` replays and shrinker probes
    meaningful.
    """
    monitor: Optional[str] = None
    message: Optional[str] = None
    checks_run = 0
    events = 0
    system: Optional[CollectionSystem] = None
    try:
        params = config.parameters()
        system = CollectionSystem(params, seed=config.seed)
        originals: Optional[Dict[int, np.ndarray]] = None
        if params.mode == MODE_RLNC and params.payload_bytes > 0:
            originals = system.record_payloads()
        suite = MonitorSuite(
            system,
            every=config.every,
            monitors=runtime_monitors(system, originals),
        )
        try:
            with suite:
                system.run(max(config.warmup, 0.0), config.duration)
                # Final sweep exactly at the horizon, so violations that
                # build up slower than the probe cadence still surface.
                suite.check_now()
        finally:
            checks_run = suite.checks_run
            events = system.sim.perf().events_fired
    except InvariantViolation as violation:
        monitor = violation.monitor
        message = violation.message
    except Exception as error:  # crash == caught, not a worker fault
        monitor = EXCEPTION_MONITOR
        message = f"{type(error).__name__}: {error}"
    finally:
        if system is not None:
            system.shutdown()
    return TrialOutcome(
        trial_id=config.trial_id,
        ok=monitor is None,
        monitor=monitor,
        message=message,
        checks_run=checks_run,
        events=events,
        config=encode(config),
    )
