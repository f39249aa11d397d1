"""Ceilings on the Python frames the event engine runs per simulated unit.

Exact counts, not timings, so they read the same on every box: the events
``sys.setprofile`` reports while a fixed session (the bench's rates at
N = 100, seed 1) runs two units after a two-unit warm-up.  Each budget is
the landed count plus 3 %.  Newer Pythons, which inline more, only read
lower.  See docs/PERFORMANCE.md, "Event engine: fast-path rules", rule 0.

- Abstract mode counts ``call`` events: a change that enters one more
  Python function per stored block (about +4.7 % here) fails it.
- RLNC mode, with 256-byte payloads from a bench-style provider, counts
  ``call`` events plus the ``c_call`` events into numpy, so a GF(256) row
  operation that slides back to a handful of numpy calls per block fails
  it.  Other C calls are not counted: a ``bytes`` row is combined by one
  ``translate`` and one ``int.from_bytes`` per input row, two cheap C calls
  where numpy makes one dear one.
"""

import sys
from types import ModuleType
from typing import Any, Callable, Optional

import numpy as np

from repro.coding.block import SegmentDescriptor
from repro.core.params import Parameters
from repro.core.system import CollectionSystem

#: Frames counted over the two units on CPython 3.11 when the budget landed.
LANDED_FRAMES = 115_003
BUDGET = int(LANDED_FRAMES * 1.03)
#: ``call`` events plus ``c_call`` events into numpy of the RLNC session,
#: on CPython 3.11 and numpy 2.4 when the budget landed.
LANDED_RLNC_CALLS = 163_463
RLNC_BUDGET = int(LANDED_RLNC_CALLS * 1.03)


def bench_rates(**overrides) -> Parameters:
    return Parameters(
        n_peers=100,
        arrival_rate=20.0,
        gossip_rate=10.0,
        deletion_rate=1.0,
        normalized_capacity=8.0,
        segment_size=20,
        n_servers=4,
        **overrides,
    )


def payload_rows(descriptor: SegmentDescriptor) -> np.ndarray:
    rng = np.random.default_rng([1, descriptor.segment_id])
    return rng.integers(0, 256, size=(descriptor.size, 256), dtype=np.uint8)


def numpy_callee(function: Any) -> bool:
    """Whether the C function of a ``c_call`` event is numpy's."""
    owner = getattr(function, "__self__", None)
    module = getattr(function, "__module__", None) or (
        owner.__name__ if isinstance(owner, ModuleType) else type(owner).__module__
    )
    return module.partition(".")[0] == "numpy"


def count_frames(
    params: Optional[Parameters] = None,
    count_numpy: bool = False,
    payload_provider: Optional[Callable[[SegmentDescriptor], np.ndarray]] = None,
) -> int:
    system = CollectionSystem(
        params or bench_rates(), seed=1, payload_provider=payload_provider
    )
    system.run_until(2.0)
    frames = 0

    def profile(frame, event, arg):
        nonlocal frames
        if event == "call" or (
            count_numpy and event == "c_call" and numpy_callee(arg)
        ):
            frames += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        system.run_until(4.0)
    finally:
        sys.setprofile(previous)
    return frames


def test_event_engine_stays_within_its_frame_budget():
    frames = count_frames()
    assert frames <= BUDGET, (
        f"{frames} Python frames for two simulated units, budget {BUDGET} "
        f"(landed {LANDED_FRAMES} + 3 %): a hot handler is entered once"
    )


def test_rlnc_coding_stays_within_its_call_budget():
    calls = count_frames(
        bench_rates(mode="rlnc", payload_bytes=256), True, payload_rows
    )
    assert calls <= RLNC_BUDGET, (
        f"{calls} Python frames and numpy calls for two simulated RLNC units, "
        f"budget {RLNC_BUDGET} (landed {LANDED_RLNC_CALLS} + 3 %): a coded "
        f"row is bytes, combined and eliminated without numpy"
    )
