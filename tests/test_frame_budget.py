"""A ceiling on the Python frames the event engine runs per simulated unit.

An exact count, not a timing, so it reads the same on every box: the
``call`` events ``sys.setprofile`` reports while a fixed abstract session
(the ``event_abstract`` rates at N = 100, seed 1) runs two units after a
two-unit warm-up.  The budget is the landed count plus 3 %; a change that
enters one more Python function per stored block (about +4.7 % here) fails
it.  Newer Pythons, which inline more, only read lower.  See
docs/PERFORMANCE.md, "Event engine: fast-path rules", rule 0.
"""

import sys

from repro.core.params import Parameters
from repro.core.system import CollectionSystem

#: Frames counted over the two units on CPython 3.11 when the budget landed.
LANDED_FRAMES = 115_003
BUDGET = int(LANDED_FRAMES * 1.03)


def count_frames() -> int:
    params = Parameters(
        n_peers=100,
        arrival_rate=20.0,
        gossip_rate=10.0,
        deletion_rate=1.0,
        normalized_capacity=8.0,
        segment_size=20,
        n_servers=4,
    )
    system = CollectionSystem(params, seed=1)
    system.run_until(2.0)
    frames = 0

    def profile(frame, event, arg):
        nonlocal frames
        if event == "call":
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
