"""E-TRANS benchmark: flash-crowd buffering zone and smoothing factor.

Fluid ODE vs event simulation through the same burst; asserts the paper's
abstract-level claims quantitatively.
"""

from benchmarks.conftest import run_once
from repro.experiments.transient import BURST_END, BURST_START, plan_transient


def test_transient_flash_crowd(benchmark, quality):
    result = run_once(benchmark, plan_transient(quality=quality).run_serial)
    print()
    print(result.to_table())

    times = result.x_values
    demand = dict(zip(times, result.series["demand"]))
    for label in ("fluid occupancy", "sim occupancy"):
        occupancy = dict(zip(times, result.series[label]))
        pre = [v for t, v in occupancy.items() if t < BURST_START]
        burst_and_after = [
            v for t, v in occupancy.items() if BURST_START <= t < BURST_END + 5
        ]
        late = [v for t, v in occupancy.items() if t > BURST_END + 10]
        # buffering zone: occupancy swells well above its pre-burst level...
        assert max(burst_and_after) > 1.3 * max(pre), label
        # ...and drains back down once the backlog clears
        assert late[-1] < 1.2 * max(pre), label

    # smoothing: intake varies much less than demand
    demand_swing = max(demand.values()) / min(demand.values())
    for label in ("fluid intake", "sim intake"):
        intake = [v for t, v in zip(times, result.series[label]) if t > 4]
        intake_swing = max(intake) / min(intake)
        assert intake_swing < demand_swing / 2, label

    # fluid and simulation agree pointwise once past the earliest transient
    for t, fluid, sim in zip(
        times, result.series["fluid occupancy"], result.series["sim occupancy"]
    ):
        if t > BURST_END + 5:
            assert abs(fluid - sim) / fluid < 0.15, (t, fluid, sim)
