"""E-ROBUST benchmark: graceful degradation under injected faults.

Prints the per-channel delivery-ratio and delay-inflation curves against
the fault-free baseline, and asserts the degradation *shape* so a
regression in the fault machinery (e.g. pollution silently corrupting a
decode, or outages not pausing the pull clocks) fails loudly.
"""

import math

from benchmarks.conftest import run_once
from repro.experiments.robustness import CHANNELS, plan_robustness


def test_robustness_degradation_curves(benchmark, quality):
    result = run_once(benchmark, plan_robustness(quality=quality).run_serial)
    print()
    print(result.to_table())

    for channel in CHANNELS:
        delivery = result.series[f"delivery ratio: {channel}"]
        # severity 0 is the shared baseline: exactly no degradation
        assert delivery[0] == 1.0, channel
        assert all(not math.isnan(v) for v in delivery), channel
        assert all(0.0 <= v <= 1.2 for v in delivery), channel

    # link loss starves the protocol monotonically in severity
    loss = result.series["delivery ratio: loss"]
    assert all(a >= b for a, b in zip(loss, loss[1:])), loss
    assert loss[-1] < 0.6 * loss[0]

    # pollution wastes bandwidth: strictly degraded at the top severity
    pollution = result.series["delivery ratio: pollution"]
    assert pollution[-1] < 0.9

    # correlated bursts are the fault coding absorbs best: mild degradation
    bursts = result.series["delivery ratio: bursts"]
    assert min(bursts) > 0.7

    # the RLNC audit must report zero corrupted decodes and real rejections
    audit = next(n for n in result.notes if "rlnc pollution audit" in n)
    assert "0 corrupted decodes" in audit
    assert not audit.startswith("rlnc pollution audit: 0 ")
