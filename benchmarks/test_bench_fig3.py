"""E-FIG3 benchmark: regenerate Fig. 3 (throughput vs segment size).

Prints the analytic + simulated series per capacity, and asserts the
paper's qualitative shape so a regression that breaks the reproduction
fails loudly rather than producing a quietly wrong table.
"""

from benchmarks.conftest import run_once
from repro.experiments.fig3 import ARRIVAL_RATE, plan_fig3


def test_fig3_throughput_vs_segment_size(benchmark, quality):
    result = run_once(benchmark, plan_fig3(quality=quality).run_serial)
    print()
    print(result.to_table())

    capacities = sorted(
        float(label.split("=")[1])
        for label in result.series
        if label.startswith("analytic")
    )
    for c in capacities:
        analytic = result.series[f"analytic c={c:g}"]
        simulated = result.series[f"sim c={c:g}"]
        capacity_line = min(c / ARRIVAL_RATE, 1.0)

        # shape: throughput rises with s...
        assert analytic[-1] > analytic[0], f"analytic curve flat for c={c}"
        assert simulated[-1] > simulated[0], f"sim curve flat for c={c}"
        # ...toward (but never above) the capacity line
        assert analytic[-1] <= capacity_line + 1e-6
        assert analytic[-1] > 0.95 * capacity_line
        assert simulated[-1] <= capacity_line * 1.05
        assert simulated[-1] > 0.9 * capacity_line
        # analytic and simulation agree pointwise
        for a, s in zip(analytic, simulated):
            assert abs(a - s) < 0.1 * capacity_line + 0.02

    # the relative gap to capacity at small s is widest for the largest c
    gaps = [
        1.0 - result.series[f"analytic c={c:g}"][0] / min(c / ARRIVAL_RATE, 1.0)
        for c in capacities
    ]
    assert gaps == sorted(gaps), "capacity gap should widen with c"
