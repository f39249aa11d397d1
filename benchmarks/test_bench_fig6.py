"""E-FIG6 benchmark: regenerate Fig. 6 (data saved per peer vs s).

Asserts the figure's message: the saved reserve decreases with s (more of
the constant buffered pool is already reconstructed as throughput climbs)
but remains strictly positive at every segment size — the guaranteed
delayed-delivery buffer.
"""

from benchmarks.conftest import run_once
from repro.experiments.fig6 import plan_fig6


def test_fig6_saved_data_vs_segment_size(benchmark, quality):
    result = run_once(benchmark, plan_fig6(quality=quality).run_serial)
    print()
    print(result.to_table())

    for label, values in result.series.items():
        # monotone (allowing small simulation noise) decrease with s
        tolerance = 0.0 if label.startswith("analytic") else 0.6
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + tolerance, (label, values)
        # strictly positive reserve at every s
        assert all(v > 0 for v in values), (label, values)
        # the reserve shrinks substantially across the sweep
        assert values[-1] < 0.5 * values[0], (label, values)

    # larger capacity reconstructs more: saved(c=12) < saved(c=4) pointwise
    small_c = result.series["analytic c=4"]
    large_c = result.series["analytic c=12"]
    assert all(b < a for a, b in zip(small_c, large_c))
