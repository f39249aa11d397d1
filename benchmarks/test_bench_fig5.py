"""E-FIG5 benchmark: regenerate Fig. 5 (block delivery delay vs s).

Asserts the paper's hump shape on the analytic (Theorem 3) curve — delay
peaks at a small coded segment size and decays for large s — and that the
simulated delay decays over the coded range as well.
"""

from benchmarks.conftest import run_once
from repro.experiments.fig5 import plan_fig5


def test_fig5_block_delay_vs_segment_size(benchmark, quality):
    result = run_once(benchmark, plan_fig5(quality=quality).run_serial)
    print()
    print(result.to_table())

    s_values = result.x_values
    for label, values in result.series.items():
        if label.startswith("analytic"):
            coded = {
                s: v for s, v in zip(s_values, values) if s >= 2
            }
            peak_s = max(coded, key=coded.get)
            # the paper puts the peak around s=5; allow the coded small range
            assert peak_s <= 10, f"{label}: analytic peak at s={peak_s}"
            # decay after the peak
            tail = [v for s, v in coded.items() if s >= peak_s]
            assert tail[-1] < tail[0], f"{label}: no decay after the peak"
        elif label.startswith("sim"):
            # Delay is measured on segments that actually complete; in the
            # scarcest-capacity corner (small c, large s) completions can be
            # absent from the window, leaving NaN points — skip those.
            import math

            by_s = {
                s: v
                for s, v in zip(s_values, values)
                if v is not None and not math.isnan(v)
            }
            coded = {s: v for s, v in by_s.items() if s >= 5}
            if len(coded) >= 2:
                largest = max(coded)
                smallest = min(coded)
                assert coded[largest] < coded[smallest], (
                    f"{label}: simulated delay should decay for large s"
                )
            assert all(v > 0 for v in by_s.values())
