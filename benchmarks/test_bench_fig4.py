"""E-FIG4 benchmark: regenerate Fig. 4 (throughput vs mu under churn).

Asserts the figure's two-regime message: churn + heavy coding hurts when
server capacity is ample (c = lambda) and does not when capacity is scarce
(c << lambda), where buffering/redundancy still pays.
"""

from benchmarks.conftest import run_once
from repro.experiments.fig4 import plan_fig4


def test_fig4_throughput_vs_mu_under_churn(benchmark, quality):
    result = run_once(benchmark, plan_fig4(quality=quality).run_serial)
    print()
    print(result.to_table())

    def mean(label):
        return sum(result.series[label]) / len(result.series[label])

    # ample capacity (c=8=lambda): churn degrades the heavily coded system
    assert mean("c=8 s=30 churn") < mean("c=8 s=30 static") - 0.02

    # scarce capacity (c=2): coding helps, and churn does not erase the gain
    assert mean("c=2 s=30 static") > mean("c=2 s=1 static") + 0.02
    assert mean("c=2 s=30 churn") > mean("c=2 s=1 churn") + 0.02

    # under scarce capacity churn's penalty on the coded system is mild
    degradation = mean("c=2 s=30 static") - mean("c=2 s=30 churn")
    assert degradation < 0.05

    # sanity: every curve lies within (0, capacity]
    for label, values in result.series.items():
        cap = 1.0 if "c=8" in label else 0.25
        for value in values:
            assert 0.0 < value <= cap * 1.08 + 0.02, (label, value)
