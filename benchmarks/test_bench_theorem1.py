"""E-T1 benchmark: validate Theorem 1 (storage overhead) three ways.

Closed form vs ODE steady state vs event simulation, across segment sizes.
"""

from benchmarks.conftest import run_once
from repro.experiments.fig3 import DELETION_RATE, GOSSIP_RATE
from repro.experiments.theorem1 import plan_theorem1


def test_theorem1_storage_overhead(benchmark, quality):
    result = run_once(benchmark, plan_theorem1(quality=quality).run_serial)
    print()
    print(result.to_table())

    closed_rho = result.series["closed-form rho"][0]
    bound = GOSSIP_RATE / DELETION_RATE

    for ode_rho in result.series["ODE rho"]:
        assert abs(ode_rho - closed_rho) / closed_rho < 0.05
    for sim_rho in result.series["sim rho"]:
        # "regardless of the value of s": occupancy stays near the closed form
        assert abs(sim_rho - closed_rho) / closed_rho < 0.12
    for overhead in result.series["sim overhead"]:
        # Theorem 1's bound overhead < mu/gamma (plus simulation noise)
        assert overhead < bound * 1.08
    for z0 in result.series["sim z0"]:
        assert 0.0 <= z0 < 0.05  # lambda/gamma = 20: empty peers are rare
