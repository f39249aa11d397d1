"""Ablation benchmarks over the design choices DESIGN.md calls out.

E-ABL-TTL, E-ABL-BUF, E-ABL-SELECT, E-ABL-CODE — each prints its sweep and
asserts the expected directional effect.
"""

from benchmarks.conftest import run_once
from repro.experiments.ablations import (
    plan_buffer_ablation,
    plan_coding_ablation,
    plan_scheduler_ablation,
    plan_selection_ablation,
    plan_ttl_ablation,
)


def test_ablation_ttl(benchmark, quality):
    result = run_once(benchmark, plan_ttl_ablation(quality=quality).run_serial)
    print()
    print(result.to_table())
    occupancy = result.series["occupancy rho"]
    saved = result.series["saved blocks/peer"]
    # occupancy ~ (mu + lambda)/gamma: strictly decreasing in gamma
    assert occupancy == sorted(occupancy, reverse=True)
    # the delayed-delivery reserve shrinks as blocks die faster
    assert saved == sorted(saved, reverse=True)
    # coarse magnitude check at the ends of the sweep
    gammas = result.x_values
    expected_first = 18.0 / gammas[0]
    assert abs(occupancy[0] - expected_first) / expected_first < 0.2


def test_ablation_buffer_cap(benchmark, quality):
    result = run_once(benchmark, plan_buffer_ablation(quality=quality).run_serial)
    print()
    print(result.to_table())
    throughput = result.series["normalized throughput"]
    blocked = result.series["blocked injections"]
    # throughput recovers as B clears the natural occupancy (~18)
    assert throughput[-1] > throughput[0] * 1.5
    # blocking collapses to near zero once B is ample
    assert blocked[0] > 50 * max(blocked[-1], 1)
    # occupancy saturates near (mu + lambda)/gamma for large B
    assert abs(result.series["occupancy rho"][-1] - 18.0) < 3.0


def test_ablation_selection_rule(benchmark, quality):
    result = run_once(benchmark, plan_selection_ablation(quality=quality).run_serial)
    print()
    print(result.to_table())
    prop = result.series["proportional throughput"]
    unif = result.series["uniform throughput"]
    by_s = dict(zip(result.x_values, zip(prop, unif)))
    # at s=1 the two rules coincide (a peer's blocks of a segment = 1 draw)
    p1, u1 = by_s[1.0]
    assert abs(p1 - u1) < 0.03
    # at large s the uniform (literal-protocol) rule pays a visible penalty
    p_large, u_large = by_s[max(by_s)]
    assert u_large < p_large - 0.03
    # but uniform concentrates pulls: its goodput is at least as high
    prop_good = dict(zip(result.x_values, result.series["proportional goodput"]))
    unif_good = dict(zip(result.x_values, result.series["uniform goodput"]))
    s_max = max(by_s)
    assert unif_good[s_max] >= prop_good[s_max] * 0.9


def test_ablation_server_scheduling(benchmark, quality):
    result = run_once(benchmark, plan_scheduler_ablation(quality=quality).run_serial)
    print()
    print(result.to_table())
    policies = [note.split(": ")[1] for note in result.notes if note.startswith("policy")]
    throughput = dict(zip(policies, result.series["throughput"]))
    goodput = dict(zip(policies, result.series["goodput"]))
    efficiency = dict(zip(policies, result.series["efficiency"]))
    # all policies run near the capacity line on the paper's metric
    for policy in policies:
        assert throughput[policy] > 0.35
    # avoiding redundant pulls pushes efficiency to ~1
    assert efficiency["avoid-redundant"] > efficiency["random"]
    assert efficiency["avoid-redundant"] > 0.99
    # the headline: greedy completion multiplies reconstructed-data goodput
    assert goodput["greedy-completion"] > 3.0 * goodput["random"]


def test_ablation_overlay_topology(benchmark, quality):
    from repro.experiments.ablations import plan_topology_ablation

    result = run_once(benchmark, plan_topology_ablation(quality=quality).run_serial)
    print()
    print(result.to_table())
    throughput = dict(zip(result.x_values, result.series["normalized throughput"]))
    complete_graph = throughput[0.0]
    # the headline finding: mean-field robustness down to very sparse overlays
    for degree, value in throughput.items():
        assert abs(value - complete_graph) / complete_graph < 0.08, (
            degree,
            value,
            complete_graph,
        )


def test_ablation_real_rlnc_vs_abstract(benchmark, quality):
    result = run_once(benchmark, plan_coding_ablation(quality=quality).run_serial)
    print()
    print(result.to_table())
    abstract = result.series["abstract efficiency"]
    rlnc = result.series["rlnc efficiency"]
    for a, r in zip(abstract, rlnc):
        # real coding can only be less efficient than the idealization...
        assert r <= a + 0.02
        # ...but must stay in the same regime (the idealization is usable)
        assert r > 0.5 * a
    # throughput ordering follows efficiency
    for a, r in zip(
        result.series["abstract throughput"], result.series["rlnc throughput"]
    ):
        assert r <= a + 0.02
