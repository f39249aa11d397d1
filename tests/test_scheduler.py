"""Tests for the server pull-scheduling policies (E-ABL-SCHED substrate)."""

import random

import pytest

from repro.coding.block import make_abstract_blocks
from repro.core.params import Parameters
from repro.core.peer import Peer
from repro.core.segments import SegmentRegistry
from repro.core import server as server_module
from repro.core.server import ServerPool
from repro.core.system import CollectionSystem
from repro.sim.metrics import MetricsCollector


def params(policy, **overrides):
    defaults = dict(
        n_peers=60,
        arrival_rate=10.0,
        gossip_rate=8.0,
        deletion_rate=1.0,
        normalized_capacity=4.0,
        segment_size=8,
        n_servers=2,
        pull_policy=policy,
    )
    defaults.update(overrides)
    return Parameters(**defaults)


class TestPolicyValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            params("psychic")

    def test_pool_round_robin_needs_accessor(self):
        import random

        from repro.core.segments import SegmentRegistry
        from repro.core.server import ServerPool
        from repro.sim.metrics import MetricsCollector

        metrics = MetricsCollector(
            n_peers=2, arrival_rate=1.0, segment_size=1, normalized_capacity=1.0
        )
        registry = SegmentRegistry(metrics, use_decoders=False)
        with pytest.raises(ValueError):
            ServerPool(
                n_servers=1,
                registry=registry,
                metrics=metrics,
                rng=random.Random(0),
                coding_rng=None,
                sample_nonempty_peer=lambda: None,
                rlnc_mode=False,
                pull_policy="round-robin",
            )


class TestPolicyBehavior:
    def run_policy(self, policy, seed=9):
        system = CollectionSystem(params(policy), seed=seed)
        report = system.run(8.0, 12.0)
        system.consistency_check()
        return report

    def test_all_policies_run_and_collect(self):
        for policy in (
            "random",
            "round-robin",
            "avoid-redundant",
            "greedy-completion",
        ):
            report = self.run_policy(policy)
            assert report.useful_pulls > 0, policy

    def test_avoid_redundant_improves_efficiency(self):
        random_eff = self.run_policy("random").efficiency
        avoid_eff = self.run_policy("avoid-redundant").efficiency
        assert avoid_eff >= random_eff - 0.01
        assert avoid_eff > 0.98

    def test_greedy_completion_boosts_goodput(self):
        random_good = self.run_policy("random").normalized_goodput
        greedy_good = self.run_policy("greedy-completion").normalized_goodput
        assert greedy_good > 1.5 * random_good

    def test_round_robin_balances_peer_service(self):
        """Round-robin visits non-empty peers in slot order, so per-source
        collected counts spread more evenly than under random sampling."""
        system = CollectionSystem(params("round-robin"), seed=10)
        system.run(6.0, 10.0)
        collected = system.collected_by_source
        assert collected, "round-robin collected nothing"
        # every slot that generated data got at least some service
        slots_served = {slot for slot, _ in collected}
        slots_generating = {slot for slot, _ in system.injected_by_source}
        assert len(slots_served) > 0.8 * len(slots_generating)

    def test_policies_are_deterministic(self):
        a = self.run_policy("greedy-completion", seed=3)
        b = self.run_policy("greedy-completion", seed=3)
        assert a == b


def make_pool(policy, sample_nonempty_peer, seed=0):
    """Standalone ServerPool against injected collaborators (no system)."""
    metrics = MetricsCollector(
        n_peers=4, arrival_rate=1.0, segment_size=3, normalized_capacity=1.0
    )
    registry = SegmentRegistry(metrics, use_decoders=False)
    pool = ServerPool(
        n_servers=1,
        registry=registry,
        metrics=metrics,
        rng=random.Random(seed),
        coding_rng=None,
        sample_nonempty_peer=sample_nonempty_peer,
        rlnc_mode=False,
        pull_policy=policy,
    )
    return pool, registry, metrics


def add_segment(registry, peer, size=3, blocks=1, collected=0, now=0.0):
    """Register a segment, buffer *blocks* of it at *peer*, pre-collect."""
    state = registry.create(source_peer=peer.slot, size=size, now=now)
    for block in make_abstract_blocks(state.descriptor, blocks, now):
        peer.add_block(block)
        registry.on_block_added(state, now)
    for _ in range(collected):
        registry.on_server_block(state, now)
    return state


class TestSchedulerCornerCases:
    """Retry-budget behavior of the lookahead policies at the edges."""

    @pytest.mark.parametrize("policy", ["avoid-redundant", "greedy-completion"])
    def test_empty_network_is_idle_pull(self, policy):
        pool, _, metrics = make_pool(policy, lambda: None)
        pool.pull(0, 1.0)
        server = pool.servers[0]
        assert server.pulls == 1
        assert server.idle_pulls == 1
        assert server.useful_pulls == server.redundant_pulls == 0
        assert metrics.idle_pulls == 1

    @pytest.mark.parametrize("policy", ["avoid-redundant", "greedy-completion"])
    def test_every_candidate_complete_is_redundant_pull(self, monkeypatch, policy):
        """When all draws hit completed segments the budget is exhausted and
        the trial is charged as one redundant pull — never an infinite loop,
        never a crash."""
        monkeypatch.setattr(server_module, "SCHEDULER_TRIES", 4)
        peer = Peer(slot=0, capacity=8)
        sampled = []
        pool, registry, metrics = make_pool(
            policy, lambda: (sampled.append(1), peer)[1]
        )
        state = add_segment(registry, peer, size=1, blocks=1, collected=1)
        assert state.is_complete
        pool.pull(0, 1.0)
        server = pool.servers[0]
        assert server.pulls == 1
        assert server.redundant_pulls == 1
        assert server.useful_pulls == server.idle_pulls == 0
        assert metrics.redundant_pulls == 1
        # the retry budget was actually spent (avoid-redundant retries all 4;
        # greedy always draws its full candidate budget)
        assert len(sampled) == 4

    def test_avoid_redundant_buffer_drains_mid_retry(self, monkeypatch):
        """If the network empties between retries the trial ends idle."""
        monkeypatch.setattr(server_module, "SCHEDULER_TRIES", 4)
        peer = Peer(slot=0, capacity=8)
        draws = [peer, None]
        pool, registry, metrics = make_pool(
            "avoid-redundant", lambda: draws.pop(0)
        )
        add_segment(registry, peer, size=1, blocks=1, collected=1)
        pool.pull(0, 1.0)
        server = pool.servers[0]
        assert server.idle_pulls == 1
        assert server.redundant_pulls == 0
        assert not draws  # both draws were consumed

    def test_avoid_redundant_finds_incomplete_candidate(self, monkeypatch):
        monkeypatch.setattr(server_module, "SCHEDULER_TRIES", 32)
        peer = Peer(slot=0, capacity=16)
        pool, registry, metrics = make_pool(
            "avoid-redundant", lambda: peer
        )
        add_segment(registry, peer, size=1, blocks=4, collected=1)  # complete
        fresh = add_segment(registry, peer, size=3, blocks=4)  # incomplete
        pool.pull(0, 1.0)
        assert pool.servers[0].useful_pulls == 1
        assert fresh.collected == 1

    def test_greedy_completion_picks_closest_to_completion(self, monkeypatch):
        monkeypatch.setattr(server_module, "SCHEDULER_TRIES", 32)
        peer = Peer(slot=0, capacity=16)
        pool, registry, _ = make_pool(
            "greedy-completion", lambda: peer
        )
        behind = add_segment(registry, peer, size=3, blocks=4, collected=0)
        ahead = add_segment(registry, peer, size=3, blocks=4, collected=2)
        pool.pull(0, 1.0)
        assert ahead.collected == 3  # the near-complete segment got the pull
        assert ahead.is_complete
        assert behind.collected == 0
