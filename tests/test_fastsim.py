"""Tests for the vectorized fast engine (state, stepper, sharding).

Four contracts are exercised here:

- **Engine fidelity** — same-seed fast and event runs agree
  *distributionally* (the fast engine is a mean-field closure, not an
  event-for-event replay) on the steady-state observables within a
  documented tolerance, and the tau-leap step is refined far enough that
  a ten-times-finer step tells the same story.
- **Invariant safety** — array-level conservation monitors stay clean
  under the full fault/adversary channel set.
- **Shard determinism** — ``run_shard`` payloads are pure (JSON
  round-trippable) and ``merge_shard_payloads`` is order-blind, so a
  sharded run is byte-identical for any worker count.
- **Memory** — every table is reserved once at its ``N·B`` bound, costs
  only the rows written, and returns its pages with the session.
"""

import ast
import hashlib
import importlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import pytest

from repro.core.params import ENGINE_FAST, Parameters
from repro.core.system import CollectionSystem
from repro.experiments import (
    SimBudget,
    override_budget,
    plan_scale,
    plan_ttl_ablation,
)
from repro.experiments.base import simulate_cell
from repro.fastsim import (
    FastCollectionSystem,
    FastState,
    merge_shard_payloads,
    run_shard,
    shard_parameters,
)
from repro.fastsim import state as state_module
from repro.fastsim.engine import TauLeapStepper
from repro.fastsim.shard import shard_seed
from repro.fastsim.system import DelayAccumulator
from repro.faults import FaultPlan
from repro.adversary import AdversaryPlan
from repro.util.codec import decode, encode


def params(**overrides):
    defaults = dict(
        n_peers=250,
        arrival_rate=6.0,
        gossip_rate=8.0,
        deletion_rate=1.0,
        normalized_capacity=3.0,
        segment_size=4,
        n_servers=2,
    )
    defaults.update(overrides)
    return Parameters(**defaults)


#: Every fault and adversary channel firing at once (loss, pollution,
#: bursts, outages; liars, free-riders, low-degree polluters, sybil bursts).
ALL_FAULT_CHANNELS = FaultPlan(
    gossip_loss_rate=0.1,
    pull_loss_rate=0.1,
    pollution_fraction=0.1,
    burst_rate=0.3,
    burst_fraction=0.05,
    outage_rate=0.2,
    outage_duration=0.5,
)
ALL_ADVERSARY_CHANNELS = AdversaryPlan(
    liar_fraction=0.05,
    freerider_fraction=0.05,
    polluter_fraction=0.05,
    sybil_rate=0.3,
    sybil_fraction=0.05,
)


def rel_close(a, b, tolerance):
    scale = max(abs(a), abs(b), 1e-12)
    return abs(a - b) / scale <= tolerance


class TestBudgetPlumbing:
    def test_engine_field_validated(self):
        with pytest.raises(ValueError, match="engine"):
            SimBudget(
                n_peers=10, warmup=1.0, duration=1.0, seeds=(1,),
                engine="warp",
            )

    def test_tau_field_validated(self):
        for bad in (-0.5, 0.0):
            with pytest.raises(ValueError, match="tau"):
                SimBudget(
                    n_peers=10, warmup=1.0, duration=1.0, seeds=(1,), tau=bad,
                )
            with pytest.raises(ValueError, match="tau"):
                params(engine=ENGINE_FAST, tau=bad)
        with pytest.raises(ValueError, match="tau"):
            SimBudget(
                n_peers=10, warmup=1.0, duration=1.0, seeds=(1,),
                tau=float("inf"),
            )

    def test_budget_dict_roundtrip_carries_engine(self):
        budget = SimBudget(
            n_peers=10, warmup=1.0, duration=2.0, seeds=(1, 2),
            engine=ENGINE_FAST, tau=0.25,
        )
        restored = decode(SimBudget, encode(budget))
        assert restored == budget

    def test_budget_from_legacy_dict_defaults_to_event(self):
        # manifests journaled before the fast engine carry no engine/tau
        legacy = encode(
            SimBudget(n_peers=10, warmup=1.0, duration=2.0, seeds=(1,))
        )
        legacy.pop("engine")
        legacy.pop("tau")
        restored = decode(SimBudget, legacy)
        assert restored.engine == "event"
        assert restored.tau == 0.01

    def test_override_budget_engine_tau(self):
        base = SimBudget(n_peers=10, warmup=1.0, duration=2.0, seeds=(1,))
        bumped = override_budget(base, engine=ENGINE_FAST, tau=0.1)
        assert bumped.engine == ENGINE_FAST
        assert bumped.tau == 0.1
        assert override_budget(base).engine == base.engine

    def test_seed_cells_run_on_the_budget_engine(self):
        budget = SimBudget(
            n_peers=10, warmup=1.0, duration=2.0, seeds=(1,),
            engine=ENGINE_FAST, tau=0.25,
        )
        for task in plan_ttl_ablation(budget=budget).tasks:
            cell_params = task.thunk.args[0]
            assert (cell_params.engine, cell_params.tau) == (ENGINE_FAST, 0.25)

    def test_simulate_cell_rejects_workload_on_fast_engine(self):
        fast = params(n_peers=40, engine=ENGINE_FAST, tau=0.05)
        with pytest.raises(ValueError, match="workload"):
            simulate_cell(
                fast, 1.0, 2.0, ["efficiency"], seed=1, workload=object()
            )

    def test_simulate_cell_dispatches_to_fast_engine(self):
        fast = params(n_peers=60, engine=ENGINE_FAST, tau=0.05)
        cell = simulate_cell(
            fast, 2.0, 6.0, ["efficiency", "normalized_throughput"], seed=1
        )
        assert 0.0 < cell["efficiency"] <= 1.0
        assert cell["normalized_throughput"] > 0.0


class TestFastSystemValidation:
    def test_rejects_rlnc_mode(self):
        with pytest.raises(ValueError, match="mode"):
            FastCollectionSystem(params(mode="rlnc"))

    def test_rejects_uniform_selection(self):
        with pytest.raises(ValueError, match="segment_selection"):
            FastCollectionSystem(params(segment_selection="uniform"))

    def test_rejects_nonzero_gossip_latency(self):
        with pytest.raises(ValueError, match="gossip_latency"):
            FastCollectionSystem(params(gossip_latency=0.5))

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError, match="warmup"):
            FastCollectionSystem(params(n_peers=20)).run(-1.0, 2.0)

    def test_parameters_reject_fast_engine_with_rlnc(self):
        with pytest.raises(ValueError, match="engine"):
            params(mode="rlnc", engine=ENGINE_FAST)


class TestEngineFidelity:
    """Distributional fast-vs-event agreement (the mean-field contract)."""

    #: relative tolerance on steady-state observables at N=250; the fast
    #: engine is a mean-field closure, so residual disagreement is
    #: finite-size noise plus the tau discretization (docs/PERFORMANCE.md).
    TOLERANCE = 0.20

    def run_pair(self, seed=3, **overrides):
        p_fast = params(engine=ENGINE_FAST, tau=0.05, **overrides)
        p_event = params(**overrides)
        fast = FastCollectionSystem(p_fast, seed=seed).run(8.0, 16.0)
        event = CollectionSystem(p_event, seed=seed).run(8.0, 16.0)
        return fast, event

    def test_honest_steady_state_agrees(self):
        fast, event = self.run_pair()
        assert rel_close(fast.efficiency, event.efficiency, self.TOLERANCE)
        assert rel_close(
            fast.normalized_throughput,
            event.normalized_throughput,
            self.TOLERANCE,
        )
        assert rel_close(
            fast.mean_block_delay, event.mean_block_delay, self.TOLERANCE
        )

    def test_churn_occupancy_agrees(self):
        fast, event = self.run_pair(mean_lifetime=6.0)
        assert fast.departures > 0
        assert rel_close(
            fast.mean_buffer_occupancy,
            event.mean_buffer_occupancy,
            self.TOLERANCE,
        )

    def test_tau_leap_agrees_under_refinement(self):
        # the step's own bias (TTL rate lag, within-step ordering) is
        # O(tau): a ten-times-finer step must land in the same band (0.813
        # vs 0.808).  A stepper that reads the TTL population once per
        # run_until instead of once per step reads 0.850 vs 0.645 and fails.
        coarse = params(n_peers=150, engine=ENGINE_FAST, tau=0.05)
        fine = params(n_peers=150, engine=ENGINE_FAST, tau=0.005)
        leaped = FastCollectionSystem(coarse, seed=5).run(6.0, 12.0)
        refined = FastCollectionSystem(fine, seed=5).run(6.0, 12.0)
        assert rel_close(leaped.efficiency, refined.efficiency, 0.15)
        assert rel_close(
            leaped.mean_block_delay, refined.mean_block_delay, 0.15
        )

    def test_monitors_clean_under_all_channels(self):
        # every fault/adversary kernel firing on one session; the
        # array-level conservation monitors must stay silent.
        p = params(
            n_peers=200,
            engine=ENGINE_FAST,
            tau=0.05,
            mean_lifetime=8.0,
            faults=ALL_FAULT_CHANNELS,
            adversary=ALL_ADVERSARY_CHANNELS,
        )
        system = FastCollectionSystem(p, seed=11)
        report = system.run(4.0, 10.0)
        system.consistency_check()
        assert report.departures > 0
        assert report.transfers_dropped > 0
        assert report.pulls_captured > 0
        assert report.sybil_conversions > 0
        assert report.outage_time > 0


def digest(payload):
    """SHA-256 of the sorted JSON (``bench``'s ``report_digest``)."""
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedDigests:
    """Every simulated statistic of four fixed sessions, as recorded on the
    tree before the kernels' set operations became sort-based (PR 16).

    Kernel rewrites must keep every RNG draw and every row order, so these
    digests only change with a deliberate, documented change of the model.
    """

    @pytest.mark.parametrize(
        "seed,expected",
        [
            (1, "e81e8b0268953edeacbadaf53a8b98a7c93e1538428b4004370125d6f18dd974"),
            (2, "5609c37632bce991cf95153177916add1875f5e0e4d057f4c1d43e2e8106fa4d"),
        ],
    )
    def test_honest_tau(self, seed, expected):
        p = params(n_peers=2000, engine=ENGINE_FAST, tau=0.05)
        report = FastCollectionSystem(p, seed=seed).run(3.0, 8.0)
        assert digest(report.as_dict()) == expected

    def test_churn_faults_and_adversary(self):
        # the only pin over kill_slots/rows_of_peers -> remove_block_rows
        p = params(
            n_peers=1000,
            engine=ENGINE_FAST,
            tau=0.05,
            mean_lifetime=5.0,
            faults=replace(ALL_FAULT_CHANNELS, pollution_repull_budget=2),
            adversary=ALL_ADVERSARY_CHANNELS,
        )
        report = FastCollectionSystem(p, seed=11).run(4.0, 10.0)
        assert report.burst_departures > 0 and report.sybil_conversions > 0
        assert digest(report.as_dict()) == (
            "dbc08bd57c3c320c4f8566ed7cfe0a3f1d400844debb1e5719683b929de4c65f"
        )

    def test_sharded_merge(self):
        p = params(n_peers=800, engine=ENGINE_FAST, tau=0.05)
        merged = merge_shard_payloads(
            [run_shard(p, 3, index, 4, 2.0, 6.0) for index in range(4)]
        )
        assert digest(merged) == (
            "ec8fdb57acd78bc411667c6d40aad3527d863d3c0caf720b3dca85973f4531fb"
        )


class TestSegmentColumnSizing:
    """The segment columns are reserved once; a compaction runs when the
    dead rows outnumber half the live ones, so the rows ever written stay
    at or below 1.5 times the live segments plus one batch."""

    def test_columns_track_live_segments(self):
        p = params(n_peers=2000, engine=ENGINE_FAST, tau=0.05)
        system = FastCollectionSystem(p, seed=4)
        state = system.state
        compact, new_segments = state.compact_segments, state.new_segments
        compactions = []
        batches = []

        def audited_compact():
            compactions.append(compact())
            state.check_conservation()
            return compactions[-1]

        def recorded_new_segments(injected_at):
            batches.append(len(injected_at))
            return new_segments(injected_at)

        state.compact_segments = audited_compact
        state.new_segments = recorded_new_segments
        stepper = TauLeapStepper(system, p.tau)
        reserved = len(state.seg_alive)
        for step in range(1, 601):
            # injection runs first in a step, against the live segments
            # the previous step left
            live = state.live_segments
            stepper.run_until(step * p.tau)
            assert state.n_segments <= 1.5 * live + max(batches, default=0)
            assert len(state.seg_alive) == reserved
        assert sum(1 for evicted in compactions if evicted) >= 3
        state.check_conservation()


#: Preamble of a fresh-interpreter probe; ``rss_kib`` reads its VmRSS.
_RSS_PROBE = """
import gc, json
from repro.core.params import ENGINE_FAST, Parameters
from repro.fastsim import FastCollectionSystem, FastState

def rss_kib():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
"""


def run_rss_probe(body):
    """Run *body* after the probe preamble in a fresh interpreter and return
    the JSON object it prints last."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", _RSS_PROBE + body],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


needs_proc_status = pytest.mark.skipif(
    not os.path.exists("/proc/self/status"),
    reason="reads VmRSS from /proc/self/status (Linux)",
)


class TestReservation:
    """Every table is reserved once at its ``N·B`` bound on a private
    anonymous mapping: rows cost memory only once written, and a dropped
    session gives its pages back."""

    @needs_proc_status
    def test_reserving_commits_nothing(self):
        # fastsim_100k's shape: 10^5 peers, B = 37, s = 5
        probe = run_rss_probe(
            "before = rss_kib()\n"
            "state = FastState(100_000, 37, 5)\n"
            "print(json.dumps({'grew_kib': rss_kib() - before}))\n"
        )
        assert probe["grew_kib"] < 1024

    @needs_proc_status
    def test_released_sessions_return_their_pages(self):
        probe = run_rss_probe(
            "after = []\n"
            "for seed in range(3):\n"
            "    p = Parameters(n_peers=20_000, arrival_rate=6.0,\n"
            "                   gossip_rate=8.0, deletion_rate=1.0,\n"
            "                   normalized_capacity=3.0, segment_size=4,\n"
            "                   engine=ENGINE_FAST, tau=0.05)\n"
            "    FastCollectionSystem(p, seed=seed).run(2.0, 2.0)\n"
            "    gc.collect()\n"
            "    after.append(rss_kib())\n"
            "print(json.dumps({'after_kib': after}))\n"
        )
        first, *later = probe["after_kib"]
        assert all(abs(rss - first) <= 2048 for rss in later), probe

    def test_oversized_reservation_refused_before_reserving(self, monkeypatch):
        reserved = []
        monkeypatch.setattr(
            state_module, "_reserve", lambda *args: reserved.append(args)
        )
        with pytest.raises(ValueError, match="n_peers \\* capacity"):
            FastState(2**16, capacity=2**15, segment_size=4)
        assert reserved == []


class TestTypedAtOperands:
    """``np.add.at``/``np.subtract.at`` with a Python-int operand take a
    casting path ~20x slower on a column narrower than int64, so every
    ``ufunc.at`` in the package names a ``FastState`` column as its target,
    and one narrower than int64 gets a module-level operand of its dtype."""

    def test_narrow_targets_pass_a_typed_operand(self):
        package = Path(state_module.__file__).parent
        columns = vars(FastState(4, capacity=8, segment_size=4))
        narrow = 0
        for path in sorted(package.glob("*.py")):
            module = importlib.import_module(f"repro.fastsim.{path.stem}")
            for node in ast.walk(ast.parse(path.read_text())):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "at"
                    and isinstance(node.func.value, ast.Attribute)
                    and isinstance(node.func.value.value, ast.Name)
                    and node.func.value.value.id == "np"
                ):
                    continue
                where = f"{path.name}:{node.lineno}"
                target, operand = node.args[0], node.args[2]
                assert isinstance(target, ast.Attribute), where
                column = columns.get(target.attr)
                assert isinstance(column, np.ndarray), where
                if column.dtype.itemsize >= 8:
                    continue
                narrow += 1
                assert isinstance(operand, ast.Name), where
                value = getattr(module, operand.id, None)
                assert isinstance(value, np.generic), where
                assert value.dtype == column.dtype, where
        # seg_degree and seg_polluted, each in append and removal
        assert narrow >= 4


class TestDelayAccumulator:
    def test_mean_and_percentiles(self):
        acc = DelayAccumulator()
        acc.add(np.array([1.0, 2.0, 3.0, 4.0]))
        assert acc.mean() == pytest.approx(2.5)
        p50 = acc.percentile(50.0)
        p95 = acc.percentile(95.0)
        assert p50 is not None and p95 is not None
        assert p50 <= p95
        assert 1.0 <= p50 <= 4.0

    def test_empty_accumulator_reports_none(self):
        acc = DelayAccumulator()
        assert acc.mean() is None
        assert acc.percentile(50.0) is None

    def test_merge_counts_equals_single_pass(self):
        one = DelayAccumulator()
        one.add(np.array([0.5, 1.5, 2.5, 7.0]))
        split_a, split_b = DelayAccumulator(), DelayAccumulator()
        split_a.add(np.array([0.5, 1.5]))
        split_b.add(np.array([2.5, 7.0]))
        folded = DelayAccumulator()
        for part in (split_a, split_b):
            folded.merge_counts(part.counts, part.count, part.total)
        assert folded.count == one.count
        assert folded.total == pytest.approx(one.total)
        assert folded.percentile(50.0) == pytest.approx(one.percentile(50.0))


class TestSharding:
    def test_shard_parameters_partition(self):
        p = params(n_peers=103, n_servers=4)
        parts = shard_parameters(p, 4)
        assert [q.n_peers for q in parts] == [26, 26, 26, 25]
        assert sum(q.n_peers for q in parts) == 103
        assert all(q.n_servers == 4 for q in parts)

    def test_shard_parameters_validation(self):
        with pytest.raises(ValueError, match="shards"):
            shard_parameters(params(), 0)
        with pytest.raises(ValueError, match="n_peers"):
            shard_parameters(params(n_peers=3), 4)

    def test_shard_seeds_are_distinct(self):
        seeds = {shard_seed(7, i) for i in range(8)}
        assert len(seeds) == 8

    def test_payload_is_json_pure(self):
        p = params(n_peers=80, engine=ENGINE_FAST, tau=0.05)
        payload = run_shard(p, 3, 0, 2, 2.0, 6.0)
        restored = json.loads(json.dumps(payload))
        assert restored == payload
        assert payload["monitors_clean"] is True
        assert payload["n_peers"] == 40

    def test_merge_is_order_blind(self):
        p = params(n_peers=120, engine=ENGINE_FAST, tau=0.05)
        payloads = [run_shard(p, 3, i, 3, 2.0, 6.0) for i in range(3)]
        forward = merge_shard_payloads(payloads)
        backward = merge_shard_payloads(list(reversed(payloads)))
        assert forward == backward
        assert forward["n_peers"] == 120
        assert forward["shards"] == 3
        assert forward["monitors_clean"] is True
        assert forward["engine_events_fired"] == sum(
            q["events_applied"] for q in payloads
        )

    def test_single_shard_merge_matches_direct_run(self):
        p = params(n_peers=100, engine=ENGINE_FAST, tau=0.05)
        merged = merge_shard_payloads([run_shard(p, 9, 0, 1, 2.0, 6.0)])
        direct = FastCollectionSystem(
            shard_parameters(p, 1)[0], shard_seed(9, 0)
        ).run(2.0, 6.0)
        # the same fold over the same snapshot: every shared key, exactly
        # (None delays are NaN in as_dict; this run completes segments)
        report = direct.as_dict()
        assert direct.delay_samples > 0
        assert set(report) - set(merged) == {
            "engine_events_cancelled", "engine_heap_compactions",
        }
        for key in set(report) & set(merged):
            assert merged[key] == report[key], key

    def test_merge_rejects_window_mismatch(self):
        p = params(n_peers=80, engine=ENGINE_FAST, tau=0.05)
        a = run_shard(p, 3, 0, 2, 2.0, 6.0)
        b = run_shard(p, 3, 1, 2, 2.0, 4.0)
        with pytest.raises(ValueError, match="window"):
            merge_shard_payloads([a, b])

    def test_merge_rejects_schema_mismatch(self):
        p = params(n_peers=80, engine=ENGINE_FAST, tau=0.05)
        a = run_shard(p, 3, 0, 1, 2.0, 4.0)
        stale = dict(a, schema=0)
        with pytest.raises(ValueError, match="schema"):
            merge_shard_payloads([stale])

    def test_merge_requires_payloads(self):
        with pytest.raises(ValueError, match="payload"):
            merge_shard_payloads([])


class TestScalePlan:
    BUDGET = SimBudget(
        n_peers=120, warmup=2.0, duration=5.0, seeds=(1,),
        engine=ENGINE_FAST, tau=0.05,
    )

    def test_grid_shape(self):
        plan = plan_scale(
            n_values=(64, 128), segment_sizes=(4,), shards=2,
            budget=self.BUDGET,
        )
        assert len(plan.tasks) == 2 * 1 * 1 * 2
        ids = [task.task_id for task in plan.tasks]
        assert len(set(ids)) == len(ids)
        assert "N=64:s=4:seed=1:shard=00of02" in ids

    def test_rejects_oversharded_population(self):
        with pytest.raises(ValueError, match="shards"):
            plan_scale(n_values=(3,), shards=4, budget=self.BUDGET)

    def test_serial_run_produces_flat_series(self):
        result = plan_scale(
            n_values=(80, 160), segment_sizes=(4,), shards=2,
            budget=self.BUDGET,
        ).run_serial()
        assert result.x_values == [80.0, 160.0]
        assert "efficiency s=4" in result.series
        assert "throughput s=4" in result.series
        assert any("monitors clean" in note for note in result.notes)
