"""E-SCALE — million-peer fast-path scale-out: Fig. 5 trends vs N.

The paper's analysis is a mean-field limit, so its predictions (normalized
throughput, block delay) should be *invariant in N* once finite-size noise
washes out — but the event-exact engine cannot check that beyond a few
tens of thousands of peers on one box.  E-SCALE runs the vectorized fast
engine (:mod:`repro.fastsim`), peer-partition sharded across the runner
pool, and reports the Fig. 5 / Fig. 3 steady-state metrics as a function
of N up to 10^6:

- ``block delay s=...`` — mean block delivery delay (Fig. 5's y-axis) at
  the paper's delay-peak segment size and at the recommended one;
- ``efficiency s=...`` — useful-pull fraction (capacity utilization);
- ``throughput s=...`` — normalized session throughput (Fig. 3's y-axis).

Expected shape: every curve is flat in N (the mean-field prediction); the
interesting output is the *scale* — events applied and monitor-clean
million-peer sessions — recorded in the notes.

Each task cell is ONE shard of one (N, s, seed) session; the merge folds
shard payloads with :func:`repro.fastsim.merge_shard_payloads` (exact
counter sums, population-weighted averages, histogram-merged delays), so
sharded results are deterministic and identical for any worker count.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.params import ENGINE_FAST, Parameters
from repro.experiments.base import (
    ExperimentPlan,
    Payload,
    QUALITY_FAST,
    SeriesResult,
    SimBudget,
    SimTask,
    budget_for,
    preset_shape,
)
from repro.experiments.fig3 import ARRIVAL_RATE, DELETION_RATE, GOSSIP_RATE
from repro.fastsim import merge_shard_payloads, run_shard
from repro.util.summary import mean

#: Server capacity for the N sweep (the middle Fig. 3 curve).
CAPACITY = 8.0

#: Segment sizes tracked across the sweep: the paper's delay-peak region
#: (s ~ 5) and its recommended operating point (s in [20, 40]).
SEGMENT_SIZES = (5, 20)

#: Peer populations per quality preset.  ``--n-peers`` overrides the
#: whole sweep to a single population (detected against the preset).
N_VALUES: Dict[str, Tuple[int, ...]] = {
    "fast": (5_000, 20_000),
    "full": (100_000, 1_000_000),
}

#: Peer-partition shards per session; also the natural ``--workers`` for
#: ``repro run scale``.
DEFAULT_SHARDS = 8

METRIC_LABELS = (
    ("mean_block_delay", "block delay"),
    ("efficiency", "efficiency"),
    ("normalized_throughput", "throughput"),
)


def plan_scale(
    quality: str = QUALITY_FAST,
    n_values: Optional[Sequence[int]] = None,
    segment_sizes: Sequence[int] = SEGMENT_SIZES,
    shards: int = DEFAULT_SHARDS,
    budget: Optional[SimBudget] = None,
) -> ExperimentPlan:
    """E-SCALE as a task grid: one cell per (N, s, seed, shard).

    The engine is always the fast one regardless of ``budget.engine``
    (the whole point is the scale the event engine cannot reach); the
    tau step is taken from the budget.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    budget = budget or budget_for(quality)
    if n_values is None:
        n_values, override = preset_shape(quality, budget, N_VALUES)
        if override is not None:
            n_values = (override,)
    n_values = tuple(int(n) for n in n_values)
    for n in n_values:
        if n < shards:
            raise ValueError(
                f"n_peers={n} cannot be split into {shards} shards"
            )

    tasks = []
    grids: List[Tuple[int, int]] = []
    for n in n_values:
        for s in segment_sizes:
            grids.append((n, s))
            params = Parameters(
                n_peers=n,
                arrival_rate=ARRIVAL_RATE,
                gossip_rate=GOSSIP_RATE,
                deletion_rate=DELETION_RATE,
                normalized_capacity=CAPACITY,
                segment_size=s,
                n_servers=budget.n_servers,
                engine=ENGINE_FAST,
                tau=budget.tau,
            )
            for seed in budget.seeds:
                for shard in range(shards):
                    tasks.append(SimTask(
                        task_id=(
                            f"N={n}:s={s}:seed={seed}:"
                            f"shard={shard:02d}of{shards:02d}"
                        ),
                        thunk=partial(
                            run_shard, params, seed, shard, shards,
                            budget.warmup, budget.duration,
                        ),
                    ))

    def merge(payloads: Mapping[str, Payload]) -> SeriesResult:
        result = SeriesResult(
            name="scale",
            title=(
                "E-SCALE — fast-path steady state vs N "
                f"(lambda={ARRIVAL_RATE:g}, mu={GOSSIP_RATE:g}, "
                f"gamma={DELETION_RATE:g}, c={CAPACITY:g}, "
                f"{shards} shards, tau={budget.tau:g})"
            ),
            x_name="N",
            x_values=[float(n) for n in n_values],
        )
        merged: Dict[Tuple[int, int, int], Dict[str, object]] = {}
        for n, s in grids:
            for seed in budget.seeds:
                merged[(n, s, seed)] = merge_shard_payloads([
                    payloads[
                        f"N={n}:s={s}:seed={seed}:"
                        f"shard={shard:02d}of{shards:02d}"
                    ]
                    for shard in range(shards)
                ])
        for s in segment_sizes:
            for metric, label in METRIC_LABELS:
                values: List[Optional[float]] = []
                for n in n_values:
                    samples = [
                        float(value)
                        for seed in budget.seeds
                        for value in [merged[(n, s, seed)][metric]]
                        if value is not None
                    ]
                    values.append(
                        mean(samples) if samples else None
                    )
                result.add_series(f"{label} s={s}", values)
        dirty = sorted(
            f"N={n}:s={s}:seed={seed}"
            for (n, s, seed), report in merged.items()
            if not report["monitors_clean"]
        )
        if dirty:
            result.add_note(
                f"INVARIANT VIOLATIONS in {len(dirty)} session(s): "
                + ", ".join(dirty)
            )
        else:
            result.add_note(
                "all array-level invariant monitors clean in every shard"
            )
        for n in n_values:
            events = sum(
                int(report["engine_events_fired"])  # type: ignore[call-overload]
                for (grid_n, _, _), report in merged.items()
                if grid_n == n
            )
            result.add_note(
                f"N={n}: {events} channel events applied across "
                f"{shards} shards x {len(segment_sizes)} segment sizes "
                f"x {len(budget.seeds)} seed(s)"
            )
        result.add_note(
            "mean-field prediction: every series is flat in N once "
            "finite-size noise washes out"
        )
        return result

    return ExperimentPlan("scale", tasks, merge)
