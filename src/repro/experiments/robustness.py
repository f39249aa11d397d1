"""E-ROBUST: graceful degradation under injected faults.

The paper's pitch is that indirect collection *survives* conditions that
melt a centralized log server, but its simulations only exercise benign
independent churn.  This experiment stresses the protocol with the four
fault channels of :mod:`repro.faults` — lossy links, block pollution,
server outages, correlated churn bursts — each swept over a severity axis,
and reports two degradation curves per channel against the shared
fault-free baseline:

- **delivery ratio** — normalized goodput divided by the fault-free
  goodput (1.0 = no degradation, 0 = collapse);
- **delay inflation** — mean per-block delivery delay divided by the
  fault-free delay (1.0 = no slowdown).

Severity means: i.i.d. loss probability on both link channels (loss),
fraction of polluting peers (pollution), long-run server downtime duty
cycle (outage), and the slot fraction killed per correlated burst
(bursts, at a fixed burst rate).

The run also performs an end-to-end RLNC pollution audit: a full-RLNC
session with polluting peers must reject every corrupted block through
GF(2^8) rank arithmetic and decode every completed segment back to its
original bytes — zero tolerance, recorded as a table note.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.coding.block import SegmentDescriptor
from repro.core.params import Parameters
from repro.core.system import CollectionSystem
from repro.experiments.base import (
    ExperimentPlan,
    Payload,
    QUALITY_FAST,
    SeedMeans,
    SeriesResult,
    SimBudget,
    SimTask,
    budget_for,
    require_event_engine,
    sweep,
)
from repro.faults import FaultPlan
from repro.sim.rng import SeedSequenceRegistry

#: Fixed knobs for the non-swept part of each channel.
OUTAGE_DURATION = 2.0
BURST_RATE = 0.5

#: The four fault channels: name -> FaultPlan builder over the severity.
CHANNELS = ("loss", "pollution", "outage", "bursts")

WANTED = ("normalized_goodput", "mean_block_delay", "transfers_dropped",
          "blocks_rejected_polluted", "outage_time", "burst_departures")


def plan_for(channel: str, severity: float) -> FaultPlan:
    """Build the :class:`FaultPlan` of one (channel, severity) cell."""
    if severity == 0.0:
        return FaultPlan()
    if channel == "loss":
        return FaultPlan(gossip_loss_rate=severity, pull_loss_rate=severity)
    if channel == "pollution":
        return FaultPlan(pollution_fraction=severity)
    if channel == "outage":
        return FaultPlan.renewal_outages(
            duty_cycle=severity, duration=OUTAGE_DURATION
        )
    if channel == "bursts":
        return FaultPlan(burst_rate=BURST_RATE, burst_fraction=severity)
    raise ValueError(f"unknown fault channel {channel!r}")


def _base_params(budget: SimBudget, plan: FaultPlan) -> Parameters:
    return Parameters(
        n_peers=budget.n_peers,
        arrival_rate=8.0,
        gossip_rate=10.0,
        deletion_rate=1.0,
        normalized_capacity=4.0,
        segment_size=8,
        n_servers=budget.n_servers,
        faults=None if plan.is_null else plan,
    )


def _ratio(value: float, baseline: float) -> float:
    if not baseline or math.isnan(value) or math.isnan(baseline):
        return math.nan
    return value / baseline


def add_degradation(
    result: SeriesResult,
    mean: SeedMeans,
    baseline: str,
    prefixes: Sequence[str],
    tag: str,
) -> None:
    """Add the ``delivery ratio: {tag}`` and ``delay inflation: {tag}``
    series: each cell of *prefixes* against the *baseline* cell.

    A severity-0 point names *baseline* itself, so it rides the shared
    baseline run instead of simulating a fault-free cell again.
    """
    for label, metric in (
        ("delivery ratio", "normalized_goodput"),
        ("delay inflation", "mean_block_delay"),
    ):
        base = mean(baseline, metric)
        result.add_series(
            f"{label}: {tag}",
            [_ratio(mean(prefix, metric), base) for prefix in prefixes],
        )


def _audit_cell() -> Payload:
    rejected, corrupted, decoded = rlnc_pollution_audit()
    return {"rejected": rejected, "corrupted": corrupted, "decoded": decoded}


def plan_robustness(
    quality: str = QUALITY_FAST,
    severities: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.45),
    budget: Optional[SimBudget] = None,
) -> ExperimentPlan:
    """E-ROBUST as a task grid.

    One shared fault-free baseline cell per seed (reused by every
    channel's severity-0 point), one cell per (channel, severity > 0,
    seed), plus the standalone RLNC pollution-audit task.
    """
    budget = budget or budget_for(quality)
    require_event_engine(budget, "robustness")

    def prefix(channel: str, severity: float) -> str:
        if severity == 0.0:
            return "baseline"
        return f"{channel}:severity={severity:g}"

    cells = [("baseline", _base_params(budget, FaultPlan()))] + [
        (prefix(channel, severity),
         _base_params(budget, plan_for(channel, severity)))
        for channel in CHANNELS
        for severity in severities
        if severity != 0.0
    ]

    def fold(mean: SeedMeans) -> SeriesResult:
        result = SeriesResult(
            name="robustness",
            title="Robustness — fault injection: delivery ratio and delay "
            "inflation vs fault-free baseline "
            "(lambda=8, mu=10, gamma=1, c=4, s=8)",
            x_name="severity",
            x_values=[float(s) for s in severities],
        )
        result.add_note(
            "fault-free baseline: normalized goodput "
            f"{mean('baseline', 'normalized_goodput'):.4f}, "
            f"mean block delay {mean('baseline', 'mean_block_delay'):.4f}"
        )
        for channel in CHANNELS:
            add_degradation(
                result, mean, "baseline",
                [prefix(channel, severity) for severity in severities],
                channel,
            )
        audit = mean.payloads["audit"]
        result.add_note(
            f"rlnc pollution audit: {audit['rejected']} polluted blocks "
            f"rejected by rank detection, {audit['corrupted']} corrupted "
            f"decodes across {audit['decoded']} reconstructed segments "
            "(must be 0 corrupted)"
        )
        result.add_note(
            "expected: delivery ratio degrades monotonically in loss "
            "severity; outages trade delay for little goodput (buffers "
            "absorb downtime); pollution wastes bandwidth in proportion to "
            "the polluter fraction"
        )
        return result

    plan = sweep("robustness", budget, cells, WANTED, fold)
    audit = SimTask(task_id="audit", thunk=_audit_cell)
    return ExperimentPlan(
        "robustness", plan.tasks + [audit], plan.merge_payloads
    )


def rlnc_pollution_audit(
    seed: int = 5,
    pollution_fraction: float = 0.3,
    payload_bytes: int = 16,
) -> Tuple[int, int, int]:
    """End-to-end pollution-detection audit in full-RLNC mode.

    Runs a small RLNC session with polluting peers and known payloads and
    returns ``(rejected, corrupted, decoded)``: polluted blocks rejected by
    the servers' rank arithmetic, completed segments whose decoded bytes
    differ from the injected originals (must be zero — a corrupted block
    carries a zeroed coefficient header and can never enter the decoder
    basis), and completed segments checked.
    """
    originals: Dict[int, np.ndarray] = {}
    # Payload bytes ride a dedicated substream family so the audit's data is
    # reproducible from the session seed without perturbing protocol draws.
    payload_seeds = SeedSequenceRegistry(seed).spawn("pollution-audit-payloads")

    def provider(descriptor: SegmentDescriptor) -> np.ndarray:
        rng = payload_seeds.numpy(f"segment:{descriptor.segment_id}")
        rows = rng.integers(
            0, 256, size=(descriptor.size, payload_bytes), dtype=np.uint8
        )
        originals[descriptor.segment_id] = rows
        return rows

    params = Parameters(
        n_peers=40,
        arrival_rate=6.0,
        gossip_rate=8.0,
        deletion_rate=1.0,
        normalized_capacity=3.0,
        segment_size=4,
        n_servers=2,
        mode="rlnc",
        payload_bytes=payload_bytes,
        faults=FaultPlan(pollution_fraction=pollution_fraction),
    )
    system = CollectionSystem(params, seed=seed, payload_provider=provider)
    system.run(warmup=4.0, duration=10.0)
    corrupted = 0
    for segment_id, (_, payload) in system.collected_data.items():
        if not np.array_equal(payload, originals[segment_id]):
            corrupted += 1
    rejected = system.metrics.blocks_rejected_polluted
    return rejected, corrupted, len(system.collected_data)
