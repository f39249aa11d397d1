"""E-BASE — traditional collection (Fig. 1a) versus indirect (Fig. 1b).

Three architectures run the same flash-crowd + churn scenario:

- **push** — the paper's "traditional solution": peers upload every block
  immediately; servers are finite queues and inbound overload is dropped
  (the "de facto DDoS" of Sec. 1).  Must be provisioned for the *peak*.
- **pull** — the naive remedy Sec. 1 also dismisses: servers proactively
  pull pending blocks from peers.  Capacity-efficient, but a departing
  peer's un-pulled backlog is lost with it, and nothing of a departed peer
  is ever recoverable later.
- **indirect** — the paper's design: RLNC gossip buffering plus
  coupon-collector pulls.

Reported, per phase of the scenario (steady / burst / drain / drain):

- ``intake`` — usefully collected blocks per unit time over the base
  demand ``N*lambda_base`` (for push/pull: delivered originals; for
  indirect: innovative coded blocks — the paper's throughput notion);

and, as end-of-run notes, the postmortem splits: what fraction of
*departed* peers' data each architecture ever collected, and what remains
recoverable.

Expected shape: during the burst the push system saturates and drops the
excess permanently (its drain-phase intake collapses to the base rate),
while pull and indirect keep collecting backlog after the burst; under
churn the indirect system's departed-peer coverage beats pull's, because
coded copies outlive their source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Tuple, Union

from repro.core.baseline import DirectCollectionSystem
from repro.core.params import Parameters
from repro.core.push import PushCollectionSystem
from repro.core.system import CollectionSystem
from repro.experiments.base import (
    ExperimentPlan,
    Payload,
    QUALITY_FAST,
    SeriesResult,
    SimBudget,
    SimTask,
    budget_for,
    require_event_engine,
)
from repro.stats.workload import FlashCrowdWorkload


@dataclass(frozen=True)
class FlashCrowdScenario:
    """Shared workload/provisioning of the three-way comparison."""

    base_rate: float = 4.0
    burst_multiplier: float = 5.0
    burst_start: float = 10.0
    burst_end: float = 15.0
    gossip_rate: float = 10.0
    deletion_rate: float = 0.5  # mean retention 2 time units
    normalized_capacity: float = 6.0  # covers the 4-6 average, not the 20 peak
    segment_size: int = 20
    mean_lifetime: float = 4.0
    phase_ends: Tuple[float, ...] = (10.0, 15.0, 25.0, 40.0)

    def workload(self) -> FlashCrowdWorkload:
        return FlashCrowdWorkload(
            base_rate=self.base_rate,
            burst_start=self.burst_start,
            burst_end=self.burst_end,
            multiplier=self.burst_multiplier,
        )

    def phase_labels(self) -> List[str]:
        return ["steady", "burst", "drain-1", "drain-2"]


def plan_baseline_comparison(
    quality: str = QUALITY_FAST,
    scenario: Optional[FlashCrowdScenario] = None,
    budget: Optional[SimBudget] = None,
    seed: int = 1,
) -> ExperimentPlan:
    """The three-way comparison as a task grid: one task per architecture.

    Each architecture's phase sweep is sequential against its own shared
    system state, so the natural cell is one whole system run; the three
    systems are mutually independent and parallelize cleanly.
    """
    scenario = scenario or FlashCrowdScenario()
    budget = budget or budget_for(quality)
    require_event_engine(budget, "baseline")
    base_demand = budget.n_peers * scenario.base_rate

    params = Parameters(
        n_peers=budget.n_peers,
        arrival_rate=scenario.base_rate,
        gossip_rate=scenario.gossip_rate,
        deletion_rate=scenario.deletion_rate,
        normalized_capacity=scenario.normalized_capacity,
        segment_size=scenario.segment_size,
        n_servers=budget.n_servers,
        mean_lifetime=scenario.mean_lifetime,
    )

    def phase_intake(
        system: Union[
            CollectionSystem, DirectCollectionSystem, PushCollectionSystem
        ],
    ) -> List[float]:
        intake: List[float] = []
        previous_end = 0.0
        for phase_end in scenario.phase_ends:
            duration = phase_end - previous_end
            previous_end = phase_end
            intake.append(system.run_phase(duration).throughput / base_demand)
        return intake

    def run_push() -> Payload:
        push = PushCollectionSystem(
            params, seed=seed, workload=scenario.workload()
        )
        intake = phase_intake(push)
        return {"intake": intake, "loss_fraction": push.loss_fraction()}

    def departed_payload(
        system: Union[CollectionSystem, DirectCollectionSystem],
    ) -> Payload:
        departed = system.postmortem().departed
        return {
            "collected_fraction": departed.collected_fraction,
            "recoverable": departed.recoverable,
            "injected": departed.injected,
        }

    def run_pull() -> Payload:
        pull = DirectCollectionSystem(
            params, seed=seed, workload=scenario.workload()
        )
        intake = phase_intake(pull)
        return {"intake": intake, **departed_payload(pull)}

    def run_indirect() -> Payload:
        indirect = CollectionSystem(
            params, seed=seed, workload=scenario.workload()
        )
        intake = phase_intake(indirect)
        return {"intake": intake, **departed_payload(indirect)}

    builders: List[Tuple[str, Callable[[], Payload]]] = [
        ("push", run_push), ("pull", run_pull), ("indirect", run_indirect)
    ]
    tasks = [
        SimTask(task_id=f"{label}:seed={seed}", thunk=thunk)
        for label, thunk in builders
    ]

    def merge(payloads: Mapping[str, Payload]) -> SeriesResult:
        push = payloads[f"push:seed={seed}"]
        pull = payloads[f"pull:seed={seed}"]
        indirect = payloads[f"indirect:seed={seed}"]

        result = SeriesResult(
            name="baseline",
            title=(
                "Fig. 1(a) vs 1(b) — push / pull / indirect through a "
                f"x{scenario.burst_multiplier:g} flash crowd with churn "
                f"(c={scenario.normalized_capacity:g}, "
                f"lambda_base={scenario.base_rate:g}, "
                f"L={scenario.mean_lifetime:g})"
            ),
            x_name="phase",
            x_values=list(range(1, len(scenario.phase_ends) + 1)),
        )
        for label, payload in (
            ("push", push), ("pull", pull), ("indirect", indirect)
        ):
            result.add_series(
                f"{label} intake", [float(v) for v in payload["intake"]]
            )

        for index, label in enumerate(scenario.phase_labels(), start=1):
            result.add_note(f"phase {index}: {label}")
        result.add_note(
            "intake = usefully collected blocks per unit time / "
            "(N*lambda_base); push and pull collect originals, indirect "
            "collects innovative coded blocks (the paper's throughput "
            "metric)"
        )
        result.add_note(
            f"push dropped {push['loss_fraction']:.1%} of all uploads at "
            "the servers (burst overload is lost permanently)"
        )
        result.add_note(
            "departed-peer coverage (collected fraction of departed "
            f"generations' data): pull {pull['collected_fraction']:.1%}, "
            f"indirect {indirect['collected_fraction']:.1%}"
        )
        result.add_note(
            "still recoverable from departed generations: pull "
            f"{pull['recoverable'] / max(pull['injected'], 1):.1%}, "
            "indirect "
            f"{indirect['recoverable'] / max(indirect['injected'], 1):.1%}"
        )
        return result

    return ExperimentPlan("baseline", tasks, merge)
