"""The truly traditional baseline: push-based periodic reporting.

Sec. 1's opening indictment is of *push* reporting: "Traditional solutions
involve sending large volumes of such data to centralized logging servers",
and under a flash crowd "such periodic reporting essentially morphs into a
de facto Distributed Denial of Service (DDoS) attack to the logging
servers, as the server bandwidth is not sufficient to handle an excessive
number of simultaneous uploading flows".

:class:`PushCollectionSystem` models exactly that: every generated
statistics block is transmitted immediately to a uniformly random logging
server; each server is a finite-capacity queue (service rate ``c_s``,
bounded waiting room) and an arrival finding the queue full is dropped on
the floor — the upload fails and the peer, having already shipped the
block, does not retry.

Properties that make it the foil for the indirect design:

- intake tracks ``min(demand(t), capacity + queue slack)``: any burst above
  the provisioned rate is *permanently* lost, so capacity must be sized for
  the peak rather than the average;
- delivery delay is near zero for accepted blocks (no trade-off taken);
- churn is irrelevant (data leaves the peer immediately) — the push model
  trades loss under load for immunity to departures, the mirror image of
  the pull model's weakness.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.core.params import Parameters
from repro.core.system import MeasuredRun
from repro.sim.engine import PoissonProcess, Simulator, ThinnedPoissonProcess
from repro.sim.metrics import MetricsCollector
from repro.sim.rng import SeedSequenceRegistry, exponential
from repro.stats.workload import Workload
from repro.util.validation import require_positive_int


class _ServerQueue:
    """One logging server: exponential service, bounded waiting room."""

    __slots__ = ("server_id", "capacity", "queue", "busy", "accepted", "dropped")

    def __init__(self, server_id: int, capacity: int) -> None:
        self.server_id = server_id
        self.capacity = capacity  # waiting room (excluding the one in service)
        self.queue: Deque[float] = deque()  # arrival timestamps
        self.busy = False
        self.accepted = 0
        self.dropped = 0


class PushCollectionSystem(MeasuredRun):
    """Traditional push reporting into finite-capacity logging servers.

    Reuses :class:`Parameters`: ``arrival_rate``, ``normalized_capacity``
    and ``n_servers`` define demand and service; ``gossip_rate``,
    ``segment_size``, ``deletion_rate`` and ``mean_lifetime`` are ignored
    (there is no gossip, no coding, no buffering at peers, and churn cannot
    lose data that was already shipped).  *queue_slots* is each server's
    waiting room in blocks.
    """

    def __init__(
        self,
        params: Parameters,
        seed: int = 0,
        workload: Optional[Workload] = None,
        queue_slots: int = 16,
    ) -> None:
        self.params = params
        self.queue_slots = require_positive_int("queue_slots", queue_slots)
        self.seeds = SeedSequenceRegistry(seed)
        self.sim = Simulator()
        self.workload = workload

        self._arrival_rng = self.seeds.python("arrivals")
        self._service_rng = self.seeds.python("service")
        self._routing_rng = self.seeds.python("routing")

        self.metrics = MetricsCollector(
            n_peers=params.n_peers,
            arrival_rate=params.arrival_rate,
            segment_size=1,
            normalized_capacity=params.normalized_capacity,
            now=0.0,
        )
        self.servers: List[_ServerQueue] = [
            _ServerQueue(i, queue_slots) for i in range(params.n_servers)
        ]
        self.delivered = 0
        self.dropped = 0

        self._processes: List[PoissonProcess] = []
        for slot in range(params.n_peers):
            if workload is None:
                self._processes.append(
                    PoissonProcess(
                        self.sim,
                        self._arrival_rng,
                        params.arrival_rate,
                        self._push_block,
                    )
                )
            else:
                self._processes.append(
                    ThinnedPoissonProcess(
                        self.sim,
                        self._arrival_rng,
                        max_rate=workload.max_rate,
                        rate_fn=workload.rate,
                        action=self._push_block,
                    )
                )

    # -- event handlers ----------------------------------------------------------

    def _push_block(self) -> None:
        """A peer reports one freshly generated statistics block."""
        self.metrics.injected_blocks += 1
        self.metrics.injected_segments += 1
        server = self.servers[self._routing_rng.randrange(len(self.servers))]
        # `queue` holds the in-service block (when busy) plus the waiting
        # room; an arrival is refused when the waiting room is full.
        if server.busy and len(server.queue) > server.capacity:
            # Inbound overload: the upload is refused and the data is gone —
            # the "de facto DDoS" failure mode.
            server.dropped += 1
            self.dropped += 1
            self.metrics.segments_lost += 1
            return
        server.accepted += 1
        server.queue.append(self.sim.now)
        self.metrics.total_blocks.add(self.sim.now, 1)
        if not server.busy:
            self._begin_service(server)

    def _begin_service(self, server: _ServerQueue) -> None:
        server.busy = True
        service_time = exponential(self._service_rng, self.params.per_server_rate)
        self.sim.schedule_call(service_time, self._finish_service, server)

    def _finish_service(self, server: _ServerQueue) -> None:
        arrived_at = server.queue.popleft()
        self.delivered += 1
        self.metrics.pulls += 1
        self.metrics.useful_pulls += 1
        self.metrics.segments_completed += 1
        self.metrics.total_blocks.add(self.sim.now, -1)
        self.metrics.on_segment_completed(self.sim.now, arrived_at, 1)
        if server.queue:
            self._begin_service(server)
        else:
            server.busy = False

    def loss_fraction(self) -> float:
        """Lifetime fraction of generated blocks dropped at the servers."""
        total = self.delivered + self.dropped + self.backlog()
        return self.dropped / total if total else 0.0

    def backlog(self) -> int:
        """Blocks currently queued at servers."""
        return sum(len(server.queue) for server in self.servers)
