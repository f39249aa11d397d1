"""P2P overlay topologies.

The gossip step transmits "to peer B chosen u.a.r. from among its neighbors"
(Sec. 2), while the ODE analysis of Sec. 3 draws the target u.a.r. from *all*
peers — i.e. it analyzes the mean-field (complete-graph) overlay.  This
module provides both: the complete graph used for the paper's figures, plus
bounded-degree overlays (random regular, Erdos-Renyi) for studying how far a
sparse neighborhood departs from the mean-field prediction.

Topologies are defined over *slots* ``0..n-1``.  The churn replacement model
reuses a departed peer's slot for its replacement, so the overlay itself is
static even under churn (the peer occupying a slot changes, the links do
not) — exactly the decoupling the paper's replacement model is designed for.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.util.randomset import randbelow
from repro.util.validation import require_positive_int, require_probability


class Topology:
    """Interface: who can peer ``slot`` gossip to?"""

    @property
    def n_slots(self) -> int:
        raise NotImplementedError

    def neighbors(self, slot: int) -> Sequence[int]:
        """Neighbor slots of *slot* (never contains *slot* itself)."""
        raise NotImplementedError

    def sample_neighbor(self, slot: int, rng: random.Random) -> Optional[int]:
        """One uniformly random neighbor of *slot*, or None if isolated."""
        candidates = self.neighbors(slot)
        if not candidates:
            return None
        return candidates[rng.randrange(len(candidates))]

    def degree(self, slot: int) -> int:
        """Number of neighbors of *slot*."""
        return len(self.neighbors(slot))

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.n_slots:
            raise ValueError(f"slot {slot} out of range [0, {self.n_slots})")


class CompleteTopology(Topology):
    """Mean-field overlay: every peer neighbors every other peer.

    ``sample_neighbor`` is O(1); ``neighbors`` materializes a list and is
    provided for interface completeness only.
    """

    def __init__(self, n_slots: int) -> None:
        self._n = require_positive_int("n_slots", n_slots)

    @property
    def n_slots(self) -> int:
        return self._n

    def neighbors(self, slot: int) -> List[int]:
        self._check_slot(slot)
        return [other for other in range(self._n) if other != slot]

    def sample_neighbor(self, slot: int, rng: random.Random) -> Optional[int]:
        """One uniformly random other slot.  *slot* is not range-checked per
        draw: the collection system checks its topology once, at start."""
        if self._n == 1:
            return None
        other = randbelow(rng, self._n - 1)
        return other if other < slot else other + 1

    def degree(self, slot: int) -> int:
        self._check_slot(slot)
        return self._n - 1


class ExplicitTopology(Topology):
    """Overlay given by an explicit adjacency mapping (symmetrized)."""

    def __init__(self, n_slots: int, adjacency: Dict[int, Sequence[int]]) -> None:
        self._n = require_positive_int("n_slots", n_slots)
        neighbor_sets: List[Set[int]] = [set() for _ in range(self._n)]
        for slot, neighbors in sorted(adjacency.items()):
            if not 0 <= slot < self._n:
                raise ValueError(f"slot {slot} out of range [0, {self._n})")
            for other in neighbors:
                if not 0 <= other < self._n:
                    raise ValueError(f"slot {other} out of range [0, {self._n})")
                if other == slot:
                    raise ValueError(f"self-loop at slot {slot}")
                neighbor_sets[slot].add(other)
                neighbor_sets[other].add(slot)
        self._neighbors: List[List[int]] = [sorted(s) for s in neighbor_sets]

    @property
    def n_slots(self) -> int:
        return self._n

    def neighbors(self, slot: int) -> List[int]:
        self._check_slot(slot)
        return self._neighbors[slot]


def erdos_renyi_topology(
    n_slots: int, edge_probability: float, rng: random.Random
) -> ExplicitTopology:
    """G(n, p) overlay; isolated slots are possible at small p."""
    require_positive_int("n_slots", n_slots)
    require_probability("edge_probability", edge_probability)
    adjacency: Dict[int, List[int]] = {slot: [] for slot in range(n_slots)}
    for a in range(n_slots):
        for b in range(a + 1, n_slots):
            if rng.random() < edge_probability:
                adjacency[a].append(b)
    return ExplicitTopology(n_slots, adjacency)


def random_regular_topology(
    n_slots: int, degree: int, rng: random.Random, max_attempts: int = 200
) -> ExplicitTopology:
    """Random *degree*-regular overlay via the configuration model.

    Pairs up ``n * degree`` half-edge stubs uniformly and retries on
    self-loops or multi-edges (rejection gives the uniform simple-graph
    distribution asymptotically and is fast for the moderate degrees an
    overlay uses).  ``n * degree`` must be even and ``degree < n``.
    """
    require_positive_int("n_slots", n_slots)
    require_positive_int("degree", degree)
    if degree >= n_slots:
        raise ValueError(f"degree {degree} must be < n_slots {n_slots}")
    if (n_slots * degree) % 2 != 0:
        raise ValueError(
            f"n_slots * degree must be even, got {n_slots} * {degree}"
        )
    for _ in range(max_attempts):
        # Incremental repair: pair up stubs, keep the good pairs, and
        # reshuffle only the conflicting stubs.  Whole-matching rejection has
        # acceptance probability ~exp(-(d^2-1)/4), hopeless beyond d~4.
        remaining = [slot for slot in range(n_slots) for _ in range(degree)]
        edges: Set[Tuple[int, int]] = set()
        stuck = 0
        while remaining and stuck < 50:
            rng.shuffle(remaining)
            leftover: List[int] = []
            for index in range(0, len(remaining), 2):
                a, b = remaining[index], remaining[index + 1]
                key = (min(a, b), max(a, b))
                if a == b or key in edges:
                    leftover.append(a)
                    leftover.append(b)
                else:
                    edges.add(key)
            stuck = stuck + 1 if len(leftover) == len(remaining) else 0
            remaining = leftover
        if not remaining:
            adjacency: Dict[int, List[int]] = {slot: [] for slot in range(n_slots)}
            for a, b in sorted(edges):
                adjacency[a].append(b)
            return ExplicitTopology(n_slots, adjacency)
    raise RuntimeError(
        f"failed to draw a simple {degree}-regular graph on {n_slots} slots "
        f"in {max_attempts} attempts"
    )
