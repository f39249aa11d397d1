"""Vectorized fast path for the abstract-mode simulation.

The event-exact engine (:mod:`repro.core.system`) pays one Python object
per peer and one heap event per protocol action, which caps practical
session sizes in the low tens of thousands of peers.  This package is the
struct-of-arrays rewrite of the *abstract* fidelity mode: peer buffers,
per-segment degrees/collected counts, TTL state and churn state live in
flat numpy columns, and the five Poisson channels (injection, gossip,
server pulls, TTL expiry, churn) advance in vectorized batch steps.

One stepper drives the batch kernels: **tau-leaping** (``tau > 0``), where
each channel fires ``Poisson(rate·tau)`` times per step, with event times
jittered uniformly inside the step (exact for a Poisson process
conditional on the count).  The exact finite-N simulator of the abstract
model is the event engine itself; the fast engine is its approximation.

Fidelity contract: the fast engine simulates the paper's *mean-field
closure* of the protocol — segment selection for gossip emissions and
server pulls uses the network-wide block composition rather than the
chosen peer's private buffer, and gossip-target eligibility reduces to
buffer room.  This is the same idealization under which Sec. 3 derives
the ODE system, so agreement with the event engine is *distributional*
(tested at KS level on delay/overhead curves in ``tests/test_fastsim.py``),
not event-for-event.  Conservation laws, buffer caps and accounting
identities hold exactly and are enforced by the array-level invariant
checks in :meth:`FastCollectionSystem.consistency_check`.
"""

from repro.fastsim.masks import FastAdversaryMasks, FastFaultMasks
from repro.fastsim.shard import (
    merge_shard_payloads,
    run_shard,
    shard_parameters,
)
from repro.fastsim.state import FastState
from repro.fastsim.system import FastCollectionSystem

__all__ = [
    "FastAdversaryMasks",
    "FastCollectionSystem",
    "FastFaultMasks",
    "FastState",
    "merge_shard_payloads",
    "run_shard",
    "shard_parameters",
]
