"""Peer-partition sharding of one giant fast-engine session.

The paper's protocol is peer-symmetric and all per-peer rates are
normalized (λ, μ, γ, c are *per peer per unit time*), so a session of
``N`` peers factorizes into ``W`` independent sessions of ``N/W`` peers
with the same normalized parameters — the populations never interact
through anything but the (linear) aggregate statistics.  That makes the
scale-out embarrassingly parallel: each shard runs on its own worker
with its own derived seed, returns a *pure* payload of sufficient
statistics, and :func:`merge_shard_payloads` folds them into one
flat report deterministically.

Merge contract (what the ``smoke (scale)`` CI job asserts): payloads are
JSON-round-trippable, contain **no host-dependent values** (no wall
times, no RSS — those ride the runner's telemetry channel), and the
merge sorts by shard index first, so the merged report is byte-identical
regardless of worker count or completion order.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.core.params import Parameters
from repro.fastsim.system import DelayAccumulator, FastCollectionSystem
from repro.sim.metrics import fold_report
from repro.sim.rng import SeedSequenceRegistry

#: Payload schema version (bump on incompatible payload changes).
PAYLOAD_SCHEMA = 1


def shard_parameters(params: Parameters, shards: int) -> List[Parameters]:
    """Split *params* into per-shard parameter sets (peer partition).

    The remainder of ``n_peers / shards`` is spread over the first
    shards, so shard sizes differ by at most one peer.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if params.n_peers < shards:
        raise ValueError(
            f"cannot split n_peers={params.n_peers} into {shards} shards"
        )
    base, remainder = divmod(params.n_peers, shards)
    out = []
    for index in range(shards):
        size = base + (1 if index < remainder else 0)
        out.append(
            params.with_changes(
                n_peers=size,
                n_servers=min(params.n_servers, size),
            )
        )
    return out


def shard_seed(seed: int, shard_index: int) -> int:
    """Derived root seed of one shard (independent named substream)."""
    return SeedSequenceRegistry(seed).spawn(f"shard:{shard_index}").root_seed


def run_shard(
    params: Parameters,
    seed: int,
    shard_index: int,
    shards: int,
    warmup: float,
    duration: float,
) -> Dict[str, Any]:
    """Run one shard of the partitioned session; return its payload.

    The payload is a pure function of ``(params, seed, shard_index,
    shards, warmup, duration)``: plain ints/floats/lists only, nothing
    host-dependent, so it survives a JSON round trip byte-identically.
    An invariant breach is *reported* (``monitors_clean: False``) rather
    than raised, so a sharded run surfaces the failure in the merged
    result instead of killing the worker pool.
    """
    shard_params = shard_parameters(params, shards)[shard_index]
    system = FastCollectionSystem(shard_params, shard_seed(seed, shard_index))
    monitors_clean = True
    violation = ""
    from repro.chaos.monitors import InvariantViolation

    try:
        system.run(warmup, duration)
    except InvariantViolation as error:
        monitors_clean = False
        violation = str(error)
    return {
        "schema": PAYLOAD_SCHEMA,
        "shard": shard_index,
        "shards": shards,
        # config echo, window, counters and averages
        **system.metrics.snapshot(system.now),
        "delays": {
            "counts": [int(c) for c in system.delays.counts],
            "count": int(system.delays.count),
            "total": float(system.delays.total),
        },
        "events_applied": int(system.events_applied),
        "monitors_clean": monitors_clean,
        "violation": violation,
    }


def merge_shard_payloads(payloads: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold shard payloads into one flat merged report.

    Deterministic and order-blind: payloads are sorted by shard index
    before any floating-point accumulation, so the result is
    byte-identical however the shards were scheduled.  Keys mirror
    :class:`~repro.sim.metrics.MetricsReport` plus ``shards`` and
    ``monitors_clean``.
    """
    if not payloads:
        raise ValueError("merge_shard_payloads needs at least one payload")
    ordered = sorted(payloads, key=lambda p: p["shard"])
    first = ordered[0]
    for payload in ordered:
        if payload["schema"] != PAYLOAD_SCHEMA:
            raise ValueError(
                f"shard {payload['shard']} has payload schema "
                f"{payload['schema']}, expected {PAYLOAD_SCHEMA}"
            )
        if payload["window"] != first["window"]:
            raise ValueError(
                f"shard {payload['shard']} measured window "
                f"{payload['window']}, shard {first['shard']} measured "
                f"{first['window']}; shards must share the horizon"
            )
    delays = DelayAccumulator()
    for payload in ordered:
        blob = payload["delays"]
        delays.merge_counts(blob["counts"], blob["count"], blob["total"])
    echo = {**first, "n_peers": sum(p["n_peers"] for p in ordered)}
    return {
        **fold_report(echo, ordered, delays.summary(first["segment_size"])),
        "shards": len(ordered),
        "monitors_clean": all(p["monitors_clean"] for p in ordered),
        "violations": [p["violation"] for p in ordered if p["violation"]],
        "engine_events_fired": sum(p["events_applied"] for p in ordered),
    }
