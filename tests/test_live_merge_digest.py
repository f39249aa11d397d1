"""Pin the E-LIVE / E-LIVE-CHAOS merges byte for byte.

``results/live.json`` and ``results/live_chaos.json`` are regenerated from
cell payloads by each plan's merge.  Fixed, seeded synthetic payloads —
including metrics that no seed produced (all ``None``), metrics only one
engine produced, and hash failures — go through both merges, and the
SHA-256 of each ``to_json()`` must equal the digest recorded here.  A
refactor of the verdict notes or the seed folding that changes one byte
of either artifact fails this test.
"""

import hashlib
import random

import pytest

from repro.experiments import live, live_chaos


def _value(rng, metric, twin):
    if metric == "process_faults_executed":
        kinds = ["kill-server", "kill-peers"][: 2 if twin else rng.randrange(3)]
        return [
            {"kind": kind, "at": 10.0, "duration": 0.0, "fraction": 0.25}
            for kind in kinds
        ]
    if metric == "hash_failures":
        return 0 if twin else rng.randrange(0, 4)
    if metric in (
        "hash_verified", "server_restarts", "restored_rank",
        "checkpoint_writes", "peer_proc_restarts",
    ):
        return rng.randrange(1, 40)
    return round(rng.uniform(0.05, 3.0), 6)


def _payloads(plan, metrics_of, case, salt):
    """One payload per task.  Even cases drop the same metrics on every
    seed of both engines (no samples on either side); odd cases drop
    different ones per engine; case 4 gives both engines equal values
    (every verdict agrees); case 5 leaves the live side with nothing.
    Any metric may also go missing on a single cell."""
    rng = random.Random(salt + case)
    all_metrics = sorted({m for ms in metrics_of.values() for m in ms})
    shared = set(rng.sample(all_metrics, 1 + case % 3))
    missing = {"sim": shared, "live": set(shared)}
    if case % 2:
        missing["live"] = set(rng.sample(all_metrics, 2))
    if case == 5:
        missing["live"] = set(all_metrics)
    twin = case == 4
    payloads = {}
    for task in plan.tasks:
        side, cell = task.task_id.split(":", 1)
        dropped = set(missing[side])
        if not twin and rng.random() < 0.2:
            dropped.add(rng.choice(all_metrics))
        payloads[task.task_id] = {
            metric: None if metric in dropped else _value(
                random.Random(f"{salt}:{cell}:{metric}") if twin else rng,
                metric, twin,
            )
            for metric in metrics_of[side]
        }
    return payloads


def _digest(result):
    return hashlib.sha256(result.to_json().encode()).hexdigest()[:16]


def _metrics_of(module):
    return {"sim": module.CROSSVAL_METRICS, "live": module.LIVE_METRICS}


LIVE_DIGESTS = [
    "1f66e540bda83d56",
    "84dbadd355772013",
    "1fcb38a9c3a97e88",
    "a21bc9374b6629f2",
    "4522e0b2c3752d8e",
    "d987e58f1d747b85",
]

CHAOS_DIGESTS = [
    "8c7935a1dd2ca1a6",
    "8ed22a57ca132471",
    "27293d58bebe7314",
    "43d565d70fb80ccd",
    "52f2588e86cc5992",
    "00168505b6695dac",
]


@pytest.mark.parametrize("case", range(len(LIVE_DIGESTS)))
def test_live_merge_is_pinned(case):
    plan = live.plan_live()
    payloads = _payloads(plan, _metrics_of(live), case, salt=100)
    assert _digest(plan.merge_payloads(payloads)) == LIVE_DIGESTS[case]


@pytest.mark.parametrize("case", range(len(CHAOS_DIGESTS)))
def test_live_chaos_merge_is_pinned(case):
    plan = live_chaos.plan_live_chaos()
    payloads = _payloads(plan, _metrics_of(live_chaos), case, salt=200)
    assert _digest(plan.merge_payloads(payloads)) == CHAOS_DIGESTS[case]
