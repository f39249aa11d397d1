"""Statistics payloads (the per-peer record and its codec) and generation workloads."""

from repro.stats.records import (
    FLAG_REBUFFERING,
    RECORD_SIZE,
    RecordCodec,
    StatsRecord,
    synthesize_records,
)
from repro.stats.workload import (
    ConstantWorkload,
    DiurnalWorkload,
    FlashCrowdWorkload,
    PiecewiseWorkload,
    ShutoffWorkload,
    TraceWorkload,
    Workload,
)

__all__ = [
    "FLAG_REBUFFERING",
    "RECORD_SIZE",
    "RecordCodec",
    "StatsRecord",
    "synthesize_records",
    "ConstantWorkload",
    "DiurnalWorkload",
    "FlashCrowdWorkload",
    "PiecewiseWorkload",
    "ShutoffWorkload",
    "TraceWorkload",
    "Workload",
]
