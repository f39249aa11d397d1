"""Which callables are spanned, and the per-layer metrics read off the spans.

Layers are this repository's module names below ``repro.``.  Every traced
run installs the same spans whatever the workload, so a layer a workload
must not enter shows up as a zero call count rather than as a missing row.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.util.summary import percentile

from bench.trace import Tracer

#: Modules whose public callables get spans.
TRACED_MODULES = (
    "sim.engine",
    "sim.metrics",
    "sim.churn",
    "core.system",
    "core.gossip",
    "core.server",
    "core.peer",
    "core.segments",
    "util.randomset",
    "coding.rlnc",
    "coding.linalg",
    "coding.gf256",
    "faults.injector",
    "adversary.injector",
    "adversary.defense",
    "fastsim.engine",
    "fastsim.system",
    "fastsim.state",
    "live.framing",
    "live.wire",
    "live.transport",
    "live.peer",
    "live.server",
)

#: Callables handed across a layer boundary: (module, class, method,
#: argument).  The callable passed there is spanned under the layer that
#: defined it, so e.g. an event's time is charged to ``core.system`` (whose
#: lambda it is) and not to the engine that fires it.
CALLBACK_ARGUMENTS = (
    ("sim.engine", "Simulator", "schedule", "action"),
    ("sim.engine", "Simulator", "schedule_at", "action"),
    ("sim.engine", "Simulator", "schedule_call", "action"),
    ("sim.engine", "Simulator", "schedule_call_at", "action"),
    ("sim.engine", "PoissonProcess", "__init__", "action"),
    ("sim.engine", "ThinnedPoissonProcess", "__init__", "action"),
    ("sim.churn", "ChurnModel", "__init__", "on_replace"),
    ("core.gossip", "GossipProtocol", "__init__", "store_block"),
    ("core.server", "ServerPool", "__init__", "sample_nonempty_peer"),
    ("core.server", "ServerPool", "__init__", "on_quarantine"),
    ("faults.injector", "FaultInjector", "bind", "pause_servers"),
    ("faults.injector", "FaultInjector", "bind", "resume_servers"),
    ("faults.injector", "FaultInjector", "bind", "kill_slots"),
    ("adversary.injector", "AdversaryInjector", "bind", "kill_slots"),
    ("adversary.injector", "AdversaryInjector", "bind", "get_generation"),
)

#: Layers only ``event_rlnc`` and ``live_swarm`` may enter, and layers only
#: ``event_hostile`` may enter; anywhere else their call count must be zero.
CODING_LAYERS = ("coding.rlnc", "coding.linalg", "coding.gf256")
HOSTILE_LAYERS = ("faults.injector", "adversary.injector", "adversary.defense")


def _truthy(args: Tuple[Any, ...], result: Any) -> int:
    return 1 if result else 0


def _gathered_bytes(args: Tuple[Any, ...], result: Any) -> int:
    """Table entries one GF(256) kernel call gathers: the size of its largest
    array operand.  Computed from shapes, not measured."""
    return max(
        (arg.size for arg in args if isinstance(arg, np.ndarray)), default=0
    )


def _event_count(args: Tuple[Any, ...], result: Any) -> int:
    return int(args[1])  # kernel_*(self, count, t0, t1)


#: Work counts taken at the span, per module: callable -> extra.
EXTRAS: Dict[str, Dict[str, Any]] = {
    "core.gossip": {"GossipProtocol.tick": _truthy},
    "coding.rlnc": {"SegmentDecoder.offer": _truthy},
    "coding.gf256": {
        name: _gathered_bytes
        for name in (
            "vec_scale", "vec_addmul", "vec_addmul_rows", "rows_addmul",
            "combine_rows", "vec_mul", "mat_vec", "mat_mul",
        )
    },
    "fastsim.system": {
        f"FastCollectionSystem.kernel_{channel}": _event_count
        for channel in ("inject", "gossip", "pull", "ttl", "churn")
    },
    "live.framing": {"encode_frame": lambda args, result: len(result)},
}

#: ``read_frame`` never goes through ``FrameDecoder.feed``; the synchronous
#: part of receiving a frame is this private helper.
PRIVATE = {"live.framing": ("_parse_header",)}


def install(tracer: Tracer) -> None:
    """Patch every traced layer.  Call before the system is constructed:
    constructors capture bound methods and callbacks."""
    modules = {
        name: importlib.import_module("repro." + name)
        for name in TRACED_MODULES
    }
    for name, module in modules.items():
        tracer.patch_module(
            module, EXTRAS.get(name), PRIVATE.get(name, ())
        )
    for name, cls, method, argument in CALLBACK_ARGUMENTS:
        tracer.patch_callback_argument(
            getattr(modules[name], cls), method, argument
        )


# -- read-out -----------------------------------------------------------------


def layer_totals(stats: Mapping[str, Sequence[float]]) -> Dict[str, List[float]]:
    """Per layer: [calls, self_s] summed over its spans."""
    totals: Dict[str, List[float]] = {}
    for key, (calls, self_s, _total, _extra) in stats.items():
        into = totals.setdefault(key.split(":", 1)[0], [0, 0.0])
        into[0] += calls
        into[1] += self_s
    return totals


def _percentile_ms(samples: Sequence[float], q: float) -> float:
    return 1e3 * percentile(samples, q) if samples else 0.0


def per_layer_metrics(
    window: Mapping[str, Any],
    report: Mapping[str, Any],
    counters: Mapping[str, float],
    window_cpu: float,
    busy: float,
) -> Dict[str, Tuple[float, str]]:
    """Every ``per_layer`` metric of BENCHMARK.json as ``name -> (value, unit)``.

    *window* is the merged span delta of the timed chunks with the tracer's
    own cost taken out, *report* the program's own report for the window,
    *counters* what the workload read from the program's public counters
    (engine perf, join time, loop lag), *busy* the time all synchronous
    spans covered before compensation.
    """
    stats = window["stats"]
    waits = window["waits"]
    layers = layer_totals(stats)
    zero = (0, 0.0, 0.0, 0)

    def calls(layer: str) -> float:
        return layers.get(layer, zero)[0]

    def self_s(layer: str) -> float:
        return layers.get(layer, zero)[1]

    def span(key: str) -> Sequence[float]:
        return stats.get(key, zero)

    def ratio(useful: float, attempts: float) -> float:
        return useful / attempts if attempts else 0.0

    out: Dict[str, Tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = (value, unit)

    fired = counters.get("events_fired", 0)
    put("sim.engine.events_fired", fired, "count")
    put("sim.engine.events_cancelled", counters.get("events_cancelled", 0), "count")
    put("sim.engine.heap_compactions", counters.get("heap_compactions", 0), "count")
    put("sim.engine.self_s", self_s("sim.engine"), "s")
    put("sim.engine.us_per_event", 1e6 * ratio(self_s("sim.engine"), fired), "us")

    put("core.system.self_s", self_s("core.system"), "s")
    for layer in (
        "core.gossip", "core.server", "core.peer", "core.segments",
        "util.randomset", "sim.metrics",
    ):
        put(f"{layer}.calls", calls(layer), "count")
        put(f"{layer}.self_s", self_s(layer), "s")
    tick = span("core.gossip:GossipProtocol.tick")
    put("core.gossip.transfer_ratio", ratio(tick[3], tick[0]), "ratio")
    entered_core = calls("core.server") > 0
    put(
        "core.server.useful_ratio",
        ratio(report["useful_pulls"], report["pulls"]) if entered_core else 0.0,
        "ratio",
    )

    recode = span("coding.rlnc:recode")
    offer = span("coding.rlnc:SegmentDecoder.offer")
    put("coding.rlnc.recode_calls", recode[0], "count")
    put("coding.rlnc.recode_self_s", recode[1], "s")
    put("coding.rlnc.offer_calls", offer[0], "count")
    put("coding.rlnc.offer_self_s", offer[1], "s")
    put("coding.rlnc.innovative_ratio", ratio(offer[3], offer[0]), "ratio")
    put("coding.linalg.calls", calls("coding.linalg"), "count")
    put("coding.linalg.self_s", self_s("coding.linalg"), "s")
    put("coding.gf256.calls", calls("coding.gf256"), "count")
    put("coding.gf256.self_s", self_s("coding.gf256"), "s")
    put(
        "coding.gf256.bytes",
        sum(s[3] for key, s in stats.items() if key.startswith("coding.gf256:")),
        "B",
    )

    for layer in HOSTILE_LAYERS:
        put(f"{layer}.calls", calls(layer), "count")
        put(f"{layer}.self_s", self_s(layer), "s")
    put(
        "sim.churn.replacements",
        report.get("departures", 0) if entered_core else 0,
        "count",
    )

    kernel = {
        channel: span(f"fastsim.system:FastCollectionSystem.kernel_{channel}")
        for channel in ("inject", "gossip", "pull", "ttl", "churn")
    }
    put("fastsim.engine.steps", kernel["inject"][0], "count")
    put("fastsim.engine.self_s", self_s("fastsim.engine"), "s")
    for channel in ("inject", "gossip", "pull", "ttl", "churn"):
        put(f"fastsim.system.{channel}_s", kernel[channel][1], "s")
    for channel in ("inject", "gossip", "pull", "ttl"):
        put(f"fastsim.system.{channel}_events", kernel[channel][3], "count")
    compact = span("fastsim.state:FastState.compact_segments")
    put("fastsim.state.compactions", compact[0], "count")
    put("fastsim.state.compact_s", compact[1], "s")
    put("fastsim.state.append_s", span("fastsim.state:FastState.append_blocks")[1], "s")
    put("fastsim.state.remove_s", span("fastsim.state:FastState.remove_block_rows")[1], "s")
    put(
        "fastsim.system.report_s",
        span("fastsim.system:FastCollectionSystem.push_averages")[2],
        "s",
    )
    put(
        "fastsim.system.events_per_s",
        ratio(counters.get("events_applied", 0), window_cpu),
        "1/s",
    )

    encode = span("live.framing:encode_frame")
    decode = [
        span("live.framing:_parse_header"),
        span("live.framing:FrameDecoder.feed"),
    ]
    put("live.framing.encode_calls", encode[0], "count")
    put("live.framing.encode_s", encode[1], "s")
    put("live.framing.decode_calls", sum(s[0] for s in decode), "count")
    put("live.framing.decode_s", sum(s[1] for s in decode), "s")
    put("live.framing.bytes", encode[3], "B")
    put("live.wire.calls", calls("live.wire"), "count")
    put("live.wire.self_s", self_s("live.wire"), "s")
    requests = waits.get("live.transport:FramedConnection.request", ())
    put(
        "live.transport.connections_opened",
        len(waits.get("live.transport:FramedConnection.open", ())),
        "count",
    )
    put(
        "live.transport.sends",
        len(waits.get("live.transport:FramedConnection.send", ())),
        "count",
    )
    put("live.transport.requests", len(requests), "count")
    put("live.transport.request_wait_p50_ms", _percentile_ms(requests, 50.0), "ms")
    put("live.transport.request_wait_p99_ms", _percentile_ms(requests, 99.0), "ms")
    is_live = "offers_sent" in report
    put("live.server.pulls", report["pulls"] if is_live else 0, "count")
    put(
        "live.server.useful_ratio",
        ratio(report["useful_pulls"], report["pulls"]) if is_live else 0.0,
        "ratio",
    )
    put("live.server.hash_verified", report.get("hash_verified", 0), "count")
    put("live.peer.offers_sent", report.get("offers_sent", 0), "count")
    put(
        "live.peer.accept_ratio",
        ratio(report["gossip_transfers"], report["offers_sent"]) if is_live else 0.0,
        "ratio",
    )
    put("live.harness.join_s", counters.get("join_s", 0.0), "s")
    lag = counters.get("loop_lag", ())
    put("live.loop.lag_p50_ms", _percentile_ms(lag, 50.0), "ms")
    put("live.loop.lag_p99_ms", _percentile_ms(lag, 99.0), "ms")
    put("live.loop.residual_cpu_s", window_cpu - busy if is_live else 0.0, "s")

    put("trace.unattributed_share", ratio(window_cpu - busy, window_cpu), "ratio")
    put("trace.spans", sum(total[0] for total in layers.values()), "count")
    return out


def zero_call_violations(
    workload: str, stats: Mapping[str, Sequence[float]]
) -> List[str]:
    """Layers that were entered although *workload* must never enter them."""
    layers = layer_totals(stats)
    forbidden: Tuple[str, ...] = ()
    if workload not in ("event_rlnc", "live_swarm"):
        forbidden += CODING_LAYERS
    if workload != "event_hostile":
        forbidden += HOSTILE_LAYERS
    return [
        f"{layer} entered {int(layers[layer][0])} times"
        for layer in forbidden
        if layers.get(layer, (0,))[0]
    ]


