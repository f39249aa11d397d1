"""``repro live`` — deploy the protocol over real sockets.

Three subcommands map onto the three deployment shapes:

- ``repro live swarm`` — everything in one process (server + N peer
  tasks on loopback), run for a fixed window, report to stdout.  This is
  the E-LIVE workhorse and the CI smoke job.
- ``repro live serve`` — a standalone logging-server registry process;
  peers connect to it from anywhere (the docker-compose topology).  It
  waits for its cohort, runs one measured window and prints the
  ``started``/``resumed``, ``marked`` and ``report`` events as JSON lines.
- ``repro live peer`` — one standalone peer process; fetches the entire
  session configuration from the server's WELCOME frame, so it needs
  nothing but the server address.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.params import MODE_RLNC, Parameters
from repro.faults.plan import PROCESS_FAULT_KINDS, FaultPlan
from repro.live.harness import run_swarm, validate_live_params
from repro.live.peer import LivePeer
from repro.live.server import LiveLoggingServer
from repro.live.supervisor import LiveSupervisor
from repro.util.codec import decode
from repro.util.validation import (
    require_nonnegative,
    require_positive,
    usage_error,
)


def parse_proc_fault(spec: str) -> Tuple[str, float, float, float]:
    """Parse one ``KIND@AT[:DURATION[:FRACTION]]`` process-fault spec.

    Examples: ``kill-server@10``, ``stop-server@8:2``,
    ``kill-peers@16:0:0.5`` (kill half the peer processes at t=16).
    """
    try:
        kind, _, rest = spec.partition("@")
        if not rest:
            raise ValueError("missing '@AT'")
        parts = rest.split(":")
        if len(parts) > 3:
            raise ValueError("too many ':' fields")
        at = float(parts[0])
        duration = float(parts[1]) if len(parts) > 1 else 0.0
        fraction = float(parts[2]) if len(parts) > 2 else 0.0
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad process fault {spec!r}: {exc} "
            f"(format: KIND@AT[:DURATION[:FRACTION]], "
            f"kinds: {', '.join(sorted(PROCESS_FAULT_KINDS))})"
        ) from None
    return kind, at, duration, fraction


def _add_params_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-peers", type=int, default=64)
    parser.add_argument("--arrival-rate", type=float, default=0.25,
                        help="per-peer block injection rate lambda")
    parser.add_argument("--gossip-rate", type=float, default=1.0,
                        help="per-peer gossip rate mu")
    parser.add_argument("--deletion-rate", type=float, default=0.25,
                        help="per-block TTL rate gamma")
    parser.add_argument("--capacity", type=float, default=1.0,
                        help="normalized server capacity c")
    parser.add_argument("--segment-size", type=int, default=2)
    parser.add_argument("--n-servers", type=int, default=4)
    parser.add_argument("--payload-bytes", type=int, default=64)
    parser.add_argument("--gossip-loss", type=float, default=0.0)
    parser.add_argument("--pull-loss", type=float, default=0.0)
    parser.add_argument("--pollution", type=float, default=0.0)


def _params_from_args(args: argparse.Namespace) -> Parameters:
    faults: Optional[FaultPlan] = None
    process_faults = tuple(getattr(args, "proc_fault", None) or ())
    if args.gossip_loss or args.pull_loss or args.pollution or process_faults:
        faults = FaultPlan(
            gossip_loss_rate=args.gossip_loss,
            pull_loss_rate=args.pull_loss,
            pollution_fraction=args.pollution,
            process_faults=process_faults,
            process_restart_latency=getattr(args, "restart_latency", 1.0),
        )
    return Parameters(
        n_peers=args.n_peers,
        arrival_rate=args.arrival_rate,
        gossip_rate=args.gossip_rate,
        deletion_rate=args.deletion_rate,
        normalized_capacity=args.capacity,
        segment_size=args.segment_size,
        n_servers=args.n_servers,
        mode=MODE_RLNC,
        payload_bytes=args.payload_bytes,
        faults=faults,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro live",
        description="run the collection protocol over real TCP sockets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    swarm = sub.add_parser("swarm", help="single-process swarm on loopback")
    _add_params_flags(swarm)
    swarm.add_argument("--seed", type=int, default=1)
    swarm.add_argument("--warmup", type=float, default=4.0,
                       help="simulated warmup before MARK")
    swarm.add_argument("--duration", type=float, default=8.0,
                       help="simulated measurement window")
    swarm.add_argument("--time-scale", type=float, default=1.0,
                       help="simulated time units per wall second")
    swarm.add_argument("--json", action="store_true",
                       help="emit the full report as JSON")
    swarm.add_argument("--supervised", action="store_true",
                       help="run server and peers as monitored OS "
                            "processes with crash-restart supervision")
    swarm.add_argument("--peer-procs", type=int, default=4,
                       help="peer processes in --supervised mode")
    swarm.add_argument("--proc-fault", type=parse_proc_fault,
                       action="append", default=None,
                       metavar="KIND@AT[:DUR[:FRAC]]",
                       help="schedule a process fault (repeatable; "
                            "requires --supervised)")
    swarm.add_argument("--restart-latency", type=float, default=1.0,
                       help="sim-time restart latency the simulator "
                            "charges per kill-server fault")

    serve = sub.add_parser("serve", help="standalone logging-server registry")
    _add_params_flags(serve)
    serve.add_argument("--seed", type=int, default=1)
    serve.add_argument("--host", default="0.0.0.0")
    serve.add_argument("--port", type=int, default=0,
                       help="0 binds an ephemeral port (printed on stdout)")
    serve.add_argument("--time-scale", type=float, default=1.0)
    serve.add_argument("--warmup", type=float, default=4.0)
    serve.add_argument("--duration", type=float, default=8.0)
    serve.add_argument("--expect-peers", type=int, default=None,
                       help="start once this many peers joined "
                            "(default: n-peers)")
    serve.add_argument("--params-json", default=None,
                       help="load full session Parameters from this JSON "
                            "file (overrides the parameter flags)")
    serve.add_argument("--checkpoint", default=None,
                       help="decode-state journal path; an existing file "
                            "restores and resumes the window")
    serve.add_argument("--checkpoint-interval", type=float, default=1.0,
                       help="wall seconds between checkpoint writes")

    peer = sub.add_parser("peer", help="standalone peer process")
    peer.add_argument("--server-host", required=True)
    peer.add_argument("--server-port", type=int, required=True)
    peer.add_argument("--slot", type=int, default=None,
                      help="topology slot (default: server-assigned)")
    peer.add_argument("--listen-host", default="127.0.0.1",
                      help="address this peer advertises to the swarm")
    peer.add_argument("--count", type=int, default=1,
                      help="run this many peer tasks in one process")
    return parser


def _serve_params(args: argparse.Namespace) -> Parameters:
    if args.params_json:
        payload = json.loads(Path(args.params_json).read_text())
        return decode(Parameters, payload)
    return _params_from_args(args)


def _emit(event: Dict[str, Any]) -> None:
    print(json.dumps(event), flush=True)


async def _run_serve(args: argparse.Namespace, params: Parameters) -> int:
    """Serve one measured window and print its events and report.

    A fresh server waits for its cohort first; a supervised respawn (the
    checkpoint restored state in ``server.start()``) resumes its window at
    once.  SIGINT/SIGTERM drains at any point: no report, exit 0.
    """
    # Install the drain handlers before anything is observable from the
    # outside (the endpoint line): once a caller can see the port, a
    # SIGTERM must drain gracefully rather than hit the default handler.
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stop.set)
    server = LiveLoggingServer(
        params,
        args.seed,
        time_scale=args.time_scale,
        host=args.host,
        port=args.port,
        checkpoint_path=(
            Path(args.checkpoint) if args.checkpoint else None
        ),
        checkpoint_interval=args.checkpoint_interval,
    )
    await server.start()
    _emit({"host": args.host, "port": server.port})
    try:
        report = await server.measure(
            args.warmup, args.duration, stop, _emit,
            expect_peers=args.expect_peers or params.n_peers,
        )
        if report is not None:
            _emit({"type": "report", "report": report})
        return 0
    finally:
        await server.stop_protocol()
        await server.close()


async def _run_peer(args: argparse.Namespace) -> int:
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stop.set)
    peers: List[LivePeer] = []
    for index in range(args.count):
        slot = None if args.slot is None else args.slot + index
        peers.append(
            LivePeer(
                slot, None, None, args.server_host, args.server_port,
                listen_host=args.listen_host,
            )
        )
    try:
        for peer in peers:
            await peer.start()
        print(
            json.dumps({"slots": [peer.slot for peer in peers]}), flush=True
        )
        waits = [asyncio.ensure_future(p.stopped.wait()) for p in peers]
        stopper = asyncio.ensure_future(stop.wait())
        await asyncio.wait(
            {*waits, stopper}, return_when=asyncio.FIRST_COMPLETED
        )
        for task in [*waits, stopper]:
            task.cancel()
        await asyncio.gather(*waits, stopper, return_exceptions=True)
        return 0
    finally:
        for peer in peers:
            await peer.close()


def _print_summary(report: Dict[str, Any]) -> None:
    lines = [
        ("peers", "n_peers"),
        ("window (sim units)", "window"),
        ("segments completed", "segments_completed"),
        ("normalized throughput", "normalized_throughput"),
        ("efficiency", "efficiency"),
        ("mean block delay", "mean_block_delay"),
        ("mean buffer occupancy", "mean_buffer_occupancy"),
        ("hash verified / failed",
         ("hash_verified", "hash_failures")),
    ]
    print("live swarm report")
    for label, key in lines:
        if isinstance(key, tuple):
            value = " / ".join(str(report.get(k)) for k in key)
        else:
            raw = report.get(key)
            value = (
                f"{raw:.4f}" if isinstance(raw, float) else str(raw)
            )
        print(f"  {label:<24} {value}")


def live_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro live ...``."""
    args = _build_parser().parse_args(argv)
    if args.command == "peer":
        return asyncio.run(_run_peer(args))
    try:
        # An invalid knob is a usage error (exit 2), not a traceback.
        require_positive("time_scale", args.time_scale)
        require_nonnegative("warmup", args.warmup)
        require_positive("duration", args.duration)
        if args.command == "serve":
            params = _serve_params(args)
            validate_live_params(params, supervised=True)
        else:
            params = _params_from_args(args)
            validate_live_params(params, supervised=args.supervised)
            supervisor = LiveSupervisor(
                params, args.seed, args.warmup, args.duration,
                time_scale=args.time_scale, peer_procs=args.peer_procs,
            ) if args.supervised else None
    except (OSError, ValueError) as exc:
        return usage_error(exc)
    if args.command == "serve":
        return asyncio.run(_run_serve(args, params))
    if supervisor is not None:
        report = asyncio.run(supervisor.run())
    else:
        report = asyncio.run(
            run_swarm(
                params,
                args.seed,
                warmup=args.warmup,
                duration=args.duration,
                time_scale=args.time_scale,
            )
        )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _print_summary(report)
    return 0


if __name__ == "__main__":
    sys.exit(live_main())
