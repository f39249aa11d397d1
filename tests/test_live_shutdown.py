"""Graceful-shutdown coverage for the live runtime.

Every scenario runs under **asyncio debug mode** and asserts, from inside
the still-running loop, that teardown left no pending tasks behind; after
the loop exits, a forced GC under a ResourceWarning trap asserts no
transport was left unclosed.  Covered: full-swarm teardown, one peer
disconnecting mid-transfer while the swarm keeps running, server drain
(the SIGTERM path both in-process and as a real signal to a
``repro live serve`` subprocess, before and inside its window), and the
docker-compose shape: a plain ``serve`` plus a ``peer --count`` process
runs one window and prints its report.
"""

import asyncio
import gc
import json
import os
import signal
import subprocess
import sys
import time
import warnings

import pytest

from repro.core.params import Parameters
from repro.live.clock import LiveClock
from repro.live.harness import run_swarm
from repro.live.peer import LivePeer
from repro.live.server import LiveLoggingServer


def _params(n_peers=4, **overrides):
    defaults = dict(
        n_peers=n_peers,
        arrival_rate=0.5,
        gossip_rate=2.0,
        deletion_rate=0.25,
        normalized_capacity=1.0,
        segment_size=2,
        n_servers=2,
        mode="rlnc",
        payload_bytes=32,
    )
    defaults.update(overrides)
    return Parameters(**defaults)


def run_clean(coro_factory):
    """Drive a scenario in asyncio debug mode and police its teardown.

    The scenario coroutine must tear down everything it started; after it
    returns we assert the loop's task table holds nothing but ourselves,
    and after the loop is gone we collect garbage with ResourceWarning
    recorded — an unclosed transport or event loop surfaces here as a
    test failure instead of interpreter-shutdown noise.
    """

    async def wrapper():
        result = await coro_factory()
        # Let cancellation callbacks scheduled by the teardown settle.
        await asyncio.sleep(0)
        leftover = [
            task
            for task in asyncio.all_tasks()
            if task is not asyncio.current_task() and not task.done()
        ]
        assert leftover == [], f"pending tasks after teardown: {leftover}"
        return result

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = asyncio.run(wrapper(), debug=True)
        gc.collect()
    leaks = [
        w for w in caught if issubclass(w.category, ResourceWarning)
    ]
    assert leaks == [], f"unclosed resources: {[str(w.message) for w in leaks]}"
    return result


async def _start_swarm(params, seed=11):
    server = LiveLoggingServer(params, seed)
    await server.start()
    peers = [
        LivePeer(slot, params, seed, "127.0.0.1", server.port,
                 clock=server.clock)
        for slot in range(params.n_peers)
    ]
    await asyncio.gather(*(peer.start() for peer in peers))
    await server.wait_for_peers(params.n_peers, timeout=30.0)
    await server.begin(start_delay_wall=0.05)
    return server, peers


async def _teardown(server, peers):
    await asyncio.gather(
        *(peer.close() for peer in peers), return_exceptions=True
    )
    await server.close()


class TestSwarmTeardown:
    def test_full_swarm_close_leaves_nothing_behind(self):
        async def scenario():
            params = _params()
            server, peers = await _start_swarm(params)
            await asyncio.sleep(0.5)  # let gossip and pulls actually flow
            await server.stop_protocol()
            await _teardown(server, peers)
            for peer in peers:
                assert peer.stopped.is_set()
            assert server.draining.is_set()
            assert not server.peers

        run_clean(scenario)

    def test_run_swarm_harness_is_self_cleaning(self):
        async def scenario():
            report = await run_swarm(
                _params(), seed=2, warmup=0.5, duration=1.5, time_scale=4.0
            )
            assert report["engine"] == "live"

        run_clean(scenario)

    def test_teardown_is_clean_even_before_start(self):
        async def scenario():
            params = _params(n_peers=2)
            server = LiveLoggingServer(params, 1)
            await server.start()
            peer = LivePeer(0, params, 1, "127.0.0.1", server.port)
            await peer.start()
            # No START ever broadcast: protocol tasks never spawned.
            await peer.close()
            await server.close()

        run_clean(scenario)

    def test_close_never_loses_a_cancel_to_a_ttl_deadline(self):
        """TTL deadlines firing constantly must not be able to eat a cancel.

        The expiry task used to sit in ``wait_for`` inside ``while True``
        and swallow ``TimeoutError``; on Python < 3.12 a cancellation that
        coincides with the timeout surfaces as exactly that error, the
        cancel was lost and ``close()`` waited forever (about 1 teardown in
        50).  Expiry is a plain loop timer per block now: 200 teardowns,
        each under its own short timeout.
        """

        async def scenario():
            params = _params(arrival_rate=400.0, deletion_rate=400.0)
            clock = LiveClock(1.0)
            clock.start()
            peers = [
                LivePeer(slot, params, 7, "127.0.0.1", 1, clock=clock)
                for slot in range(params.n_peers)
            ]
            for _ in range(50):
                for peer in peers:
                    peer._start_protocol()
                await asyncio.sleep(0.01)
                for peer in peers:
                    await asyncio.wait_for(peer.close(), timeout=1.0)
            assert sum(peer.stats.blocks_expired for peer in peers) > 0

        run_clean(scenario)


class TestPeerDisconnectMidTransfer:
    def test_swarm_survives_an_abrupt_peer_death(self):
        async def scenario():
            params = _params(n_peers=5)
            server, peers = await _start_swarm(params)
            await asyncio.sleep(0.3)
            # Kill one peer abruptly mid-protocol: its listener vanishes,
            # its control connection drops, gossip partners see resets.
            victim = peers[2]
            await victim.close()
            assert victim.stopped.is_set()
            # The swarm keeps running without it.
            await asyncio.sleep(0.4)
            for _ in range(50):
                if 2 not in server.peers:
                    break
                await asyncio.sleep(0.05)
            assert 2 not in server.peers, "registry never saw the death"
            survivors = [p for p in peers if p is not victim]
            alive_metrics = await asyncio.gather(
                *(server.request_metrics(p.slot) for p in survivors)
            )
            assert len(alive_metrics) == len(survivors)
            await server.stop_protocol()
            await _teardown(server, peers)

        run_clean(scenario)

    def test_double_close_is_idempotent(self):
        async def scenario():
            params = _params(n_peers=2)
            server, peers = await _start_swarm(params)
            await peers[0].close()
            await peers[0].close()  # second close must be a no-op
            await server.stop_protocol()
            await _teardown(server, peers)

        run_clean(scenario)


class TestServerDrain:
    def test_server_close_drains_peers_via_bye(self):
        async def scenario():
            params = _params()
            server, peers = await _start_swarm(params)
            await asyncio.sleep(0.3)
            await server.stop_protocol()
            # Drain: the server says BYE on every control connection; each
            # peer's control loop exits and flags itself stopped.
            await server.close()
            assert server.draining.is_set()
            await asyncio.gather(
                *(asyncio.wait_for(p.stopped.wait(), 10.0) for p in peers)
            )
            await asyncio.gather(*(peer.close() for peer in peers))

        run_clean(scenario)

    def test_serve_process_exits_cleanly_on_sigterm(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "live", "serve",
             "--n-peers", "4", "--host", "127.0.0.1", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            endpoint = json.loads(line)
            assert endpoint["port"] > 0  # bound and propagated
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
        assert proc.returncode == 0, f"serve exited {proc.returncode}: {err}"
        assert "Traceback" not in err


def _live(*argv):
    """A ``repro live`` subprocess with line-buffered text pipes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "live", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )


def _serve_with_peers(n_peers, *serve_flags):
    """Start ``serve`` and one ``peer --count n_peers`` process against it."""
    serve = _live(
        "serve", "--n-peers", str(n_peers), "--host", "127.0.0.1",
        "--port", "0", *serve_flags,
    )
    port = json.loads(serve.stdout.readline())["port"]
    peers = _live(
        "peer", "--server-host", "127.0.0.1", "--server-port", str(port),
        "--count", str(n_peers),
    )
    return serve, peers


def _reap(*procs):
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.communicate()


class TestServeWindow:
    def test_sigterm_inside_the_window_drains_at_once(self):
        serve, peers = _serve_with_peers(
            4, "--warmup", "10", "--duration", "20", "--time-scale", "1",
        )
        try:
            started = json.loads(serve.stdout.readline())
            assert started["type"] == "started"
            signalled = time.monotonic()
            serve.send_signal(signal.SIGTERM)
            out, err = serve.communicate(timeout=5)
            elapsed = time.monotonic() - signalled
            peers.communicate(timeout=30)  # BYE: the peers leave too
        finally:
            _reap(serve, peers)
        assert serve.returncode == 0, f"serve exited {serve.returncode}: {err}"
        assert elapsed < 5.0
        assert "Traceback" not in err
        assert '"report"' not in out

    def test_plain_serve_runs_one_window_and_prints_its_report(self):
        """The docker-compose shape: no extra flag, a report at the end."""
        serve, peers = _serve_with_peers(
            8, "--warmup", "2", "--duration", "6", "--time-scale", "2",
            "--arrival-rate", "0.5",
        )
        try:
            out, err = serve.communicate(timeout=60)
            peers.communicate(timeout=30)
        finally:
            _reap(serve, peers)
        assert serve.returncode == 0, f"serve exited {serve.returncode}: {err}"
        events = [json.loads(line) for line in out.splitlines()]
        assert [e["type"] for e in events] == ["started", "marked", "report"]
        report = events[-1]["report"]
        assert report["peers_reporting"] == 8
        assert report["hash_verified"] > 0
        assert report["hash_failures"] == 0
