"""Supervisor and process-fault-plane coverage (everything short of SIGKILL).

The real end-to-end kill test lives in ``test_live_checkpoint.py``; this
module pins the machinery around it: the unified ``Backoff`` policy, the
``RestartPolicy`` schedule, process-fault plan validation, the chaos
space/shrinker integration, CLI spec parsing, the supervisor's
partitioning and argument validation, and the peer's reconnect path
(exercised in-process by severing a control connection).
"""

import asyncio
import random

import pytest

from repro.chaos.shrink import _candidates
from repro.chaos.space import PlanSpace, TrialConfig
from repro.core.params import Parameters
from repro.faults.injector import sample_process_cohort
from repro.faults.plan import FaultPlan, PROCESS_FAULT_KINDS
from repro.live.cli import parse_proc_fault
from repro.live.ports import Backoff
from repro.live.supervisor import LiveSupervisor, RestartPolicy
from repro.sim.rng import SeedSequenceRegistry
from repro.util.codec import decode, encode


def _params(n_peers=8, **overrides):
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


class TestBackoff:
    def test_unjittered_delays_double_up_to_the_cap(self):
        delays = Backoff(initial=0.1, cap=0.5, attempts=6).delays()
        assert [round(next(delays), 6) for _ in range(5)] == [
            0.1, 0.2, 0.4, 0.5, 0.5,
        ]

    def test_attempts_budget_yields_one_fewer_sleep(self):
        assert len(list(Backoff(initial=0.1, attempts=4).delays())) == 3

    def test_jitter_stays_in_half_to_full_and_is_deterministic(self):
        def draws():
            rng = SeedSequenceRegistry(7).python("live:test:backoff")
            policy = Backoff(initial=0.2, cap=1.0, attempts=8, rng=rng)
            return [delay for _, delay in zip(range(7), policy.delays())]

        first, second = draws(), draws()
        assert first == second  # same named substream -> same schedule
        nominal = [delay for _, delay in zip(
            range(7), Backoff(initial=0.2, cap=1.0, attempts=8).delays()
        )]
        for jittered, base in zip(first, nominal):
            assert 0.5 * base <= jittered <= base

    def test_retry_gives_up_after_the_attempt_budget(self):
        calls = []

        async def failing():
            calls.append(1)
            raise ConnectionError("refused")

        async def scenario():
            policy = Backoff(initial=0.001, cap=0.002, attempts=3)
            with pytest.raises(ConnectionError):
                await policy.retry(failing, retry_on=(ConnectionError,))

        asyncio.run(scenario())
        assert len(calls) == 3

    def test_retry_respects_the_deadline(self):
        calls = []

        async def failing():
            calls.append(1)
            raise ConnectionError("refused")

        async def scenario():
            policy = Backoff(
                initial=10.0, cap=10.0, attempts=0, deadline=0.05
            )
            with pytest.raises(ConnectionError):
                await policy.retry(failing, retry_on=(ConnectionError,))

        asyncio.run(scenario())
        # the first retry's 10s sleep would blow the 50ms deadline
        assert len(calls) == 1

    def test_non_matching_exception_propagates_immediately(self):
        async def failing():
            raise RuntimeError("not retryable")

        async def scenario():
            policy = Backoff(initial=0.001, attempts=5)
            with pytest.raises(RuntimeError):
                await policy.retry(failing, retry_on=(ConnectionError,))

        asyncio.run(scenario())

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            Backoff(initial=0.0)
        with pytest.raises(ValueError):
            Backoff(initial=1.0, cap=0.5)
        with pytest.raises(ValueError):
            Backoff(factor=0.5)
        with pytest.raises(ValueError):
            Backoff(attempts=0)  # unbounded needs a deadline
        with pytest.raises(ValueError):
            Backoff(attempts=0, deadline=0.0)


class TestRestartPolicy:
    def test_delay_schedule_doubles_to_the_cap(self):
        policy = RestartPolicy(
            max_restarts=5, backoff_initial=0.2, backoff_cap=1.0
        )
        # jitter=1.0 -> the nominal (undamped) schedule
        assert [policy.delay(n, 1.0) for n in (1, 2, 3, 4, 5)] == [
            0.2, 0.4, 0.8, 1.0, 1.0,
        ]
        # jitter=0.0 -> half the nominal
        assert policy.delay(1, 0.0) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            RestartPolicy(max_restarts=-1)
        with pytest.raises(ValueError):
            RestartPolicy(backoff_initial=0.0)


class TestProcessFaultPlan:
    def test_valid_plan_sorts_events_by_onset(self):
        plan = FaultPlan(process_faults=(
            ("kill-peers", 16.0, 0.0, 0.5),
            ("kill-server", 10.0, 0.0, 0.0),
        ))
        assert [event[0] for event in plan.process_faults] == [
            "kill-server", "kill-peers",
        ]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="not one of"):
            FaultPlan(process_faults=(("reboot-universe", 1.0, 0.0, 0.0),))

    def test_server_kinds_must_leave_fraction_zero(self):
        with pytest.raises(ValueError, match="fraction at 0"):
            FaultPlan(process_faults=(("kill-server", 1.0, 0.0, 0.5),))

    def test_peer_kinds_need_fraction_in_unit_interval(self):
        with pytest.raises(ValueError, match=r"fraction in \(0, 1\]"):
            FaultPlan(process_faults=(("kill-peers", 1.0, 0.0, 0.0),))
        with pytest.raises(ValueError, match=r"fraction in \(0, 1\]"):
            FaultPlan(process_faults=(("kill-peers", 1.0, 0.0, 1.5),))

    def test_stop_kinds_need_positive_duration(self):
        with pytest.raises(ValueError, match="duration > 0"):
            FaultPlan(process_faults=(("stop-server", 1.0, 0.0, 0.0),))

    def test_kill_server_needs_restart_latency(self):
        with pytest.raises(ValueError, match="process_restart_latency"):
            FaultPlan(
                process_faults=(("kill-server", 1.0, 0.0, 0.0),),
                process_restart_latency=0.0,
            )

    def test_server_faults_refuse_renewal_outages(self):
        with pytest.raises(ValueError, match="cannot be combined"):
            FaultPlan(
                process_faults=(("kill-server", 1.0, 0.0, 0.0),),
                outage_rate=0.1,
                outage_duration=1.0,
            )

    def test_server_fault_windows_must_not_overlap_outage_windows(self):
        with pytest.raises(ValueError, match="must not overlap"):
            FaultPlan(
                process_faults=(("kill-server", 1.0, 0.0, 0.0),),
                process_restart_latency=2.0,
                outage_windows=((2.0, 4.0),),
            )

    def test_server_process_windows_cover_downtime(self):
        plan = FaultPlan(
            process_faults=(
                ("kill-server", 4.0, 0.0, 0.0),
                ("stop-server", 10.0, 3.0, 0.0),
            ),
            process_restart_latency=1.5,
        )
        assert plan.server_process_windows == ((4.0, 5.5), (10.0, 13.0))


class TestCohortSampling:
    def test_cohort_hits_at_least_one_and_at_most_all(self):
        rng = random.Random(5)
        assert len(sample_process_cohort(rng, 0.01, 4)) == 1
        assert len(sample_process_cohort(rng, 1.0, 4)) == 4
        assert len(sample_process_cohort(rng, 0.5, 4)) == 2

    def test_cohort_is_deterministic_per_stream_state(self):
        first = sample_process_cohort(random.Random(9), 0.5, 8)
        second = sample_process_cohort(random.Random(9), 0.5, 8)
        assert first == second


class TestChaosIntegration:
    def test_space_samples_process_faults_that_build(self):
        space = PlanSpace()
        sampled = 0
        for index in range(200):
            config = space.sample(random.Random(1000 + index), index)
            if not config.plan.get("process_faults"):
                continue
            sampled += 1
            plan = config.parameters().faults
            for kind, *_ in plan.process_faults:
                assert kind in PROCESS_FAULT_KINDS
            # process faults never coexist with server outage channels
            assert not config.plan.get("outage_windows")
            assert not config.plan.get("outage_rate")
        assert sampled > 0

    def test_config_round_trips_through_json(self):
        space = PlanSpace()
        for index in range(200):
            config = space.sample(random.Random(2000 + index), index)
            if config.plan.get("process_faults"):
                restored = decode(TrialConfig, encode(config))
                assert (
                    restored.parameters().faults.process_faults
                    == config.parameters().faults.process_faults
                )
                return
        pytest.fail("no sampled config carried process faults")

    def test_shrinker_drops_events_individually_and_wholesale(self):
        config = TrialConfig(
            trial_id=0,
            seed=1,
            params={"n_peers": 16, "n_servers": 2},
            plan={
                "process_faults": [
                    ["kill-server", 2.0, 0.0, 0.0],
                    ["kill-peers", 4.0, 0.0, 0.5],
                ],
                "process_restart_latency": 1.0,
            },
            warmup=0.0,
            duration=4.0,
            every=50,
        )
        candidates = list(_candidates(config))
        fault_lists = [
            tuple(
                tuple(event)
                for event in candidate.plan.get("process_faults", [])
            )
            for candidate in candidates
        ]
        assert () in fault_lists  # whole-channel drop
        assert (("kill-peers", 4.0, 0.0, 0.5),) in fault_lists
        assert (("kill-server", 2.0, 0.0, 0.0),) in fault_lists


class TestProcFaultSpecParsing:
    def test_full_and_partial_specs(self):
        assert parse_proc_fault("kill-server@10") == (
            "kill-server", 10.0, 0.0, 0.0,
        )
        assert parse_proc_fault("stop-server@8:2") == (
            "stop-server", 8.0, 2.0, 0.0,
        )
        assert parse_proc_fault("kill-peers@16:0:0.5") == (
            "kill-peers", 16.0, 0.0, 0.5,
        )

    def test_bad_specs_report_the_format(self):
        import argparse

        for spec in ("kill-server", "kill-server@", "kill-server@x",
                     "kill-server@1:2:3:4"):
            with pytest.raises(argparse.ArgumentTypeError, match="format"):
                parse_proc_fault(spec)


class TestSupervisorValidation:
    def test_peer_partition_is_contiguous_and_complete(self):
        supervisor = LiveSupervisor(
            _params(n_peers=10), seed=1, warmup=1.0, duration=2.0,
            peer_procs=3,
        )
        parts = supervisor._peer_partition()
        assert sum(count for _, count in parts) == 10
        assert [base for base, _ in parts] == [0, 4, 7]
        assert all(count >= 1 for _, count in parts)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            LiveSupervisor(
                _params(), seed=1, warmup=-1.0, duration=2.0,
            )
        with pytest.raises(ValueError):
            LiveSupervisor(
                _params(), seed=1, warmup=1.0, duration=0.0,
            )
        with pytest.raises(ValueError):
            LiveSupervisor(
                _params(n_peers=4), seed=1, warmup=1.0, duration=2.0,
                peer_procs=5,
            )
        with pytest.raises(ValueError):
            LiveSupervisor(
                _params(), seed=1, warmup=1.0, duration=2.0,
                peer_procs=0,
            )


class TestSupervisorStdout:
    @pytest.mark.parametrize("line", [
        b"not json",
        b"[1, 2]",
        b'"report"',
        b'{"port": "x"}',
        b'{"port": null}',
        b'{"type": "started", "epoch": "x"}',
        b'{"type": "resumed", "epoch": [1]}',
        b'{"type": "report", "report": 5}',
        b'{"type": "report"}',
        # over the StreamReader's 64 KiB line limit
        pytest.param(b"x" * 100_000, id="over-long-line"),
        # ...arriving in pieces: the reader overruns on the first, and the
        # tail is still the skipped line, not a port event of its own
        pytest.param(
            (b"x" * 70_000, b'{"port": 1}'), id="over-long-line-in-pieces"
        ),
    ])
    def test_malformed_line_is_skipped_and_the_report_still_arrives(
        self, line
    ):
        from types import SimpleNamespace

        from repro.live.supervisor import _Child

        async def scenario():
            loop = asyncio.get_running_loop()
            supervisor = LiveSupervisor(
                _params(), seed=1, warmup=1.0, duration=2.0,
            )
            server = _Child("server", [])
            supervisor._server = server
            supervisor._epoch = loop.create_future()
            supervisor._report = loop.create_future()
            stdout = asyncio.StreamReader()
            reader = asyncio.create_task(supervisor._read_stdout(
                server, SimpleNamespace(stdout=stdout)
            ))
            *head, tail = line if isinstance(line, tuple) else (line,)
            for piece in head:
                stdout.feed_data(piece)
                await asyncio.sleep(0)  # let the reader see this piece alone
            stdout.feed_data(tail + b"\n")
            stdout.feed_data(b'{"port": 4242}\n')
            stdout.feed_data(b'{"type": "started", "epoch": 7.5}\n')
            stdout.feed_data(b'{"type": "report", "report": {"x": 1}}\n')
            stdout.feed_eof()
            await reader
            return supervisor

        supervisor = asyncio.run(scenario())
        assert supervisor._port == 4242
        assert supervisor._epoch.result() == 7.5
        assert supervisor._report.result() == {"x": 1}

    def test_over_long_stderr_line_is_skipped_and_the_next_kept(self):
        from types import SimpleNamespace

        from repro.live.supervisor import _Child

        async def scenario():
            supervisor = LiveSupervisor(
                _params(), seed=1, warmup=1.0, duration=2.0,
            )
            child = _Child("peer-0", [])
            stderr = asyncio.StreamReader()
            stderr.feed_data(b"e" * 100_000 + b"\n")
            stderr.feed_data(b"Traceback: the line after\n")
            stderr.feed_eof()
            await supervisor._read_stderr(
                child, SimpleNamespace(stderr=stderr)
            )
            return child

        child = asyncio.run(scenario())
        assert list(child.stderr_tail) == ["Traceback: the line after"]

    def test_over_long_stderr_line_arriving_in_pieces_is_skipped_whole(self):
        from types import SimpleNamespace

        from repro.live.supervisor import _Child

        async def scenario():
            supervisor = LiveSupervisor(
                _params(), seed=1, warmup=1.0, duration=2.0,
            )
            child = _Child("peer-0", [])
            stderr = asyncio.StreamReader()
            reader = asyncio.create_task(supervisor._read_stderr(
                child, SimpleNamespace(stderr=stderr)
            ))
            stderr.feed_data(b"e" * 70_000)
            await asyncio.sleep(0)  # the reader overruns on this piece
            stderr.feed_data(b"TAIL-OF-LONG-LINE\nnext line\n")
            stderr.feed_eof()
            await reader
            return child

        child = asyncio.run(scenario())
        assert list(child.stderr_tail) == ["next line"]


class TestPeerReconnect:
    def test_severed_control_connection_heals_in_place(self):
        """Cut one peer's control TCP from the server side; the peer must
        dial back, re-register into its slot, and keep running."""
        from repro.live.peer import LivePeer
        from repro.live.server import LiveLoggingServer

        async def scenario():
            params = _params(n_peers=2)
            server = LiveLoggingServer(params, seed=3)
            await server.start()
            peers = [
                LivePeer(
                    slot, params, 3, "127.0.0.1", server.port,
                    clock=server.clock, listen_host="127.0.0.1",
                )
                for slot in range(2)
            ]
            try:
                for peer in peers:
                    await peer.start()
                await server.wait_for_peers(2, timeout=10.0)
                await server.begin()
                # sever peer 0's control link as a crash would
                await server.peers[0].conn.close()
                for _ in range(200):
                    if peers[0].reconnects >= 1 and 0 in server.peers:
                        if not server.peers[0].conn.is_closing:
                            break
                    await asyncio.sleep(0.05)
                assert peers[0].reconnects == 1
                assert 0 in server.peers
                assert not server.peers[0].conn.is_closing
            finally:
                await asyncio.gather(
                    *(peer.close() for peer in peers),
                    return_exceptions=True,
                )
                await server.close()

        asyncio.run(scenario())
