"""Hostile configurations at every boundary that reads one.

The WELCOME frame, ``repro live serve --params-json``, ``repro chaos
replay``, ``repro run --resume`` and a checkpoint restore each decode a
configuration through :mod:`repro.util.codec`.  Every row of ``TABLE`` is
one malformed input — a missing required field, an unknown field, or a
wrongly typed nested field — and every boundary must refuse it in its own
terms (its error class, or exit 2 with one ``error:`` line) naming the
field, never with a traceback.
"""

import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from repro.chaos.shrink import REPRO_FORMAT
from repro.chaos.space import sample_trial
from repro.cli import main
from repro.core.params import Parameters
from repro.experiments.base import SimBudget
from repro.faults.plan import FaultPlan
from repro.live.checkpoint import CheckpointError, load_checkpoint
from repro.live.framing import (
    MAX_PAYLOAD_BYTES,
    FrameDecoder,
    FrameGarbage,
    encode_frame,
)
from repro.live.peer import LivePeer
from repro.live.wire import MAX_LIVE_PEERS
from repro.runner import JournalError, RunJournal, RunSpec
from repro.util.codec import encode

CHECKPOINT = (
    Path(__file__).parent / "fixtures" / "checkpoint_pr16_midrank.ckpt"
)

SESSION = Parameters(
    n_peers=4, arrival_rate=0.25, gossip_rate=1.0, deletion_rate=0.25,
    normalized_capacity=1.0, segment_size=2, n_servers=1, mode="rlnc",
    payload_bytes=8,
)


def _exit_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()  # one line: no traceback
    assert line.startswith("error: ")
    return line


def welcome(tmp_path, capsys, mutate):
    header = {
        "type": "welcome", "slot": 0, "seed": 5, "time_scale": 1.0,
        "epoch": None, "params": mutate(encode(SESSION)),
    }
    peer = LivePeer(None, None, None, "127.0.0.1", 1)
    with pytest.raises(FrameGarbage) as info:
        peer._adopt(header)
    assert peer.params is None
    return str(info.value)


def params_json(tmp_path, capsys, mutate):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(mutate(encode(SESSION))))
    return _exit_2(capsys, ["live", "serve", "--params-json", str(path)])


def chaos_replay(tmp_path, capsys, mutate):
    path = tmp_path / "repro.json"
    path.write_text(json.dumps({
        "format": REPRO_FORMAT,
        "violation": {"monitor": "buffer-cap", "message": "m"},
        "config": mutate(encode(sample_trial(7, 0))),
    }))
    return _exit_2(capsys, ["chaos", "replay", str(path)])


def resume(tmp_path, capsys, mutate):
    spec = RunSpec.create(
        "theorem1", "fast",
        SimBudget(n_peers=20, warmup=1.0, duration=1.0, seeds=(1,)),
    )
    run_dir = tmp_path / "runs" / "r"
    run_dir.mkdir(parents=True)
    (run_dir / "manifest.json").write_text(
        json.dumps({"spec": mutate(encode(spec))})
    )
    with pytest.raises(JournalError):
        RunJournal.load(run_dir).spec()
    return _exit_2(capsys, [
        "run", "theorem1", "--resume", "r", "--no-progress",
        "--runs-dir", str(tmp_path / "runs"),
    ])


def checkpoint(tmp_path, capsys, mutate):
    head, *decoders = FrameDecoder().feed(CHECKPOINT.read_bytes())
    path = tmp_path / "server.ckpt"
    path.write_bytes(b"".join([
        encode_frame(mutate(dict(head.header))),
        *[encode_frame(frame.header, frame.payload) for frame in decoders],
    ]))
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    return str(info.value)


def _drop(key):
    return lambda data: {k: v for k, v in data.items() if k != key}


def _with(key, value, inner=None):
    """Set *key* (inside the mapping at *inner*, when given) to *value*."""
    def mutate(data):
        if inner is None:
            return {**data, key: value}
        return {**data, inner: {**(data[inner] or {}), key: value}}
    return mutate


TABLE = [
    (welcome, "missing", _drop("n_peers"), "n_peers"),
    (welcome, "unknown", _with("bogus", 1), "bogus"),
    (welcome, "nested", _with("outage_windows", [[1, 2, 3]], "faults"),
     "outage_windows"),
    (params_json, "missing", _drop("n_peers"), "n_peers"),
    (params_json, "unknown", _with("bogus", 1), "bogus"),
    (params_json, "nested", _with("outage_windows", [[1, 2, 3]], "faults"),
     "outage_windows"),
    (chaos_replay, "missing", _drop("seed"), "seed"),
    (chaos_replay, "unknown", _with("bogus", 1), "bogus"),
    (chaos_replay, "nested", _with("outage_windows", [[1, 2, 3]], "plan"),
     "outage_windows"),
    (resume, "missing",
     lambda spec: {**spec, "budget": _drop("n_peers")(spec["budget"])},
     "n_peers"),
    (resume, "unknown", _with("bogus", 1), "bogus"),
    (resume, "nested", _with("seeds", [[1]], "budget"), "seeds"),
    (checkpoint, "missing", _drop("seed"), "seed"),
    (checkpoint, "unknown", _with("bogus", 1), "bogus"),
    (checkpoint, "nested", _with("pulls", "many", "counters"), "counters"),
]


@pytest.mark.parametrize(
    "boundary,mutate,field",
    [(boundary, mutate, field) for boundary, _, mutate, field in TABLE],
    ids=[f"{boundary.__name__}-{row}" for boundary, row, _, _ in TABLE],
)
def test_malformed_configuration_is_refused_naming_the_field(
    boundary, mutate, field, tmp_path, capsys
):
    message = boundary(tmp_path, capsys, mutate)
    assert field in message
    assert "Traceback" not in message


class TestWelcomeAllocation:
    """A WELCOME's ``n_peers`` sizes what adoption allocates (the polluter
    cohort over every slot), so it is a hostile size like a frame length:
    above the bound it costs the bytes that arrived, never the peers it
    declares."""

    def adopt(self, n_peers):
        """(refusal or None, adopting peer, traced peak bytes)."""
        session = replace(
            SESSION, n_peers=n_peers, faults=FaultPlan(pollution_fraction=1.0)
        )
        header = {
            "type": "welcome", "slot": 0, "seed": 5, "time_scale": 1.0,
            "epoch": None, "params": encode(session),
        }
        peer = LivePeer(None, None, None, "127.0.0.1", 1)
        refusal = None
        tracemalloc.start()
        try:
            try:
                peer._adopt(header)
            except FrameGarbage as exc:
                refusal = exc
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return refusal, peer, peak

    @pytest.mark.parametrize("n_peers", [MAX_LIVE_PEERS + 1, 200_000])
    def test_above_the_bound_is_refused_cheaply(self, n_peers):
        refusal, peer, peak = self.adopt(n_peers)
        assert refusal is not None and "n_peers" in str(refusal)
        assert peer.params is None
        assert peak < 64 * 1024

    def test_at_the_bound_stays_far_below_the_frame_cap(self):
        refusal, peer, peak = self.adopt(MAX_LIVE_PEERS)
        assert refusal is None
        assert peer.params.n_peers == MAX_LIVE_PEERS
        assert peak < MAX_PAYLOAD_BYTES // 4
