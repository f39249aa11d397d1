"""Smoke test of the perf ledger: ``python -m pytest bench/tests``.

Outside tier-1's ``testpaths``.  Runs every workload in ``--quick`` mode
(``--seconds 1``: 0.05 of the nominal sizes), traced and untraced, in fresh
processes exactly as the ledger does.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def ledger(tmp_path_factory) -> dict:
    """One quick traced ledger over all workloads, shared by the tests."""
    out = tmp_path_factory.mktemp("ledger") / "quick.json"
    done = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"), "--quick",
            "--repeats", "1", "--traced", "--out", str(out),
        ],
        stdout=subprocess.PIPE, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout
    return {"path": out, "stdout": done.stdout, **json.loads(out.read_text())}


def test_declared_names_are_well_formed():
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in BENCHMARK[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_emitted_exactly_once(ledger, name):
    entry = ledger["workloads"][name]
    assert entry["correct"]
    assert entry["failed_op_share"] == 0
    assert set(entry["end_to_end"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(entry["per_layer"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    # this workload's section of the output: one untraced and one traced run
    section = ledger["stdout"].split(f"== {name}:")[1].split("\n== ")[0]
    lines = section.splitlines()
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        printed = [line for line in lines if line.startswith(f"  {metric['name']} ")]
        assert len(printed) == 1, metric["name"]
        assert printed[0].split()[2] == metric["unit"]
    for metric in BENCHMARK["end_to_end"]:
        assert entry["end_to_end"][metric["name"]]["median"] > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_layers_a_workload_must_not_enter_are_zero(ledger, name):
    layer = ledger["workloads"][name]["per_layer"]
    if name not in ("event_rlnc", "live_swarm"):
        for metric in ("coding.rlnc.recode_calls", "coding.rlnc.offer_calls",
                       "coding.linalg.calls", "coding.gf256.calls"):
            assert layer[metric]["value"] == 0
    if name != "event_hostile":
        for metric in ("faults.injector.calls", "adversary.injector.calls",
                       "adversary.defense.calls"):
            assert layer[metric]["value"] == 0
    if name != "fastsim_100k":
        assert layer["fastsim.engine.steps"]["value"] == 0
    if name != "live_swarm":
        assert layer["live.framing.encode_calls"]["value"] == 0


def test_a_ledger_compared_with_itself_is_all_ok(ledger):
    done = subprocess.run(
        [sys.executable, str(BENCH / "compare.py"), str(ledger["path"]),
         str(ledger["path"])],
        stdout=subprocess.PIPE, text=True,
    )
    assert done.returncode == 0, done.stdout
    verdicts = [line.split("  (base")[0].split()[-1]
                for line in done.stdout.splitlines()[1:-1]]
    assert verdicts and set(verdicts) == {"ok"}


def test_tracer_restores_every_patched_attribute():
    sys.path[0:0] = [str(BENCH.parent), str(BENCH.parent / "src")]
    from bench import layers, trace
    from repro.coding import gf256
    from repro.core import peer
    from repro.sim.engine import Simulator

    before = (
        vars(Simulator)["schedule_call"], vars(peer.Peer)["add_block"],
        gf256.combine_rows, peer.recode,
    )
    tracer = trace.Tracer()
    layers.install(tracer)
    assert vars(Simulator)["schedule_call"] is not before[0]
    assert peer.recode is not before[3]
    tracer.restore()
    after = (
        vars(Simulator)["schedule_call"], vars(peer.Peer)["add_block"],
        gf256.combine_rows, peer.recode,
    )
    assert all(a is b for a, b in zip(before, after))
