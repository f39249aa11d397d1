"""The one exit-code table (README, "Exit codes"), command by command.

0 = done; 1 = the check the command exists for failed; 2 = usage or
invalid configuration, exactly one ``error: …`` line on stderr and no
traceback; 3 = checkpointed, resumable.  Everything goes through
``repro.cli.main``, the dispatcher every command shares.  A chaos campaign
exits 1 only on defective code, so that row runs ``python -m repro`` on a
mutated copy of the tree (``tests/mutants.py``).
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.params import Parameters
from tests.mutants import MUTANTS, apply_mutant

FIXTURES = Path(__file__).parent / "lint_fixtures"

#: A budget small enough that a whole experiment grid runs in about a second.
TINY = ["--n-peers", "20", "--warmup", "1", "--duration", "1"]

SESSION = ["--no-progress", "--runs-dir", "{tmp}"]


def _argv(template, tmp_path):
    return [part.replace("{tmp}", str(tmp_path)) for part in template]


@pytest.mark.parametrize(
    "template",
    [
        ["fig3", "--n-peers", "0"],
        ["fig3", "--engine", "fast", "--tau", "0"],
        ["transient", "--engine", "fast"],
        ["ablation-selection", "--engine", "fast"],
        ["run", "adversary", "--engine", "fast", *SESSION],
        ["run", "fig3", "--n-peers", "0", *SESSION],
        ["ablation-ttl", "--duration", "0"],
        ["ablation-ttl", "--warmup", "-1"],
        ["run", "fig3", "--duration", "0", *SESSION],
        ["run", "theorem1", "--warmup", "-1", *SESSION],
        ["run", "fig3", "--tau", "0", *SESSION],
        ["run", "fig3", "--workers", "0", *SESSION],
        ["run", "fig3", "--resume", "no-such-run", *SESSION],
        ["live", "swarm", "--n-peers", "4", "--payload-bytes", "0"],
        ["live", "swarm", "--n-peers", "4", "--proc-fault", "kill-server@1"],
        ["live", "swarm", "--n-peers", "4", "--duration", "0"],
        ["live", "swarm", "--n-peers", "4", "--time-scale", "0"],
        ["live", "serve", "--params-json", "{tmp}/missing.json"],
        ["live", "serve", "--params-json", "{tmp}/round-robin.json"],
        ["chaos", "replay", "{tmp}/missing.json"],
        ["lint", "{tmp}/missing"],
    ],
    ids=lambda template: " ".join(template[:4]),
)
def test_invalid_configuration_exits_2_with_one_error_line(
    template, tmp_path, capsys
):
    # Valid Parameters with a pull policy the live runtime cannot run.
    session = Parameters(
        n_peers=4, arrival_rate=0.5, gossip_rate=1.0, deletion_rate=0.25,
        normalized_capacity=1.0, mode="rlnc", payload_bytes=16,
        pull_policy="round-robin",
    )
    (tmp_path / "round-robin.json").write_text(
        json.dumps(dataclasses.asdict(session))
    )
    assert main(_argv(template, tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()  # one line: no traceback
    assert line.startswith("error: ")


#: The row that needs defective code: a seeded mutant the campaign catches.
VIOLATIONS_MUTANT = "churn-leaks-registry-degree"


@pytest.mark.parametrize(
    "template,code",
    [
        (["theorem1", *TINY], 0),
        (["ablation-ttl", *TINY, "--engine", "fast"], 0),
        (["run", "theorem1", *TINY, *SESSION], 0),
        (["run", "theorem1", *TINY, "--stop-after", "1", *SESSION], 3),
        (["chaos", "run", "--budget", "2", "--seed", "7", *SESSION], 0),
        (
            [
                "chaos", "run", "--budget", "2", "--seed", "7",
                "--max-shrink", "0", *SESSION,
            ],
            1,
        ),
        (
            [
                "chaos", "run", "--budget", "2", "--seed", "7",
                "--stop-after", "1", *SESSION,
            ],
            3,
        ),
        (["lint", "--quiet", str(FIXTURES / "case_clean")], 0),
        (["lint", "--quiet", "--strict", str(FIXTURES / "case_r5")], 1),
        (
            [
                "live", "swarm", "--n-peers", "4", "--warmup", "0.5",
                "--duration", "1", "--time-scale", "4",
            ],
            0,
        ),
    ],
    ids=[
        "experiment-done", "experiment-fast-engine-done", "run-done", "run-checkpointed", "chaos-clean",
        "chaos-violations", "chaos-checkpointed", "lint-clean",
        "lint-findings", "live-swarm-done",
    ],
)
def test_done_failed_and_checkpointed_codes(
    request, template, code, tmp_path, capsys
):
    if request.node.callspec.id == "chaos-violations":
        tree = tmp_path / "tree"
        apply_mutant(MUTANTS[VIOLATIONS_MUTANT], tree)
        done = subprocess.run(
            [sys.executable, "-m", "repro", *_argv(template, tmp_path)],
            cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == code, done.stderr
        assert "Traceback" not in done.stderr
        return
    assert main(_argv(template, tmp_path)) == code
    assert "Traceback" not in capsys.readouterr().err


def test_checkpointed_sweep_resumes_to_done(tmp_path, capsys):
    """Exit 3 means resumable: the same command with --resume reaches 0."""
    session = _argv(["--run-id", "r", *SESSION], tmp_path)
    assert main(["run", "theorem1", *TINY, "--stop-after", "1", *session]) == 3
    assert "continue with 'repro run theorem1 --resume r'" in (
        capsys.readouterr().err
    )
    assert main(["run", "theorem1", "--resume", "r", *session]) == 0


def test_resuming_a_journal_with_tau_zero_exits_2(tmp_path, capsys):
    """A manifest may carry a step size the engine no longer accepts."""
    session = _argv(["--run-id", "r", *SESSION], tmp_path)
    assert main(["run", "theorem1", *TINY, "--stop-after", "1", *session]) == 3
    manifest_path = tmp_path / "r" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["spec"]["budget"]["tau"] = 0.0
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["run", "theorem1", "--resume", "r", *session]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "tau" in line
